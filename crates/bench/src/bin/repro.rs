//! `repro` — regenerates every table and figure of the paper and writes
//! EXPERIMENTS.md with paper-vs-measured comparisons.
//!
//! Usage: `cargo run -p sixscope-bench --bin repro --release [-- [scale] [--timing] [--chunk N] [--shards K]]`
//!
//! With `--timing`, prints a per-stage wall-clock breakdown (generate,
//! deliver, streaming, sessionize, index build, tables, figures) plus the
//! process peak RSS and writes it to BENCH_repro.json for machine
//! consumption.

use sixscope::cli::Flags;
use sixscope::json::Json;
use sixscope::sim::ScenarioConfig;
use sixscope::{Error, Pipeline};
use sixscope_bench::report::{figures_section, tables_section};
use sixscope_bench::{comparisons_markdown, peak_rss_kib, take_comparisons, SEED};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Prints a pipeline error (with its cause chain) and exits with the
/// error's CLI exit code.
fn fail(err: &Error) -> ! {
    eprintln!("repro: {err}");
    let mut source = std::error::Error::source(err);
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = std::error::Error::source(cause);
    }
    std::process::exit(err.exit_code() as i32);
}

/// Parses `[scale] [--timing] [--chunk N] [--shards K]`. Anything else —
/// an unknown flag, a scale that is not a number, a missing, zero or
/// non-numeric count — is a usage error (exit 2).
fn parse_args(args: &[String]) -> Result<(f64, bool, Option<usize>, Option<usize>), Error> {
    let flags = Flags::parse(args, &["timing", "chunk", "shards"])?;
    let mut scale = sixscope_bench::SCALE;
    for arg in flags.positional() {
        scale = arg
            .parse()
            .map_err(|_| Error::Usage(format!("scale must be a number, got {arg:?}")))?;
    }
    // Streaming chunk size and shard-file count: output must be
    // byte-identical at any value (the CI equivalence checks drive both).
    let shards = match flags.parsed("shards")? {
        Some(0) => return Err(Error::Usage("--shards must be at least 1".into())),
        other => other,
    };
    Ok((scale, flags.is_true("timing"), flags.chunk()?, shards))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, timing, chunk, shards) = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("usage: repro [scale] [--timing] [--chunk N] [--shards K]");
        fail(&err)
    });
    let threads = sixscope_types::num_threads(None);
    eprintln!(
        "running experiment: seed={SEED} scale={scale} (paper = 1.0), {threads} worker thread(s) …"
    );
    let t0 = Instant::now();
    let (a, sim) = if let Some(pieces) = shards {
        // Scatter/gather round trip: simulate once, write the corpus as
        // `pieces` shard files per telescope, then merge the files back.
        let (result, sim) =
            sixscope::sim::Scenario::new(ScenarioConfig::new(SEED, scale)).run_timed();
        // Keyed on pid, a per-process counter and the caller, like the
        // integration tests' `TempDir`, so concurrent runs never share it.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sixscope-repro-{}-{n}-shards", std::process::id()));
        let merged =
            sixscope::shardfile::write_experiment_shards(&result, pieces, &dir).and_then(|paths| {
                eprintln!("scattered {} shard files to {}", paths.len(), dir.display());
                sixscope::shardfile::merge_experiment(result, &paths, None)
            });
        let _ = std::fs::remove_dir_all(&dir);
        (merged.unwrap_or_else(|e| fail(&e)), sim)
    } else {
        let mut pipeline = Pipeline::simulate(ScenarioConfig::new(SEED, scale));
        if let Some(n) = chunk {
            pipeline = pipeline.chunk_records(n);
        }
        let out = pipeline.run_detailed().expect("simulated runs cannot fail");
        (out.analyzed, out.sim)
    };
    eprintln!(
        "experiment done in {:.1?}: {} packets captured, {} dropped unrouted, {} T4 responses",
        t0.elapsed(),
        a.result.total_packets(),
        a.result.dropped_unrouted,
        a.result.t4_responses,
    );
    if a.result.truncated_probes > 0 {
        eprintln!(
            "warning: generation cap truncated {} probe(s) — a scanner spec is \
             mis-scaled for this run",
            a.result.truncated_probes,
        );
    }

    let mut out = String::new();
    writeln!(out, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        out,
        "Run: seed `{SEED}`, scale `{scale}` (1.0 = the study's ~51M packets).\n\
         Absolute counts scale with `scale`; all shares/ratios are scale-free\n\
         and compared against the paper below.\n"
    )
    .unwrap();

    let tables_start = Instant::now();
    tables_section(&a, &mut out);
    let tables_secs = tables_start.elapsed().as_secs_f64();
    let figures_start = Instant::now();
    figures_section(&a, &mut out);
    let figures_secs = figures_start.elapsed().as_secs_f64();

    writeln!(out, "\n## Comparison summary\n").unwrap();
    let rows = take_comparisons();
    let holds = rows.iter().filter(|r| r.holds).count();
    out.push_str(&comparisons_markdown(&rows));
    writeln!(out, "\n**{holds} of {} shape checks hold.**", rows.len()).unwrap();

    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    eprintln!("wrote EXPERIMENTS.md ({holds}/{} checks hold)", rows.len());

    if timing {
        let stages = [
            ("setup", sim.setup),
            ("generate", sim.generate),
            ("deliver", sim.deliver),
            ("streaming", a.timings.streaming),
            ("sessionize", a.timings.sessionize),
            ("index_build", a.timings.index_build),
            ("tables", tables_secs),
            ("figures", figures_secs),
        ];
        let total = t0.elapsed().as_secs_f64();
        eprintln!("timing breakdown ({threads} worker thread(s)):");
        for (name, secs) in stages {
            eprintln!("  {name:<12} {secs:>8.3} s");
        }
        eprintln!("  {:<12} {total:>8.3} s", "total");
        eprintln!("  peak open sessions: {}", a.peak_open_sessions);
        if let Some(kib) = peak_rss_kib() {
            eprintln!("  peak RSS: {kib} KiB");
        }
        let json = Json::obj([
            ("seed", Json::u(SEED)),
            ("scale", Json::Num(scale)),
            ("threads", Json::u(threads as u64)),
            ("packets", Json::u(a.result.total_packets() as u64)),
            (
                "stages",
                Json::Obj(
                    stages
                        .iter()
                        .map(|&(name, secs)| (name.to_string(), Json::Num(secs)))
                        .collect(),
                ),
            ),
            ("total", Json::Num(total)),
            ("peak_open_sessions", Json::u(a.peak_open_sessions as u64)),
            ("peak_rss_kib", peak_rss_kib().map_or(Json::Null, Json::u)),
        ]);
        std::fs::write("BENCH_repro.json", json.render() + "\n").expect("write BENCH_repro.json");
        eprintln!("wrote BENCH_repro.json");
    }
}
