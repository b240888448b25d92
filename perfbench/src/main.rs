//! `perfbench` — the sixscope benchmark. See README.md for the workloads,
//! metrics and layer table.
//!
//! ```text
//! perfbench --sixscope BIN --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --sixscope BIN --smoke [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric, each with its value and unit).
//! Lines before it carry the run record and, when tracing, the span tree.

mod inputs;
mod json;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use inputs::{Res, Scales, WorkDir, CANONICAL, SERVE_BATCHES, SHARD_PIECES, SMOKE};
use json::J;
use replay::Counters;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{Bench, Refs, Samples, Tally, Workload};

/// The default seed: the day T1 was first announced in the study.
const DEFAULT_SEED: u64 = 20230824;
/// The scenario every benchmark run simulates: the canonical study
/// (EXPERIMENTS.md's seed). A scenario's cost depends on the population
/// its seed draws — `repro` took 0.59–1.60 s per run over seeds 1–5 — so
/// the benchmark keeps the scenario fixed and lets `--seed` relabel the
/// captures instead; the smoke run simulates its own held-out scenario.
const SCENARIO_SEED: u64 = 20230824;
/// The held-out seed of the smoke run.
const SMOKE_SEED: u64 = 7;

struct Args {
    sixscope: PathBuf,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        sixscope: PathBuf::new(),
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--sixscope" => args.sixscope = PathBuf::from(&value),
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    bad("expected repro, analyze_pcap, shard_merge or serve_tail")
                })?)
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.sixscope.as_os_str().is_empty() {
        return Err("--sixscope <path to the sixscope binary> is required".into());
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload NAME (or --smoke) is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the shared state and prepares the inputs `workloads` need.
fn bench(
    args: &Args,
    scenario_seed: u64,
    seed: u64,
    scales: Scales,
    workloads: &[Workload],
) -> Res<Bench> {
    if !args.sixscope.is_file() {
        return Err(format!("no sixscope binary at {}", args.sixscope.display()));
    }
    let threads = nproc();
    workloads::pin_threads(threads);
    let work = WorkDir::create()?;
    let pcaps = if workloads.iter().any(|&w| w != Workload::Repro) {
        eprintln!(
            "perfbench: preparing captures (scenario {scenario_seed}, scale {}, seed {seed})",
            scales.pcap
        );
        Some(inputs::prepare_pcaps(
            &args.sixscope,
            work.path(),
            scenario_seed,
            seed,
            scales.pcap,
            threads,
        )?)
    } else {
        None
    };
    let mut b = Bench {
        sixscope: args.sixscope.clone(),
        threads,
        scenario_seed,
        seed,
        scales,
        work,
        pcaps,
        refs: Refs::default(),
    };
    for &w in workloads {
        eprintln!("perfbench: reference for {}", w.name());
        b.prepare_refs(w)?;
    }
    Ok(b)
}

fn run(args: &Args) -> Res<bool> {
    if args.smoke {
        return smoke(args);
    }
    let w = args.workload.expect("checked in parse_args");
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let all = if args.trace {
        Workload::ALL.to_vec()
    } else {
        vec![w]
    };
    let b = bench(args, SCENARIO_SEED, seed, CANONICAL, &all)?;
    let mut tally = Tally::default();
    let mut record = run_record(&b, w, args.seconds);
    let metrics = if args.trace {
        traced(&b, w, &mut tally, &mut record)?
    } else {
        let samples = measure(&b, w, args.seconds, 3, &mut tally);
        e2e_metrics(&samples, &mut record)
    };
    Ok(finish(tally, metrics, record))
}

/// Prints the run record and the result line; returns whether every
/// operation passed its gate.
fn finish(tally: Tally, metrics: Vec<(String, f64, &str)>, mut record: Vec<(String, J)>) -> bool {
    let correct = tally.failed == 0 && tally.attempted > 0;
    record.push((
        "error_ratio".into(),
        J::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
    ));
    record.push((
        "failures".into(),
        J::Arr(tally.failures.iter().cloned().map(J::Str).collect()),
    ));
    println!("{}", J::obj([("run_record", J::Obj(record))]).render());
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                J::obj([("value", J::Num(value)), ("unit", J::Str(unit.into()))]),
            )
        })
        .collect();
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(tally.attempted)),
        ("failed", J::Int(tally.failed)),
        ("metrics", J::Obj(metrics)),
    ]);
    println!("{}", result.render());
    correct
}

/// Runs `w` for at least `seconds` and, unless an operation fails,
/// `min_ops` operations. The reference computed just before warms the same
/// code paths.
fn measure(b: &Bench, w: Workload, seconds: f64, min_ops: usize, tally: &mut Tally) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut ops = 0;
    while (ops < min_ops && tally.failed == 0) || start.elapsed().as_secs_f64() < seconds {
        b.op(w, b.threads, tally, &mut samples);
        ops += 1;
    }
    eprintln!(
        "perfbench: {}: {ops} runs in {:.1} s",
        w.name(),
        start.elapsed().as_secs_f64()
    );
    samples
}

fn e2e_metrics(s: &Samples, record: &mut Vec<(String, J)>) -> Vec<(String, f64, &'static str)> {
    let mut metrics = Vec::new();
    let mut counts = Vec::new();
    for (name, unit, values) in [
        ("setup_s", "s", &s.setup_s),
        ("wall_s", "s", &s.wall_s),
        ("cpu_s", "s", &s.cpu_s),
        ("peak_rss_mib", "MiB", &s.peak_rss_mib),
    ] {
        counts.push((name.to_string(), J::Int(values.len() as u64)));
        if !values.is_empty() {
            metrics.push((name.to_string(), median(values), unit));
        }
    }
    // Only `serve_tail` has checkpoints before its final result.
    if !s.checkpoint_ms.is_empty() {
        let t = tail(&s.checkpoint_ms);
        metrics.push(("checkpoint_p50_ms".into(), median(&s.checkpoint_ms), "ms"));
        metrics.push(("checkpoint_tail_ms".into(), t.value, "ms"));
        record.push((
            "checkpoint_tail".into(),
            J::obj([
                ("percentile", J::Num(t.percentile)),
                ("samples_beyond", J::Int(t.beyond as u64)),
                ("samples", J::Int(s.checkpoint_ms.len() as u64)),
            ]),
        ));
    }
    record.push(("samples".into(), J::Obj(counts)));
    record.push(("wall_s_each".into(), nums(&s.wall_s)));
    record.push(("cpu_s_each".into(), nums(&s.cpu_s)));
    metrics
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_record(b: &Bench, w: Workload, seconds: f64) -> Vec<(String, J)> {
    let mut inputs = Vec::new();
    if b.refs.repro.is_some() {
        inputs.push((
            "repro_scenario".to_string(),
            J::obj([("packets", J::Int(b.refs.repro_packets as u64))]),
        ));
    }
    if let Some(p) = &b.pcaps {
        let served = p.serve.data.len() as u64;
        inputs.push((
            "t2_pcap".to_string(),
            J::obj([
                ("records", J::Int(p.t2_records as u64)),
                ("bytes", J::Int(p.t2_bytes as u64)),
                ("pieces", J::Int(SHARD_PIECES as u64)),
            ]),
        ));
        inputs.push((
            "t1_served_pcap".to_string(),
            J::obj([
                ("records", J::Int(p.serve.records() as u64)),
                ("bytes", J::Int(served)),
                ("batches", J::Int(SERVE_BATCHES as u64)),
                ("batch_records", J::Int(p.serve.batch_records as u64)),
            ]),
        ));
    }
    vec![
        ("workload".into(), J::Str(w.name().into())),
        ("seed".into(), J::Int(b.seed)),
        ("scenario_seed".into(), J::Int(b.scenario_seed)),
        (
            "scale".into(),
            J::obj([
                ("repro", J::Num(b.scales.repro)),
                ("pcap", J::Num(b.scales.pcap)),
            ]),
        ),
        ("threads".into(), J::Int(b.threads as u64)),
        ("nproc".into(), J::Int(nproc() as u64)),
        ("seconds".into(), J::Num(seconds)),
        ("inputs".into(), J::Obj(inputs)),
        (
            "git_commit".into(),
            J::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            J::Str(command_line("rustc", &["--version"])),
        ),
    ]
}

/// Per-layer metric → (span or counter, home workload). A metric is read
/// from the selected workload's replay when that replay has it, else from
/// its home workload's replay in the same traced run.
const SPAN_METRICS: &[(&str, Workload)] = &[
    ("packet.pcap_walk", Workload::AnalyzePcap),
    ("packet.parse", Workload::AnalyzePcap),
    ("telescope.feed", Workload::AnalyzePcap),
    ("telescope.sessionize", Workload::AnalyzePcap),
    ("telescope.tail_next_chunk", Workload::ServeTail),
    ("bgp.control_plane", Workload::Repro),
    ("scanners.population_build", Workload::Repro),
    ("sim.run", Workload::Repro),
    ("core.corpus.from_result", Workload::Repro),
    ("core.index.push", Workload::AnalyzePcap),
    ("core.index.finalize", Workload::AnalyzePcap),
    ("core.pipeline.run", Workload::AnalyzePcap),
    ("core.tables.corpus_overview", Workload::Repro),
    ("core.tables.table2", Workload::Repro),
    ("core.tables.table3", Workload::Repro),
    ("core.tables.table4", Workload::Repro),
    ("core.tables.table5", Workload::Repro),
    ("core.tables.table6", Workload::Repro),
    ("core.tables.table7", Workload::Repro),
    ("core.tables.table8", Workload::Repro),
    ("core.tables.headline", Workload::Repro),
    ("core.figures.fig3", Workload::Repro),
    ("core.figures.fig4", Workload::Repro),
    ("core.figures.fig5", Workload::Repro),
    ("core.figures.fig7a", Workload::Repro),
    ("core.figures.fig7b", Workload::Repro),
    ("core.figures.fig8", Workload::Repro),
    ("core.figures.fig9", Workload::Repro),
    ("core.figures.fig10", Workload::Repro),
    ("core.figures.fig11", Workload::Repro),
    ("core.figures.fig12", Workload::Repro),
    ("core.figures.fig13", Workload::Repro),
    ("core.figures.fig14", Workload::Repro),
    ("core.figures.fig15", Workload::Repro),
    ("core.figures.fig16a", Workload::Repro),
    ("core.figures.fig16b", Workload::Repro),
    ("core.figures.fig17", Workload::Repro),
    ("core.render.text", Workload::Repro),
    ("bench.report.experiments", Workload::Repro),
    ("analysis.profile_scanners", Workload::AnalyzePcap),
    ("core.serve.analysis_report", Workload::AnalyzePcap),
    ("core.shardfile.scatter", Workload::ShardMerge),
    ("core.shardfile.encode", Workload::ShardMerge),
    ("core.shardfile.decode", Workload::ShardMerge),
    ("core.shardfile.gather", Workload::ShardMerge),
];

const COUNTER_METRICS: &[(&str, &str, Workload)] = &[
    ("packet.records", "count", Workload::AnalyzePcap),
    ("packet.bytes", "bytes", Workload::AnalyzePcap),
    ("packet.skipped", "count", Workload::AnalyzePcap),
    (
        "telescope.filter_keep_ratio",
        "ratio",
        Workload::AnalyzePcap,
    ),
    ("telescope.sessions128", "count", Workload::AnalyzePcap),
    ("telescope.peak_open", "count", Workload::AnalyzePcap),
    ("sim.packets", "count", Workload::Repro),
    ("sim.dropped_unrouted", "count", Workload::Repro),
    ("sim.truncated_probes", "count", Workload::Repro),
    ("core.shardfile.bytes", "bytes", Workload::ShardMerge),
];

/// Traced/untraced replay pairs and one-thread/`nproc` operation pairs
/// per traced run.
const PAIRS: usize = 2;

fn nums(values: &[f64]) -> J {
    J::Arr(values.iter().map(|&v| J::Num(v)).collect())
}

/// Parent spans whose time not covered by children is reported as
/// `<parent>.unattributed_s`, with their home workload.
const PARENTS: &[(&str, Workload)] = &[
    ("repro", Workload::Repro),
    ("analyze_pcap", Workload::AnalyzePcap),
    ("shard_merge", Workload::ShardMerge),
    ("serve_tail", Workload::ServeTail),
    ("packet", Workload::AnalyzePcap),
    ("core.pipeline.replay", Workload::AnalyzePcap),
    ("core.tables", Workload::Repro),
    ("core.figures", Workload::Repro),
    ("core.serve.checkpoint", Workload::ServeTail),
];

/// The traced run: every workload's layer calls replayed under spans; then
/// the selected workload's replay with tracing on and off (tracing
/// overhead) and its operation at `nproc` and at one thread (parallel
/// speed-up), in alternating pairs.
fn traced(
    b: &Bench,
    w: Workload,
    tally: &mut Tally,
    record: &mut Vec<(String, J)>,
) -> Res<Vec<(String, f64, &'static str)>> {
    let mut tracer = Tracer::new(true);
    let mut counters: BTreeMap<&str, Counters> = BTreeMap::new();
    for r in Workload::ALL {
        eprintln!("perfbench: traced replay of {}", r.name());
        replay::replay(
            b,
            r,
            &mut tracer,
            tally,
            counters.entry(r.name()).or_default(),
        )?;
    }
    // Tracing overhead and parallel speed-up, from alternating pairs.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut at_n, mut at_1) = (Samples::default(), Samples::default());
    for _ in 0..PAIRS {
        eprintln!("perfbench: traced and untraced replay of {}", w.name());
        for (enabled, walls) in [(true, &mut on), (false, &mut off)] {
            let start = Instant::now();
            replay::replay(b, w, &mut Tracer::new(enabled), tally, &mut Counters::new())?;
            walls.push(start.elapsed().as_secs_f64());
        }
        b.op(w, b.threads, tally, &mut at_n);
        b.op(w, 1, tally, &mut at_1);
    }
    let mut serve = Samples::default();
    let serve = if w == Workload::ServeTail {
        &at_n
    } else {
        b.op(Workload::ServeTail, b.threads, tally, &mut serve);
        &serve
    };

    let root = |r: Workload| {
        tracer
            .root(r.name())
            .ok_or(format!("no {} spans", r.name()))
    };
    let pick = |name: &str, home: Workload| -> Res<(f64, u64)> {
        let own = tracer.find(root(w)?, name);
        own.or(tracer.find(root(home)?, name))
            .ok_or(format!("span {name} was not recorded"))
    };
    let mut metrics = Vec::new();
    for &(span, home) in SPAN_METRICS {
        metrics.push((format!("{span}_s"), pick(span, home)?.0, "s"));
    }
    for &(name, unit, home) in COUNTER_METRICS {
        let value = counters[w.name()]
            .get(name)
            .or(counters[home.name()].get(name))
            .ok_or(format!("counter {name} was not recorded"))?;
        metrics.push((name.to_string(), *value, unit));
    }
    for &(parent, home) in PARENTS {
        let id = tracer
            .find_id(root(w)?, parent)
            .or(tracer.find_id(root(home)?, parent))
            .ok_or(format!("span {parent} was not recorded"))?;
        metrics.push((format!("{parent}.unattributed_s"), tracer.self_s(id), "s"));
    }

    metrics.push(("trace.overhead_s".into(), median(&on) - median(&off), "s"));
    if at_1.wall_s.is_empty() || at_n.wall_s.is_empty() {
        return Err("the parallel speed-up runs failed".into());
    }
    let speedup = median(&at_1.wall_s) / median(&at_n.wall_s);
    metrics.push(("parallel.speedup".into(), speedup, "ratio"));
    if serve.checkpoint_ms.is_empty() {
        return Err("the serve checkpoint run failed".into());
    }
    let e2e_ms = serve.checkpoint_ms.iter().sum::<f64>() / serve.checkpoint_ms.len() as f64;
    let serve_root = root(Workload::ServeTail)?;
    let replayed_s: f64 = replay::SERVE_REPLAYED
        .iter()
        .filter_map(|name| tracer.find(serve_root, name))
        .map(|(wall, _)| wall)
        .sum();
    metrics.push((
        "core.serve.checkpoint_unattributed_ms".into(),
        e2e_ms - replayed_s * 1e3 / SERVE_BATCHES as f64,
        "ms",
    ));

    for (id, node) in tracer.nodes().iter().enumerate() {
        let span = J::obj([
            ("span", J::Str(tracer.path(id))),
            ("name", J::Str(node.name.clone())),
            (
                "parent",
                node.parent
                    .map_or(J::Null, |p| J::Str(tracer.nodes()[p].name.clone())),
            ),
            ("wall_s", J::Num(node.wall_s)),
            ("self_s", J::Num(tracer.self_s(id))),
            ("items", J::Int(node.items)),
            ("calls", J::Int(node.calls)),
        ]);
        println!("{}", J::obj([("span", span)]).render());
    }
    record.push((
        "trace".into(),
        J::obj([
            ("traced_replay_s", nums(&on)),
            ("untraced_replay_s", nums(&off)),
            ("wall_s_threads_1", nums(&at_1.wall_s)),
            ("wall_s_threads_n", nums(&at_n.wall_s)),
            (
                "serve_checkpoints",
                J::Int(serve.checkpoint_ms.len() as u64),
            ),
        ]),
    ));
    Ok(metrics)
}

/// All four workloads at tiny scale on a held-out seed, every gate on,
/// then the traced run.
fn smoke(args: &Args) -> Res<bool> {
    let seed = args.seed.unwrap_or(SMOKE_SEED);
    let b = bench(args, seed, seed, SMOKE, &Workload::ALL)?;
    let mut tally = Tally::default();
    for w in Workload::ALL {
        let samples = measure(&b, w, 0.0, 1, &mut tally);
        eprintln!(
            "perfbench: smoke {}: {} timed runs, {} failed operations so far",
            w.name(),
            samples.wall_s.len(),
            tally.failed
        );
    }
    let mut record = run_record(&b, Workload::Repro, 0.0);
    traced(&b, Workload::Repro, &mut tally, &mut record)?;
    Ok(finish(tally, Vec::new(), record))
}
