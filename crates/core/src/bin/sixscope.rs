//! `sixscope` — command-line front end to the toolkit.
//!
//! ```text
//! sixscope run [--seed N] [--scale F] [--out DIR]   run the full experiment
//! sixscope serve <file.pcap|--sim F> [--out DIR]    live telescope daemon
//! sixscope ingest <file.pcap>… [--report out.md]    hardened real-pcap ingest
//! sixscope analyze <telescope-prefix> <file.pcap>…  analyze real captures
//! sixscope shard <file.pcap>… --out f.sixshard      ingest one worker's shard
//! sixscope merge <f.sixshard>…                      gather shards and analyze
//! sixscope schedule <covering/32>                   print the Fig.-2 split plan
//! sixscope classify <addr>…                         RFC 7707 address typing
//! ```
//!
//! Flag handling is shared across subcommands ([`sixscope::cli::Flags`]):
//! flags are `--name value` pairs, everything else is positional, and
//! `--threads N` is accepted everywhere. Errors exit with a per-category
//! code ([`sixscope::Error::exit_code`]): 2 usage, 3 I/O, 4 pcap,
//! 5 BGP, 6 analysis, 7 shard file.

use sixscope::cli::{stats_json, Flags};
use sixscope::json::Json;
use sixscope::serve::{self, ServeOptions};
use sixscope::sim::ScenarioConfig;
use sixscope::{ingest, Error, Pipeline, PipelineOutput};
use sixscope_analysis::addrtype;
use sixscope_analysis::classify::profile_scanners;
use sixscope_telescope::{Capture, SplitSchedule, TelescopeId};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::net::Ipv6Addr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "serve" => cmd_serve(rest),
        "ingest" => cmd_ingest(rest),
        "analyze" => cmd_analyze(rest),
        "shard" => cmd_shard(rest),
        "merge" => cmd_merge(rest),
        "schedule" => cmd_schedule(rest),
        "classify" => cmd_classify(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Error::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sixscope: {err}");
            let mut source = std::error::Error::source(&err);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = std::error::Error::source(cause);
            }
            ExitCode::from(err.exit_code())
        }
    }
}

const USAGE: &str = "\
sixscope — IPv6 network-telescope measurement toolkit

Every subcommand accepts --threads N (worker-thread cap; output bytes
never depend on it).

USAGE:
    sixscope run [--seed N] [--scale F] [--pcap-dir DIR] [--json]
        Run the full 11-month experiment and print all tables
        (--json prints one machine-readable JSON document instead).
        --pcap-dir also writes one pcap per telescope.

    sixscope ingest <capture.pcap> [more.pcap…] [--prefix P] [--report out.md]
            [--chunk N] [--json]
        Stream real pcap captures (LINKTYPE_RAW) with per-record damage
        recovery: damaged records are skipped and counted by reason, a
        file cut off mid-record keeps every complete record. Prints the
        recovery statistics and writes a markdown report (to --report,
        or stdout; --json prints a JSON summary instead). --prefix
        filters to a telescope prefix (default ::/0); --chunk bounds
        memory to N records per read.

    sixscope analyze <telescope-prefix> <capture.pcap> [more.pcap…]
            [--chunk N] [--json]
        Analyze real pcap captures (LINKTYPE_RAW) of a telescope:
        sessions, temporal classes, address selection, tools.

    sixscope serve <capture.pcap | --sim SCALE> [--out DIR]
            [--snapshot-every N] [--status-fd FD] [--prefix P]
            [--seed N] [--poll-ms MS] [--quiesce-ms MS] [--chunk N] [--json]
        Live telescope daemon. Follows a growing pcap (remapping as the
        file grows; records older than the session-eviction horizon are
        counted as late, not replayed into closed sessions) — or, with
        --sim SCALE, replays a simulated experiment as a live source.
        Checkpoints go to --out DIR as snapshot-NNNNNN.md plus latest.md,
        written atomically; --status-fd emits one JSON line per
        checkpoint. SIGTERM/SIGINT flush a final checkpoint and exit 0;
        the final checkpoint over a finished pcap is byte-identical to
        `sixscope analyze` over the same file.

    sixscope shard <capture.pcap> [more.pcap…] --out <file.sixshard>
            [--prefix P] [--chunk N]
        Read one worker's captures into one time-sorted capture and write
        it as one .sixshard file — the scatter side of federated sharding
        (merge sessionizes and indexes it).

    sixscope merge <file.sixshard> [more.sixshard…] [--json]
        Gather .sixshard files (in capture order per telescope) and run
        the full analysis; the output is byte-identical to analyzing the
        concatenated pcaps in one process.

    sixscope schedule <covering-prefix/32> [--weeks-baseline N]
        Print the bi-weekly asymmetric split plan (paper Fig. 2).

    sixscope classify <ipv6-addr> [more…]
        Classify addresses into RFC 7707 target classes.";

fn cmd_run(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["seed", "scale", "pcap-dir", "json", "threads"])?;
    let threads = flags.apply_threads()?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(20230824);
    let scale: f64 = flags.parsed("scale")?.unwrap_or(0.01);
    eprintln!("running experiment seed={seed} scale={scale}…");
    let mut pipeline = Pipeline::simulate(ScenarioConfig::new(seed, scale));
    if let Some(n) = threads {
        pipeline = pipeline.threads(n);
    }
    let analyzed = pipeline.run()?;
    if flags.is_true("json") {
        print!("{}", serve::tables_report(&analyzed, true));
        return Ok(());
    }
    if let Some(dir) = flags.get("pcap-dir") {
        std::fs::create_dir_all(dir).map_err(|source| Error::Io {
            path: dir.to_string(),
            source,
        })?;
        for id in TelescopeId::ALL {
            // Re-encode the summarized capture to a pcap for inspection.
            let path = format!("{dir}/{id}.pcap");
            write_capture_pcap(analyzed.capture(id), &path)?;
            eprintln!("wrote {path}");
        }
    }
    print!("{}", serve::tables_report(&analyzed, false));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(
        args,
        &[
            "sim",
            "seed",
            "prefix",
            "snapshot-every",
            "out",
            "status-fd",
            "poll-ms",
            "quiesce-ms",
            "threads",
            "chunk",
            "json",
        ],
    )?;
    let threads = flags.apply_threads()?;
    let out_dir = flags.get("out").unwrap_or("serve-out").to_string();
    let mut opts = match flags.parsed::<f64>("sim")? {
        Some(scale) => {
            if !flags.positional().is_empty() {
                return Err(Error::Usage(
                    "serve --sim SCALE takes no pcap arguments".into(),
                ));
            }
            let seed: u64 = flags.parsed("seed")?.unwrap_or(20230824);
            ServeOptions::sim(seed, scale, &out_dir)
        }
        None => {
            let [path] = flags.positional() else {
                return Err(Error::Usage(
                    "usage: sixscope serve <capture.pcap | --sim SCALE> [--out DIR]".into(),
                ));
            };
            ServeOptions::pcap(path, &out_dir)
        }
    };
    opts.threads = threads;
    if let Some(n) = flags.chunk()? {
        opts.chunk_records = n;
    }
    // Parsed as `NonZeroU64`, so `--snapshot-every 0` is a usage error.
    opts.snapshot_every = flags.parsed("snapshot-every")?;
    opts.json = flags.is_true("json");
    opts.status_fd = flags.parsed("status-fd")?;
    if let Some(ms) = flags.parsed("poll-ms")? {
        opts.poll_ms = ms;
    }
    if let Some(ms) = flags.parsed("quiesce-ms")? {
        opts.quiesce_ms = ms;
    }
    if let Some(prefix) = flags.parsed("prefix")? {
        opts.prefix = prefix;
    }
    let summary = serve::serve(opts)?;
    eprintln!(
        "serve: {} packets, {} snapshots, {} late records; latest at {}",
        summary.packets,
        summary.snapshots,
        summary.late_records,
        summary.latest.display()
    );
    Ok(())
}

/// Rebuilds raw packets from capture summaries and writes a pcap.
fn write_capture_pcap(capture: &Capture, path: &str) -> Result<(), Error> {
    use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
    use sixscope_telescope::Protocol;
    let io_err = |source| Error::Io {
        path: path.to_string(),
        source,
    };
    let pcap_err = |source| Error::Pcap {
        path: path.to_string(),
        source,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut writer = PcapWriter::new(file).map_err(pcap_err)?;
    for p in capture.packets() {
        let builder = PacketBuilder::new(p.src, p.dst);
        let bytes = match p.protocol {
            Protocol::Icmpv6 => builder.icmpv6_echo_request(0, 0, &p.payload),
            Protocol::Tcp => builder.tcp_syn(
                p.src_port.unwrap_or(0),
                p.dst_port.unwrap_or(0),
                0,
                &p.payload,
            ),
            Protocol::Udp | Protocol::Other => {
                builder.udp(p.src_port.unwrap_or(0), p.dst_port.unwrap_or(0), &p.payload)
            }
        };
        writer
            .write_record(&PcapRecord {
                ts: p.ts,
                ts_micros: 0,
                data: bytes,
            })
            .map_err(pcap_err)?;
    }
    writer.into_inner().map_err(pcap_err)?;
    Ok(())
}

/// Runs the streaming pcap pipeline with the flags every pcap subcommand
/// shares (`--prefix`, `--chunk`, `--threads`), logging per-file recovery
/// statistics to stderr.
fn run_pcap_pipeline(
    files: &[String],
    prefix: Ipv6Prefix,
    flags: &Flags,
) -> Result<PipelineOutput, Error> {
    let mut pipeline = Pipeline::from_pcaps(files).prefix(prefix);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    if let Some(n) = flags.chunk()? {
        pipeline = pipeline.chunk_records(n);
    }
    let out = pipeline.run_detailed()?;
    print_file_stats(&out.file_stats, &out.stats);
    Ok(out)
}

/// Logs per-file recovery statistics (and the total, when there are
/// several files) to stderr, keeping stdout byte-comparable across the
/// pcap and shard paths.
fn print_file_stats(
    file_stats: &[(String, sixscope_telescope::IngestStats)],
    total: &sixscope_telescope::IngestStats,
) {
    for (file, stats) in file_stats {
        eprintln!("{file}: {stats}");
    }
    if file_stats.len() > 1 {
        eprintln!("total: {total}");
    }
}

fn cmd_ingest(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["prefix", "report", "json", "threads", "chunk"])?;
    let files = flags.positional().to_vec();
    if files.is_empty() {
        return Err(Error::Usage(
            "usage: sixscope ingest <capture.pcap>… [--prefix P] [--report out.md]".into(),
        ));
    }
    let prefix: Ipv6Prefix = flags
        .parsed("prefix")?
        .unwrap_or_else(Ipv6Prefix::default_route);
    let out = run_pcap_pipeline(&files, prefix, &flags)?;
    let analyzed = &out.analyzed;
    let sessions = analyzed.sessions128(TelescopeId::T1);
    if flags.is_true("json") {
        let doc = Json::obj([
            ("stats", stats_json(&out.stats)),
            (
                "files",
                Json::Arr(
                    out.file_stats
                        .iter()
                        .map(|(f, s)| {
                            Json::Obj(vec![
                                ("file".to_string(), Json::s(f.clone())),
                                ("stats".to_string(), stats_json(s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "packets",
                Json::u(analyzed.capture(TelescopeId::T1).len() as u64),
            ),
            ("sessions_128", Json::u(sessions.len() as u64)),
            ("scanners", Json::u(profile_scanners(sessions).len() as u64)),
            (
                "peak_open_sessions",
                Json::u(analyzed.peak_open_sessions as u64),
            ),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }
    let report = ingest::render_report(
        analyzed.capture(TelescopeId::T1),
        sessions,
        &out.stats,
        &files.join(", "),
    );
    match flags.get("report") {
        Some(path) => {
            std::fs::write(path, &report).map_err(|source| Error::Io {
                path: path.to_string(),
                source,
            })?;
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["json", "threads", "chunk"])?;
    let [prefix, files @ ..] = flags.positional() else {
        return Err(Error::Usage(
            "usage: sixscope analyze <telescope-prefix> <capture.pcap>…".into(),
        ));
    };
    if files.is_empty() {
        return Err(Error::Usage("no pcap files given".into()));
    }
    let prefix: Ipv6Prefix = prefix
        .parse()
        .map_err(|e| Error::Usage(format!("bad telescope prefix: {e}")))?;
    let out = run_pcap_pipeline(files, prefix, &flags)?;
    print!(
        "{}",
        serve::analysis_report(&out.analyzed, &out.stats, flags.is_true("json"))
    );
    Ok(())
}

fn cmd_shard(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["prefix", "out", "threads", "chunk"])?;
    let files = flags.positional().to_vec();
    if files.is_empty() {
        return Err(Error::Usage(
            "usage: sixscope shard <capture.pcap>… --out <file.sixshard>".into(),
        ));
    }
    let Some(out_path) = flags.get("out") else {
        return Err(Error::Usage(
            "shard needs --out <file.sixshard> (the shard file to write)".into(),
        ));
    };
    let prefix: Ipv6Prefix = flags
        .parsed("prefix")?
        .unwrap_or_else(Ipv6Prefix::default_route);
    let mut pipeline = Pipeline::from_pcaps(&files).prefix(prefix);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    if let Some(n) = flags.chunk()? {
        pipeline = pipeline.chunk_records(n);
    }
    let out = pipeline.to_shard(out_path)?;
    print_file_stats(&out.file_stats, &out.stats);
    eprintln!("wrote {out_path}: {} packets", out.packets);
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["json", "threads"])?;
    let files = flags.positional().to_vec();
    if files.is_empty() {
        return Err(Error::Usage(
            "usage: sixscope merge <file.sixshard>…".into(),
        ));
    }
    let mut pipeline = Pipeline::from_shards(&files);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    let out = pipeline.run_detailed()?;
    print_file_stats(&out.file_stats, &out.stats);
    print!(
        "{}",
        serve::analysis_report(&out.analyzed, &out.stats, flags.is_true("json"))
    );
    Ok(())
}

fn cmd_schedule(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["weeks-baseline", "threads"])?;
    flags.apply_threads()?;
    let [covering] = flags.positional() else {
        return Err(Error::Usage(
            "usage: sixscope schedule <covering-prefix/32>".into(),
        ));
    };
    let covering: Ipv6Prefix = covering
        .parse()
        .map_err(|e| Error::Usage(format!("bad prefix: {e}")))?;
    if covering.len() != 32 {
        return Err(Error::Usage("the paper's schedule splits a /32".into()));
    }
    let mut schedule = SplitSchedule::paper(covering, SimTime::EPOCH);
    if let Some(weeks) = flags.parsed::<u64>("weeks-baseline")? {
        schedule.baseline = sixscope_types::SimDuration::weeks(weeks);
    }
    println!(
        "baseline: {} with {} announced",
        schedule.baseline, covering
    );
    for cycle in 1..=schedule.cycles {
        let set = schedule.announced_set(cycle);
        let (lo, hi) = schedule.new_prefixes(cycle);
        println!(
            "cycle {cycle:>2} @ {}: withdraw all; +1d announce {} prefixes (new: {lo}, {hi})",
            schedule.cycle_start(cycle),
            set.len(),
        );
    }
    println!("\nfinal set:");
    for p in schedule.announced_set(schedule.cycles) {
        println!("  {p}");
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["threads"])?;
    flags.apply_threads()?;
    if flags.positional().is_empty() {
        return Err(Error::Usage("usage: sixscope classify <ipv6-addr>…".into()));
    }
    for s in flags.positional() {
        let addr: Ipv6Addr = s.parse().map_err(|e| Error::Usage(format!("{s}: {e}")))?;
        println!("{s:<42} {}", addrtype::classify(addr));
    }
    Ok(())
}
