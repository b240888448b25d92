//! `sixscope serve` — the live telescope daemon.
//!
//! A long-running loop that drives [`Feed`]s (one growing pcap via
//! [`TailFeed`], or the four captures of a simulated experiment via
//! [`SimFeed`]) through the same lanes, consumer and gather the batch
//! pipeline uses, and checkpoints the analysis as it goes:
//!
//! * **Snapshots** — every `--snapshot-every N` revealed records the
//!   current report is written to `--out DIR` as `snapshot-NNNNNN.md`
//!   plus `latest.md`, each via write-to-temp + atomic rename, so a
//!   reader never observes a torn file.
//! * **Status** — one JSON line per checkpoint (packets, sessions, peak
//!   open sessions, late/skipped counts, watermark) to `--status-fd`.
//! * **Shutdown** — SIGTERM/SIGINT set a flag; the loop notices, flushes
//!   a final checkpoint, and exits cleanly (exit code 0).
//!
//! The final checkpoint over a finished pcap is byte-identical to batch
//! `sixscope analyze` over the same file (and, for `--sim`, to
//! `sixscope run` over the same scenario): the daemon's incremental state
//! *is* the batch state once the feeds drain, and disorder falls back to
//! the same sort-and-re-feed path (DESIGN.md §10, §14).

use crate::corpus::Analyzed;
use crate::ingest::{passive_config, scanner_rows, SCANNERS};
use crate::json::Json;
use crate::pipeline::{gather, gathered_result, Drained, FeedConsumer, Lane, StreamSettings};
use crate::{render, tables, Error};
use sixscope_sim::{CompiledVisibility, ExperimentResult, Scenario, ScenarioConfig, Visibility};
use sixscope_telescope::{
    Capture, Feed, IngestStats, SimFeed, TailFeed, TelescopeId, SESSION_TIMEOUT,
};
use sixscope_types::{num_threads, Ipv6Prefix, SimTime};
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What the daemon serves.
pub enum ServeSource {
    /// Follow one growing pcap file (telescope operator mode).
    Pcap(PathBuf),
    /// Run the simulated experiment and replay its captures as a live
    /// source (deterministic testing mode).
    Sim {
        /// Scenario seed.
        seed: u64,
        /// Population scale relative to the paper.
        scale: f64,
    },
}

/// Configuration of one [`serve`] run.
pub struct ServeOptions {
    /// The input feed.
    pub source: ServeSource,
    /// Directory receiving `snapshot-NNNNNN.md` and `latest.md`.
    pub out_dir: PathBuf,
    /// Checkpoint every this many revealed records (`None`: only the
    /// final checkpoint).
    pub snapshot_every: Option<NonZeroU64>,
    /// Worker-thread cap (`None` defers to `SIXSCOPE_THREADS`). Output
    /// bytes never depend on it.
    pub threads: Option<usize>,
    /// Feed chunk size in records.
    pub chunk_records: usize,
    /// Render checkpoints as JSON instead of text.
    pub json: bool,
    /// File descriptor receiving one JSON status line per checkpoint.
    pub status_fd: Option<i32>,
    /// Base idle-poll interval for the live tail, in milliseconds.
    pub poll_ms: u64,
    /// Cumulative idle time after which the live tail quiesces, in
    /// milliseconds.
    pub quiesce_ms: u64,
    /// Telescope prefix filter for the pcap source (default `::/0`).
    pub prefix: Ipv6Prefix,
}

impl ServeOptions {
    /// Serves a growing pcap into `out_dir` with default knobs.
    pub fn pcap<P: Into<PathBuf>, O: Into<PathBuf>>(path: P, out_dir: O) -> ServeOptions {
        ServeOptions {
            source: ServeSource::Pcap(path.into()),
            out_dir: out_dir.into(),
            snapshot_every: None,
            threads: None,
            chunk_records: usize::MAX,
            json: false,
            status_fd: None,
            poll_ms: 50,
            quiesce_ms: 2_000,
            prefix: Ipv6Prefix::default_route(),
        }
    }

    /// Serves a simulated experiment into `out_dir` with default knobs.
    pub fn sim<O: Into<PathBuf>>(seed: u64, scale: f64, out_dir: O) -> ServeOptions {
        ServeOptions {
            source: ServeSource::Sim { seed, scale },
            ..ServeOptions::pcap("", out_dir)
        }
    }
}

/// What a finished [`serve`] run reports back.
pub struct ServeSummary {
    /// Numbered snapshots written (the final checkpoint included).
    pub snapshots: usize,
    /// Packets admitted into the capture(s).
    pub packets: usize,
    /// Live-feed records dropped as older than the eviction horizon.
    pub late_records: u64,
    /// Path of the final checkpoint (`latest.md`).
    pub latest: PathBuf,
}

/// Set by SIGTERM/SIGINT; polled by the serve loop between chunks.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signal_sys {
    //! Minimal libc-free signal binding, same pattern as the packet
    //! crate's `mmap_sys`: declare the symbols we need directly.
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub type Handler = extern "C" fn(i32);
    extern "C" {
        pub fn signal(signum: i32, handler: Handler) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    SHUTDOWN.store(false, Ordering::SeqCst);
    #[cfg(unix)]
    // SAFETY: `on_signal` only touches an atomic, which is async-signal-safe.
    unsafe {
        signal_sys::signal(signal_sys::SIGINT, on_signal);
        signal_sys::signal(signal_sys::SIGTERM, on_signal);
    }
}

/// True once SIGTERM/SIGINT has been received.
fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// The status-line sink: an already-open file descriptor the caller owns.
/// The daemon writes but never closes it.
struct StatusSink {
    #[cfg(unix)]
    file: Option<std::mem::ManuallyDrop<std::fs::File>>,
    #[cfg(not(unix))]
    file: Option<()>,
}

impl StatusSink {
    fn new(fd: Option<i32>) -> StatusSink {
        #[cfg(unix)]
        {
            use std::os::unix::io::FromRawFd;
            StatusSink {
                // SAFETY: the caller passed this fd for us to write to; the
                // ManuallyDrop keeps us from closing a descriptor we do not
                // own.
                file: fd.map(|fd| {
                    std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(fd) })
                }),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = fd;
            StatusSink { file: None }
        }
    }

    fn emit(&mut self, line: &Json) {
        #[cfg(unix)]
        if let Some(file) = &mut self.file {
            use std::io::Write;
            let _ = writeln!(file, "{}", line.render());
            let _ = file.flush();
        }
        #[cfg(not(unix))]
        let _ = line;
    }
}

/// Writes one checkpoint atomically: the report goes to a temp file in
/// `dir`, is renamed to `snapshot-NNNNNN.md`, and the same bytes are then
/// renamed over `latest.md`. Readers only ever see complete files.
fn write_snapshot(dir: &Path, seq: usize, report: &str) -> Result<PathBuf, Error> {
    let io_err = |p: &Path| {
        let path = p.display().to_string();
        move |source| Error::Io {
            path: path.clone(),
            source,
        }
    };
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let tmp = dir.join(".snapshot.tmp");
    let numbered = dir.join(format!("snapshot-{seq:06}.md"));
    let latest = dir.join("latest.md");
    std::fs::write(&tmp, report).map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, &numbered).map_err(io_err(&numbered))?;
    std::fs::write(&tmp, report).map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, &latest).map_err(io_err(&latest))?;
    Ok(latest)
}

/// Renders the `analyze`-style report for a corpus — the exact stdout
/// bytes of `sixscope analyze` (and `merge`) over the same packets, so a
/// serve checkpoint can be `cmp`'d against the batch run.
pub fn analysis_report(analyzed: &Analyzed, stats: &IngestStats, json: bool) -> String {
    let capture = analyzed.capture(TelescopeId::T1);
    let sessions = analyzed.sessions128(TelescopeId::T1);
    let scanners = scanner_rows(capture, sessions, false);
    if json {
        let doc = Json::obj([
            ("stats", crate::cli::stats_json(stats)),
            ("packets", Json::u(capture.len() as u64)),
            ("sessions_128", Json::u(sessions.len() as u64)),
            SCANNERS.entry(&scanners),
        ]);
        return format!("{}\n", doc.render());
    }
    format!(
        "total packets: {}\nsessions (/128): {}, scanners: {}\n\n{}",
        capture.len(),
        sessions.len(),
        scanners.len(),
        SCANNERS.text(&scanners)
    )
}

/// Renders the `run`-style full-tables report — the exact stdout bytes of
/// `sixscope run` over the same corpus.
pub fn tables_report(analyzed: &Analyzed, json: bool) -> String {
    if json {
        return format!("{}\n", render::tables_json(analyzed).render());
    }
    [
        render::render_table2(&tables::table2(analyzed)),
        render::render_table3(&tables::table3(analyzed)),
        render::render_table4(&tables::table4(analyzed)),
        render::render_table5(&tables::table5(analyzed)),
        render::render_table6(&tables::table6(analyzed)),
        render::render_table7(&tables::table7(analyzed)),
        render::render_table8(&tables::table8(analyzed)),
        render::render_headline(&tables::headline(analyzed)),
    ]
    .map(|text| text + "\n")
    .concat()
}

/// Runs the daemon to completion (feed drained, or SIGTERM/SIGINT).
///
/// Both modes run one loop over their lanes — one [`TailFeed`] for a
/// pcap, four [`SimFeed`]s (T1–T4) for a simulation — and checkpoint
/// through one writer. They differ in the base result the lane states are
/// gathered into, the renderer, and whether the round that ends the feeds
/// can still snapshot.
pub fn serve(opts: ServeOptions) -> Result<ServeSummary, Error> {
    install_signal_handlers();
    let settings = StreamSettings {
        chunk_records: opts.chunk_records,
        session_timeout: SESSION_TIMEOUT,
        threads: opts.threads,
    };
    match &opts.source {
        ServeSource::Pcap(path) => {
            let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
            let feed = TailFeed::new(
                Capture::new(passive_config(opts.prefix)),
                path,
                settings.chunk_records,
                settings.session_timeout,
            )
            .poll_interval(Duration::from_millis(opts.poll_ms))
            .quiesce_after(Duration::from_millis(opts.quiesce_ms));
            let mut lanes = [Lane::new(feed, &settings)];
            let mut daemon = Daemon::new(&opts, analysis_report, false);
            let (late, watermark) = daemon.run(
                &mut lanes,
                &compiled,
                &gathered_result,
                TailFeed::late_records,
            )?;
            let [lane] = lanes;
            let (capture, stats) = lane.feed.finish();
            let state = lane.consumer.finish(capture, stats, &compiled);
            daemon.finish(gathered_result(), vec![state], late, watermark)
        }
        ServeSource::Sim { seed, scale } => {
            let mut config = ScenarioConfig::new(*seed, *scale);
            config.threads = opts.threads;
            let (mut result, _sim) = Scenario::new(config).run_timed();
            let compiled = CompiledVisibility::compile(&result.visibility);
            // The lanes borrow the captures; the rest of the result is the
            // base every checkpoint is gathered into.
            let captures = std::mem::take(&mut result.captures);
            let mut lanes: Vec<_> = captures
                .values()
                .map(|capture| Lane::new(SimFeed::new(capture, settings.chunk_records), &settings))
                .collect();
            let render = |analyzed: &Analyzed, _: &IngestStats, json| tables_report(analyzed, json);
            let mut daemon = Daemon::new(&opts, render, true);
            let (late, watermark) =
                daemon.run(&mut lanes, &compiled, &|| metadata_of(&result), |_| 0)?;
            let consumers: Vec<FeedConsumer> =
                lanes.into_iter().map(|lane| lane.consumer).collect();
            let states = captures
                .into_values()
                .zip(consumers)
                .map(|(capture, consumer)| {
                    consumer.finish(capture, IngestStats::default(), &compiled)
                })
                .collect();
            daemon.finish(result, states, late, watermark)
        }
    }
}

/// A copy of the simulated run's metadata around no captures — the base a
/// mid-run checkpoint gathers its revealed prefixes into. The counters are
/// carried over whole: they describe the run, not the reveal.
fn metadata_of(result: &ExperimentResult) -> ExperimentResult {
    ExperimentResult {
        layout: result.layout.clone(),
        schedule: result.schedule.clone(),
        captures: BTreeMap::new(),
        events: result.events.clone(),
        visibility: result.visibility.clone(),
        population: result.population.clone(),
        hitlist: result.hitlist.clone(),
        t4_responses: result.t4_responses,
        dropped_unrouted: result.dropped_unrouted,
        truncated_probes: result.truncated_probes,
    }
}

/// The serve loop and its checkpoint writer, shared by both modes.
struct Daemon<'o> {
    opts: &'o ServeOptions,
    status: StatusSink,
    /// Checkpoints written so far.
    seq: usize,
    /// Report renderer: `analysis_report` for a pcap, `tables_report` for
    /// a simulation.
    render: fn(&Analyzed, &IngestStats, bool) -> String,
    /// Whether the round that ends every lane can still write a snapshot.
    checkpoint_closing_round: bool,
}

impl Daemon<'_> {
    fn new(
        opts: &ServeOptions,
        render: fn(&Analyzed, &IngestStats, bool) -> String,
        checkpoint_closing_round: bool,
    ) -> Daemon<'_> {
        Daemon {
            opts,
            status: StatusSink::new(opts.status_fd),
            seq: 0,
            render,
            checkpoint_closing_round,
        }
    }

    /// The one serve loop: each round pulls one chunk from every lane that
    /// has not ended (so a simulation's four captures interleave
    /// deterministically), then checkpoints once `--snapshot-every` more
    /// records are revealed. It stops when every lane has ended or a
    /// shutdown signal arrives, and returns the late-record count and the
    /// watermark for the final checkpoint.
    ///
    /// A simulated replay checks the round that ends it like any other, so
    /// it can snapshot right before the final checkpoint. A pcap tail
    /// never snapshots on the chunk that ends its feed: that closing drain
    /// goes into the final checkpoint only.
    fn run<F: Feed>(
        &mut self,
        lanes: &mut [Lane<F>],
        compiled: &CompiledVisibility,
        base: &dyn Fn() -> ExperimentResult,
        late: fn(&F) -> u64,
    ) -> Result<(u64, SimTime), Error> {
        let progress = |lanes: &[Lane<F>]| {
            let late_records = lanes.iter().map(|lane| late(&lane.feed)).sum();
            let watermark = lanes.iter().map(|lane| lane.watermark).max();
            (late_records, watermark.unwrap_or(SimTime::EPOCH))
        };
        let every = self.opts.snapshot_every.map(NonZeroU64::get);
        let mut next_snapshot = every;
        while !shutdown_requested() {
            for lane in lanes.iter_mut().filter(|lane| !lane.ended) {
                lane.step(compiled)?;
            }
            let ended = lanes.iter().all(|lane| lane.ended);
            if ended && !self.checkpoint_closing_round {
                break;
            }
            let revealed: u64 = lanes.iter().map(|lane| lane.revealed as u64).sum();
            if next_snapshot.is_some_and(|at| revealed >= at) {
                let states = lanes.iter().map(|lane| lane.snapshot(compiled)).collect();
                let (late_records, watermark) = progress(lanes);
                self.checkpoint("snapshot", base(), states, late_records, watermark)?;
                next_snapshot = every.map(|every| revealed + every - revealed % every);
            }
            if ended {
                break;
            }
        }
        Ok(progress(lanes))
    }

    /// Writes the final checkpoint. Once the feeds have drained, the lane
    /// states are the batch states, so this is byte-identical to the batch
    /// report over the same packets.
    fn finish(
        mut self,
        base: ExperimentResult,
        states: Vec<Drained>,
        late_records: u64,
        watermark: SimTime,
    ) -> Result<ServeSummary, Error> {
        let packets = states.iter().map(|state| state.capture.len()).sum();
        let latest = self.checkpoint("final", base, states, late_records, watermark)?;
        Ok(ServeSummary {
            snapshots: self.seq,
            packets,
            late_records,
            latest,
        })
    }

    /// Gathers `states` into `base`, writes the rendered report as the next
    /// numbered snapshot plus `latest.md`, and emits one status line.
    fn checkpoint(
        &mut self,
        event: &str,
        base: ExperimentResult,
        states: Vec<Drained>,
        late_records: u64,
        watermark: SimTime,
    ) -> Result<PathBuf, Error> {
        self.seq += 1;
        let mut stats = IngestStats::default();
        let (mut packets, mut sessions128, mut sessions64, mut peak) = (0, 0, 0, 0);
        for state in &states {
            stats.absorb(&state.stats);
            packets += state.capture.len();
            sessions128 += state.sessions128.len();
            sessions64 += state.sessions64.len();
            peak = peak.max(state.peak);
        }
        let analyzed = gather(base, states, 0.0, num_threads(self.opts.threads));
        let report = (self.render)(&analyzed, &stats, self.opts.json);
        let latest = write_snapshot(&self.opts.out_dir, self.seq, &report)?;
        self.status.emit(&Json::obj([
            ("event", Json::s(event.to_string())),
            ("snapshot", Json::u(self.seq as u64)),
            ("packets", Json::u(packets as u64)),
            ("sessions_128", Json::u(sessions128 as u64)),
            ("sessions_64", Json::u(sessions64 as u64)),
            ("peak_open_sessions", Json::u(peak as u64)),
            ("late_records", Json::u(late_records)),
            ("skipped", Json::u(stats.skipped_total())),
            ("truncated_tail", Json::Bool(stats.truncated_tail)),
            ("watermark", Json::u(watermark.as_secs())),
        ]));
        Ok(latest)
    }
}
