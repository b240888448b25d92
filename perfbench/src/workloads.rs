//! The four end-to-end workloads, their references and correctness gates.
//!
//! Each workload calls sixscope only through its public API (in process)
//! or its shipped binary (`serve_tail`). One operation is one full run
//! (`repro`, `analyze_pcap`, `shard_merge`) or one checkpoint
//! (`serve_tail`); a failed operation is counted and never timed.

use crate::inputs::{PcapInputs, Res, Scales, WorkDir};
use crate::sys::{self, Reaper};
use sixscope::packet::MappedPcap;
use sixscope::serve::analysis_report;
use sixscope::sim::ScenarioConfig;
use sixscope::Pipeline;
use sixscope_bench::report::{figures_section, tables_section};
use sixscope_bench::{comparisons_markdown, take_comparisons};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Records per streaming chunk on the pcap workloads.
pub const CHUNK_RECORDS: usize = 4096;
/// `serve --poll-ms`.
const POLL_MS: u64 = 1;
/// `serve --quiesce-ms`: idle time after the last batch before the final
/// checkpoint.
const QUIESCE_MS: u64 = 200;
/// A checkpoint status line later than this fails its operation.
const CHECKPOINT_TIMEOUT: Duration = Duration::from_secs(30);
/// Opening and mapping the inputs is timed this many times per operation.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repro,
    AnalyzePcap,
    ShardMerge,
    ServeTail,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::AnalyzePcap,
        Workload::ShardMerge,
        Workload::ServeTail,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::AnalyzePcap => "analyze_pcap",
            Workload::ShardMerge => "shard_merge",
            Workload::ServeTail => "serve_tail",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything an invocation shares across operations.
pub struct Bench {
    pub sixscope: PathBuf,
    pub threads: usize,
    /// The simulated scenario every workload's input comes from.
    pub scenario_seed: u64,
    /// The benchmark seed (relabels the pcap workloads' captures).
    pub seed: u64,
    pub scales: Scales,
    pub work: WorkDir,
    pub pcaps: Option<PcapInputs>,
    pub refs: Refs,
}

/// Reference outputs, computed once per invocation at one thread with the
/// default (unchunked) streaming.
#[derive(Default)]
pub struct Refs {
    /// `repro` report body plus its comparison rows.
    pub repro: Option<String>,
    /// Packets the `repro` scenario simulates.
    pub repro_packets: usize,
    /// `analysis_report` over T2 — the reference of both `analyze_pcap`
    /// and `shard_merge`.
    pub t2: Option<String>,
    /// `analysis_report` over the served T1 file.
    pub t1: Option<String>,
}

/// Attempted and failed operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what.to_string());
            }
        }
        ok
    }
}

/// Timings of successful operations.
#[derive(Default)]
pub struct Samples {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mib: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Per-checkpoint latency (`serve_tail` only).
    pub checkpoint_ms: Vec<f64>,
}

/// Wall time, process CPU time and peak RSS of one in-process call.
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    sys::reset_peak_rss();
    let cpu = sys::process_cpu_s();
    let start = Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cost = Cost {
        wall_s,
        cpu_s: sys::process_cpu_s() - cpu,
        peak_rss_mib: sys::peak_rss_mib(),
    };
    (result, cost)
}

/// Pins the worker-thread count for code that reads `SIXSCOPE_THREADS`
/// (the report layer) as well as the explicit `threads` arguments.
pub fn pin_threads(threads: usize) {
    std::env::set_var("SIXSCOPE_THREADS", threads.to_string());
}

/// An error with its cause chain, as one line.
pub fn err(e: sixscope::Error) -> String {
    let mut msg = e.to_string();
    let mut source = std::error::Error::source(&e);
    while let Some(cause) = source {
        msg.push_str(&format!(": {cause}"));
        source = std::error::Error::source(cause);
    }
    msg
}

// ---------------------------------------------------------------------------
// The calls each workload measures

/// `repro`: simulate, analyze, and render the EXPERIMENTS.md body.
/// Returns the report (body plus comparison rows) and the shape checks
/// holding / recorded.
pub fn repro_report(
    seed: u64,
    scale: f64,
    threads: usize,
) -> Res<(sixscope::PipelineOutput, String, usize, usize)> {
    pin_threads(threads);
    let out = Pipeline::simulate(ScenarioConfig::new(seed, scale))
        .threads(threads)
        .run_detailed()
        .map_err(err)?;
    let (report, holds, checks) = experiments_report(&out.analyzed);
    Ok((out, report, holds, checks))
}

/// The EXPERIMENTS.md body for `a` with its comparison rows appended, and
/// the shape checks holding / recorded.
pub fn experiments_report(a: &sixscope::Analyzed) -> (String, usize, usize) {
    let mut report = String::new();
    tables_section(a, &mut report);
    figures_section(a, &mut report);
    let rows = take_comparisons();
    report.push_str(&comparisons_markdown(&rows));
    let holds = rows.iter().filter(|r| r.holds).count();
    (report, holds, rows.len())
}

/// `analyze_pcap`: stream the T2 capture and render the analyze report.
pub fn analyze_report(
    pcap: &Path,
    prefix: sixscope::types::Ipv6Prefix,
    threads: usize,
    chunk: Option<usize>,
) -> Res<(sixscope::PipelineOutput, String)> {
    pin_threads(threads);
    let mut pipeline = Pipeline::from_pcaps([pcap]).prefix(prefix).threads(threads);
    if let Some(n) = chunk {
        pipeline = pipeline.chunk_records(n);
    }
    let out = pipeline.run_detailed().map_err(err)?;
    let report = analysis_report(&out.analyzed, &out.stats, false);
    Ok((out, report))
}

/// `shard_merge`: scatter every piece to a shard file, gather them all,
/// and render the analyze report.
pub fn shard_merge_report(
    p: &PcapInputs,
    threads: usize,
) -> Res<(sixscope::PipelineOutput, String)> {
    pin_threads(threads);
    for (piece, shard) in p.pieces.iter().zip(&p.shards) {
        Pipeline::from_pcaps([piece])
            .prefix(p.t2_prefix)
            .threads(threads)
            .chunk_records(CHUNK_RECORDS)
            .to_shard(shard)
            .map_err(err)?;
    }
    let out = Pipeline::from_shards(&p.shards)
        .threads(threads)
        .run_detailed()
        .map_err(err)?;
    let report = analysis_report(&out.analyzed, &out.stats, false);
    Ok((out, report))
}

/// Opens and maps `paths` and parses their global headers: the set-up the
/// file workloads do before their first record.
fn open_inputs(paths: &[PathBuf]) -> Res<f64> {
    let start = Instant::now();
    for path in paths {
        let mapped = MappedPcap::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let reader = mapped
            .reader()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        std::hint::black_box(reader.snaplen());
    }
    Ok(start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// References

impl Bench {
    pub fn pcaps(&self) -> &PcapInputs {
        self.pcaps.as_ref().expect("pcap inputs prepared")
    }

    /// Computes the references `w` is checked against.
    pub fn prepare_refs(&mut self, w: Workload) -> Res<()> {
        match w {
            Workload::Repro if self.refs.repro.is_none() => {
                let (out, report, _, _) = repro_report(self.scenario_seed, self.scales.repro, 1)?;
                self.refs.repro = Some(report);
                self.refs.repro_packets = out.analyzed.result.total_packets();
            }
            Workload::AnalyzePcap | Workload::ShardMerge if self.refs.t2.is_none() => {
                let p = self.pcaps();
                let (_, report) = analyze_report(&p.t2, p.t2_prefix, 1, None)?;
                self.refs.t2 = Some(report);
            }
            Workload::ServeTail if self.refs.t1.is_none() => {
                let p = self.pcaps();
                let (_, report) = analyze_report(&p.t1, p.t1_prefix, 1, None)?;
                self.refs.t1 = Some(report);
            }
            _ => {}
        }
        pin_threads(self.threads);
        Ok(())
    }

    /// Runs one operation of `w` at `threads` workers, gating it and (when
    /// it succeeds) adding its timings to `samples`.
    pub fn op(&self, w: Workload, threads: usize, tally: &mut Tally, samples: &mut Samples) {
        match w {
            Workload::Repro => {
                let (res, cost) =
                    measured(|| repro_report(self.scenario_seed, self.scales.repro, threads));
                let ok = match &res {
                    Ok((_, _, holds, checks)) if holds != checks => tally.record(
                        false,
                        &format!("repro: only {holds} of {checks} shape checks hold"),
                    ),
                    Ok((_, report, ..)) => tally.record(
                        Some(report) == self.refs.repro.as_ref(),
                        "repro: report differs from the reference",
                    ),
                    Err(e) => tally.record(false, &format!("repro: {e}")),
                };
                if let (true, Ok((out, ..))) = (ok, &res) {
                    samples.setup_s.push(out.sim.setup);
                    samples.push(&cost);
                }
            }
            Workload::AnalyzePcap => {
                let p = self.pcaps();
                let setups = self.setup_samples(std::slice::from_ref(&p.t2));
                let (res, cost) =
                    measured(|| analyze_report(&p.t2, p.t2_prefix, threads, Some(CHUNK_RECORDS)));
                self.file_op("analyze_pcap", res, cost, setups, tally, samples);
            }
            Workload::ShardMerge => {
                let p = self.pcaps();
                let setups = self.setup_samples(&p.pieces);
                let (res, cost) = measured(|| shard_merge_report(p, threads));
                self.file_op("shard_merge", res, cost, setups, tally, samples);
            }
            Workload::ServeTail => {
                if let Err(e) = self.serve_op(threads, tally, samples) {
                    tally.record(false, &format!("serve_tail: {e}"));
                }
            }
        }
        pin_threads(self.threads);
    }

    fn setup_samples(&self, paths: &[PathBuf]) -> Res<Vec<f64>> {
        (0..SETUP_REPS).map(|_| open_inputs(paths)).collect()
    }

    fn file_op(
        &self,
        name: &str,
        res: Res<(sixscope::PipelineOutput, String)>,
        cost: Cost,
        setups: Res<Vec<f64>>,
        tally: &mut Tally,
        samples: &mut Samples,
    ) {
        let ok = match (&res, &setups) {
            (Ok((_, report)), Ok(_)) => tally.record(
                Some(report) == self.refs.t2.as_ref(),
                &format!("{name}: report differs from the reference"),
            ),
            (Err(e), _) | (_, Err(e)) => tally.record(false, &format!("{name}: {e}")),
        };
        if ok {
            samples.setup_s.extend(setups.expect("checked above"));
            samples.push(&cost);
        }
    }

    /// One `sixscope serve` run over a growing copy of T1: B snapshot
    /// checkpoints plus the final one, each one operation.
    fn serve_op(&self, threads: usize, tally: &mut Tally, samples: &mut Samples) -> Res<()> {
        let p = self.pcaps();
        let input = &p.serve;
        let dir = self.work.path();
        let live = dir.join("live.pcap");
        let out_dir = dir.join("serve-out");
        let _ = std::fs::remove_dir_all(&out_dir);
        crate::inputs::write(&live, &input.data[..input.header_len])?;
        let stderr = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;

        let spawned = Instant::now();
        let mut child = Command::new(&self.sixscope)
            .arg("serve")
            .arg(&live)
            .arg("--out")
            .arg(&out_dir)
            .args(["--snapshot-every", &input.batch_records.to_string()])
            .args(["--status-fd", "1"])
            .args(["--poll-ms", &POLL_MS.to_string()])
            .args(["--quiesce-ms", &QUIESCE_MS.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--prefix", &p.t1_prefix.to_string()])
            .env("SIXSCOPE_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn sixscope serve: {e}"))?;
        let mut reaper = Reaper::new(&child);
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<(Instant, String)>();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let result = self.drive_serve(&mut reaper, &rx, &live, &out_dir, spawned, tally, samples);
        reaper.kill();
        drop(rx);
        reader.join().map_err(|_| "status reader panicked")?;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn drive_serve(
        &self,
        reaper: &mut Reaper,
        rx: &mpsc::Receiver<(Instant, String)>,
        live: &Path,
        out_dir: &Path,
        spawned: Instant,
        tally: &mut Tally,
        samples: &mut Samples,
    ) -> Res<()> {
        let input = &self.pcaps().serve;
        let batches = input.batches.len();
        let ready = wait_mapped(reaper, live)?;
        let setup = ready.duration_since(spawned).as_secs_f64();

        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(live)
            .map_err(|e| e.to_string())?;
        let first = Instant::now();
        let mut latencies = Vec::with_capacity(batches);
        for (k, range) in input.batches.iter().enumerate() {
            file.write_all(&input.data[range.clone()])
                .and_then(|()| file.flush())
                .map_err(|e| format!("append batch {k}: {e}"))?;
            let flushed = Instant::now();
            let expect = input.batch_records * (k + 1);
            let ok = match rx.recv_timeout(CHECKPOINT_TIMEOUT) {
                Ok((at, line)) => {
                    let good = field(&line, "event") == Some("\"snapshot\"")
                        && field(&line, "snapshot") == Some(&(k + 1).to_string())
                        && field(&line, "packets") == Some(&expect.to_string());
                    if good {
                        latencies.push(at.duration_since(flushed).as_secs_f64() * 1e3);
                    }
                    tally.record(
                        good,
                        &format!("serve_tail: checkpoint {}: {}", k + 1, line.trim()),
                    )
                }
                Err(_) => tally.record(
                    false,
                    &format!("serve_tail: checkpoint {} timed out", k + 1),
                ),
            };
            if !ok {
                // The daemon is out of step; the remaining checkpoints fail.
                for _ in k + 1..=batches {
                    tally.record(false, "serve_tail: skipped after an earlier failure");
                }
                return Ok(());
            }
        }
        let final_line = rx.recv_timeout(CHECKPOINT_TIMEOUT);
        let usage = reaper.reap(CHECKPOINT_TIMEOUT);
        let latest = std::fs::read_to_string(out_dir.join("latest.md")).ok();
        let ok = match (&final_line, usage) {
            (Ok((at, line)), Some(usage)) => {
                let good = field(line, "event") == Some("\"final\"")
                    && field(line, "packets") == Some(&input.records().to_string())
                    && usage.status == 0
                    && latest.is_some()
                    && latest == self.refs.t1;
                if good {
                    samples.setup_s.push(setup);
                    samples.wall_s.push(at.duration_since(first).as_secs_f64());
                    samples.cpu_s.push(usage.cpu_s);
                    samples.peak_rss_mib.push(usage.peak_rss_mib);
                }
                good
            }
            _ => false,
        };
        tally.record(
            ok,
            "serve_tail: final checkpoint missing or differs from the reference",
        );
        samples.checkpoint_ms.extend(latencies);
        Ok(())
    }
}

impl Samples {
    fn push(&mut self, cost: &Cost) {
        self.wall_s.push(cost.wall_s);
        self.cpu_s.push(cost.cpu_s);
        self.peak_rss_mib.push(cost.peak_rss_mib);
    }
}

/// Waits until the daemon has mapped the live file — the end of its
/// start-up — and returns that instant.
fn wait_mapped(reaper: &mut Reaper, live: &Path) -> Res<Instant> {
    let maps = format!("/proc/{}/maps", reaper.pid());
    let needle = live.display().to_string();
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if reaper.try_reap().is_some() {
            return Err("sixscope serve exited during start-up".into());
        }
        if std::fs::read_to_string(&maps).is_ok_and(|m| m.contains(&needle)) {
            return Ok(Instant::now());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Err("sixscope serve did not map its input".into())
}

/// The raw value of `"key":` in a flat one-line JSON object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}
