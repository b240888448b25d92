//! The one entry point — a streaming, bounded-memory analysis pipeline.
//!
//! [`Pipeline`] builds one analysis run from a simulated experiment, real
//! pcap captures or `.sixshard` files:
//!
//! ```no_run
//! use sixscope::{Pipeline, sim::ScenarioConfig};
//!
//! let analyzed = Pipeline::simulate(ScenarioConfig::new(42, 0.01))
//!     .threads(4)
//!     .run()
//!     .expect("simulated runs cannot fail");
//! let report = sixscope::render::render_table2(&sixscope::tables::table2(&analyzed));
//! ```
//!
//! The pcap path is zero-copy and streams: each file is `mmap(2)`'d (with
//! a buffered-read fallback) and walked in chunks of
//! [`Pipeline::chunk_records`] borrowed record views, each chunk fed
//! straight into the incremental sessionizers and an
//! [`crate::index::IndexShard`] accumulator. Record bytes are never copied
//! out of the mapping — packets promote their payload to owned bytes only
//! when retained by the capture filter — so heap memory stays
//! O(chunk views + live sessions + columns) while the mapping's pages are
//! file-backed and evictable. Chunk boundaries are invisible (DESIGN.md
//! §10): any `chunk_records` and any thread count produce byte-identical
//! tables and figures.
//!
//! Every input — a simulation, pcaps, shard files, and the `serve`
//! daemon's live tail or replay — takes one path from here to a corpus. A
//! `Lane` drains its [`Feed`] into a `FeedConsumer`; each telescope ends
//! as one `Drained` state (capture, statistics, sessions, index piece and
//! sessionizer cost); and one `gather` folds the states into a base
//! [`ExperimentResult`] and builds the [`Analyzed`] corpus (DESIGN.md §10,
//! §13, §14). A shard file holds only a capture, so the shard gather
//! concatenates each telescope's pieces and drains them through the same
//! [`SimFeed`] lane a simulated capture takes.

use crate::corpus::{AnalysisTimings, Analyzed};
use crate::index::{CorpusIndex, IndexShard};
use crate::ingest::passive_config;
use crate::shardfile::{merge_group, read_groups, write_shard, TelescopeShard};
use crate::Error;
use sixscope_scanners::population::Population;
use sixscope_scanners::ExperimentLayout;
use sixscope_sim::{
    CompiledVisibility, ExperimentResult, Scenario, ScenarioConfig, ScenarioTimings, TumHitlist,
    Visibility,
};
use sixscope_telescope::{
    AggLevel, Capture, Feed, FeedError, IncrementalSessionizer, IngestStats, PcapFeed, ScanSession,
    SimFeed, SplitSchedule, TelescopeConfig, TelescopeId, SESSION_TIMEOUT,
};
use sixscope_types::{map_indexed, num_threads, Ipv6Prefix, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Where the pipeline's packets come from.
enum Source {
    /// Run the full simulated experiment, then analyze its captures.
    Simulate(ScenarioConfig),
    /// Stream real pcap files into a passive telescope.
    Pcaps {
        paths: Vec<PathBuf>,
        prefix: Ipv6Prefix,
    },
    /// Gather `.sixshard` files written by [`Pipeline::to_shard`] workers.
    Shards(Vec<PathBuf>),
}

/// Builder for one analysis run — see the [module docs](self).
pub struct Pipeline {
    source: Source,
    threads: Option<usize>,
    chunk_records: usize,
    session_timeout: SimDuration,
}

/// Everything a [`Pipeline::run_detailed`] call produced beyond the corpus.
pub struct PipelineOutput {
    /// The analyzed corpus (what [`Pipeline::run`] returns).
    pub analyzed: Analyzed,
    /// Simulation stage timings (zero for the pcap path).
    pub sim: ScenarioTimings,
    /// Wall-clock seconds of pcap reading + streaming feed (zero for the
    /// simulated path, whose analysis timings live in
    /// [`Analyzed::timings`]).
    pub ingest: f64,
    /// Combined recovery statistics over all input files.
    pub stats: IngestStats,
    /// Per-file recovery statistics, in input order.
    pub file_stats: Vec<(String, IngestStats)>,
}

/// What a [`Pipeline::to_shard`] scatter run produced.
pub struct ShardOutput {
    /// Packets retained by the capture filter and written to the shard.
    pub packets: usize,
    /// Combined recovery statistics over all input files.
    pub stats: IngestStats,
    /// Per-file recovery statistics, in input order.
    pub file_stats: Vec<(String, IngestStats)>,
}

impl Pipeline {
    /// Analyzes a simulated experiment.
    pub fn simulate(config: ScenarioConfig) -> Pipeline {
        Pipeline::new(Source::Simulate(config))
    }

    /// Streams real pcap captures (classic pcap, LINKTYPE_RAW) through the
    /// same analysis. Filter with [`Pipeline::prefix`]; the default `::/0`
    /// accepts every packet.
    pub fn from_pcaps<I, P>(paths: I) -> Pipeline
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        Pipeline::new(Source::Pcaps {
            paths: paths.into_iter().map(Into::into).collect(),
            prefix: Ipv6Prefix::default_route(),
        })
    }

    /// Gathers `.sixshard` files (written by [`Pipeline::to_shard`]
    /// workers) into one analyzed corpus. Shards of the same telescope
    /// must be given in capture order; their captures are concatenated
    /// and sessionized and indexed as one, so the merged corpus is
    /// byte-identical to a single-process run over the concatenated
    /// packets.
    pub fn from_shards<I, P>(paths: I) -> Pipeline
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        Pipeline::new(Source::Shards(paths.into_iter().map(Into::into).collect()))
    }

    fn new(source: Source) -> Pipeline {
        Pipeline {
            source,
            threads: None,
            chunk_records: usize::MAX,
            session_timeout: SESSION_TIMEOUT,
        }
    }

    /// Telescope prefix filter for the pcap path (no effect on simulation,
    /// whose layout fixes the telescope prefixes).
    pub fn prefix(mut self, prefix: Ipv6Prefix) -> Pipeline {
        if let Source::Pcaps { prefix: p, .. } = &mut self.source {
            *p = prefix;
        }
        self
    }

    /// Worker thread cap. Defaults to the `SIXSCOPE_THREADS` environment
    /// variable, then to the machine's parallelism; output bytes never
    /// depend on it.
    pub fn threads(mut self, threads: usize) -> Pipeline {
        self.threads = Some(threads);
        self
    }

    /// Streaming chunk size in pcap records (and, for the simulated path,
    /// in packets per sessionizer/shard feed). Bounds live memory on the
    /// pcap path; output bytes never depend on it. Defaults to unchunked.
    pub fn chunk_records(mut self, records: usize) -> Pipeline {
        self.chunk_records = records.max(1);
        self
    }

    /// Session idle timeout — the eviction horizon of the incremental
    /// sessionizer's open-session table. Defaults to the paper's 1 hour.
    pub fn session_timeout(mut self, timeout: SimDuration) -> Pipeline {
        self.session_timeout = timeout;
        self
    }

    /// Runs the pipeline and returns the analyzed corpus.
    pub fn run(self) -> Result<Analyzed, Error> {
        self.run_detailed().map(|out| out.analyzed)
    }

    /// Runs the pipeline and additionally returns stage timings and (for
    /// the pcap path) recovery statistics.
    pub fn run_detailed(self) -> Result<PipelineOutput, Error> {
        let settings = self.settings();
        match self.source {
            Source::Simulate(mut config) => {
                if self.threads.is_some() {
                    config.threads = self.threads;
                }
                let (result, sim) = Scenario::new(config).run_timed();
                Ok(PipelineOutput {
                    analyzed: analyze_result(result, &settings),
                    sim,
                    ingest: 0.0,
                    stats: IngestStats::default(),
                    file_stats: Vec::new(),
                })
            }
            Source::Pcaps { paths, prefix } => {
                let ingest_start = Instant::now();
                let (state, file_stats) = drain_pcaps(&paths, prefix, &settings)?;
                Ok(gathered_output(
                    vec![state],
                    file_stats,
                    ingest_start,
                    &settings,
                ))
            }
            Source::Shards(paths) => {
                if paths.is_empty() {
                    return Err(Error::Usage(
                        "merge requires at least one .sixshard file".into(),
                    ));
                }
                // Pcap shards are written and merged under the empty
                // visibility, as `drain_pcaps` analyzes pcaps.
                let ingest_start = Instant::now();
                let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
                let (groups, file_stats) = read_groups(&paths)?;
                let states = groups
                    .into_values()
                    .map(|group| merge_group(group, &settings, &compiled))
                    .collect::<Result<Vec<_>, Error>>()?;
                Ok(gathered_output(states, file_stats, ingest_start, &settings))
            }
        }
    }

    /// Reads the pcaps into one time-sorted capture and writes it as one
    /// `.sixshard` file — the scatter side of federated sharding. The
    /// gather sessionizes and indexes it. Only the pcap source can
    /// scatter; simulated and shard sources are [`Error::Usage`].
    pub fn to_shard<P: AsRef<std::path::Path>>(self, out: P) -> Result<ShardOutput, Error> {
        let Source::Pcaps { paths, prefix } = self.source else {
            return Err(Error::Usage(
                "shard export requires a pcap source (Pipeline::from_pcaps)".into(),
            ));
        };
        let capture = Capture::new(passive_config(prefix));
        let mut feed = PcapFeed::new(capture, paths, self.chunk_records);
        while !feed.next_chunk()?.end_of_feed {}
        let (mut capture, stats, file_stats) = feed.finish();
        capture.sort_by_time();
        let shard = TelescopeShard {
            capture,
            session_timeout: self.session_timeout,
            stats,
        };
        write_shard(out.as_ref(), &shard)?;
        Ok(ShardOutput {
            packets: shard.capture.len(),
            stats: shard.stats,
            file_stats,
        })
    }

    fn settings(&self) -> StreamSettings {
        StreamSettings {
            chunk_records: self.chunk_records,
            session_timeout: self.session_timeout,
            threads: self.threads,
        }
    }
}

/// Chunking and eviction knobs of the streaming analysis;
/// [`Pipeline`] and `serve` fill this from their options. The defaults
/// reproduce the batch behavior (one big chunk, the paper's 1-hour
/// timeout).
#[derive(Clone, Copy)]
pub(crate) struct StreamSettings {
    /// Packets fed per chunk.
    pub chunk_records: usize,
    /// Session idle timeout (the eviction horizon).
    pub session_timeout: SimDuration,
    /// Worker threads (`None` defers to `SIXSCOPE_THREADS`).
    pub threads: Option<usize>,
}

impl Default for StreamSettings {
    fn default() -> Self {
        StreamSettings {
            chunk_records: usize::MAX,
            session_timeout: SESSION_TIMEOUT,
            threads: None,
        }
    }
}

/// One telescope's drained state, whatever the input: its capture and
/// ingest statistics, sessions at /128 and /64, index piece, and the
/// sessionizers' cost and live-memory high-water mark. Every path hands
/// these to [`gather`].
#[derive(Debug)]
pub(crate) struct Drained {
    /// The time-sorted capture the sessions and the index refer to.
    pub capture: Capture,
    /// Ingest recovery statistics of the capture's reads.
    pub stats: IngestStats,
    /// Scan sessions at /128.
    pub sessions128: Vec<ScanSession>,
    /// Scan sessions at /64.
    pub sessions64: Vec<ScanSession>,
    /// The capture's columnar index piece.
    pub index: IndexShard,
    /// Seconds spent pushing packets into the sessionizers.
    pub sessionize: f64,
    /// High-water mark of the open-session tables.
    pub peak: usize,
}

/// The stateful half of a feed-driven ingest: incremental sessionizers at
/// /128 and /64 plus an [`IndexShard`] accumulator, fed one
/// [`sixscope_telescope::FeedChunk`] at a time.
///
/// The consumer is the same for every [`Feed`]: batch pcaps, a live tail,
/// or a simulated capture. If the feed ever delivers packets out of time
/// order (live feeds admit in-horizon disorder; finite feeds simply
/// reflect their files) the incremental state is abandoned and
/// [`FeedConsumer::finish`] and [`FeedConsumer::snapshot`] fall back to
/// sort + re-feed — the bounded-memory property is lost but the output
/// contract (byte-identical to batch) is kept.
#[derive(Clone)]
pub(crate) struct FeedConsumer {
    s128: IncrementalSessionizer,
    s64: IncrementalSessionizer,
    shard: IndexShard,
    sessionize: f64,
    sorted: bool,
    timeout: SimDuration,
    sources_hint: usize,
    chunk_records: usize,
}

impl FeedConsumer {
    /// Fresh state; `sources_hint` pre-sizes the open-session tables
    /// (capacity never affects output).
    pub(crate) fn new(sources_hint: usize, settings: &StreamSettings) -> FeedConsumer {
        let timeout = settings.session_timeout;
        FeedConsumer {
            s128: IncrementalSessionizer::with_capacity(AggLevel::Addr128, timeout, sources_hint),
            s64: IncrementalSessionizer::with_capacity(AggLevel::Subnet64, timeout, sources_hint),
            shard: IndexShard::new(),
            sessionize: 0.0,
            sorted: true,
            timeout,
            sources_hint,
            chunk_records: settings.chunk_records.max(1),
        }
    }

    /// Feeds the capture packets `range` (one feed chunk) into the
    /// incremental state, unless disorder has been seen.
    pub(crate) fn consume(
        &mut self,
        capture: &Capture,
        range: Range<usize>,
        compiled: &CompiledVisibility,
    ) {
        if range.is_empty() || !self.sorted {
            return;
        }
        // Include the boundary with the previous chunk in the order check.
        let boundary = range.start.saturating_sub(1);
        if capture.packets()[boundary..range.end]
            .windows(2)
            .any(|w| w[0].ts > w[1].ts)
        {
            // Out-of-order input: abandon the incremental feed; finish and
            // snapshot re-feed a sorted capture instead.
            self.sorted = false;
            return;
        }
        self.push_range(capture, range, compiled);
    }

    /// Sessionizes and indexes `range` of an in-order capture — the one
    /// place packets enter the sessionizers and the index accumulator.
    fn push_range(
        &mut self,
        capture: &Capture,
        range: Range<usize>,
        compiled: &CompiledVisibility,
    ) {
        let push_start = Instant::now();
        for (i, p) in capture.packets()[range.clone()].iter().enumerate() {
            let idx = (range.start + i) as u32;
            self.s128.push(idx, p);
            self.s64.push(idx, p);
        }
        self.sessionize += push_start.elapsed().as_secs_f64();
        let mut piece = IndexShard::new();
        piece.push_range(capture, range, compiled);
        self.shard.absorb(piece);
    }

    /// Fresh state fed the whole time-sorted `capture` in `chunk_records`
    /// chunks — chunk boundaries are invisible (DESIGN.md §10), so this
    /// equals the batch path byte for byte.
    fn refeed(&self, capture: &Capture, compiled: &CompiledVisibility) -> FeedConsumer {
        let settings = StreamSettings {
            chunk_records: self.chunk_records,
            session_timeout: self.timeout,
            threads: None,
        };
        let mut fresh = FeedConsumer::new(self.sources_hint, &settings);
        let n = capture.len();
        for start in (0..n).step_by(self.chunk_records) {
            let end = start.saturating_add(self.chunk_records).min(n);
            fresh.push_range(capture, start..end, compiled);
        }
        fresh
    }

    /// Closes the consumer over its (now owned) capture. If disorder was
    /// seen, the capture is sorted and re-fed first.
    pub(crate) fn finish(
        self,
        mut capture: Capture,
        stats: IngestStats,
        compiled: &CompiledVisibility,
    ) -> Drained {
        let state = if self.sorted {
            self
        } else {
            capture.sort_by_time();
            self.refeed(&capture, compiled)
        };
        state.close(capture, stats)
    }

    /// A checkpoint of the first `revealed` packets of `capture` (the
    /// prefix this consumer has seen): a copy of the live state, or, once
    /// disorder was seen, a sorted re-feed of a copy of the prefix.
    pub(crate) fn snapshot(
        &self,
        capture: &Capture,
        revealed: usize,
        stats: IngestStats,
        compiled: &CompiledVisibility,
    ) -> Drained {
        let mut prefix = Capture::restore(
            capture.config().clone(),
            capture.packets()[..revealed].to_vec(),
            capture.filtered(),
            capture.malformed(),
        );
        let state = if self.sorted {
            self.clone()
        } else {
            prefix.sort_by_time();
            self.refeed(&prefix, compiled)
        };
        state.close(prefix, stats)
    }

    fn close(self, capture: Capture, stats: IngestStats) -> Drained {
        let peak = self.s128.peak_open().max(self.s64.peak_open());
        Drained {
            capture,
            stats,
            sessions128: self.s128.finish(),
            sessions64: self.s64.finish(),
            index: self.shard,
            sessionize: self.sessionize,
            peak,
        }
    }
}

/// One telescope's way through the pipeline: a [`Feed`] and the
/// [`FeedConsumer`] it drives. [`Lane::step`] is the one drain step every
/// path repeats — the batch paths until the feed ends, the serve daemon
/// one round at a time between checkpoints.
pub(crate) struct Lane<F> {
    pub feed: F,
    pub consumer: FeedConsumer,
    /// Packets revealed so far: `feed.capture().packets()[..revealed]`.
    pub revealed: usize,
    /// The highest watermark any chunk reported.
    pub watermark: SimTime,
    /// The feed reported `end_of_feed`.
    pub ended: bool,
}

impl<F: Feed> Lane<F> {
    pub(crate) fn new(feed: F, settings: &StreamSettings) -> Lane<F> {
        Lane {
            consumer: FeedConsumer::new(feed.sources_hint(), settings),
            feed,
            revealed: 0,
            watermark: SimTime::EPOCH,
            ended: false,
        }
    }

    /// Pulls one chunk off the feed into the consumer.
    pub(crate) fn step(&mut self, compiled: &CompiledVisibility) -> Result<(), FeedError> {
        let chunk = self.feed.next_chunk()?;
        self.revealed = chunk.range.end;
        self.consumer
            .consume(self.feed.capture(), chunk.range, compiled);
        self.watermark = self.watermark.max(chunk.watermark);
        self.ended = chunk.end_of_feed;
        Ok(())
    }

    /// Pulls the feed to its end.
    pub(crate) fn drain(&mut self, compiled: &CompiledVisibility) -> Result<(), FeedError> {
        while !self.ended {
            self.step(compiled)?;
        }
        Ok(())
    }

    /// A checkpoint of everything revealed so far (see
    /// [`FeedConsumer::snapshot`]).
    pub(crate) fn snapshot(&self, compiled: &CompiledVisibility) -> Drained {
        self.consumer.snapshot(
            self.feed.capture(),
            self.revealed,
            self.feed.stats(),
            compiled,
        )
    }
}

/// The one gather: folds per-telescope drained states into `base` (each
/// state's capture replaces the base's), builds the corpus index and
/// assembles the [`Analyzed`] corpus. Telescopes without a state keep the
/// base's capture with no sessions and an empty index piece, so every
/// input path yields the same corpus shape from the same packets.
pub(crate) fn gather(
    mut base: ExperimentResult,
    states: Vec<Drained>,
    streaming: f64,
    threads: usize,
) -> Analyzed {
    let mut sessions128 = BTreeMap::new();
    let mut sessions64 = BTreeMap::new();
    let mut shards = BTreeMap::new();
    let mut sessionize = 0.0;
    let mut peak = 0;
    for state in states {
        let id = state.capture.config().id;
        base.captures.insert(id, state.capture);
        sessions128.insert(id, state.sessions128);
        sessions64.insert(id, state.sessions64);
        shards.insert(id, state.index);
        sessionize += state.sessionize;
        peak = peak.max(state.peak);
    }
    for id in TelescopeId::ALL {
        sessions128.entry(id).or_default();
        sessions64.entry(id).or_default();
        shards.entry(id).or_insert_with(IndexShard::new);
    }
    let index_start = Instant::now();
    let index = CorpusIndex::from_shards(&base, shards, &sessions128, &sessions64, threads);
    let timings = AnalysisTimings {
        streaming,
        sessionize,
        index_build: index_start.elapsed().as_secs_f64(),
    };
    Analyzed::assemble(base, sessions128, sessions64, index, timings, peak)
}

/// Drains an in-memory capture through a [`SimFeed`] lane — the way a
/// simulated capture and a gathered shard capture reach the consumer.
pub(crate) fn drain_capture(
    capture: &Capture,
    settings: &StreamSettings,
    compiled: &CompiledVisibility,
) -> FeedConsumer {
    let mut lane = Lane::new(SimFeed::new(capture, settings.chunk_records), settings);
    lane.drain(compiled).expect("sim feeds cannot fail");
    lane.consumer
}

/// The simulated path: each capture drains through a [`SimFeed`] lane,
/// then the four states are gathered back into `result`.
///
/// The four drains are independent pure functions of their capture, so
/// they run on worker threads (`SIXSCOPE_THREADS` caps them; 1 forces
/// serial); results are keyed by telescope, so scheduling cannot affect
/// output, and chunk boundaries are invisible (DESIGN.md §10) — any
/// `chunk_records` yields byte-identical output.
pub(crate) fn analyze_result(mut result: ExperimentResult, settings: &StreamSettings) -> Analyzed {
    let threads = num_threads(settings.threads);
    let stream_start = Instant::now();
    let compiled = CompiledVisibility::compile(&result.visibility);
    let consumers = map_indexed(threads, &TelescopeId::ALL, |_, id| {
        drain_capture(&result.captures[id], settings, &compiled)
    });
    let streaming = stream_start.elapsed().as_secs_f64();
    let states = TelescopeId::ALL
        .into_iter()
        .zip(consumers)
        .map(|(id, consumer)| {
            let capture = result
                .captures
                .remove(&id)
                .expect("one capture per telescope");
            consumer.finish(capture, IngestStats::default(), &compiled)
        })
        .collect();
    gather(result, states, streaming, threads)
}

/// The streaming pcap ingest: a [`PcapFeed`] maps each file (buffered
/// fallback included) and appends borrowed record views to the capture;
/// the lane's consumer sessionizes and indexes each chunk before the next
/// one is cut, so the only per-record heap traffic is the retained packets
/// themselves.
fn drain_pcaps(
    paths: &[PathBuf],
    prefix: Ipv6Prefix,
    settings: &StreamSettings,
) -> Result<(Drained, Vec<(String, IngestStats)>), Error> {
    let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
    let capture = Capture::new(passive_config(prefix));
    let feed = PcapFeed::new(capture, paths.iter().cloned(), settings.chunk_records);
    let mut lane = Lane::new(feed, settings);
    lane.drain(&compiled)?;
    let (capture, stats, file_stats) = lane.feed.finish();
    Ok((lane.consumer.finish(capture, stats, &compiled), file_stats))
}

/// The pcap and shard paths' gather: their telescopes go into a
/// [`gathered_result`], and their recovery statistics are summed.
fn gathered_output(
    states: Vec<Drained>,
    file_stats: Vec<(String, IngestStats)>,
    ingest_start: Instant,
    settings: &StreamSettings,
) -> PipelineOutput {
    let ingest = ingest_start.elapsed().as_secs_f64();
    let mut stats = IngestStats::default();
    for state in &states {
        stats.absorb(&state.stats);
    }
    let threads = num_threads(settings.threads);
    PipelineOutput {
        analyzed: gather(gathered_result(), states, ingest, threads),
        sim: ScenarioTimings::default(),
        ingest,
        stats,
        file_stats,
    }
}

/// The [`ExperimentResult`] shape the analysis layer consumes, for
/// captures that did not come from a simulation: every telescope has an
/// empty capture (the gather replaces those it has states for), and all
/// simulation-only metadata (events, population, hitlist) is empty.
pub(crate) fn gathered_result() -> ExperimentResult {
    let mut layout = ExperimentLayout::default_plan();
    layout.start = SimTime::EPOCH + SimDuration::days(1);
    let schedule = SplitSchedule::paper(layout.t1, layout.start);
    layout.end = schedule.end();
    let visibility = Visibility::from_events(&[]);
    let hitlist = TumHitlist::build(&[], &visibility);
    let captures = [
        TelescopeConfig::t1(layout.t1),
        TelescopeConfig::t2(layout.t2),
        TelescopeConfig::t3(layout.t3),
        TelescopeConfig::t4(layout.t4),
    ]
    .into_iter()
    .map(|config| (config.id, Capture::new(config)))
    .collect();
    ExperimentResult {
        layout,
        schedule,
        captures,
        events: Vec::new(),
        visibility,
        population: Population {
            scanners: Vec::new(),
            ases: Vec::new(),
            rdns: BTreeMap::new(),
        },
        hitlist,
        t4_responses: 0,
        dropped_unrouted: 0,
        truncated_probes: 0,
    }
}
