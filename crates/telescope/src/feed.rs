//! The unified input surface of the analysis pipeline: a [`Feed`] hands
//! out capture chunks with a watermark, whether the packets come from a
//! finished pcap, a still-growing capture file, or a simulated experiment.
//!
//! Batch, streaming and live ingestion used to be three different loops;
//! the trait collapses them to one shape the pipeline can drive:
//!
//! * [`PcapFeed`] — finite; walks one or more finished pcap files through
//!   the zero-copy [`SliceReader`] exactly like the classic streaming path.
//! * [`TailFeed`] — live; follows one growing pcap file, remapping it as
//!   the writer appends, holding back an in-flight truncated record until
//!   the writer either completes it or goes quiet, and dropping (but
//!   counting) records that arrive later than the eviction horizon.
//! * [`SimFeed`] — synthetic; reveals an already-simulated capture in
//!   record chunks, for deterministic replays and tests.
//!
//! The watermark is the maximum record timestamp observed so far — event
//! time, not arrival time. A record whose timestamp is at least one
//! eviction horizon older than the watermark can no longer join any open
//! session (the incremental sessionizer would have evicted its source), so
//! live feeds drop it up front and count it in
//! [`LateFilter::late_records`] instead of letting it corrupt the session
//! table. Finite feeds never drop: the pipeline's sort-and-re-feed
//! fallback keeps batch byte-identity for out-of-order files.

use crate::capture::{Capture, IngestStats};
use sixscope_packet::{MappedPcap, PacketError, SliceReader, SliceReaderState, ViewOutcome};
use sixscope_types::{SimDuration, SimTime};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Duration;

/// One chunk pulled off a [`Feed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedChunk {
    /// The newly appended packets, as a range into
    /// [`Feed::capture`]`.packets()`. Empty chunks are legal — a live feed
    /// polled while the writer is idle reports no progress, and damaged
    /// records advance statistics without appending packets.
    pub range: Range<usize>,
    /// Event-time progress: the maximum record timestamp observed so far.
    pub watermark: SimTime,
    /// True when the feed is drained for good; no later call will ever
    /// yield more records.
    pub end_of_feed: bool,
}

/// A feed failure: the file could not be opened, read, or was not a pcap.
#[derive(Debug)]
pub enum FeedError {
    /// An I/O operation on `path` failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// `path` is not a readable pcap stream.
    Pcap {
        /// The file involved.
        path: String,
        /// The underlying packet-layer error.
        source: PacketError,
    },
}

impl FeedError {
    fn from_packet(path: &str, source: PacketError) -> FeedError {
        match source {
            PacketError::Io(source) => FeedError::Io {
                path: path.to_string(),
                source,
            },
            source => FeedError::Pcap {
                path: path.to_string(),
                source,
            },
        }
    }
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::Io { path, .. } => write!(f, "i/o error on {path}"),
            FeedError::Pcap { path, .. } => write!(f, "pcap error in {path}"),
        }
    }
}

impl std::error::Error for FeedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FeedError::Io { source, .. } => Some(source),
            FeedError::Pcap { source, .. } => Some(source),
        }
    }
}

/// A chunked packet source the analysis pipeline can drive.
///
/// Implementations own (or borrow) a [`Capture`] that only ever grows;
/// every [`Feed::next_chunk`] call appends zero or more packets and
/// reports the appended index range plus the current watermark. The
/// pipeline never sees file formats, remapping, or polling — it pulls
/// chunks until `end_of_feed`.
pub trait Feed {
    /// The capture accumulating this feed's packets. Chunks index into
    /// `capture().packets()`.
    fn capture(&self) -> &Capture;

    /// Combined ingest statistics so far (recovery counters; all zero for
    /// sources that never touch a damaged file).
    fn stats(&self) -> IngestStats;

    /// Pulls the next chunk. Live feeds may block briefly (bounded
    /// re-poll backoff) before reporting an empty, non-final chunk.
    fn next_chunk(&mut self) -> Result<FeedChunk, FeedError>;

    /// Sizing hint for the consumer's open-session tables (an estimate of
    /// distinct concurrently-live sources). Capacity never affects output.
    fn sources_hint(&self) -> usize {
        16
    }
}

/// Watermark tracking plus late-data accounting for live feeds.
///
/// `admit(ts)` advances the watermark and answers whether a record may
/// still enter the pipeline: once the watermark has moved at least
/// `horizon` past a record's timestamp, the incremental sessionizer would
/// have evicted that source anyway, so admitting the record could only
/// split or corrupt sessions. Dropping it keeps the admitted stream
/// exactly equal to the same stream with its late records deleted — the
/// property pinned by the `late_data` proptests.
#[derive(Debug, Clone)]
pub struct LateFilter {
    watermark: SimTime,
    horizon: SimDuration,
    late: u64,
}

impl LateFilter {
    /// A filter with the given eviction horizon (the session timeout).
    pub fn new(horizon: SimDuration) -> LateFilter {
        LateFilter {
            watermark: SimTime::EPOCH,
            horizon,
            late: 0,
        }
    }

    /// Admits or rejects one record timestamp. Admitted timestamps advance
    /// the watermark; rejected ones are counted as late.
    pub fn admit(&mut self, ts: SimTime) -> bool {
        if self.watermark.since(ts) >= self.horizon && self.watermark > SimTime::EPOCH {
            self.late += 1;
            return false;
        }
        if ts > self.watermark {
            self.watermark = ts;
        }
        true
    }

    /// The maximum admitted timestamp so far.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Records rejected as older than the eviction horizon.
    pub fn late_records(&self) -> u64 {
        self.late
    }
}

/// One open file of a [`PcapFeed`].
struct OpenPcap {
    display: String,
    mapped: MappedPcap,
    state: SliceReaderState,
}

/// A finite feed over one or more finished pcap files.
///
/// Wraps the zero-copy ingest path: each file is mapped (buffered
/// fallback included), walked in chunks of borrowed record views, and fed
/// straight into the capture. Nothing is dropped — out-of-order records
/// are the consumer's problem (the pipeline falls back to sort-and-re-feed
/// to keep batch byte-identity).
pub struct PcapFeed {
    paths: Vec<PathBuf>,
    next_path: usize,
    current: Option<OpenPcap>,
    capture: Capture,
    total: IngestStats,
    current_stats: IngestStats,
    file_stats: Vec<(String, IngestStats)>,
    chunk_records: usize,
    watermark: SimTime,
    hint: usize,
}

impl PcapFeed {
    /// A feed over `paths` (in order) accumulating into `capture`, read in
    /// chunks of `chunk_records` records.
    pub fn new<I, P>(capture: Capture, paths: I, chunk_records: usize) -> PcapFeed
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        let paths: Vec<PathBuf> = paths.into_iter().map(Into::into).collect();
        // Pre-size the consumer's open-session tables from the input
        // sizes: a record is at least 56 bytes (16-byte pcap header + IPv6
        // header) and distinct live sources are a small fraction of
        // records. Capacity never affects output.
        let input_bytes: u64 = paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let hint = ((input_bytes / 56 / 8) as usize).clamp(16, 1 << 16);
        PcapFeed {
            paths,
            next_path: 0,
            current: None,
            capture,
            total: IngestStats::default(),
            current_stats: IngestStats::default(),
            file_stats: Vec::new(),
            chunk_records: chunk_records.max(1),
            watermark: SimTime::EPOCH,
            hint,
        }
    }

    /// Per-file recovery statistics, in input order (finished files only).
    pub fn file_stats(&self) -> &[(String, IngestStats)] {
        &self.file_stats
    }

    /// Consumes the feed into its capture, combined statistics and
    /// per-file statistics.
    #[allow(clippy::type_complexity)]
    pub fn finish(self) -> (Capture, IngestStats, Vec<(String, IngestStats)>) {
        (self.capture, self.total, self.file_stats)
    }

    /// Closes the current file: fold its statistics into the total and
    /// record them per file.
    fn finish_file(&mut self) {
        if let Some(cur) = self.current.take() {
            let stats = std::mem::take(&mut self.current_stats);
            self.total.absorb(&stats);
            self.file_stats.push((cur.display, stats));
        }
    }

    /// Opens the next input file and positions the cursor on its first
    /// record. Returns false when all files are consumed.
    fn open_next(&mut self) -> Result<bool, FeedError> {
        let Some(path) = self.paths.get(self.next_path) else {
            return Ok(false);
        };
        self.next_path += 1;
        let display = path.display().to_string();
        let mapped =
            MappedPcap::open(path).map_err(|source| FeedError::from_packet(&display, source))?;
        let state = SliceReader::new(mapped.data())
            .map_err(|source| FeedError::from_packet(&display, source))?
            .state();
        self.current = Some(OpenPcap {
            display,
            mapped,
            state,
        });
        Ok(true)
    }
}

impl Feed for PcapFeed {
    fn capture(&self) -> &Capture {
        &self.capture
    }

    fn stats(&self) -> IngestStats {
        let mut stats = self.total.clone();
        stats.absorb(&self.current_stats);
        stats
    }

    fn sources_hint(&self) -> usize {
        self.hint
    }

    fn next_chunk(&mut self) -> Result<FeedChunk, FeedError> {
        let before = self.capture.len();
        loop {
            if self.current.is_none() && !self.open_next()? {
                return Ok(FeedChunk {
                    range: before..self.capture.len(),
                    watermark: self.watermark,
                    end_of_feed: true,
                });
            }
            let cur = self.current.as_ref().expect("file open");
            let mut views: Vec<ViewOutcome<'_>> = Vec::new();
            let mut reader = SliceReader::resume(cur.mapped.data(), cur.state);
            let got = reader.next_chunk(self.chunk_records, &mut views);
            if got {
                self.capture
                    .extend_from_views(&views, &mut self.current_stats);
                for v in &views {
                    if let ViewOutcome::Record(r) = v {
                        if r.ts > self.watermark {
                            self.watermark = r.ts;
                        }
                    }
                }
            }
            let state = reader.state();
            let exhausted = reader.is_exhausted();
            let drained = state.offset() >= cur.mapped.data().len();
            self.current.as_mut().expect("file open").state = state;
            if !got || exhausted || drained {
                self.finish_file();
            }
            if got {
                let end_of_feed = self.current.is_none() && self.next_path >= self.paths.len();
                return Ok(FeedChunk {
                    range: before..self.capture.len(),
                    watermark: self.watermark,
                    end_of_feed,
                });
            }
            // A file that yielded nothing (empty body): fall through to the
            // next file without emitting an empty chunk per file.
        }
    }
}

/// A live feed following one growing pcap file.
///
/// The file is remapped whenever the writer has appended bytes; the read
/// cursor resumes exactly where it stopped, so the already-consumed prefix
/// is never re-read. A record the writer was still producing (header or
/// body cut at the snapshot boundary) is *held back* — the cursor stays at
/// its start — until either the writer completes it (it is then read
/// normally) or the feed quiesces (it is then accounted exactly as a batch
/// read of the final file would account it). Records older than the
/// eviction horizon relative to the watermark are dropped and counted
/// ([`TailFeed::late_records`]) instead of corrupting open sessions.
///
/// Polling backs off exponentially from `poll_interval` (bounded at 8×)
/// while the file is idle; after `quiesce_after` of cumulative idle time
/// the feed declares end-of-feed.
pub struct TailFeed {
    path: PathBuf,
    display: String,
    mapped: Option<MappedPcap>,
    state: Option<SliceReaderState>,
    capture: Capture,
    stats: IngestStats,
    filter: LateFilter,
    chunk_records: usize,
    poll: Duration,
    quiesce: Duration,
    idle: u32,
    idle_elapsed: Duration,
    finished: bool,
}

impl TailFeed {
    /// Follows `path`, accumulating into `capture`, reading in chunks of
    /// `chunk_records` records with the given eviction `horizon`.
    pub fn new<P: Into<PathBuf>>(
        capture: Capture,
        path: P,
        chunk_records: usize,
        horizon: SimDuration,
    ) -> TailFeed {
        let path = path.into();
        TailFeed {
            display: path.display().to_string(),
            path,
            mapped: None,
            state: None,
            capture,
            stats: IngestStats::default(),
            filter: LateFilter::new(horizon),
            chunk_records: chunk_records.max(1),
            poll: Duration::from_millis(50),
            quiesce: Duration::from_secs(2),
            idle: 0,
            idle_elapsed: Duration::ZERO,
            finished: false,
        }
    }

    /// Base idle-poll interval (backoff starts here; default 50 ms).
    pub fn poll_interval(mut self, poll: Duration) -> TailFeed {
        self.poll = poll.max(Duration::from_millis(1));
        self
    }

    /// Cumulative idle time after which the feed quiesces (default 2 s).
    pub fn quiesce_after(mut self, quiesce: Duration) -> TailFeed {
        self.quiesce = quiesce;
        self
    }

    /// Records dropped as older than the eviction horizon.
    pub fn late_records(&self) -> u64 {
        self.filter.late_records()
    }

    /// The current event-time watermark.
    pub fn watermark(&self) -> SimTime {
        self.filter.watermark()
    }

    /// Byte offset of the next unread record — the prefix before it is
    /// never re-read, even across remaps.
    pub fn resume_offset(&self) -> usize {
        self.state.map_or(0, |s| s.offset())
    }

    /// Consumes the feed into its capture and statistics.
    pub fn finish(self) -> (Capture, IngestStats) {
        (self.capture, self.stats)
    }

    /// Remaps the file if the writer appended bytes since the last map (or
    /// the file was never mapped). Returns true when new bytes appeared.
    fn remap_if_grown(&mut self) -> Result<bool, FeedError> {
        let len = std::fs::metadata(&self.path)
            .map_err(|source| FeedError::Io {
                path: self.display.clone(),
                source,
            })?
            .len();
        let mapped_len = self.mapped.as_ref().map_or(0, |m| m.data().len() as u64);
        if self.mapped.is_some() && len <= mapped_len {
            return Ok(false);
        }
        self.mapped = Some(
            MappedPcap::open(&self.path)
                .map_err(|source| FeedError::from_packet(&self.display, source))?,
        );
        Ok(len > mapped_len)
    }

    /// Parses the global header once at least 24 bytes exist. Returns
    /// false while the header is still incomplete (a writer that has not
    /// finished its own preamble yet).
    fn ensure_header(&mut self) -> Result<bool, FeedError> {
        if self.state.is_some() {
            return Ok(true);
        }
        let data = self.mapped.as_ref().expect("mapped").data();
        if data.len() < 24 {
            return Ok(false);
        }
        let state = SliceReader::new(data)
            .map_err(|source| FeedError::from_packet(&self.display, source))?
            .state();
        self.state = Some(state);
        Ok(true)
    }

    /// Reads everything currently complete, holding back a trailing
    /// truncated record unless `final_drain`. Returns true on progress.
    fn drain_available(&mut self, final_drain: bool) -> bool {
        let Some(state) = self.state else {
            return false;
        };
        let mapped = self.mapped.as_ref().expect("mapped");
        let mut reader = SliceReader::resume(mapped.data(), state);
        let mut views: Vec<ViewOutcome<'_>> = Vec::new();
        let mut progress = false;
        // One chunk per call in the live loop; drain fully at quiesce so
        // the held-back tail (and any raced-in growth) is accounted.
        loop {
            if !reader.next_chunk(self.chunk_records, &mut views) {
                break;
            }
            for v in &views {
                match v {
                    ViewOutcome::Record(r) if !self.filter.admit(r.ts) => {}
                    ViewOutcome::TruncatedTail(_) if !final_drain => {
                        // The writer may still be mid-record: hold the
                        // outcome back. The cursor did not advance, so a
                        // later remap re-reads from the record's start.
                        continue;
                    }
                    v => {
                        self.capture.apply_outcome_view(v, &mut self.stats);
                        progress = true;
                    }
                }
            }
            if !final_drain {
                break;
            }
        }
        let new_state = reader.state();
        progress |= new_state.offset() > state.offset();
        self.state = Some(new_state);
        progress
    }
}

impl Feed for TailFeed {
    fn capture(&self) -> &Capture {
        &self.capture
    }

    fn stats(&self) -> IngestStats {
        self.stats.clone()
    }

    fn sources_hint(&self) -> usize {
        // The file is still growing; size the table from what is already
        // on disk, with the same floor the finite path uses.
        let bytes = self.mapped.as_ref().map_or(0, |m| m.data().len());
        (bytes / 56 / 8).clamp(16, 1 << 16)
    }

    fn next_chunk(&mut self) -> Result<FeedChunk, FeedError> {
        let before = self.capture.len();
        if self.finished {
            return Ok(FeedChunk {
                range: before..before,
                watermark: self.filter.watermark(),
                end_of_feed: true,
            });
        }
        self.remap_if_grown()?;
        let progress = self.ensure_header()? && self.drain_available(false);
        if progress {
            self.idle = 0;
            self.idle_elapsed = Duration::ZERO;
            return Ok(FeedChunk {
                range: before..self.capture.len(),
                watermark: self.filter.watermark(),
                end_of_feed: false,
            });
        }
        if self.idle_elapsed >= self.quiesce {
            // Quiesce: the writer went quiet for long enough. Account the
            // held-back tail (if any) exactly as a batch read of the final
            // file would, then declare end-of-feed.
            self.finished = true;
            if self.remap_if_grown()? && self.ensure_header()? {
                self.drain_available(false);
            }
            if self.state.is_none() && self.mapped.as_ref().is_some_and(|m| !m.data().is_empty()) {
                // The writer died inside the 24-byte global header: batch
                // reads of this file fail the same way.
                let data = self.mapped.as_ref().expect("mapped").data();
                let err = match SliceReader::new(data) {
                    Err(err) => err,
                    Ok(_) => unreachable!("header parsed but state is unset"),
                };
                return Err(FeedError::from_packet(&self.display, err));
            }
            self.drain_available(true);
            return Ok(FeedChunk {
                range: before..self.capture.len(),
                watermark: self.filter.watermark(),
                end_of_feed: true,
            });
        }
        // Bounded exponential backoff: poll, 2×, 4×, 8×, 8×, …
        let delay = self.poll * (1u32 << self.idle.min(3));
        std::thread::sleep(delay);
        self.idle_elapsed += delay;
        self.idle = self.idle.saturating_add(1);
        Ok(FeedChunk {
            range: before..self.capture.len(),
            watermark: self.filter.watermark(),
            end_of_feed: false,
        })
    }
}

/// A synthetic live source over an already-simulated (or otherwise
/// finished) capture, for deterministic replays and testing.
///
/// Each pull reveals the next `chunk_records` packets in the capture's
/// packet order, so chunk boundaries stay invisible (DESIGN.md §10).
pub struct SimFeed<'a> {
    capture: &'a Capture,
    pos: usize,
    chunk_records: usize,
    watermark: SimTime,
}

impl<'a> SimFeed<'a> {
    /// Reveals up to `chunk_records` packets per pull.
    pub fn new(capture: &'a Capture, chunk_records: usize) -> SimFeed<'a> {
        SimFeed {
            capture,
            pos: 0,
            chunk_records: chunk_records.max(1),
            watermark: SimTime::EPOCH,
        }
    }
}

impl Feed for SimFeed<'_> {
    fn capture(&self) -> &Capture {
        self.capture
    }

    fn stats(&self) -> IngestStats {
        IngestStats {
            records_read: self.pos as u64,
            parsed: self.pos as u64,
            ..IngestStats::default()
        }
    }

    fn sources_hint(&self) -> usize {
        (self.capture.len() / 8).clamp(16, 1 << 16)
    }

    fn next_chunk(&mut self) -> Result<FeedChunk, FeedError> {
        let packets = self.capture.packets();
        let end = self
            .pos
            .saturating_add(self.chunk_records)
            .min(packets.len());
        let range = self.pos..end;
        for p in &packets[range.clone()] {
            if p.ts > self.watermark {
                self.watermark = p.ts;
            }
        }
        self.pos = end;
        Ok(FeedChunk {
            range,
            watermark: self.watermark,
            end_of_feed: self.pos >= packets.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CapturedPacket, Protocol};
    use crate::config::{TelescopeConfig, TelescopeId};
    use bytes::Bytes;
    use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};

    fn default_capture() -> Capture {
        Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()))
    }

    fn probe(dst: &str) -> Vec<u8> {
        PacketBuilder::new("2001:db8:f00::1".parse().unwrap(), dst.parse().unwrap())
            .icmpv6_echo_request(1, 1, b"yarrp")
    }

    fn pcap_with(times: &[u64]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for &ts in times {
            w.write_record(&PcapRecord {
                ts: SimTime::from_secs(ts),
                ts_micros: 0,
                data: probe("2001:db8:3::1"),
            })
            .unwrap();
        }
        w.into_inner().unwrap()
    }

    /// The batch reference: the whole image through one
    /// `extend_from_views` call.
    fn one_chunk_ingest(bytes: &[u8]) -> (Capture, IngestStats) {
        let views: Vec<ViewOutcome> = SliceReader::new(bytes).unwrap().collect();
        let mut capture = default_capture();
        let mut stats = IngestStats::default();
        capture.extend_from_views(&views, &mut stats);
        (capture, stats)
    }

    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "sixscope-telescope-feed-{}-{name}",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn pcap_feed_matches_recovering_ingest() {
        let bytes = pcap_with(&[1, 2, 3, 4, 5]);
        let path = temp_file("match.pcap", &bytes);
        let mut feed = PcapFeed::new(default_capture(), [&path], 2);
        loop {
            let chunk = feed.next_chunk().unwrap();
            if chunk.end_of_feed {
                assert_eq!(chunk.watermark, SimTime::from_secs(5));
                break;
            }
        }
        let (capture, stats, file_stats) = feed.finish();
        let (reference, ref_stats) = one_chunk_ingest(&bytes);
        assert_eq!(capture.packets(), reference.packets());
        assert_eq!(stats, ref_stats);
        assert_eq!(file_stats.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pcap_feed_spans_multiple_files() {
        let a = temp_file("multi-a.pcap", &pcap_with(&[1, 2]));
        let b = temp_file("multi-b.pcap", &pcap_with(&[3]));
        let mut feed = PcapFeed::new(default_capture(), [&a, &b], usize::MAX);
        let mut total = 0..0;
        loop {
            let chunk = feed.next_chunk().unwrap();
            total.end = chunk.range.end;
            if chunk.end_of_feed {
                break;
            }
        }
        assert_eq!(total, 0..3);
        assert_eq!(feed.file_stats().len(), 2);
        assert_eq!(feed.stats().parsed, 3);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn tail_feed_picks_up_appended_records() {
        let full = pcap_with(&[1, 2, 3, 4]);
        // Cut mid-record: the second half completes the in-flight record.
        let cut = 24 + (full.len() - 24) / 2;
        let path = temp_file("grow.pcap", &full[..cut]);
        let mut feed = TailFeed::new(
            default_capture(),
            &path,
            usize::MAX,
            crate::session::SESSION_TIMEOUT,
        )
        .poll_interval(Duration::from_millis(1))
        .quiesce_after(Duration::from_millis(20));
        let first = feed.next_chunk().unwrap();
        assert!(!first.end_of_feed);
        let consumed_after_first = feed.resume_offset();
        // Complete the file.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&full[cut..]).unwrap();
        drop(f);
        let mut last = first;
        while !last.end_of_feed {
            last = feed.next_chunk().unwrap();
        }
        // The cursor only ever moved forward: no prefix re-read.
        assert!(feed.resume_offset() >= consumed_after_first);
        let (capture, stats) = feed.finish();
        assert_eq!(capture.len(), 4, "all four records seen exactly once");
        assert_eq!(stats.parsed, 4);
        assert!(!stats.truncated_tail, "the in-flight record completed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_feed_accounts_tail_left_truncated() {
        let full = pcap_with(&[1, 2]);
        let cut = full.len() - 5; // final record stays incomplete forever
        let path = temp_file("tail.pcap", &full[..cut]);
        let mut feed = TailFeed::new(
            default_capture(),
            &path,
            usize::MAX,
            crate::session::SESSION_TIMEOUT,
        )
        .poll_interval(Duration::from_millis(1))
        .quiesce_after(Duration::from_millis(5));
        loop {
            if feed.next_chunk().unwrap().end_of_feed {
                break;
            }
        }
        let (capture, stats) = feed.finish();
        let (reference, ref_stats) = one_chunk_ingest(&full[..cut]);
        assert_eq!(capture.len(), reference.len());
        assert_eq!(stats, ref_stats, "quiesce accounts the tail like batch");
        assert!(stats.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn late_filter_drops_only_beyond_horizon() {
        let mut f = LateFilter::new(SimDuration::secs(3600));
        assert!(f.admit(SimTime::from_secs(10_000)));
        // In-horizon disorder is admitted and does not move the watermark.
        assert!(f.admit(SimTime::from_secs(9_000)));
        assert_eq!(f.watermark(), SimTime::from_secs(10_000));
        // Exactly one horizon old: rejected (mirrors sessionizer eviction).
        assert!(!f.admit(SimTime::from_secs(6_400)));
        assert_eq!(f.late_records(), 1);
        assert!(f.admit(SimTime::from_secs(20_000)));
        assert_eq!(f.watermark(), SimTime::from_secs(20_000));
    }

    #[test]
    fn sim_feed_reveals_whole_capture_in_chunks() {
        let mut capture = default_capture();
        for ts in [5u64, 10, 15, 20, 25] {
            capture.push(CapturedPacket {
                ts: SimTime::from_secs(ts),
                telescope: TelescopeId::T3,
                src: "2001:db8:f00::1".parse().unwrap(),
                dst: "2001:db8:3::1".parse().unwrap(),
                protocol: Protocol::Icmpv6,
                src_port: None,
                dst_port: None,
                payload: Bytes::new(),
            });
        }
        let mut feed = SimFeed::new(&capture, 2);
        let mut seen = Vec::new();
        loop {
            let chunk = feed.next_chunk().unwrap();
            seen.extend(chunk.range.clone());
            if chunk.end_of_feed {
                assert_eq!(chunk.watermark, SimTime::from_secs(25));
                break;
            }
        }
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
    }
}
