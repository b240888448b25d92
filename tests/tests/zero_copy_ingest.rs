//! The zero-copy ingest contract (DESIGN.md §11): borrowed record views
//! must be observably identical to the owned records they replaced, and
//! the mmap backing must be a pure residency optimization.
//!
//! * Borrow-vs-owned equivalence: every corpus file — and thousands of
//!   proptest-mutated variants — read by the owned reference reader from
//!   `sixscope-oracle` and applied one record at a time, and read by
//!   `SliceReader` and fed in chunks through `Capture::extend_from_views`,
//!   yields identical [`IngestStats`] and identical per-packet fields.
//! * Fallback: `MappedPcap::open_buffered` (the no-mmap path) produces the
//!   same bytes, records and statistics as `MappedPcap::open` — the
//!   backing changes memory residency, never observable output.

use proptest::prelude::*;
use sixscope::ingest::passive_config;
use sixscope_integration::TempDir;
use sixscope_oracle::{PcapReader, RecordOutcome};
use sixscope_packet::{MappedPcap, RecordView, SliceReader, ViewOutcome};
use sixscope_telescope::{Capture, IngestStats};
use sixscope_types::Ipv6Prefix;
use std::path::PathBuf;

const CORPUS: [&str; 4] = [
    "clean.pcap",
    "lying_lengths.pcap",
    "mixed.pcap",
    "truncated_header.pcap",
];

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR")))
}

fn telescope_prefix() -> Ipv6Prefix {
    "2001:db8::/32".parse().unwrap()
}

/// Ingests `bytes` through the owned reference reader, applying each
/// owned record on its own as soon as it is read.
fn ingest_owned(bytes: &[u8]) -> Option<(Capture, IngestStats)> {
    let mut reader = PcapReader::new(bytes).ok()?;
    let mut capture = Capture::new(passive_config(telescope_prefix()));
    let mut stats = IngestStats::default();
    while let Ok(Some(outcome)) = reader.read_record_recovering() {
        let view = match &outcome {
            RecordOutcome::Record(rec) => ViewOutcome::Record(RecordView {
                ts: rec.ts,
                ts_micros: rec.ts_micros,
                data: &rec.data,
            }),
            RecordOutcome::Skipped(m) => ViewOutcome::Skipped(*m),
            RecordOutcome::TruncatedTail(m) => ViewOutcome::TruncatedTail(*m),
        };
        capture.apply_outcome_view(&view, &mut stats);
    }
    Some((capture, stats))
}

/// Ingests `bytes` through borrowed views and the batched
/// `extend_from_views` feed — the zero-copy path, at chunk size `chunk`.
fn ingest_views(bytes: &[u8], chunk: usize) -> Option<(Capture, IngestStats)> {
    let mut reader = SliceReader::new(bytes).ok()?;
    let mut capture = Capture::new(passive_config(telescope_prefix()));
    let mut stats = IngestStats::default();
    let mut views: Vec<ViewOutcome<'_>> = Vec::new();
    while reader.next_chunk(chunk, &mut views) {
        capture.extend_from_views(&views, &mut stats);
    }
    Some((capture, stats))
}

/// Asserts the two paths agree on every observable: the reader-level
/// outcome sequence, the ingest statistics, and every per-packet field.
fn assert_paths_agree(bytes: &[u8], label: &str) {
    let owned = ingest_owned(bytes);
    for chunk in [1usize, 3, usize::MAX] {
        let views = ingest_views(bytes, chunk);
        match (&owned, views) {
            (None, None) => {}
            (Some((ocap, ostats)), Some((vcap, vstats))) => {
                assert_eq!(ostats, &vstats, "{label}: stats diverged at chunk {chunk}");
                assert_eq!(
                    ocap.packets(),
                    vcap.packets(),
                    "{label}: packets diverged at chunk {chunk}"
                );
                assert_eq!(ocap.filtered(), vcap.filtered(), "{label}: filtered count");
            }
            (o, v) => panic!(
                "{label}: header acceptance diverged: owned={} views={}",
                o.is_some(),
                v.is_some()
            ),
        }
    }
}

#[test]
fn corpus_files_ingest_identically_borrowed_and_owned() {
    for name in CORPUS {
        let bytes = std::fs::read(corpus_path(name)).unwrap();
        assert_paths_agree(&bytes, name);
    }
}

#[test]
fn mmap_and_buffered_backings_are_observably_identical() {
    for name in CORPUS {
        let path = corpus_path(name);
        let mapped = MappedPcap::open(&path).unwrap();
        let buffered = MappedPcap::open_buffered(&path).unwrap();
        assert!(!buffered.used_mmap());
        assert_eq!(mapped.data(), buffered.data(), "{name}: backing bytes");
        let (mcap, mstats) = ingest_views(mapped.data(), usize::MAX).unwrap();
        let (bcap, bstats) = ingest_views(buffered.data(), usize::MAX).unwrap();
        assert_eq!(mstats, bstats, "{name}: stats diverged across backings");
        assert_eq!(mcap.packets(), bcap.packets(), "{name}: packets");
    }
}

#[test]
fn empty_and_missing_files_degrade_gracefully() {
    // Zero-length file: mmap(2) rejects len 0, so open() must fall back to
    // the buffered read and then fail header validation like any short read.
    let dir = TempDir::new("zero-copy-empty");
    let path = dir.join("empty.pcap");
    std::fs::write(&path, b"").unwrap();
    let mapped = MappedPcap::open(&path).unwrap();
    assert!(!mapped.used_mmap(), "zero-length mmap must fall back");
    assert!(mapped.reader().is_err(), "empty file has no pcap header");

    // A missing file errors instead of panicking, on both constructors.
    let missing = dir.join("does-not-exist.pcap");
    assert!(MappedPcap::open(&missing).is_err());
    assert!(MappedPcap::open_buffered(&missing).is_err());
}

proptest! {
    /// Mutated corpus bytes (truncations, byte flips, splices) ingest
    /// identically through the borrowed and owned paths.
    #[test]
    fn mutated_corpora_ingest_identically(
        file in 0usize..CORPUS.len(),
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bits in 0u8..=255,
    ) {
        let mut bytes = std::fs::read(corpus_path(CORPUS[file])).unwrap();
        if !bytes.is_empty() {
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_bits;
            bytes.truncate(bytes.len() - cut % bytes.len().max(1));
        }
        assert_paths_agree(&bytes, CORPUS[file]);
    }
}
