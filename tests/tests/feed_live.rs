//! The live feed contract (DESIGN.md §14), end to end: a [`TailFeed`]
//! following a growing pcap file must see every record exactly once —
//! never re-reading the consumed prefix across remaps — and its final
//! state must equal a batch run over the finished file, including the
//! accounting of a record the writer never completed.

use sixscope::ingest::passive_config;
use sixscope::serve::{self, ServeOptions};
use sixscope::Pipeline;
use sixscope_integration::TempDir;
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_telescope::{Capture, Feed, TailFeed, SESSION_TIMEOUT};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

fn probe(src_host: u16, ts: u64) -> PcapRecord {
    let src = format!("2001:db8:f00::{src_host:x}").parse().unwrap();
    let dst = "2001:db8::1".parse().unwrap();
    PcapRecord {
        ts: SimTime::from_secs(ts),
        ts_micros: 0,
        data: PacketBuilder::new(src, dst).icmpv6_echo_request(1, 1, b"live"),
    }
}

/// A pcap image with `n` records at one-second spacing.
fn pcap_image(n: u64) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for ts in 0..n {
        w.write_record(&probe((ts % 7) as u16 + 1, ts)).unwrap();
    }
    w.into_inner().unwrap()
}

fn default_route() -> Ipv6Prefix {
    Ipv6Prefix::default_route()
}

fn tail_feed(path: &PathBuf) -> TailFeed {
    TailFeed::new(
        Capture::new(passive_config(default_route())),
        path,
        usize::MAX,
        SESSION_TIMEOUT,
    )
    .poll_interval(Duration::from_millis(1))
    .quiesce_after(Duration::from_millis(20))
}

/// The central live-tail property: grow the file in several appends, some
/// of which land mid-record, and check (a) the resume offset only ever
/// moves forward — the consumed prefix is never re-read — and (b) the
/// final capture and statistics equal a batch pipeline run over the
/// finished file.
#[test]
fn growing_file_is_read_once_and_matches_batch() {
    let full = pcap_image(12);
    // Cut points: after the header, mid-record twice, then the end.
    let cuts = [
        24 + 30,
        full.len() / 3 + 11,
        2 * full.len() / 3 + 5,
        full.len(),
    ];
    let dir = TempDir::new("live-grow");
    let path = dir.join("grow.pcap");
    std::fs::write(&path, &full[..cuts[0]]).unwrap();

    let mut feed = tail_feed(&path);
    let mut max_offset = 0usize;
    let mut written = cuts[0];
    let mut next_cut = 1;
    loop {
        let chunk = feed.next_chunk().unwrap();
        assert!(
            feed.resume_offset() >= max_offset,
            "resume offset went backwards: prefix re-read"
        );
        max_offset = feed.resume_offset();
        if chunk.end_of_feed {
            break;
        }
        // Once the feed reports an idle poll (nothing complete left to
        // read), append the next slice (the writer keeps going).
        if next_cut < cuts.len() && chunk.range.is_empty() {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&full[written..cuts[next_cut]]).unwrap();
            written = cuts[next_cut];
            next_cut += 1;
        }
    }
    let (capture, stats) = feed.finish();

    let batch_path = dir.join("grow-batch.pcap");
    std::fs::write(&batch_path, &full).unwrap();
    let batch = Pipeline::from_pcaps([&batch_path])
        .prefix(default_route())
        .run_detailed()
        .unwrap();
    let batch_capture = batch.analyzed.capture(sixscope_telescope::TelescopeId::T1);
    assert_eq!(capture.len(), 12, "every record seen exactly once");
    assert_eq!(capture.packets(), batch_capture.packets());
    assert_eq!(
        stats, batch.stats,
        "live accounting equals batch accounting"
    );
    assert!(!stats.truncated_tail);
}

/// A writer that dies mid-record: the held-back truncated tail must be
/// accounted at quiesce exactly as a batch read of the final bytes would.
#[test]
fn abandoned_tail_is_accounted_like_batch() {
    let full = pcap_image(5);
    let cut = full.len() - 9;
    let dir = TempDir::new("live-abandoned");
    let path = dir.join("abandoned.pcap");
    std::fs::write(&path, &full[..cut]).unwrap();

    let mut feed = tail_feed(&path);
    loop {
        if feed.next_chunk().unwrap().end_of_feed {
            break;
        }
    }
    let (capture, stats) = feed.finish();

    let batch_path = dir.join("abandoned-batch.pcap");
    std::fs::write(&batch_path, &full[..cut]).unwrap();
    let batch = Pipeline::from_pcaps([&batch_path])
        .prefix(default_route())
        .run_detailed()
        .unwrap();
    assert_eq!(capture.len(), 4);
    assert_eq!(stats, batch.stats);
    assert!(stats.truncated_tail);
}

/// The same growth scenario through the serve daemon: the final
/// checkpoint written while a background writer appends the second half
/// must be byte-identical to the batch `analyze` report over the
/// finished file.
#[test]
fn serve_over_a_growing_file_matches_batch_report() {
    let full = pcap_image(10);
    let cut = full.len() / 2 + 7;
    let dir = TempDir::new("live-serve-grow");
    let path = dir.join("serve-grow.pcap");
    std::fs::write(&path, &full[..cut]).unwrap();

    let writer_path = path.clone();
    let tail = full[cut..].to_vec();
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&writer_path)
            .unwrap();
        f.write_all(&tail).unwrap();
    });

    let out_dir = dir.join("serve-grow-out");
    let mut opts = ServeOptions::pcap(&path, &out_dir);
    opts.poll_ms = 1;
    opts.quiesce_ms = 400;
    let summary = serve::serve(opts).unwrap();
    writer.join().unwrap();
    assert_eq!(summary.packets, 10);
    assert_eq!(summary.late_records, 0);

    let batch_path = dir.join("serve-grow-batch.pcap");
    std::fs::write(&batch_path, &full).unwrap();
    let batch = Pipeline::from_pcaps([&batch_path])
        .prefix(default_route())
        .run_detailed()
        .unwrap();
    let expected = serve::analysis_report(&batch.analyzed, &batch.stats, false);
    let latest = std::fs::read_to_string(&summary.latest).unwrap();
    assert_eq!(latest, expected, "final checkpoint diverged from batch");
}
