//! Feed-abstraction benchmarks: the unified [`Feed`] pull loop against
//! the raw zero-copy reader it wraps. The trait adds per-chunk dispatch
//! and watermark tracking; the target is to stay within a few percent of
//! the direct `SliceReader` path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::ingest::passive_config;
use sixscope::packet::{PacketBuilder, PcapRecord, PcapWriter, SliceReader, ViewOutcome};
use sixscope_bench::bench_corpus;
use sixscope_telescope::{Capture, Feed, IngestStats, PcapFeed, Protocol, SimFeed, TelescopeId};
use sixscope_types::Ipv6Prefix;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Renders the bench corpus's T1 capture into an in-memory classic pcap
/// image, so every bench below reads identical bytes.
fn pcap_image() -> (Vec<u8>, usize) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let mut writer = PcapWriter::new(Vec::new()).expect("pcap header");
    for p in capture.packets() {
        let builder = PacketBuilder::new(p.src, p.dst);
        let data = match p.protocol {
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
                data,
            })
            .expect("write bench record");
    }
    (
        writer.into_inner().expect("flush bench pcap"),
        capture.len(),
    )
}

fn passive() -> Capture {
    Capture::new(passive_config(Ipv6Prefix::default_route()))
}

fn bench_feed(c: &mut Criterion) {
    let (image, records) = pcap_image();
    // Keyed on pid, a per-process counter and the caller, like the
    // integration tests' `TempDir`, so concurrent runs never share it.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "sixscope-bench-{}-{n}-bench_feed.pcap",
        std::process::id()
    ));
    std::fs::write(&path, &image).expect("write bench pcap");

    let mut group = c.benchmark_group("feed");
    group.throughput(Throughput::Elements(records as u64));

    // The unified pull loop: chunked PcapFeed into a capture, with
    // watermark tracking and per-file statistics.
    group.bench_function("pcap_feed", |b| {
        b.iter(|| {
            let mut feed = PcapFeed::new(passive(), [&path], 1 << 14);
            loop {
                let chunk = feed.next_chunk().expect("bench file is readable");
                if chunk.end_of_feed {
                    break;
                }
            }
            let (capture, stats, _) = feed.finish();
            black_box((capture.len(), stats.parsed))
        })
    });

    // The raw zero-copy loop the feed wraps — same chunk size, no trait
    // dispatch, no watermark.
    group.bench_function("slice_reader", |b| {
        b.iter(|| {
            let mut reader = SliceReader::new(&image).expect("valid header");
            let mut capture = passive();
            let mut stats = IngestStats::default();
            let mut views: Vec<ViewOutcome<'_>> = Vec::new();
            while reader.next_chunk(1 << 14, &mut views) {
                capture.extend_from_views(&views, &mut stats);
            }
            black_box((capture.len(), stats.parsed))
        })
    });

    group.finish();

    // Synthetic reveal: how fast the sim lane can hand an already-built
    // capture to the consumer, chunk by chunk.
    let analyzed = bench_corpus();
    let capture = analyzed.capture(TelescopeId::T1);
    let mut group = c.benchmark_group("sim_feed");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("chunked_reveal", |b| {
        b.iter(|| {
            let mut feed = SimFeed::new(capture, 1 << 12);
            let mut revealed = 0usize;
            loop {
                let chunk = feed.next_chunk().expect("sim feeds cannot fail");
                revealed += chunk.range.len();
                if chunk.end_of_feed {
                    break;
                }
            }
            black_box(revealed)
        })
    });
    group.finish();

    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_feed
}
criterion_main!(benches);
