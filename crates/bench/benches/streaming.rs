//! Streaming-pipeline benchmarks: the incremental sessionizer against the
//! batch sessionizer on the same capture, and the chunked pcap pipeline at
//! several chunk sizes (whose outputs are byte-identical — only memory and
//! wall-clock move).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::Pipeline;
use sixscope_bench::bench_corpus;
use sixscope_telescope::{AggLevel, IncrementalSessionizer, Sessionizer, TelescopeId};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bench_incremental_sessionizer(c: &mut Criterion) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let mut group = c.benchmark_group("streaming_sessionizer");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("batch_t1_128", |b| {
        b.iter(|| black_box(Sessionizer::paper(AggLevel::Addr128).sessionize(capture)))
    });
    group.bench_function("incremental_t1_128", |b| {
        b.iter(|| {
            let mut inc = IncrementalSessionizer::paper(AggLevel::Addr128);
            for (i, p) in capture.packets().iter().enumerate() {
                inc.push(i as u32, p);
            }
            black_box(inc.finish())
        })
    });
    group.finish();
}

/// Writes the bench corpus's T1 capture to a temp pcap once, then times
/// the full streaming pipeline over it at different chunk sizes.
fn bench_chunked_pipeline(c: &mut Criterion) {
    use sixscope::packet::{PacketBuilder, PcapRecord, PcapWriter};
    use sixscope_telescope::Protocol;

    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    // Keyed on pid, a per-process counter and the caller, like the
    // integration tests' `TempDir`, so concurrent runs never share it.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "sixscope-bench-{}-{n}-bench_chunked_pipeline.pcap",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create bench pcap");
    let mut writer = PcapWriter::new(file).expect("pcap header");
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
    writer.into_inner().expect("flush bench pcap");

    let mut group = c.benchmark_group("streaming_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(capture.len() as u64));
    for chunk in [1usize << 12, usize::MAX] {
        let label = if chunk == usize::MAX {
            "unchunked".to_string()
        } else {
            format!("chunk_{chunk}")
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = Pipeline::from_pcaps([path.clone()])
                    .chunk_records(chunk)
                    .run_detailed()
                    .expect("bench pcap must stream");
                black_box(out.analyzed.peak_open_sessions)
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_incremental_sessionizer, bench_chunked_pipeline
}
criterion_main!(benches);
