//! Zero-copy ingest benchmarks: the recovering slice reader plus the
//! batched parse kernel over an in-memory pcap image, against the owned
//! reference reader in `sixscope-oracle`. Throughput is reported in
//! records/sec — the single-core target for `view_parse` is ≥1M pkt/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::packet::{
    parse_run, PacketBuilder, ParsedView, PcapRecord, PcapWriter, SliceReader, ViewOutcome,
};
use sixscope_bench::bench_corpus;
use sixscope_oracle::{PcapReader, RecordOutcome};
use sixscope_telescope::{Protocol, TelescopeId};
use std::hint::black_box;

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

fn bench_ingest(c: &mut Criterion) {
    let (image, records) = pcap_image();
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(records as u64));

    // The zero-copy path: borrowed record views cut in chunks, parsed by
    // the batched kernel. No per-record allocation anywhere.
    group.bench_function("view_parse", |b| {
        let mut views: Vec<ViewOutcome<'_>> = Vec::new();
        let mut parsed = Vec::new();
        let mut run = Vec::new();
        b.iter(|| {
            let mut reader = SliceReader::new(&image).expect("valid header");
            let mut ok = 0usize;
            while reader.next_chunk(1 << 14, &mut views) {
                run.clear();
                run.extend(views.iter().filter_map(|v| match v {
                    ViewOutcome::Record(r) => Some(*r),
                    _ => None,
                }));
                let failed = parse_run(&run, &mut parsed);
                ok += parsed.len();
                black_box(failed);
            }
            black_box(ok)
        })
    });

    // The owned reference reader: every record copied into a fresh
    // `Vec<u8>`, then parsed one at a time.
    group.bench_function("owned_parse", |b| {
        b.iter(|| {
            let mut reader = PcapReader::new(&image[..]).expect("valid header");
            let mut ok = 0usize;
            while let Ok(Some(outcome)) = reader.read_record_recovering() {
                if let RecordOutcome::Record(rec) = outcome {
                    if ParsedView::parse(&rec.data).is_ok() {
                        ok += 1;
                    }
                }
            }
            black_box(ok)
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_ingest
}
criterion_main!(benches);
