//! Golden pins of the serve daemon's observable output (DESIGN.md §14):
//! the exact `--status-fd` line sequence, the snapshot file list and each
//! snapshot's bytes, for both the simulated and the pcap source with
//! `--snapshot-every`.
//!
//! The two modes differ in one visible way that these pins hold on
//! purpose. A simulated replay checkpoints after the round that ends it
//! too, so below it writes snapshot 4 with the same bytes as the final
//! snapshot 5. A pcap tail never checkpoints on the chunk that ends its
//! feed: that drain goes into the final checkpoint only.
//!
//! A second test pins the out-of-order branch of a mid-run pcap
//! checkpoint: the snapshot equals a batch `analyze` over exactly the
//! revealed prefix.

use sixscope::serve::{self, ServeOptions};
use sixscope::Pipeline;
use sixscope_integration::TempDir;
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::num::NonZeroU64;
use std::os::unix::io::AsRawFd;
use std::path::Path;

/// FNV-1a, 64 bit: a compact stand-in for a snapshot's bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn probe(src_host: u16, ts: u64) -> PcapRecord {
    let src = format!("2001:db8:f00::{src_host:x}").parse().unwrap();
    let dst = format!("2001:db8::{:x}", ts % 11 + 1).parse().unwrap();
    let b = PacketBuilder::new(src, dst);
    PcapRecord {
        ts: SimTime::from_secs(ts),
        ts_micros: 0,
        data: match ts % 3 {
            0 => b.icmpv6_echo_request(1, ts as u16, b"golden"),
            1 => b.tcp_syn(40_000, 443, ts as u32, &[]),
            _ => b.udp(40_001, 53, b"golden"),
        },
    }
}

/// A finished pcap with one record per timestamp, in the given order.
fn pcap_image(times: &[u64]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for &ts in times {
        w.write_record(&probe((ts % 5) as u16 + 1, ts)).unwrap();
    }
    w.into_inner().unwrap()
}

/// Runs `opts` with its status lines on a file in `dir`; returns the
/// status lines and the `(name, fnv)` list of every file in the out dir.
fn serve_with_status(mut opts: ServeOptions, dir: &TempDir) -> (Vec<String>, Vec<(String, u64)>) {
    let status_path = dir.join("status.jsonl");
    let status = std::fs::File::create(&status_path).unwrap();
    opts.status_fd = Some(status.as_raw_fd());
    let out_dir = opts.out_dir.clone();
    serve::serve(opts).unwrap();
    drop(status);
    let lines = std::fs::read_to_string(&status_path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (lines, listing(&out_dir))
}

fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fnv(&std::fs::read(e.path()).unwrap()))
        })
        .collect();
    files.sort();
    files
}

fn assert_lines(actual: &[String], expected: &[&str], what: &str) {
    assert_eq!(
        actual,
        expected,
        "{what} status lines changed; actual:\n{}",
        actual.join("\n")
    );
}

fn assert_files(actual: &[(String, u64)], expected: &[(&str, u64)], what: &str) {
    let actual_ref: Vec<(&str, u64)> = actual.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(
        actual_ref, expected,
        "{what} snapshot files changed; actual: {actual_ref:#x?}"
    );
}

#[test]
fn sim_serve_status_lines_and_snapshots_are_pinned() {
    let dir = TempDir::new("serve-golden-sim");
    let mut opts = ServeOptions::sim(20230824, 0.004, dir.join("out"));
    opts.threads = Some(2);
    opts.chunk_records = 15000;
    opts.snapshot_every = NonZeroU64::new(25000);
    let (lines, files) = serve_with_status(opts, &dir);
    assert_lines(
        &lines,
        &[
        "{\"event\":\"snapshot\",\"snapshot\":1,\"packets\":30308,\"sessions_128\":233,\"sessions_64\":233,\"peak_open_sessions\":2,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":18889694}",
        "{\"event\":\"snapshot\",\"snapshot\":2,\"packets\":60308,\"sessions_128\":637,\"sessions_64\":622,\"peak_open_sessions\":7,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":20839291}",
        "{\"event\":\"snapshot\",\"snapshot\":3,\"packets\":90308,\"sessions_128\":836,\"sessions_64\":816,\"peak_open_sessions\":7,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":25126128}",
        "{\"event\":\"snapshot\",\"snapshot\":4,\"packets\":108799,\"sessions_128\":996,\"sessions_64\":976,\"peak_open_sessions\":7,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":26642237}",
        "{\"event\":\"final\",\"snapshot\":5,\"packets\":108799,\"sessions_128\":996,\"sessions_64\":976,\"peak_open_sessions\":7,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":26642237}",
        ],
        "sim",
    );
    assert_files(
        &files,
        &[
            ("latest.md", 0xbb5a9b5272175a68),
            ("snapshot-000001.md", 0x7c620a02dd83a3cc),
            ("snapshot-000002.md", 0xd07fc3228ccbc575),
            ("snapshot-000003.md", 0x3d0f96023614c45f),
            ("snapshot-000004.md", 0xbb5a9b5272175a68),
            ("snapshot-000005.md", 0xbb5a9b5272175a68),
        ],
        "sim",
    );
}

#[test]
fn pcap_serve_status_lines_and_snapshots_are_pinned() {
    let dir = TempDir::new("serve-golden-pcap");
    let times: Vec<u64> = (0..24).map(|i| 100 + i * 37).collect();
    let mut image = pcap_image(&times);
    // A record the writer never finished: counted at quiesce only.
    let tail = pcap_image(&[2_000]);
    image.extend_from_slice(&tail[24..tail.len() - 5]);
    let pcap = dir.join("golden.pcap");
    std::fs::write(&pcap, &image).unwrap();
    let mut opts = ServeOptions::pcap(&pcap, dir.join("out"));
    opts.chunk_records = 3;
    opts.snapshot_every = NonZeroU64::new(5);
    opts.json = true;
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    let (lines, files) = serve_with_status(opts, &dir);
    assert_lines(
        &lines,
        &[
        "{\"event\":\"snapshot\",\"snapshot\":1,\"packets\":6,\"sessions_128\":5,\"sessions_64\":1,\"peak_open_sessions\":5,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":285}",
        "{\"event\":\"snapshot\",\"snapshot\":2,\"packets\":12,\"sessions_128\":5,\"sessions_64\":1,\"peak_open_sessions\":5,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":507}",
        "{\"event\":\"snapshot\",\"snapshot\":3,\"packets\":15,\"sessions_128\":5,\"sessions_64\":1,\"peak_open_sessions\":5,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":618}",
        "{\"event\":\"snapshot\",\"snapshot\":4,\"packets\":21,\"sessions_128\":5,\"sessions_64\":1,\"peak_open_sessions\":5,\"late_records\":0,\"skipped\":0,\"truncated_tail\":false,\"watermark\":840}",
        "{\"event\":\"final\",\"snapshot\":5,\"packets\":24,\"sessions_128\":5,\"sessions_64\":1,\"peak_open_sessions\":5,\"late_records\":0,\"skipped\":1,\"truncated_tail\":true,\"watermark\":951}",
        ],
        "pcap",
    );
    assert_files(
        &files,
        &[
            ("latest.md", 0xeb52bfda1e1e901),
            ("snapshot-000001.md", 0x4889c61e9f4d26f1),
            ("snapshot-000002.md", 0x7b751c9717918640),
            ("snapshot-000003.md", 0x2b45ce233239592a),
            ("snapshot-000004.md", 0xb4e5c2996539793d),
            ("snapshot-000005.md", 0xeb52bfda1e1e901),
        ],
        "pcap",
    );
}

/// Out-of-order records (inside the eviction horizon, so the tail admits
/// them) make the live consumer fall back; a mid-run checkpoint then
/// re-feeds a sorted copy of the revealed prefix, which must equal batch
/// `analyze` over a file holding exactly that prefix.
#[test]
fn out_of_order_pcap_checkpoint_equals_batch_over_the_revealed_prefix() {
    let times = [100, 40, 160, 130, 90, 220, 400, 310, 520, 505, 700, 640];
    let revealed = 8;
    for json in [false, true] {
        let dir = TempDir::new(&format!("serve-golden-disorder-{json}"));
        let pcap = dir.join("disorder.pcap");
        std::fs::write(&pcap, pcap_image(&times)).unwrap();
        let out = dir.join("out");
        let mut opts = ServeOptions::pcap(&pcap, &out);
        opts.chunk_records = 4;
        opts.snapshot_every = NonZeroU64::new(revealed as u64);
        opts.json = json;
        opts.poll_ms = 1;
        opts.quiesce_ms = 20;
        let summary = serve::serve(opts).unwrap();
        assert_eq!(
            summary.snapshots, 2,
            "one mid-run checkpoint plus the final"
        );
        let snapshot = std::fs::read_to_string(out.join("snapshot-000001.md")).unwrap();

        let prefix = dir.join("prefix.pcap");
        std::fs::write(&prefix, pcap_image(&times[..revealed])).unwrap();
        let batch = Pipeline::from_pcaps([&prefix])
            .prefix(Ipv6Prefix::default_route())
            .run_detailed()
            .unwrap();
        assert_eq!(
            snapshot,
            serve::analysis_report(&batch.analyzed, &batch.stats, json),
            "json={json}"
        );
        let whole = Pipeline::from_pcaps([&pcap]).run_detailed().unwrap();
        assert_eq!(
            std::fs::read_to_string(&summary.latest).unwrap(),
            serve::analysis_report(&whole.analyzed, &whole.stats, json),
            "json={json}"
        );
    }
}
