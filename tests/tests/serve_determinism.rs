//! Serve-daemon determinism (DESIGN.md §10, §14): the final checkpoint is
//! byte-identical across worker-thread counts and chunk sizes, equals the
//! batch `analyze` stdout over the same finished pcap, and equals the
//! streaming pipeline's tables for a simulated source.

use sixscope::serve::{self, ServeOptions};
use sixscope::sim::ScenarioConfig;
use sixscope::Pipeline;
use sixscope_integration::TempDir;
use sixscope_types::Ipv6Prefix;
use std::num::NonZeroU64;
use std::path::PathBuf;

const SEED: u64 = 20230824;
const SCALE: f64 = 0.004;

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR")))
}

fn serve_once(opts: ServeOptions) -> String {
    let summary = serve::serve(opts).unwrap();
    std::fs::read_to_string(summary.latest).unwrap()
}

/// `serve --sim` at seed 20230824 yields one byte sequence regardless of
/// worker threads or chunking, and that sequence is exactly what
/// `sixscope run` prints for the same scenario.
#[test]
fn sim_serve_is_invariant_and_matches_the_batch_pipeline() {
    let analyzed = Pipeline::simulate(ScenarioConfig::new(SEED, SCALE))
        .run()
        .unwrap();
    let expected = serve::tables_report(&analyzed, false);
    for (threads, chunk) in [(1, 7), (8, 7), (1, usize::MAX), (8, usize::MAX)] {
        let dir = TempDir::new(&format!("serve-sim-{threads}-{chunk}"));
        let mut opts = ServeOptions::sim(SEED, SCALE, dir.path());
        opts.threads = Some(threads);
        opts.chunk_records = chunk;
        let latest = serve_once(opts);
        assert_eq!(
            latest, expected,
            "sim serve diverged at threads={threads} chunk={chunk}"
        );
    }
}

/// Serving a finished pcap yields the exact stdout bytes of batch
/// `sixscope analyze` over the same file, at every thread count and chunk
/// size — including the JSON rendering, which carries the recovery
/// statistics.
#[test]
fn pcap_serve_final_checkpoint_equals_batch_analyze() {
    let pcap = corpus_path("mixed.pcap");
    let batch = Pipeline::from_pcaps([&pcap])
        .prefix(Ipv6Prefix::default_route())
        .run_detailed()
        .unwrap();
    for json in [false, true] {
        let expected = serve::analysis_report(&batch.analyzed, &batch.stats, json);
        for (threads, chunk) in [(1, 7), (8, 7), (1, usize::MAX), (8, usize::MAX)] {
            let dir = TempDir::new(&format!("serve-pcap-{json}-{threads}-{chunk}"));
            let mut opts = ServeOptions::pcap(&pcap, dir.path());
            opts.threads = Some(threads);
            opts.chunk_records = chunk;
            opts.json = json;
            opts.poll_ms = 1;
            opts.quiesce_ms = 20;
            let latest = serve_once(opts);
            assert_eq!(
                latest, expected,
                "pcap serve diverged at json={json} threads={threads} chunk={chunk}"
            );
        }
    }
}

/// Mid-run snapshots are well-formed and numbered, and the run's summary
/// counts them; the last numbered snapshot has the same bytes as
/// `latest.md`.
#[test]
fn snapshots_are_numbered_and_latest_mirrors_the_last() {
    let dir = TempDir::new("serve-snapshots");
    let mut opts = ServeOptions::pcap(corpus_path("mixed.pcap"), dir.path());
    opts.snapshot_every = NonZeroU64::new(1);
    opts.chunk_records = 1;
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    let summary = serve::serve(opts).unwrap();
    assert!(summary.snapshots >= 2, "expected mid-run snapshots");
    let last = dir.join(format!("snapshot-{:06}.md", summary.snapshots));
    assert_eq!(
        std::fs::read_to_string(&last).unwrap(),
        std::fs::read_to_string(dir.join("latest.md")).unwrap(),
        "latest.md must mirror the final numbered snapshot"
    );
    for seq in 1..=summary.snapshots {
        assert!(
            dir.join(format!("snapshot-{seq:06}.md")).exists(),
            "snapshot {seq} missing"
        );
    }
}
