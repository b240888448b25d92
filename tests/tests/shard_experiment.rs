//! The sharded simulated experiment end to end: scatter a tiny simulated
//! corpus over `.sixshard` files, gather it back, and compare against the
//! single-process run (DESIGN.md §13).
//!
//! Unlike the shard-file unit tests and the core property tests, which use
//! an empty visibility, the simulated corpus carries announced prefixes.
//! Shard files store no prefix column, so this pins the one the gather
//! derives from the experiment's visibility against the single-process
//! one.

use sixscope::index::NO_ID;
use sixscope::serve::tables_report;
use sixscope::shardfile::{merge_experiment, write_experiment_shards};
use sixscope::sim::{Scenario, ScenarioConfig};
use sixscope::Pipeline;
use sixscope_integration::TempDir;
use sixscope_telescope::TelescopeId;

const SEED: u64 = 20230824;
const SCALE: f64 = 0.004;

#[test]
fn sharded_experiment_equals_the_single_process_run() {
    let direct = Pipeline::simulate(ScenarioConfig::new(SEED, SCALE))
        .run()
        .expect("the simulated pipeline cannot fail");
    let want_text = tables_report(&direct, false);
    let want_json = tables_report(&direct, true);
    let want = direct.index.telescope(TelescopeId::T1);
    assert!(
        want.prefix.iter().any(|&id| id != NO_ID),
        "the corpus must route some T1 packets to an announced prefix"
    );

    for pieces in [1, 3] {
        let dir = TempDir::new(&format!("shard-experiment-{pieces}"));
        let result = Scenario::new(ScenarioConfig::new(SEED, SCALE)).run();
        let paths = write_experiment_shards(&result, pieces, dir.path())
            .expect("scatter of a simulated corpus cannot fail");
        let merged = merge_experiment(result, &paths, None)
            .expect("gather of freshly written shards cannot fail");
        assert_eq!(tables_report(&merged, false), want_text, "{pieces} pieces");
        assert_eq!(tables_report(&merged, true), want_json, "{pieces} pieces");
        let got = merged.index.telescope(TelescopeId::T1);
        assert_eq!(got.prefix, want.prefix, "{pieces} pieces");
        assert_eq!(got.prefixes(), want.prefixes(), "{pieces} pieces");
    }
}
