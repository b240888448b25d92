//! Table 7 resolves each scanner's rDNS tool once and scans its packets for
//! payload signatures only. This pins it to the direct definition: the tool
//! `identify` names for the scanner's first packet that names one, on the
//! simulated corpus and on the same corpus with its rDNS names relabelled.

use sixscope::analysis::fingerprint::{identify, rdns_tool, KnownTool, ToolMatch};
use sixscope::sim::ScenarioConfig;
use sixscope::tables::table7;
use sixscope::telescope::TelescopeId;
use sixscope::{Analyzed, Pipeline};
use sixscope_bench::{BENCH_SCALE, SEED};
use std::collections::BTreeMap;

/// `(tool, scanners, sessions)` rows in Table 7's order, from `identify`
/// called on every packet with the scanner's rDNS name.
fn reference_rows(a: &Analyzed) -> Vec<(KnownTool, u64, u64)> {
    let (sessions, profiles) = a.t1_split_profiles();
    let capture = a.capture(TelescopeId::T1);
    let mut by_tool: BTreeMap<KnownTool, (u64, u64)> = BTreeMap::new();
    for profile in profiles {
        let rdns = a.rdns_of(profile.source.prefix.network());
        let tool = profile
            .session_indices
            .iter()
            .flat_map(|&idx| sessions[idx].packets(capture))
            .find_map(|p| match identify(&p.payload, rdns) {
                ToolMatch::Tool(t) => Some(t),
                _ => None,
            });
        if let Some(t) = tool {
            let entry = by_tool.entry(t).or_default();
            entry.0 += 1;
            entry.1 += profile.session_indices.len() as u64;
        }
    }
    let mut rows: Vec<_> = by_tool.into_iter().map(|(t, (n, s))| (t, n, s)).collect();
    rows.sort_by_key(|&(_, scanners, _)| std::cmp::Reverse(scanners));
    rows
}

fn rows(a: &Analyzed) -> Vec<(KnownTool, u64, u64)> {
    table7(a)
        .iter()
        .map(|r| (r.tool, r.scanners, r.sessions))
        .collect()
}

fn check(seed: u64) {
    let mut a = Pipeline::simulate(ScenarioConfig::new(seed, BENCH_SCALE))
        .run()
        .expect("simulated runs cannot fail");
    let natural = rows(&a);
    assert_eq!(natural, reference_rows(&a), "seed {seed}");
    assert!(
        natural.len() > 2,
        "seed {seed}: only {} tools",
        natural.len()
    );
    // The simulated tools' rDNS names always agree with their payloads, so
    // relabel the scanners to make the rDNS tool disagree with, precede and
    // trail the payload signature, and to name a tool for scanners whose
    // payloads name none.
    let (_, profiles) = a.t1_split_profiles();
    let sources: Vec<_> = profiles.iter().map(|p| p.source.prefix.network()).collect();
    for (i, src) in sources.into_iter().enumerate() {
        let name = match i % 4 {
            0 => format!("p{i}.probes.atlas.ripe.net"),
            1 => format!("node{i}.ark.caida.org"),
            2 => format!("host{i}.example.org"),
            _ => continue,
        };
        a.result.population.rdns.insert(src, name);
    }
    let relabelled = rows(&a);
    assert_eq!(relabelled, reference_rows(&a), "seed {seed}, relabelled");
    assert_ne!(
        relabelled, natural,
        "seed {seed}: relabelling changed nothing"
    );
    let (_, profiles) = a.t1_split_profiles();
    assert!(profiles.iter().any(|p| {
        a.rdns_of(p.source.prefix.network()).and_then(rdns_tool) == Some(KnownTool::CaidaArk)
    }));
}

#[test]
fn table7_matches_per_packet_identify_at_the_bench_seed() {
    check(SEED);
}

#[test]
fn table7_matches_per_packet_identify_at_another_seed() {
    check(7);
}
