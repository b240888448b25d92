//! The analyzed corpus: experiment output plus pre-computed sessions, the
//! columnar corpus index and metadata join helpers.

use crate::index::CorpusIndex;
use crate::pipeline::StreamSettings;
use sixscope_analysis::classify::ScannerProfile;
use sixscope_sim::ExperimentResult;
use sixscope_telescope::{Capture, ScanSession, SourceKey, TelescopeId};
use sixscope_types::{AsInfo, Asn, PrefixTrie, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Wall-clock seconds of the analysis stages in [`Analyzed::from_result`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimings {
    /// The chunked feed phase end to end: sessionizer pushes plus index-
    /// shard appends across all telescopes (wall-clock of the parallel
    /// stage).
    pub streaming: f64,
    /// Time spent pushing packets into the incremental sessionizers
    /// (summed across the per-telescope jobs).
    pub sessionize: f64,
    /// The index shard-merge and finalize ([`CorpusIndex::from_shards`]).
    pub index_build: f64,
}

/// Experiment output with sessions, scanner profiles and metadata joins.
pub struct Analyzed {
    /// The raw experiment result (captures, events, visibility, world).
    pub result: ExperimentResult,
    /// Scan sessions at /128 aggregation, per telescope.
    pub sessions128: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// Scan sessions at /64 aggregation, per telescope.
    pub sessions64: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// The columnar corpus index the tables and figures reduce over.
    pub index: CorpusIndex,
    /// Wall-clock of the analysis stages that built this corpus.
    pub timings: AnalysisTimings,
    /// High-water mark of the incremental sessionizers' open-session
    /// tables — the live-memory bound of the streaming analysis (maximum
    /// over all telescopes and both aggregation levels).
    pub peak_open_sessions: usize,
    /// Source /64-subnet → origin AS (the IP-to-AS join of the study).
    asn_by_subnet: PrefixTrie<Asn>,
}

impl Analyzed {
    /// Builds the corpus from a finished experiment — the batch path,
    /// expressed as one-big-chunk streaming through the pipeline's
    /// simulated-capture lanes.
    pub fn from_result(result: ExperimentResult) -> Analyzed {
        crate::pipeline::analyze_result(result, &StreamSettings::default())
    }

    /// Final assembly (builds the AS join trie) — the last step of the
    /// pipeline's one gather.
    pub(crate) fn assemble(
        result: ExperimentResult,
        sessions128: BTreeMap<TelescopeId, Vec<ScanSession>>,
        sessions64: BTreeMap<TelescopeId, Vec<ScanSession>>,
        index: CorpusIndex,
        timings: AnalysisTimings,
        peak_open_sessions: usize,
    ) -> Analyzed {
        let mut asn_by_subnet = PrefixTrie::new();
        for scanner in &result.population.scanners {
            asn_by_subnet.insert(scanner.source.subnet(), scanner.asn);
        }
        Analyzed {
            result,
            sessions128,
            sessions64,
            index,
            timings,
            peak_open_sessions,
            asn_by_subnet,
        }
    }

    /// One telescope's capture.
    pub fn capture(&self, id: TelescopeId) -> &Capture {
        &self.result.captures[&id]
    }

    /// Sessions at /128 for one telescope.
    pub fn sessions128(&self, id: TelescopeId) -> &[ScanSession] {
        &self.sessions128[&id]
    }

    /// Sessions at /64 for one telescope.
    pub fn sessions64(&self, id: TelescopeId) -> &[ScanSession] {
        &self.sessions64[&id]
    }

    /// All /128 sessions across all telescopes.
    pub fn all_sessions128(&self) -> impl Iterator<Item = &ScanSession> {
        TelescopeId::ALL
            .into_iter()
            .flat_map(|id| self.sessions128[&id].iter())
    }

    /// Origin AS of a source address (routing-data join).
    pub fn asn_of(&self, src: Ipv6Addr) -> Option<Asn> {
        self.asn_by_subnet.lookup(src).map(|(_, asn)| *asn)
    }

    /// AS metadata of a source address.
    pub fn as_info_of(&self, src: Ipv6Addr) -> Option<&AsInfo> {
        self.asn_of(src)
            .and_then(|asn| self.result.population.as_info(asn))
    }

    /// Reverse DNS of a source address, if registered.
    pub fn rdns_of(&self, src: Ipv6Addr) -> Option<&str> {
        self.result.population.rdns.get(&src).map(String::as_str)
    }

    /// The boundary between the initial observation period and the split
    /// period (start of cycle 1).
    pub fn split_start(&self) -> SimTime {
        self.result.schedule.cycle_start(1)
    }

    /// Sessions at one telescope restricted to the initial 12 weeks.
    pub fn initial_sessions128(&self, id: TelescopeId) -> Vec<&ScanSession> {
        let boundary = self.split_start();
        self.sessions128[&id]
            .iter()
            .filter(|s| s.start < boundary)
            .collect()
    }

    /// T1 sessions during the split period (/128).
    pub fn t1_split_sessions(&self) -> Vec<&ScanSession> {
        let boundary = self.split_start();
        self.sessions128[&TelescopeId::T1]
            .iter()
            .filter(|s| s.start >= boundary)
            .collect()
    }

    /// Temporal scanner profiles of the T1 split period. The profiles are
    /// pre-computed on the corpus index; `session_indices` reference the
    /// returned slice.
    pub fn t1_split_profiles(&self) -> (&[ScanSession], &[ScannerProfile]) {
        let window = &self.index.split().window;
        (
            &self.sessions128[&TelescopeId::T1][window.range.clone()],
            &window.profiles,
        )
    }

    /// Distinct /128 sources at one telescope over a time range (ascending).
    pub fn sources128(&self, id: TelescopeId, from: SimTime, until: SimTime) -> Vec<SourceKey> {
        let col = self.index.telescope(id);
        let mut ids: Vec<u32> = col.src128[col.range(from, until)].to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|i| self.index.sources.key128(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_sim::ScenarioConfig;

    fn analyzed() -> Analyzed {
        crate::Pipeline::simulate(ScenarioConfig::new(7, 0.004))
            .run()
            .expect("simulated runs cannot fail")
    }

    #[test]
    fn corpus_builds_sessions_for_every_telescope() {
        let a = analyzed();
        for id in TelescopeId::ALL {
            // /64 aggregation can only merge sessions, never create more.
            assert!(a.sessions64(id).len() <= a.sessions128(id).len());
        }
        assert!(!a.sessions128(TelescopeId::T1).is_empty());
    }

    #[test]
    fn asn_join_resolves_all_captured_sources() {
        let a = analyzed();
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                assert!(
                    a.asn_of(p.src).is_some(),
                    "source {} has no AS mapping",
                    p.src
                );
            }
        }
    }

    #[test]
    fn rdns_join_finds_atlas_probes() {
        let a = analyzed();
        let atlas_sources = a
            .capture(TelescopeId::T1)
            .packets()
            .iter()
            .filter(|p| {
                a.rdns_of(p.src)
                    .is_some_and(|n| n.ends_with(".probes.atlas.ripe.net"))
            })
            .count();
        assert!(atlas_sources > 0, "no Atlas sources observed at T1");
    }

    #[test]
    fn split_period_partitions_sessions() {
        let a = analyzed();
        let initial = a.initial_sessions128(TelescopeId::T1).len();
        let split = a.t1_split_sessions().len();
        assert_eq!(initial + split, a.sessions128(TelescopeId::T1).len());
        assert!(split > initial, "the split period is 32 of 44 weeks");
    }

    #[test]
    fn t1_split_profiles_cover_all_sources() {
        let a = analyzed();
        let (sessions, profiles) = a.t1_split_profiles();
        let total_sessions: usize = profiles.iter().map(|p| p.session_indices.len()).sum();
        assert_eq!(total_sessions, sessions.len());
    }
}
