//! The late-data contract (DESIGN.md §14): a live feed drops a record iff
//! it is at least one eviction horizon older than the event-time
//! watermark, and dropping late records never changes the sessions formed
//! by on-time records.
//!
//! The filter is checked against an independent model (a running maximum
//! over raw timestamps), and the headline invariant is pinned by
//! construction: plant known-late records into a sorted on-time stream
//! and require the filtered session set to equal the session set of the
//! stream without the plants.

use proptest::collection::vec;
use proptest::prelude::*;
use sixscope_telescope::{
    AggLevel, Bytes, CapturedPacket, IncrementalSessionizer, LateFilter, Protocol,
};
use sixscope_types::{SimDuration, SimTime};

const HORIZON_SECS: u64 = 100;

fn horizon() -> SimDuration {
    SimDuration::secs(HORIZON_SECS)
}

fn packet(src_host: u16, ts: u64) -> CapturedPacket {
    CapturedPacket {
        ts: SimTime::from_secs(ts),
        src: format!("2001:db8:f00:{src_host:x}::1").parse().unwrap(),
        dst: "2001:db8::1".parse().unwrap(),
        protocol: Protocol::Icmpv6,
        src_port: None,
        dst_port: None,
        payload: Bytes::new(),
    }
}

/// The model: a record is late iff the maximum timestamp seen before it
/// is at least one horizon ahead. (A late record's timestamp is below
/// the running maximum by definition, so "maximum over all earlier
/// records" and "maximum over earlier *admitted* records" coincide —
/// this is what makes the filter's watermark well-defined.)
fn model_late(times: &[u64]) -> Vec<bool> {
    let mut max_seen: Option<u64> = None;
    times
        .iter()
        .map(|&t| {
            let late = max_seen.is_some_and(|m| m.saturating_sub(t) >= HORIZON_SECS && m > 0);
            max_seen = Some(max_seen.map_or(t, |m| m.max(t)));
            late
        })
        .collect()
}

fn sessionize(packets: &[CapturedPacket]) -> Vec<Vec<u32>> {
    let mut sorted: Vec<CapturedPacket> = packets.to_vec();
    sorted.sort_by_key(|p| p.ts);
    let mut s = IncrementalSessionizer::new(AggLevel::Addr128, horizon());
    for (i, p) in sorted.iter().enumerate() {
        s.push(i as u32, p);
    }
    s.finish().into_iter().map(|s| s.packet_indices).collect()
}

proptest! {
    /// The filter's admit/reject decisions match the running-maximum
    /// model on arbitrary (unsorted) timestamp sequences, and the
    /// watermark is the maximum admitted timestamp.
    #[test]
    fn filter_matches_the_model(times in vec(0u64..5_000, 0..200)) {
        let model = model_late(&times);
        let mut filter = LateFilter::new(horizon());
        let mut max_admitted = 0u64;
        for (&t, &late) in times.iter().zip(&model) {
            prop_assert_eq!(!filter.admit(SimTime::from_secs(t)), late, "ts {}", t);
            if !late {
                max_admitted = max_admitted.max(t);
            }
        }
        prop_assert_eq!(filter.late_records(), model.iter().filter(|&&l| l).count() as u64);
        prop_assert_eq!(filter.watermark(), SimTime::from_secs(max_admitted));
    }

    /// A time-sorted stream never loses a record: watermark order means
    /// nothing is ever beyond the horizon.
    #[test]
    fn sorted_streams_drop_nothing(gaps in vec(0u64..500, 1..100)) {
        let mut filter = LateFilter::new(horizon());
        let mut ts = 0u64;
        for gap in gaps {
            ts += gap;
            prop_assert!(filter.admit(SimTime::from_secs(ts)));
        }
        prop_assert_eq!(filter.late_records(), 0);
    }

    /// Filtering is idempotent: the admitted stream passes a fresh filter
    /// untouched. Late drops never cascade into on-time drops.
    #[test]
    fn filtering_is_idempotent(times in vec(0u64..5_000, 0..200)) {
        let mut first = LateFilter::new(horizon());
        let admitted: Vec<u64> = times
            .into_iter()
            .filter(|&t| first.admit(SimTime::from_secs(t)))
            .collect();
        let mut second = LateFilter::new(horizon());
        for &t in &admitted {
            prop_assert!(second.admit(SimTime::from_secs(t)), "on-time record re-dropped");
        }
        prop_assert_eq!(second.late_records(), 0);
    }

    /// The headline invariant: plant known-late records into a sorted
    /// on-time stream; the filter must drop exactly the plants, and the
    /// session set over the filtered stream must equal the session set of
    /// the on-time stream alone.
    #[test]
    fn late_records_never_change_the_ontime_session_set(
        base in vec((0u16..5, 0u64..80), 1..60),
        plants in vec((0usize..1_000, 0u16..5, 0u64..50), 0..20),
    ) {
        // On-time stream: sorted, starting far enough from the epoch that
        // a planted record can always be one horizon behind.
        let mut ts = 2 * HORIZON_SECS;
        let ontime: Vec<CapturedPacket> = base
            .iter()
            .map(|&(src, gap)| {
                ts += gap;
                packet(src, ts)
            })
            .collect();
        // Interleave plants, each one horizon (plus a margin) behind the
        // running maximum at its insertion point — late by construction.
        let mut stream: Vec<(CapturedPacket, bool)> =
            ontime.iter().cloned().map(|p| (p, false)).collect();
        for &(pos, src, delta) in &plants {
            // Insert after at least one on-time record so a watermark exists.
            let at = 1 + pos % stream.len();
            let max_before = stream[..at]
                .iter()
                .map(|(p, _)| p.ts.as_secs())
                .max()
                .unwrap();
            let late_ts = max_before - HORIZON_SECS - delta.min(max_before - HORIZON_SECS);
            stream.insert(at, (packet(src, late_ts), true));
        }

        let mut filter = LateFilter::new(horizon());
        let mut kept = Vec::new();
        for (p, planted) in &stream {
            let admitted = filter.admit(p.ts);
            prop_assert_eq!(admitted, !planted, "plant status disagrees at ts {}", p.ts);
            if admitted {
                kept.push(p.clone());
            }
        }
        prop_assert_eq!(filter.late_records(), plants.len() as u64);
        prop_assert_eq!(sessionize(&kept), sessionize(&ontime));
    }
}
