//! The per-telescope packet store.
//!
//! [`Capture::ingest`] parses raw IPv6 bytes (as received off the simulated
//! wire or read from a pcap) into compact [`CapturedPacket`] records.
//! Analysis works exclusively on these records — the same structures a real
//! deployment would fill from `tcpdump -y RAW`.

use crate::config::TelescopeConfig;
use bytes::Bytes;
use sixscope_packet::{MalformedRecord, ParsedView, Transport, ViewOutcome};
use sixscope_types::SimTime;
use std::fmt;
use std::net::Ipv6Addr;

/// Statistics of one recoverable pcap ingest run
/// ([`Capture::extend_from_views`] over a [`sixscope_packet::SliceReader`]).
///
/// The counts partition everything the reader encountered:
/// `records_read = parsed + filtered + malformed_packets`, and damaged pcap
/// records (which never yield packet bytes at all) are tallied separately in
/// `skipped`, indexed by [`MalformedRecord::REASONS`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Complete records read off the file.
    pub records_read: u64,
    /// Records that parsed as IPv6 and matched the capture filter.
    pub parsed: u64,
    /// Records that parsed but fell outside the telescope prefix.
    pub filtered: u64,
    /// Records whose bytes did not parse as an IPv6 packet.
    pub malformed_packets: u64,
    /// Damaged pcap records skipped, by [`MalformedRecord::reason_index`].
    pub skipped: [u64; MalformedRecord::REASONS.len()],
    /// True if the file ended inside a record (killed live capture).
    pub truncated_tail: bool,
}

impl IngestStats {
    /// Total damaged records skipped across all reasons.
    pub fn skipped_total(&self) -> u64 {
        self.skipped.iter().sum()
    }

    /// Per-reason skip counts with their stable labels (all reasons, in
    /// [`MalformedRecord::REASONS`] order).
    pub fn skip_reasons(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        MalformedRecord::REASONS.into_iter().zip(self.skipped)
    }

    /// Folds another run's statistics into this one (multi-file ingest).
    pub fn absorb(&mut self, other: &IngestStats) {
        self.records_read += other.records_read;
        self.parsed += other.parsed;
        self.filtered += other.filtered;
        self.malformed_packets += other.malformed_packets;
        for (mine, theirs) in self.skipped.iter_mut().zip(other.skipped) {
            *mine += theirs;
        }
        self.truncated_tail |= other.truncated_tail;
    }
}

impl fmt::Display for IngestStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records read: {} parsed, {} filtered, {} malformed; {} skipped",
            self.records_read,
            self.parsed,
            self.filtered,
            self.malformed_packets,
            self.skipped_total(),
        )?;
        let reasons: Vec<String> = self
            .skip_reasons()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{r}: {n}"))
            .collect();
        if !reasons.is_empty() {
            write!(f, " ({})", reasons.join(", "))?;
        }
        if self.truncated_tail {
            write!(f, "; truncated tail")?;
        }
        Ok(())
    }
}

/// Transport protocol of a captured packet (telescope view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMPv6.
    Icmpv6,
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// Anything else.
    Other,
}

impl Protocol {
    /// Table-2 row label.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Icmpv6 => "ICMPv6",
            Protocol::Tcp => "TCP",
            Protocol::Udp => "UDP",
            Protocol::Other => "Other",
        }
    }

    /// The three protocols reported in Table 2, in paper order.
    pub const REPORTED: [Protocol; 3] = [Protocol::Icmpv6, Protocol::Udp, Protocol::Tcp];
}

/// One captured probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Arrival time.
    pub ts: SimTime,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination (target) address.
    pub dst: Ipv6Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Source port (TCP/UDP).
    pub src_port: Option<u16>,
    /// Destination port (TCP/UDP).
    pub dst_port: Option<u16>,
    /// Upper-layer payload (tool fingerprints live here).
    pub payload: Bytes,
}

/// A telescope's capture buffer.
pub struct Capture {
    config: TelescopeConfig,
    packets: Vec<CapturedPacket>,
    /// Count of packets rejected by the capture filter.
    filtered: u64,
    /// Count of packets that failed to parse.
    malformed: u64,
}

impl std::fmt::Debug for Capture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Capture")
            .field("telescope", &self.config.id)
            .field("packets", &self.packets.len())
            .field("filtered", &self.filtered)
            .field("malformed", &self.malformed)
            .finish()
    }
}

impl Capture {
    /// Creates an empty capture for a telescope.
    pub fn new(config: TelescopeConfig) -> Self {
        Capture {
            config,
            packets: Vec::new(),
            filtered: 0,
            malformed: 0,
        }
    }

    /// The telescope configuration.
    pub fn config(&self) -> &TelescopeConfig {
        &self.config
    }

    /// Fast-path ingest for packets whose decoded fields are already
    /// known — the simulator's fused delivery loop built the probe, so
    /// re-encoding and re-parsing it would only reproduce these same
    /// values. Applies the same capture filter and counters as
    /// [`Capture::ingest`]; the caller guarantees the fields describe a
    /// well-formed packet (the fused-vs-reference equivalence tests pin
    /// this).
    #[allow(clippy::too_many_arguments)]
    pub fn ingest_fields(
        &mut self,
        ts: SimTime,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        protocol: Protocol,
        src_port: Option<u16>,
        dst_port: Option<u16>,
        payload: &[u8],
    ) -> bool {
        if !self.config.captures(dst) {
            self.filtered += 1;
            return false;
        }
        self.packets.push(CapturedPacket {
            ts,
            src,
            dst,
            protocol,
            src_port,
            dst_port,
            payload: Bytes::copy_from_slice(payload),
        });
        true
    }

    /// Ingests raw IPv6 bytes arriving at `ts`. Returns `true` if the packet
    /// was recorded (parsed and matching the capture filter).
    ///
    /// Parsing is zero-copy ([`ParsedView`]): filtered and malformed
    /// packets never allocate, and payload bytes are copied exactly once —
    /// at retention, when the packet is promoted into the capture buffer
    /// (DESIGN.md §11).
    pub fn ingest(&mut self, ts: SimTime, raw: &[u8]) -> bool {
        let parsed = match ParsedView::parse(raw) {
            Ok(p) => p,
            Err(_) => {
                self.malformed += 1;
                return false;
            }
        };
        if !self.config.captures(parsed.header.dst) {
            self.filtered += 1;
            return false;
        }
        let protocol = match &parsed.transport {
            Transport::Icmpv6(_) => Protocol::Icmpv6,
            Transport::Tcp(_) => Protocol::Tcp,
            Transport::Udp(_) => Protocol::Udp,
            Transport::Other(_) => Protocol::Other,
        };
        self.packets.push(CapturedPacket {
            ts,
            src: parsed.header.src,
            dst: parsed.header.dst,
            protocol,
            src_port: parsed.src_port(),
            dst_port: parsed.dst_port(),
            payload: Bytes::copy_from_slice(parsed.payload),
        });
        true
    }

    /// Directly records an already-decomposed packet (used when replaying
    /// summarized captures; simulation uses [`Capture::ingest`]).
    pub fn push(&mut self, packet: CapturedPacket) {
        self.packets.push(packet);
    }

    /// Appends another capture of the same telescope: packets concatenate
    /// in order, filter/malformed counters add up. The parallel delivery
    /// engine merges per-shard captures with this; the caller is
    /// responsible for shard order (contiguous time-sorted shards keep the
    /// merged capture time-sorted).
    pub fn absorb(&mut self, other: Capture) {
        debug_assert_eq!(
            self.config.id, other.config.id,
            "absorbing across telescopes"
        );
        // One exact reservation up front so the merge loop never grows the
        // buffer mid-copy (realloc churn dominates repeated shard merges).
        self.packets.reserve_exact(other.packets.len());
        let cap_before = self.packets.capacity();
        self.packets.extend(other.packets);
        debug_assert_eq!(
            self.packets.capacity(),
            cap_before,
            "Capture::absorb reallocated mid-merge"
        );
        self.filtered += other.filtered;
        self.malformed += other.malformed;
    }

    /// Reconstructs a capture from decoded shard-file parts. Packets must
    /// already be in stored (time-sorted) order; the counters restore the
    /// filter/malformed tallies the original ingest recorded.
    pub fn restore(
        config: TelescopeConfig,
        packets: Vec<CapturedPacket>,
        filtered: u64,
        malformed: u64,
    ) -> Capture {
        Capture {
            config,
            packets,
            filtered,
            malformed,
        }
    }

    /// Merges per-scanner capture segments into one time-sorted capture.
    ///
    /// The fused delivery engine produces one segment per scanner, each
    /// time-sorted internally but overlapping the others in time, so plain
    /// [`Capture::absorb`] concatenation cannot apply. The merge key is
    /// `(ts, segment index, position)` packed into a `u128`, matching the
    /// order a global stable sort by timestamp over the segment-ordered
    /// concatenation would produce — which is exactly the staged reference
    /// path's order. Counters add up as in [`Capture::absorb`].
    pub fn merge_time_sorted(&mut self, segments: Vec<Capture>) {
        let mut total = 0usize;
        for seg in &segments {
            debug_assert_eq!(self.config.id, seg.config.id, "merging across telescopes");
            debug_assert!(
                seg.packets.len() < (1 << 32),
                "segment exceeds u32 positions"
            );
            self.filtered += seg.filtered;
            self.malformed += seg.malformed;
            total += seg.packets.len();
        }
        debug_assert!(segments.len() < (1 << 32), "too many segments");
        // Gather: within a segment, positions are consumed in increasing
        // order (ts is non-decreasing with position), so per-segment
        // iterators hand out packets FIFO. When (ts, segment, position)
        // all fit in one u64 — true for every realistic run: timestamps
        // below 2²⁶ s (≈ 2 years), at most 2¹⁶ segments, position below
        // the generation cap — sort packed u64 keys; otherwise fall back
        // to the u128 packing. Both orders are identical.
        let max_ts = segments
            .iter()
            .flat_map(|s| s.packets.last())
            .map(|p| p.ts.as_secs())
            .max()
            .unwrap_or(0);
        let max_len = segments.iter().map(|s| s.packets.len()).max().unwrap_or(0);
        self.packets.reserve_exact(total);
        if max_ts < (1 << 26) && segments.len() <= (1 << 16) && max_len <= (1 << 22) {
            let mut keys: Vec<u64> = Vec::with_capacity(total);
            for (si, seg) in segments.iter().enumerate() {
                for (pi, p) in seg.packets.iter().enumerate() {
                    keys.push((p.ts.as_secs() << 38) | ((si as u64) << 22) | pi as u64);
                }
            }
            keys.sort_unstable();
            let mut iters: Vec<std::vec::IntoIter<CapturedPacket>> = segments
                .into_iter()
                .map(|seg| seg.packets.into_iter())
                .collect();
            for key in keys {
                let si = ((key >> 22) & 0xffff) as usize;
                let p = iters[si].next().expect("one packet per key");
                debug_assert_eq!(p.ts.as_secs(), key >> 38, "gather out of order");
                self.packets.push(p);
            }
        } else {
            let mut keys: Vec<u128> = Vec::with_capacity(total);
            for (si, seg) in segments.iter().enumerate() {
                for (pi, p) in seg.packets.iter().enumerate() {
                    keys.push(((p.ts.as_secs() as u128) << 64) | ((si as u128) << 32) | pi as u128);
                }
            }
            keys.sort_unstable();
            let mut iters: Vec<std::vec::IntoIter<CapturedPacket>> = segments
                .into_iter()
                .map(|seg| seg.packets.into_iter())
                .collect();
            for key in keys {
                let si = ((key >> 32) & 0xffff_ffff) as usize;
                let p = iters[si].next().expect("one packet per key");
                debug_assert_eq!(p.ts.as_secs() as u128, key >> 64, "gather out of order");
                self.packets.push(p);
            }
        }
    }

    /// Stable-sorts the packets into non-decreasing time order (arrival
    /// order is preserved on ties). Any packet indices derived before the
    /// sort — sessions, index shards — are invalidated; the streaming
    /// pipeline uses this only on its batch fallback for out-of-order
    /// captures, before any index is built.
    pub fn sort_by_time(&mut self) {
        self.packets.sort_by_key(|p| p.ts);
    }

    /// True when packets are in non-decreasing time order. Simulation
    /// delivery produces sorted captures by construction; the sessionizer
    /// and the corpus index use this to skip their sort fallbacks.
    pub fn is_time_sorted(&self) -> bool {
        self.packets.windows(2).all(|w| w[0].ts <= w[1].ts)
    }

    /// All captured packets in arrival order.
    pub fn packets(&self) -> &[CapturedPacket] {
        &self.packets
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets dropped by the capture filter (outside prefix / productive).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Packets that failed to parse.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Applies one recovering-reader outcome: a complete record is ingested
    /// (filtered/malformed-packet tallies included), a damaged one is
    /// counted by reason, and a truncated tail also sets
    /// [`IngestStats::truncated_tail`].
    pub fn apply_outcome_view(&mut self, outcome: &ViewOutcome<'_>, stats: &mut IngestStats) {
        match outcome {
            ViewOutcome::Record(rec) => self.apply_record(rec.ts, rec.data, stats),
            ViewOutcome::Skipped(m) => {
                stats.skipped[m.reason_index()] += 1;
            }
            ViewOutcome::TruncatedTail(m) => {
                stats.skipped[m.reason_index()] += 1;
                stats.truncated_tail = true;
            }
        }
    }

    /// Batched ingest kernel: applies a run of borrowed outcomes with one
    /// capacity reservation for the whole run. This is the chunk feed the
    /// streaming pipeline drives — record bytes stay borrowed from the
    /// mapped file through parse and filtering, and only retained packets
    /// copy their payload out.
    pub fn extend_from_views(&mut self, run: &[ViewOutcome<'_>], stats: &mut IngestStats) {
        self.packets.reserve(run.len());
        for outcome in run {
            self.apply_outcome_view(outcome, stats);
        }
    }

    #[inline]
    fn apply_record(&mut self, ts: SimTime, data: &[u8], stats: &mut IngestStats) {
        stats.records_read += 1;
        let (filtered, malformed) = (self.filtered, self.malformed);
        if self.ingest(ts, data) {
            stats.parsed += 1;
        } else if self.filtered > filtered {
            stats.filtered += 1;
        } else if self.malformed > malformed {
            stats.malformed_packets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter, SliceReader};

    fn t3_capture() -> Capture {
        Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()))
    }

    /// Ingests a whole in-memory pcap image as one chunk of views.
    fn ingest_image(cap: &mut Capture, bytes: &[u8]) -> IngestStats {
        let views: Vec<ViewOutcome> = SliceReader::new(bytes).unwrap().collect();
        let mut stats = IngestStats::default();
        cap.extend_from_views(&views, &mut stats);
        stats
    }

    fn probe(dst: &str) -> Vec<u8> {
        PacketBuilder::new("2001:db8:f00::1".parse().unwrap(), dst.parse().unwrap())
            .icmpv6_echo_request(1, 1, b"yarrp")
    }

    #[test]
    fn ingest_records_matching_packets() {
        let mut cap = t3_capture();
        assert!(cap.ingest(SimTime::from_secs(5), &probe("2001:db8:3::1")));
        assert_eq!(cap.len(), 1);
        let p = &cap.packets()[0];
        assert_eq!(p.protocol, Protocol::Icmpv6);
        assert_eq!(p.dst, "2001:db8:3::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(&p.payload[..], b"yarrp");
    }

    #[test]
    fn ingest_filters_out_of_prefix_traffic() {
        let mut cap = t3_capture();
        assert!(!cap.ingest(SimTime::EPOCH, &probe("2001:db8:4::1")));
        assert_eq!(cap.len(), 0);
        assert_eq!(cap.filtered(), 1);
    }

    #[test]
    fn ingest_counts_malformed() {
        let mut cap = t3_capture();
        assert!(!cap.ingest(SimTime::EPOCH, &[0u8; 10]));
        assert_eq!(cap.malformed(), 1);
    }

    #[test]
    fn absorb_concatenates_packets_and_counters() {
        let mut a = t3_capture();
        let mut b = t3_capture();
        assert!(a.ingest(SimTime::from_secs(1), &probe("2001:db8:3::1")));
        assert!(b.ingest(SimTime::from_secs(2), &probe("2001:db8:3::2")));
        assert!(!b.ingest(SimTime::from_secs(3), &probe("2001:db8:9::1"))); // filtered
        assert!(!b.ingest(SimTime::from_secs(4), &[0u8; 4])); // malformed
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.filtered(), 1);
        assert_eq!(a.malformed(), 1);
        assert!(a.packets().windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn merge_time_sorted_equals_stable_sort_of_concatenation() {
        // Three overlapping segments with duplicate timestamps across and
        // within segments — the stable tie-break (segment order, then
        // position) must match a stable sort of the concatenation.
        let mut segments = Vec::new();
        let plans: [&[(u64, &str)]; 3] = [
            &[
                (1, "2001:db8:3::1"),
                (5, "2001:db8:3::2"),
                (5, "2001:db8:3::3"),
            ],
            &[(0, "2001:db8:3::4"), (5, "2001:db8:3::5")],
            &[
                (2, "2001:db8:3::6"),
                (2, "2001:db8:3::7"),
                (9, "2001:db8:3::8"),
            ],
        ];
        let mut expected = Vec::new();
        for plan in plans {
            let mut seg = t3_capture();
            for (ts, dst) in plan {
                assert!(seg.ingest(SimTime::from_secs(*ts), &probe(dst)));
            }
            assert!(!seg.ingest(SimTime::from_secs(1), &probe("2001:db8:9::1")));
            expected.extend(seg.packets().to_vec());
            segments.push(seg);
        }
        expected.sort_by_key(|p| p.ts); // stable: keeps segment order on ties
        let mut merged = t3_capture();
        merged.merge_time_sorted(segments);
        assert_eq!(merged.packets(), &expected[..]);
        assert_eq!(merged.filtered(), 3);
        assert!(merged.is_time_sorted());
    }

    #[test]
    fn merge_falls_back_to_wide_keys_for_huge_timestamps() {
        // Timestamps past the u64 packing budget (≥ 2²⁶ s) take the u128
        // path; the tie-break order must be the same.
        let base = 1u64 << 27;
        let mut segments = Vec::new();
        let mut expected = Vec::new();
        for plan in [
            [(base + 1, "2001:db8:3::1"), (base + 5, "2001:db8:3::2")],
            [(base, "2001:db8:3::3"), (base + 5, "2001:db8:3::4")],
        ] {
            let mut seg = t3_capture();
            for (ts, dst) in plan {
                assert!(seg.ingest(SimTime::from_secs(ts), &probe(dst)));
            }
            expected.extend(seg.packets().to_vec());
            segments.push(seg);
        }
        expected.sort_by_key(|p| p.ts);
        let mut merged = t3_capture();
        merged.merge_time_sorted(segments);
        assert_eq!(merged.packets(), &expected[..]);
    }

    #[test]
    fn merge_into_nonempty_capture_appends_after_existing() {
        let mut merged = t3_capture();
        assert!(merged.ingest(SimTime::from_secs(1), &probe("2001:db8:3::a")));
        let mut seg = t3_capture();
        assert!(seg.ingest(SimTime::from_secs(2), &probe("2001:db8:3::b")));
        merged.merge_time_sorted(vec![seg]);
        assert_eq!(merged.len(), 2);
        assert!(merged.is_time_sorted());
    }

    #[test]
    fn t2_productive_traffic_is_excluded() {
        let cfg = TelescopeConfig::t2("2001:db8:2::/48".parse().unwrap());
        let productive = cfg.productive_subnet.unwrap();
        let mut cap = Capture::new(cfg);
        let inside = format!("{}", productive.low_byte_address());
        assert!(!cap.ingest(SimTime::EPOCH, &probe(&inside)));
        assert!(cap.ingest(SimTime::EPOCH, &probe("2001:db8:2:200::1")));
    }

    #[test]
    fn recovering_ingest_skips_damage_and_flags_truncated_tail() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        // In-prefix probe, out-of-prefix probe, non-IPv6 garbage bytes.
        for (ts, data) in [
            (1, probe("2001:db8:3::1")),
            (2, probe("2001:db8:9::1")),
            (3, vec![0u8; 12]),
        ] {
            w.write_record(&PcapRecord {
                ts: SimTime::from_secs(ts),
                ts_micros: 0,
                data,
            })
            .unwrap();
        }
        let mut bytes = w.into_inner().unwrap();
        // A damaged record (incl_len 8 > orig_len 2) with its 8 bytes present.
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xee; 8]);
        // One more good record, then a record header cut off by EOF.
        let mut w2 = PcapWriter::new(Vec::new()).unwrap();
        w2.write_record(&PcapRecord {
            ts: SimTime::from_secs(5),
            ts_micros: 0,
            data: probe("2001:db8:3::2"),
        })
        .unwrap();
        bytes.extend_from_slice(&w2.into_inner().unwrap()[24..]);
        bytes.extend_from_slice(&[0u8; 7]);

        let mut cap = t3_capture();
        let stats = ingest_image(&mut cap, &bytes);
        assert_eq!(stats.records_read, 4);
        assert_eq!(stats.parsed, 2);
        assert_eq!(stats.filtered, 1);
        assert_eq!(stats.malformed_packets, 1);
        assert_eq!(stats.skipped_total(), 2);
        assert!(stats.truncated_tail);
        assert_eq!(cap.len(), 2);
        assert_eq!(
            stats.records_read,
            stats.parsed + stats.filtered + stats.malformed_packets
        );
        // The Display form carries the per-reason breakdown.
        let shown = stats.to_string();
        assert!(shown.contains("length-inconsistent: 1"), "{shown}");
        assert!(shown.contains("truncated-header: 1"), "{shown}");
        assert!(shown.contains("truncated tail"), "{shown}");
    }

    #[test]
    fn pcap_ingest_applies_filter() {
        // Build a pcap with one matching and one non-matching packet.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(1),
            ts_micros: 0,
            data: probe("2001:db8:3::1"),
        })
        .unwrap();
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(2),
            ts_micros: 0,
            data: probe("2001:db8:9::1"),
        })
        .unwrap();
        let bytes = w.into_inner().unwrap();
        let mut cap = t3_capture();
        let stats = ingest_image(&mut cap, &bytes);
        assert_eq!(stats.parsed, 1);
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.filtered(), 1);
    }
}
