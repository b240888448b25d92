//! Structure-aware mutation harness for the `.sixshard` decoder.
//!
//! A shard file produced by the real scatter path (`Pipeline::to_shard`
//! over a generated pcap) is mutated ≥10k times with seeded byte flips,
//! field splices, truncations and version bumps, and every mutant is
//! pushed through [`decode_shard`]. Every mutant that decodes is also
//! written back to disk, gathered with `Pipeline::from_shards` and
//! rendered with `analysis_report`: the gather derives sessions and the
//! index from the decoded capture, so the analysis of a decoded capture is
//! the whole trust boundary. The contract under test (DESIGN.md §13):
//!
//! * every input returns `Ok` or a typed `ShardError` — never a panic,
//!   and no decodable mutant panics the gather or the report,
//! * no count field drives an allocation past the bytes actually present
//!   (the test completing in bounded memory is the proof),
//! * the outcome is a pure function of the bytes: the same seed produces
//!   the same aggregate outcome on every run,
//! * the untouched file round-trips canonically: decode → encode
//!   reproduces the input bytes.

use sixscope::serve::analysis_report;
use sixscope::shardfile::{decode_shard, encode_shard, ShardError};
use sixscope::Pipeline;
use sixscope_integration::TempDir;
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_types::{SimTime, Xoshiro256pp};

const MUTATIONS: usize = 12_000;
const SEED: u64 = 0x5ead_f11e;

/// A small but structurally diverse pcap: all three transports, repeat
/// sources (multi-packet sessions), a timeout-straddling gap, payloads.
fn base_pcap() -> Vec<u8> {
    let a = PacketBuilder::new(
        "2a0a::bad:1".parse().unwrap(),
        "2001:db8:3::42".parse().unwrap(),
    );
    let b = PacketBuilder::new(
        "2a0a::bad:2".parse().unwrap(),
        "2001:db8:3::7".parse().unwrap(),
    );
    let records: Vec<(u64, Vec<u8>)> = vec![
        (100, a.icmpv6_echo_request(7, 1, b"yarrp")),
        (150, a.tcp_syn(40_000, 443, 0xdead_beef, &[])),
        (200, b.udp(40_001, 33_434, &[0xab; 64])),
        (260, a.icmpv6_echo_request(7, 2, &[])),
        // Past the 1 h session timeout: a second session per source.
        (8_000, a.tcp_syn(40_002, 80, 1, b"GET / HTTP/1.1")),
        (8_050, b.udp(40_003, 53, b"probe")),
    ];
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (ts, data) in records {
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(ts),
            ts_micros: 0,
            data,
        })
        .unwrap();
    }
    w.into_inner().unwrap()
}

/// Writes the base pcap, shards it through the real scatter path, and
/// returns the `.sixshard` bytes.
fn base_shard_bytes() -> Vec<u8> {
    let dir = TempDir::new("shard-mutation");
    let pcap = dir.join("base.pcap");
    std::fs::write(&pcap, base_pcap()).unwrap();
    let out = dir.join("base.sixshard");
    Pipeline::from_pcaps([&pcap])
        .to_shard(&out)
        .expect("sharding a clean pcap cannot fail");
    std::fs::read(&out).unwrap()
}

/// Gathers one shard file and renders its analysis report; a gather
/// error is rendered as its message.
fn gather_report(path: &std::path::Path) -> String {
    match Pipeline::from_shards([path]).threads(1).run_detailed() {
        Ok(out) => analysis_report(&out.analyzed, &out.stats, false),
        Err(e) => e.to_string(),
    }
}

/// Applies one seeded mutation to `buf`.
fn mutate(rng: &mut Xoshiro256pp, buf: &mut Vec<u8>) {
    match rng.below(6) {
        // Flip a random byte.
        0 => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] ^= rng.next_u32() as u8 | 1;
        }
        // Overwrite a 4-byte field with an extreme value (targets tags,
        // counts and flag bytes when it lands there).
        1 if buf.len() >= 4 => {
            let i = rng.below((buf.len() - 4) as u64 + 1) as usize;
            let v: u32 = *rng.choose(&[0, 1, 0xffff, 65_536, u32::MAX]);
            buf[i..i + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Overwrite an 8-byte field with an extreme value (targets the
        // section lengths and element counts when it lands there).
        2 if buf.len() >= 8 => {
            let i = rng.below((buf.len() - 8) as u64 + 1) as usize;
            let v: u64 = *rng.choose(&[0, 1, u64::from(u32::MAX), u64::MAX, 1 << 40]);
            buf[i..i + 8].copy_from_slice(&v.to_le_bytes());
        }
        // Truncate at a random point (killed-transfer simulation).
        3 => {
            let at = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(at);
        }
        // Duplicate a random slice onto the tail (desynchronizes the
        // section table against the payload bytes).
        4 => {
            let start = rng.below(buf.len() as u64) as usize;
            let len = rng.below((buf.len() - start) as u64 + 1) as usize;
            let slice = buf[start..start + len].to_vec();
            buf.extend_from_slice(&slice);
        }
        // Bump the format version field.
        _ => {
            if buf.len() >= 12 {
                let v = rng.next_u32();
                buf[8..12].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Aggregate outcome of one full run; equality pins determinism.
#[derive(Debug, PartialEq, Eq)]
struct RunSummary {
    decoded: u64,
    bad_magic: u64,
    bad_version: u64,
    truncated: u64,
    oversized: u64,
    corrupt: u64,
    fingerprint: u64,
}

fn run(seed: u64, mutations: usize) -> RunSummary {
    let base = base_shard_bytes();
    let dir = TempDir::new(&format!("shard-mutants-{seed:x}"));
    let mutant = dir.join("mutant.sixshard");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut s = RunSummary {
        decoded: 0,
        bad_magic: 0,
        bad_version: 0,
        truncated: 0,
        oversized: 0,
        corrupt: 0,
        fingerprint: 0,
    };
    let mix = |s: &mut RunSummary, v: u64| {
        s.fingerprint = s.fingerprint.rotate_left(7) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    };
    for _ in 0..mutations {
        let mut buf = base.clone();
        // One to three stacked mutations per input.
        for _ in 0..=rng.below(3) {
            if buf.is_empty() {
                break;
            }
            mutate(&mut rng, &mut buf);
        }
        match decode_shard(&buf) {
            Ok(shard) => {
                // A mutant that still decodes must uphold the round-trip
                // contract like any valid shard.
                assert_eq!(
                    encode_shard(&shard),
                    buf,
                    "a decodable mutant must re-encode canonically"
                );
                s.decoded += 1;
                mix(&mut s, shard.capture.len() as u64);
                std::fs::write(&mutant, &buf).unwrap();
                mix(&mut s, hash(&gather_report(&mutant)));
            }
            Err(e) => {
                match &e {
                    ShardError::BadMagic => s.bad_magic += 1,
                    ShardError::UnsupportedVersion(_) => s.bad_version += 1,
                    ShardError::Truncated { .. } => s.truncated += 1,
                    ShardError::Oversized { .. } => s.oversized += 1,
                    ShardError::Corrupt { .. } => s.corrupt += 1,
                }
                // The rendered message is part of the deterministic
                // outcome (it names the section and the violation).
                mix(&mut s, hash(&e.to_string()));
            }
        }
    }
    s
}

fn hash(text: &str) -> u64 {
    let mut h = 0u64;
    for b in text.bytes() {
        h = h.rotate_left(5) ^ u64::from(b);
    }
    h
}

#[test]
fn untouched_shard_decodes_and_round_trips() {
    let bytes = base_shard_bytes();
    let shard = decode_shard(&bytes).expect("the scatter path writes valid shards");
    assert_eq!(shard.capture.len(), 6);
    assert_eq!(encode_shard(&shard), bytes, "encoding must be canonical");
}

#[test]
fn mutated_shards_never_panic_and_errors_are_structured() {
    let s = run(SEED, MUTATIONS);
    let total = s.decoded + s.bad_magic + s.bad_version + s.truncated + s.oversized + s.corrupt;
    assert_eq!(
        total, MUTATIONS as u64,
        "every mutant must be accounted for"
    );
    // The mutation mix must actually exercise the error taxonomy: a run
    // where whole categories never fire means the harness went blind.
    assert!(s.bad_magic > 0, "no mutant hit the magic: {s:?}");
    assert!(s.bad_version > 0, "no mutant hit the version: {s:?}");
    assert!(s.truncated > 0, "no mutant truncated a section: {s:?}");
    assert!(s.corrupt > 0, "no mutant corrupted a section: {s:?}");
}

#[test]
fn mutation_outcome_is_deterministic_per_seed() {
    let a = run(SEED ^ 1, 1_500);
    let b = run(SEED ^ 1, 1_500);
    assert_eq!(a, b, "the same seed must reproduce the same outcome");
    let c = run(SEED ^ 2, 1_500);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds should explore different mutants"
    );
}

#[test]
fn merged_shards_report_the_pcap_runs_peak_open_sessions() {
    // Cut the base pcap into two pieces at the timeout-straddling gap, so
    // the merge concatenates two files.
    let dir = TempDir::new("shard-peak");
    let whole = base_pcap();
    // A 24-byte global header, then records of a 16-byte header (incl_len
    // at offset 8) and their bytes: the fifth record (t=8000) starts where
    // the first four end.
    let mut cut = 24;
    for _ in 0..4 {
        let len = u32::from_le_bytes(whole[cut + 8..cut + 12].try_into().unwrap());
        cut += 16 + len as usize;
    }
    let pcaps = [dir.join("a.pcap"), dir.join("b.pcap")];
    std::fs::write(&pcaps[0], &whole[..cut]).unwrap();
    let mut tail = whole[..24].to_vec();
    tail.extend_from_slice(&whole[cut..]);
    std::fs::write(&pcaps[1], tail).unwrap();
    let shards = [dir.join("a.sixshard"), dir.join("b.sixshard")];
    for (pcap, shard) in pcaps.iter().zip(&shards) {
        Pipeline::from_pcaps([pcap]).to_shard(shard).unwrap();
    }
    let direct = Pipeline::from_pcaps(&pcaps).run_detailed().unwrap();
    let merged = Pipeline::from_shards(&shards).run_detailed().unwrap();
    assert!(direct.analyzed.peak_open_sessions > 0);
    assert_eq!(
        merged.analyzed.peak_open_sessions,
        direct.analyzed.peak_open_sessions
    );
    assert_eq!(
        analysis_report(&merged.analyzed, &merged.stats, false),
        analysis_report(&direct.analyzed, &direct.stats, false)
    );
}
