//! The owned streaming pcap reader: the reference the zero-copy
//! `sixscope_packet::SliceReader` is diffed against.
//!
//! It reads through any [`Read`], copies every record into a fresh
//! `Vec<u8>`, and recovers from damage by discarding the advertised bytes
//! through a bounded scratch buffer — a different route to the same
//! outcome sequence the slice reader reaches by moving a cursor. The
//! validation order (snaplen, then [`MAX_RECORD_LEN`], then
//! `incl_len ≤ orig_len`) is the contract both readers share, so the same
//! damage yields the same [`MalformedRecord`] reason.

use sixscope_packet::{MalformedRecord, PacketError, PcapRecord, ViewOutcome, MAX_RECORD_LEN};
use sixscope_types::SimTime;
use std::io::Read;

const MAGIC_LE_US: u32 = 0xa1b2c3d4;
const MAGIC_LE_NS: u32 = 0xa1b23c4d;
const LINKTYPE_RAW: u32 = 101;

/// Outcome of one recoverable read step (see
/// [`PcapReader::read_record_recovering`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordOutcome {
    /// A complete, well-formed record.
    Record(PcapRecord),
    /// A damaged record was skipped; the stream is re-synchronized on the
    /// next record boundary.
    Skipped(MalformedRecord),
    /// The file ends inside a record (a live capture that was killed). All
    /// preceding records were yielded; no further reads will succeed.
    TruncatedTail(MalformedRecord),
}

/// Copies a borrowed slice-reader outcome into its owned form, so the two
/// readers' outcome sequences can be compared with `==`.
pub fn owned(outcome: &ViewOutcome<'_>) -> RecordOutcome {
    match outcome {
        ViewOutcome::Record(v) => RecordOutcome::Record(PcapRecord {
            ts: v.ts,
            ts_micros: v.ts_micros,
            data: v.data.to_vec(),
        }),
        ViewOutcome::Skipped(m) => RecordOutcome::Skipped(*m),
        ViewOutcome::TruncatedTail(m) => RecordOutcome::TruncatedTail(*m),
    }
}

/// Streaming pcap reader over any byte source.
pub struct PcapReader<R: Read> {
    input: R,
    swapped: bool,
    nanos: bool,
    /// The file's declared snapshot length (0 = writer declared none).
    snaplen: u32,
    /// Set once a truncated tail was reported; further recoverable reads
    /// return end-of-file instead of re-reading garbage.
    exhausted: bool,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    pub fn new(mut input: R) -> Result<Self, PacketError> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let (swapped, nanos) = match magic {
            MAGIC_LE_US => (false, false),
            MAGIC_LE_NS => (false, true),
            m if m.swap_bytes() == MAGIC_LE_US => (true, false),
            m if m.swap_bytes() == MAGIC_LE_NS => (true, true),
            m => return Err(PacketError::BadPcapMagic(m)),
        };
        let read_u32 = |b: &[u8]| {
            let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let linktype = read_u32(&hdr[20..24]);
        if linktype != LINKTYPE_RAW {
            return Err(PacketError::UnsupportedLinkType(linktype));
        }
        Ok(PcapReader {
            input,
            swapped,
            nanos,
            snaplen: read_u32(&hdr[16..20]),
            exhausted: false,
        })
    }

    /// The snapshot length declared by the file's global header.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Fills `buf` as far as the input allows; returns the bytes read.
    fn read_fully(&mut self, buf: &mut [u8]) -> Result<usize, PacketError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.input.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(filled)
    }

    /// Reads the next record, or `None` at end of file.
    ///
    /// Every length field is validated before allocation: `incl_len` must
    /// not exceed the file's snaplen, the [`MAX_RECORD_LEN`] ceiling, or
    /// `orig_len`. Violations and mid-record EOF return
    /// [`PacketError::Malformed`]; callers that want to continue past the
    /// damage use [`PcapReader::read_record_recovering`] instead.
    pub fn read_record(&mut self) -> Result<Option<PcapRecord>, PacketError> {
        let mut hdr = [0u8; 16];
        let have = self.read_fully(&mut hdr)?;
        if have == 0 {
            return Ok(None);
        }
        if have < hdr.len() {
            return Err(PacketError::Malformed(MalformedRecord::TruncatedHeader {
                have,
            }));
        }
        let field = |i: usize| {
            let v = u32::from_le_bytes([hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let (ts_sec, ts_frac, incl_len, orig_len) = (field(0), field(4), field(8), field(12));
        if self.snaplen != 0 && incl_len > self.snaplen {
            return Err(PacketError::Malformed(MalformedRecord::SnaplenExceeded {
                incl_len,
                snaplen: self.snaplen,
            }));
        }
        if incl_len > MAX_RECORD_LEN {
            return Err(PacketError::Malformed(MalformedRecord::CapExceeded {
                incl_len,
            }));
        }
        if incl_len > orig_len {
            return Err(PacketError::Malformed(
                MalformedRecord::LengthInconsistent { incl_len, orig_len },
            ));
        }
        let mut data = vec![0u8; incl_len as usize];
        let have = self.read_fully(&mut data)?;
        if have < data.len() {
            return Err(PacketError::Malformed(MalformedRecord::TruncatedBody {
                need: data.len(),
                have,
            }));
        }
        let ts_micros = if self.nanos { ts_frac / 1000 } else { ts_frac };
        Ok(Some(PcapRecord {
            ts: SimTime::from_secs(ts_sec as u64),
            ts_micros,
            data,
        }))
    }

    /// Reads the next record with skip-and-count recovery, or `None` at end
    /// of file.
    ///
    /// Damage is confined to the record it occurs in: a record with a
    /// rejected length field is skipped (its advertised bytes are discarded
    /// in bounded chunks, so the stream stays synchronized on the next
    /// record boundary) and reported as [`RecordOutcome::Skipped`]; a file
    /// cut off mid-record yields [`RecordOutcome::TruncatedTail`] once and
    /// then end-of-file. `Err` is reserved for real I/O failures.
    pub fn read_record_recovering(&mut self) -> Result<Option<RecordOutcome>, PacketError> {
        if self.exhausted {
            return Ok(None);
        }
        match self.read_record() {
            Ok(Some(rec)) => Ok(Some(RecordOutcome::Record(rec))),
            Ok(None) => Ok(None),
            Err(PacketError::Malformed(m)) if m.is_truncation() => {
                self.exhausted = true;
                Ok(Some(RecordOutcome::TruncatedTail(m)))
            }
            Err(PacketError::Malformed(m)) => {
                let advertised = match m {
                    MalformedRecord::SnaplenExceeded { incl_len, .. }
                    | MalformedRecord::CapExceeded { incl_len }
                    | MalformedRecord::LengthInconsistent { incl_len, .. } => incl_len,
                    _ => unreachable!("truncation handled above"),
                };
                if self.discard(u64::from(advertised))? {
                    Ok(Some(RecordOutcome::Skipped(m)))
                } else {
                    self.exhausted = true;
                    Ok(Some(RecordOutcome::TruncatedTail(m)))
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Discards `n` bytes through a bounded scratch buffer. Returns `false`
    /// if the input ended first.
    fn discard(&mut self, mut n: u64) -> Result<bool, PacketError> {
        let mut scratch = [0u8; 8192];
        while n > 0 {
            let want = scratch.len().min(usize::try_from(n).unwrap_or(usize::MAX));
            let got = self.read_fully(&mut scratch[..want])?;
            if got == 0 {
                return Ok(false);
            }
            n -= got as u64;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_packet::{PacketBuilder, PcapWriter, SliceReader};

    fn sample_records() -> Vec<PcapRecord> {
        let b = PacketBuilder::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        );
        vec![
            PcapRecord {
                ts: SimTime::from_secs(10),
                ts_micros: 500,
                data: b.icmpv6_echo_request(1, 1, b"probe"),
            },
            PcapRecord {
                ts: SimTime::from_secs(11),
                ts_micros: 0,
                data: b.tcp_syn(40000, 80, 7, &[]),
            },
            PcapRecord {
                ts: SimTime::from_secs(3600),
                ts_micros: 999_999,
                data: b.udp(40001, 33434, b"trace"),
            },
        ]
    }

    fn written(records: &[PcapRecord]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.into_inner().unwrap()
    }

    /// Appends a raw record header (+ body) to `bytes` in LE layout.
    fn push_record(bytes: &mut Vec<u8>, incl: u32, orig: u32, body: &[u8]) {
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&incl.to_le_bytes());
        bytes.extend_from_slice(&orig.to_le_bytes());
        bytes.extend_from_slice(body);
    }

    #[test]
    fn reader_rejects_bad_magic() {
        let bytes = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&bytes[..]),
            Err(PacketError::BadPcapMagic(0))
        ));
    }

    #[test]
    fn reader_rejects_wrong_linktype() {
        let mut bytes = written(&sample_records()[..1]);
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
        assert!(matches!(
            PcapReader::new(&bytes[..]),
            Err(PacketError::UnsupportedLinkType(1))
        ));
    }

    #[test]
    fn reader_accepts_big_endian_files() {
        // Hand-build a big-endian header + one record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE_US.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0i32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&65_535u32.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        bytes.extend_from_slice(&42u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&3u32.to_be_bytes()); // incl
        bytes.extend_from_slice(&3u32.to_be_bytes()); // orig
        bytes.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let rec = r.read_record().unwrap().unwrap();
        assert_eq!(rec.ts.as_secs(), 42);
        assert_eq!(rec.ts_micros, 7);
        assert_eq!(rec.data, vec![0xaa, 0xbb, 0xcc]);
        assert!(r.read_record().unwrap().is_none());
    }

    #[test]
    fn nanosecond_magic_scales_to_micros() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE_NS.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&5_000_000u32.to_le_bytes()); // 5 ms in ns
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0x60);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let rec = r.read_record().unwrap().unwrap();
        assert_eq!(rec.ts_micros, 5000);
    }

    #[test]
    fn truncated_record_is_an_error_not_a_panic() {
        let bytes = written(&sample_records()[..1]);
        let mut r = PcapReader::new(&bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            r.read_record(),
            Err(PacketError::Malformed(
                MalformedRecord::TruncatedBody { .. }
            ))
        ));
    }

    #[test]
    fn oversized_incl_len_is_a_typed_error_without_allocation() {
        let mut bytes = written(&sample_records()[..1]);
        // Overwrite incl_len with a 4 GiB-adjacent value.
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.read_record(),
            Err(PacketError::Malformed(MalformedRecord::SnaplenExceeded {
                incl_len: u32::MAX,
                snaplen: 65_535,
            }))
        ));
    }

    #[test]
    fn cap_applies_when_the_file_snaplen_is_absurd() {
        let mut bytes = written(&sample_records()[..1]);
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // snaplen
        bytes[32..36].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert_eq!(r.snaplen(), u32::MAX);
        assert!(matches!(
            r.read_record(),
            Err(PacketError::Malformed(MalformedRecord::CapExceeded { .. }))
        ));
    }

    #[test]
    fn recovering_reader_skips_bad_record_and_resynchronizes() {
        let records = sample_records();
        let mut bytes = written(&records[..1]);
        // A record whose incl_len (8) exceeds its orig_len (4): contradictory
        // lengths, but the 8 advertised body bytes are present, so the reader
        // can skip straight over them.
        push_record(&mut bytes, 8, 4, &[0xeeu8; 8]);
        // A well-formed record after the damage.
        push_record(&mut bytes, 3, 3, &[1, 2, 3]);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::Record(rec)) if rec == records[0]
        ));
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::Skipped(
                MalformedRecord::LengthInconsistent {
                    incl_len: 8,
                    orig_len: 4,
                }
            ))
        ));
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::Record(rec)) if rec.data == [1, 2, 3]
        ));
        assert!(r.read_record_recovering().unwrap().is_none());
    }

    #[test]
    fn truncated_tail_is_reported_once_then_eof() {
        let bytes = written(&sample_records()[..2]);
        // Cut the file off inside the second record's body.
        let mut r = PcapReader::new(&bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::Record(_))
        ));
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::TruncatedTail(
                MalformedRecord::TruncatedBody { .. }
            ))
        ));
        assert!(r.read_record_recovering().unwrap().is_none());
        assert!(r.read_record_recovering().unwrap().is_none());
    }

    #[test]
    fn skip_hitting_eof_counts_as_truncated_tail() {
        let mut bytes = written(&sample_records()[..1]);
        // Damaged record advertising 100 body bytes, of which only 5 exist.
        push_record(&mut bytes, 100, 50, &[0u8; 5]);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::Record(_))
        ));
        assert!(matches!(
            r.read_record_recovering().unwrap(),
            Some(RecordOutcome::TruncatedTail(
                MalformedRecord::LengthInconsistent { .. }
            ))
        ));
        assert!(r.read_record_recovering().unwrap().is_none());
    }

    /// Streams `bytes` through both the owned recovering reader and the
    /// zero-copy slice reader and asserts identical outcome sequences.
    fn assert_readers_agree(bytes: &[u8]) {
        let mut reference = Vec::new();
        let mut r = PcapReader::new(bytes).unwrap();
        while let Some(outcome) = r.read_record_recovering().unwrap() {
            reference.push(outcome);
        }
        let borrowed: Vec<RecordOutcome> = SliceReader::new(bytes)
            .unwrap()
            .map(|o| owned(&o))
            .collect();
        assert_eq!(borrowed, reference);
    }

    #[test]
    fn slice_reader_matches_streaming_reader_on_clean_files() {
        assert_readers_agree(&written(&sample_records()));
    }

    #[test]
    fn slice_reader_matches_streaming_reader_on_damage() {
        // Same damage catalog the owned-reader tests use: inconsistent
        // lengths mid-file, a skip running off EOF, a truncated header.
        let clean = written(&sample_records());

        let mut skipped = clean.clone();
        push_record(&mut skipped, 8, 4, &[0xee; 8]);
        push_record(&mut skipped, 3, 3, &[1, 2, 3]);
        assert_readers_agree(&skipped);

        let mut tail_skip = clean.clone();
        push_record(&mut tail_skip, 100, 50, &[0u8; 5]);
        assert_readers_agree(&tail_skip);

        let mut cut_header = clean.clone();
        cut_header.extend_from_slice(&[0u8; 7]);
        assert_readers_agree(&cut_header);

        let cut_body = &clean[..clean.len() - 2];
        assert_readers_agree(cut_body);
    }
}
