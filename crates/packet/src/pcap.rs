//! Classic pcap file I/O (the `.pcap` format of libpcap/tcpdump).
//!
//! Captures are written with LINKTYPE_RAW (101): each record is a bare IP
//! packet, which is exactly what our telescopes receive. Files produced here
//! open in Wireshark; files produced by `tcpdump -w -y RAW` feed straight
//! into the analysis pipeline, so the pipeline works on real captures too.
//!
//! The writer emits the standard microsecond-resolution little-endian
//! format; the reader additionally accepts big-endian and
//! nanosecond-resolution magic values.
//!
//! Real captures are damaged in predictable ways — a killed `tcpdump`
//! leaves a half-written final record, disk corruption flips length
//! fields — so the reader never trusts a length field: `incl_len` is
//! validated against the file's own snaplen and the [`MAX_RECORD_LEN`]
//! ceiling before any allocation, and
//! [`PcapReader::read_record_recovering`] turns per-record damage into
//! typed [`RecordOutcome`]s instead of aborting the file.

use crate::error::{MalformedRecord, PacketError};
use sixscope_types::SimTime;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC_LE_US: u32 = 0xa1b2c3d4;
const MAGIC_LE_NS: u32 = 0xa1b23c4d;
const LINKTYPE_RAW: u32 = 101;

/// Hard ceiling on a single record's captured length (1 MiB).
///
/// LINKTYPE_RAW records are bare IPv6 packets, so 40 + 65535 bytes is the
/// realistic maximum; the ceiling leaves generous headroom for jumbo
/// payloads while making a corrupt 4 GiB `incl_len` un-allocatable.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// The snapshot length the writer declares (and enforces) in its header.
const WRITER_SNAPLEN: u32 = 65_535;

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Sub-second microseconds.
    pub ts_micros: u32,
    /// Raw packet bytes (an IPv6 packet under LINKTYPE_RAW).
    pub data: Vec<u8>,
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header and returns the writer.
    pub fn new(mut out: W) -> Result<Self, PacketError> {
        out.write_all(&MAGIC_LE_US.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&WRITER_SNAPLEN.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Appends one packet record.
    ///
    /// Rejects (rather than silently wrapping) timestamps past the 32-bit
    /// seconds horizon and packets whose length does not fit `orig_len`.
    /// Data longer than the advertised snaplen is clipped exactly as a real
    /// capture would clip it: `incl_len` bytes on the wire, the true size
    /// in `orig_len`.
    pub fn write_record(&mut self, rec: &PcapRecord) -> Result<(), PacketError> {
        let secs = rec.ts.as_secs();
        let secs32 = u32::try_from(secs).map_err(|_| PacketError::TimestampOverflow(secs))?;
        let orig_len = u32::try_from(rec.data.len())
            .map_err(|_| PacketError::OversizedPacket(rec.data.len()))?;
        let incl_len = orig_len.min(WRITER_SNAPLEN);
        self.out.write_all(&secs32.to_le_bytes())?;
        self.out.write_all(&rec.ts_micros.to_le_bytes())?;
        self.out.write_all(&incl_len.to_le_bytes())?;
        self.out.write_all(&orig_len.to_le_bytes())?;
        self.out.write_all(&rec.data[..incl_len as usize])?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> Result<W, PacketError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

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

/// Streaming pcap reader.
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

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PcapRecord, PacketError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Chunked streaming source over a recovering reader: yields up to
/// `chunk_records` [`RecordOutcome`]s at a time, so a consumer holds one
/// chunk of records in memory instead of a whole capture file.
///
/// Recovery semantics are exactly [`PcapReader::read_record_recovering`]'s —
/// chunk boundaries are invisible in the outcome sequence. `Err` (real I/O
/// failure only) ends the iteration.
pub struct PcapChunks<R: Read> {
    reader: PcapReader<R>,
    chunk_records: usize,
    failed: bool,
}

impl<R: Read> PcapChunks<R> {
    /// Wraps an open reader; `chunk_records` is clamped to at least 1.
    pub fn new(reader: PcapReader<R>, chunk_records: usize) -> Self {
        PcapChunks {
            reader,
            chunk_records: chunk_records.max(1),
            failed: false,
        }
    }
}

impl<R: Read> Iterator for PcapChunks<R> {
    type Item = Result<Vec<RecordOutcome>, PacketError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut out = Vec::new();
        while out.len() < self.chunk_records {
            match self.reader.read_record_recovering() {
                Ok(Some(outcome)) => out.push(outcome),
                Ok(None) => break,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Ok(out))
        }
    }
}

/// One captured packet record, borrowed from the underlying file bytes.
///
/// The zero-copy counterpart of [`PcapRecord`]: `data` is a subslice of
/// the capture file (an [`MappedPcap`] mapping or any in-memory byte
/// slice), so yielding a record allocates nothing. Views live only as
/// long as the backing bytes — promote with [`RecordView::to_owned`]
/// when a record must outlive them (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Sub-second microseconds.
    pub ts_micros: u32,
    /// Raw packet bytes (an IPv6 packet under LINKTYPE_RAW).
    pub data: &'a [u8],
}

impl RecordView<'_> {
    /// Copies the view out into an owned [`PcapRecord`].
    pub fn to_owned(&self) -> PcapRecord {
        PcapRecord {
            ts: self.ts,
            ts_micros: self.ts_micros,
            data: self.data.to_vec(),
        }
    }
}

/// Outcome of one recoverable zero-copy read step (see
/// [`SliceReader::read_record_recovering`]).
///
/// The borrowed counterpart of [`RecordOutcome`]; the two encode the same
/// taxonomy and a [`SliceReader`] yields exactly the outcome sequence a
/// [`PcapReader`] yields over the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewOutcome<'a> {
    /// A complete, well-formed record.
    Record(RecordView<'a>),
    /// A damaged record was skipped; the stream is re-synchronized on the
    /// next record boundary.
    Skipped(MalformedRecord),
    /// The file ends inside a record. All preceding records were yielded;
    /// no further reads will succeed.
    TruncatedTail(MalformedRecord),
}

impl ViewOutcome<'_> {
    /// Copies the outcome out into its owned [`RecordOutcome`] form.
    pub fn to_owned(&self) -> RecordOutcome {
        match self {
            ViewOutcome::Record(v) => RecordOutcome::Record(v.to_owned()),
            ViewOutcome::Skipped(m) => RecordOutcome::Skipped(*m),
            ViewOutcome::TruncatedTail(m) => RecordOutcome::TruncatedTail(*m),
        }
    }
}

/// Zero-copy recovering pcap reader over an in-memory byte slice.
///
/// Parses the same global-header dialects as [`PcapReader`] (both endians,
/// micro- and nanosecond magic) and applies the same per-record validation
/// in the same order, but yields borrowed [`RecordView`]s instead of
/// allocating a `Vec<u8>` per record. Because the whole file is addressable,
/// recovery is a cursor adjustment: skipping a damaged record advances the
/// offset past its advertised bytes, and no copy-out is ever needed to
/// re-synchronize — the "copy-out at re-sync boundaries" obligation of
/// streaming readers vanishes in slice mode.
pub struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
    swapped: bool,
    nanos: bool,
    snaplen: u32,
    exhausted: bool,
}

/// Resumable cursor state of a [`SliceReader`] — everything but the byte
/// slice itself.
///
/// Tail-following readers save this across remaps of a growing capture
/// file: a truncated tail never advances the cursor (the offset stays at
/// the start of the incomplete record), so [`SliceReader::resume`] over a
/// longer snapshot of the same file re-reads exactly the bytes the writer
/// was still producing — including a record whose header or body was cut
/// mid-write and completed later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceReaderState {
    pos: usize,
    swapped: bool,
    nanos: bool,
    snaplen: u32,
}

impl SliceReaderState {
    /// Byte offset of the next unread record header.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> SliceReader<'a> {
    /// Validates the 24-byte global header and positions the cursor on the
    /// first record.
    pub fn new(data: &'a [u8]) -> Result<Self, PacketError> {
        if data.len() < 24 {
            return Err(PacketError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "pcap global header needs 24 bytes",
            )));
        }
        let magic = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
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
        let linktype = read_u32(&data[20..24]);
        if linktype != LINKTYPE_RAW {
            return Err(PacketError::UnsupportedLinkType(linktype));
        }
        Ok(SliceReader {
            data,
            pos: 24,
            swapped,
            nanos,
            snaplen: read_u32(&data[16..20]),
            exhausted: false,
        })
    }

    /// The snapshot length declared by the file's global header.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// The resumable cursor state — see [`SliceReaderState`]. The
    /// `exhausted` latch is deliberately not part of the state: resuming
    /// over a longer snapshot of the same file clears it, so a truncated
    /// tail can complete once the writer catches up.
    pub fn state(&self) -> SliceReaderState {
        SliceReaderState {
            pos: self.pos,
            swapped: self.swapped,
            nanos: self.nanos,
            snaplen: self.snaplen,
        }
    }

    /// Byte offset of the next unread record header.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// True once the reader has hit end of data (clean or truncated); only
    /// [`SliceReader::resume`] over a longer slice can make progress again.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Re-creates a reader over a (possibly longer) snapshot of the same
    /// file from a saved [`SliceReaderState`], without re-validating or
    /// re-reading the prefix. `data` must extend the bytes the state was
    /// saved from; a slice shorter than the saved offset yields a reader
    /// that reports a truncated tail at the boundary.
    pub fn resume(data: &'a [u8], state: SliceReaderState) -> SliceReader<'a> {
        SliceReader {
            data,
            pos: state.pos.min(data.len()),
            swapped: state.swapped,
            nanos: state.nanos,
            snaplen: state.snaplen,
            exhausted: false,
        }
    }

    /// Reads the next record with skip-and-count recovery, or `None` at end
    /// of file.
    ///
    /// Infallible (unlike the streaming reader there is no I/O to fail):
    /// damage maps to [`ViewOutcome::Skipped`] / [`ViewOutcome::TruncatedTail`]
    /// exactly as [`PcapReader::read_record_recovering`] maps it, including
    /// the reported-once-then-EOF truncation semantics.
    #[allow(clippy::should_implement_trait)]
    pub fn read_record_recovering(&mut self) -> Option<ViewOutcome<'a>> {
        if self.exhausted {
            return None;
        }
        let remaining = self.data.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        if remaining < 16 {
            self.exhausted = true;
            return Some(ViewOutcome::TruncatedTail(
                MalformedRecord::TruncatedHeader { have: remaining },
            ));
        }
        let hdr = &self.data[self.pos..self.pos + 16];
        let field = |i: usize| {
            let v = u32::from_le_bytes([hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let (ts_sec, ts_frac, incl_len, orig_len) = (field(0), field(4), field(8), field(12));
        // Same validation order as the streaming reader so the same damage
        // produces the same MalformedRecord reason.
        let malformed = if self.snaplen != 0 && incl_len > self.snaplen {
            Some(MalformedRecord::SnaplenExceeded {
                incl_len,
                snaplen: self.snaplen,
            })
        } else if incl_len > MAX_RECORD_LEN {
            Some(MalformedRecord::CapExceeded { incl_len })
        } else if incl_len > orig_len {
            Some(MalformedRecord::LengthInconsistent { incl_len, orig_len })
        } else {
            None
        };
        let body = self.pos + 16;
        let end = body.checked_add(incl_len as usize);
        if let Some(m) = malformed {
            // Skip the advertised bytes; a skip running off the end of the
            // slice is the streaming reader's discard-hit-EOF case.
            return Some(match end {
                Some(end) if end <= self.data.len() => {
                    self.pos = end;
                    ViewOutcome::Skipped(m)
                }
                _ => {
                    self.exhausted = true;
                    ViewOutcome::TruncatedTail(m)
                }
            });
        }
        match end {
            Some(end) if end <= self.data.len() => {
                self.pos = end;
                let ts_micros = if self.nanos { ts_frac / 1000 } else { ts_frac };
                Some(ViewOutcome::Record(RecordView {
                    ts: SimTime::from_secs(ts_sec as u64),
                    ts_micros,
                    data: &self.data[body..end],
                }))
            }
            _ => {
                self.exhausted = true;
                Some(ViewOutcome::TruncatedTail(MalformedRecord::TruncatedBody {
                    need: incl_len as usize,
                    have: self.data.len() - body,
                }))
            }
        }
    }

    /// Collects up to `chunk_records` outcomes into `out` (cleared first).
    /// Returns `false` once the stream is finished and `out` is empty —
    /// the chunked feed used by the streaming pipeline. Chunk boundaries
    /// are invisible in the outcome sequence.
    pub fn next_chunk(&mut self, chunk_records: usize, out: &mut Vec<ViewOutcome<'a>>) -> bool {
        out.clear();
        let want = chunk_records.max(1);
        while out.len() < want {
            match self.read_record_recovering() {
                Some(outcome) => out.push(outcome),
                None => break,
            }
        }
        !out.is_empty()
    }
}

impl<'a> Iterator for SliceReader<'a> {
    type Item = ViewOutcome<'a>;
    fn next(&mut self) -> Option<Self::Item> {
        self.read_record_recovering()
    }
}

#[cfg(unix)]
mod mmap_sys {
    //! Minimal read-only `mmap(2)` bindings.
    //!
    //! Declared directly (std already links libc on every unix target) so
    //! the zero-copy reader needs no external crate. Only `PROT_READ` +
    //! `MAP_PRIVATE` mappings of regular files are ever created.
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// How a [`MappedPcap`] holds the file bytes.
enum Backing {
    /// A read-only private `mmap(2)` of the file.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// The whole file read into memory (the fallback path).
    Owned(Vec<u8>),
}

/// A capture file held as one contiguous byte slice, preferring `mmap(2)`.
///
/// [`MappedPcap::open`] maps the file read-only when possible and silently
/// falls back to reading it into an owned buffer when it cannot (empty
/// file, exotic filesystem, non-unix target). Either way [`MappedPcap::data`]
/// exposes identical bytes, so [`SliceReader`]s built over it behave
/// identically — the fallback changes memory residency, never statistics.
///
/// The mapping snapshots the file's length at open time; bytes appended by
/// a still-running capture process are picked up by the *next* open, which
/// matches the buffered reader's behavior of reading to the EOF it sees.
pub struct MappedPcap {
    backing: Backing,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or
// remapped after construction, so shared references to its bytes may move
// across threads like any other immutable buffer.
unsafe impl Send for MappedPcap {}
unsafe impl Sync for MappedPcap {}

impl MappedPcap {
    /// Opens `path`, mapping it when the platform and file allow and
    /// falling back to a buffered whole-file read otherwise.
    pub fn open(path: &Path) -> Result<Self, PacketError> {
        let file = std::fs::File::open(path)?;
        #[cfg(unix)]
        {
            let len = file.metadata()?.len();
            // mmap(2) rejects zero-length mappings; tiny or empty files go
            // through the fallback (and then fail header validation with
            // the same error the streaming reader reports).
            if len > 0 && usize::try_from(len).is_ok() {
                use std::os::unix::io::AsRawFd;
                let len = len as usize;
                let ptr = unsafe {
                    mmap_sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        mmap_sys::PROT_READ,
                        mmap_sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(MappedPcap {
                        backing: Backing::Mapped {
                            ptr: ptr as *mut u8,
                            len,
                        },
                    });
                }
            }
        }
        Self::from_reader(file)
    }

    /// Opens `path` through the buffered fallback unconditionally — the
    /// path exercised by tests that pin fallback/mmap equivalence.
    pub fn open_buffered(path: &Path) -> Result<Self, PacketError> {
        Self::from_reader(std::fs::File::open(path)?)
    }

    fn from_reader<R: Read>(mut input: R) -> Result<Self, PacketError> {
        let mut buf = Vec::new();
        input.read_to_end(&mut buf)?;
        Ok(MappedPcap {
            backing: Backing::Owned(buf),
        })
    }

    /// The file bytes (identical on both backings).
    pub fn data(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            // SAFETY: ptr/len came from a successful mmap that lives until
            // Drop, and the mapping is never written through.
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Backing::Owned(v) => v,
        }
    }

    /// True when the bytes are an actual memory mapping (false on the
    /// buffered fallback).
    pub fn used_mmap(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// A zero-copy recovering reader over the file bytes.
    pub fn reader(&self) -> Result<SliceReader<'_>, PacketError> {
        SliceReader::new(self.data())
    }
}

impl Drop for MappedPcap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: exactly one munmap of a region this struct mmapped.
            unsafe {
                mmap_sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;

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

    #[test]
    fn write_read_round_trip() {
        let records = sample_records();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.into_inner().unwrap();
        let reader = PcapReader::new(&bytes[..]).unwrap();
        let back: Vec<PcapRecord> = reader.map(Result::unwrap).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn chunked_reading_is_boundary_invisible() {
        // Good records plus a damaged one plus a truncated tail: chunked
        // iteration must yield exactly the outcome sequence the plain
        // recovering loop produces, at any chunk size.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        let mut bytes = w.into_inner().unwrap();
        // incl_len 8 > orig_len 2, body present → Skipped(LengthInconsistent).
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xab; 8]);
        bytes.extend_from_slice(&[0u8; 5]); // header cut off by EOF
        let mut reference = Vec::new();
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        while let Some(outcome) = r.read_record_recovering().unwrap() {
            reference.push(outcome);
        }
        assert!(reference
            .iter()
            .any(|o| matches!(o, RecordOutcome::Skipped(_))));
        assert!(reference
            .iter()
            .any(|o| matches!(o, RecordOutcome::TruncatedTail(_))));
        for chunk in [1usize, 2, 1000] {
            let reader = PcapReader::new(&bytes[..]).unwrap();
            let mut chunk_sizes = Vec::new();
            let mut chunked: Vec<RecordOutcome> = Vec::new();
            for c in PcapChunks::new(reader, chunk) {
                let c = c.unwrap();
                chunk_sizes.push(c.len());
                chunked.extend(c);
            }
            assert_eq!(chunked, reference, "chunk size {chunk}");
            assert!(chunk_sizes.iter().all(|&n| n >= 1 && n <= chunk));
        }
    }

    #[test]
    fn global_header_is_24_bytes_with_raw_linktype() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.into_inner().unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            MAGIC_LE_US
        );
        assert_eq!(
            u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let bytes = w.into_inner().unwrap();
        let mut r = PcapReader::new(&bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            r.read_record(),
            Err(PacketError::Malformed(
                MalformedRecord::TruncatedBody { .. }
            ))
        ));
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
    fn oversized_incl_len_is_a_typed_error_without_allocation() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let records = sample_records();
        w.write_record(&records[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let records = sample_records();
        w.write_record(&records[0]).unwrap();
        w.write_record(&records[1]).unwrap();
        let bytes = w.into_inner().unwrap();
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
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
        let mut owned = Vec::new();
        let mut r = PcapReader::new(bytes).unwrap();
        while let Some(outcome) = r.read_record_recovering().unwrap() {
            owned.push(outcome);
        }
        let borrowed: Vec<RecordOutcome> = SliceReader::new(bytes)
            .unwrap()
            .map(|o| o.to_owned())
            .collect();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn slice_reader_matches_streaming_reader_on_clean_files() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        assert_readers_agree(&w.into_inner().unwrap());
    }

    #[test]
    fn slice_reader_matches_streaming_reader_on_damage() {
        // Same damage catalog the owned-reader tests use: inconsistent
        // lengths mid-file, a skip running off EOF, a truncated header.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        let clean = w.into_inner().unwrap();

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

    #[test]
    fn slice_reader_resume_continues_where_it_stopped() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        let bytes = w.into_inner().unwrap();
        // Read one record, capture the cursor, resume a fresh reader: the
        // resumed outcome sequence equals the unread remainder.
        let mut first = SliceReader::new(&bytes).unwrap();
        let mut views = Vec::new();
        assert!(first.next_chunk(1, &mut views));
        assert_eq!(views.len(), 1);
        let state = first.state();
        assert!(state.offset() > 24, "cursor moved past the global header");
        let rest: Vec<RecordOutcome> = SliceReader::resume(&bytes, state)
            .map(|o| o.to_owned())
            .collect();
        let full: Vec<RecordOutcome> = SliceReader::new(&bytes)
            .unwrap()
            .map(|o| o.to_owned())
            .collect();
        assert_eq!(rest, full[1..]);
    }

    #[test]
    fn slice_reader_resume_rereads_a_completed_tail() {
        // A truncated tail leaves the cursor at the in-flight record's
        // start; resuming over the completed file reads that record whole.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let records = sample_records();
        w.write_record(&records[0]).unwrap();
        w.write_record(&records[1]).unwrap();
        let full = w.into_inner().unwrap();
        let cut = full.len() - 2;

        let mut r = SliceReader::new(&full[..cut]).unwrap();
        assert!(matches!(r.next(), Some(ViewOutcome::Record(_))));
        let at_tail = r.state();
        assert!(matches!(r.next(), Some(ViewOutcome::TruncatedTail(_))));
        assert!(r.is_exhausted());
        // The truncated outcome did not advance the cursor.
        assert_eq!(r.state().offset(), at_tail.offset());

        let mut resumed = SliceReader::resume(&full, r.state());
        assert!(!resumed.is_exhausted(), "resume clears exhaustion");
        match resumed.next() {
            Some(ViewOutcome::Record(rec)) => assert_eq!(rec.data, &records[1].data[..]),
            other => panic!("expected the completed record, got {other:?}"),
        }
        assert!(resumed.next().is_none());
    }

    #[test]
    fn slice_reader_resume_clamps_past_eof() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let bytes = w.into_inner().unwrap();
        let mut r = SliceReader::new(&bytes).unwrap();
        while r.next().is_some() {}
        let state = r.state();
        // Resuming over a shorter snapshot than the cursor has seen (a
        // writer that truncated its own file) yields nothing, not a panic.
        let mut shorter = SliceReader::resume(&bytes[..24], state);
        assert!(shorter.next().is_none());
    }

    #[test]
    fn slice_reader_rejects_the_same_headers() {
        assert!(matches!(
            SliceReader::new(&[0u8; 24]),
            Err(PacketError::BadPcapMagic(0))
        ));
        assert!(matches!(
            SliceReader::new(&[0u8; 3]),
            Err(PacketError::Io(_))
        ));
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&sample_records()[0]).unwrap();
        let mut bytes = w.into_inner().unwrap();
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            SliceReader::new(&bytes),
            Err(PacketError::UnsupportedLinkType(1))
        ));
    }

    #[test]
    fn slice_reader_handles_big_endian_and_nanos() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE_NS.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&5_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0x60);
        let mut r = SliceReader::new(&bytes).unwrap();
        match r.read_record_recovering() {
            Some(ViewOutcome::Record(v)) => {
                assert_eq!(v.ts_micros, 5000);
                assert_eq!(v.data, &[0x60]);
            }
            other => panic!("expected record, got {other:?}"),
        }
        assert!(r.read_record_recovering().is_none());
    }

    #[test]
    fn slice_chunks_are_boundary_invisible() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        let mut bytes = w.into_inner().unwrap();
        push_record(&mut bytes, 8, 2, &[0xab; 8]);
        let reference: Vec<RecordOutcome> = SliceReader::new(&bytes)
            .unwrap()
            .map(|o| o.to_owned())
            .collect();
        for chunk in [1usize, 2, 1000] {
            let mut r = SliceReader::new(&bytes).unwrap();
            let mut buf = Vec::new();
            let mut collected = Vec::new();
            while r.next_chunk(chunk, &mut buf) {
                assert!(!buf.is_empty() && buf.len() <= chunk);
                collected.extend(buf.iter().map(|o| o.to_owned()));
            }
            assert_eq!(collected, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn mapped_pcap_matches_buffered_fallback() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        let bytes = w.into_inner().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sixscope-packet-{}-mapped_pcap_matches_buffered_fallback.pcap",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedPcap::open(&path).unwrap();
        let buffered = MappedPcap::open_buffered(&path).unwrap();
        assert!(!buffered.used_mmap());
        assert_eq!(mapped.data(), buffered.data());
        let a: Vec<RecordOutcome> = mapped.reader().unwrap().map(|o| o.to_owned()).collect();
        let b: Vec<RecordOutcome> = buffered.reader().unwrap().map(|o| o.to_owned()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_pcap_empty_file_falls_back_and_reports_header_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sixscope-packet-{}-mapped_pcap_empty_file_falls_back.pcap",
            std::process::id()
        ));
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedPcap::open(&path).unwrap();
        assert!(!mapped.used_mmap());
        assert!(mapped.reader().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_post_2106_timestamps() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let rec = PcapRecord {
            ts: SimTime::from_secs(u64::from(u32::MAX) + 1),
            ts_micros: 0,
            data: vec![0x60],
        };
        assert!(matches!(
            w.write_record(&rec),
            Err(PacketError::TimestampOverflow(_))
        ));
    }

    #[test]
    fn writer_clips_oversnaplen_data_and_records_orig_len() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let rec = PcapRecord {
            ts: SimTime::from_secs(9),
            ts_micros: 0,
            data: vec![0xabu8; 70_000],
        };
        w.write_record(&rec).unwrap();
        let bytes = w.into_inner().unwrap();
        let incl = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
        let orig = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
        assert_eq!(incl, 65_535);
        assert_eq!(orig, 70_000);
        assert_eq!(bytes.len(), 24 + 16 + 65_535);
        // The clipped record reads back cleanly (incl_len < orig_len is a
        // legitimate snaplen clip, not damage).
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let back = r.read_record().unwrap().unwrap();
        assert_eq!(back.data.len(), 65_535);
        assert!(r.read_record().unwrap().is_none());
    }
}
