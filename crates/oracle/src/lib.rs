//! # sixscope-oracle
//!
//! Independent reference implementations that sixscope's differential
//! tests and benches compare the shipped code against. Each one computes
//! the same answer as a production path by a different, simpler route:
//!
//! * [`pcap`] — the owned, `Read`-based streaming pcap reader. The
//!   mutation harness diffs the zero-copy `SliceReader` against it outcome
//!   for outcome.
//! * [`nist`] — the scalar `&[bool]` SP 800-22 kernels the word-packed
//!   battery replaced.
//! * [`autocorr`] — the O(n·lag) autocorrelation scan the FFT period
//!   detector replaced.
//!
//! The crate is never published and is only ever named under
//! `[dev-dependencies]`, so no shipped binary links it (CI checks
//! `cargo tree -e normal,build`; DESIGN.md "Oracles"). A test that calls
//! an oracle from a crate the oracle itself depends on must live in that
//! crate's `tests/` directory: only there do the two copies of the crate's
//! types unify.

pub mod autocorr;
pub mod nist;
pub mod pcap;

pub use pcap::{owned, PcapReader, RecordOutcome};
