//! # sixscope-types
//!
//! Foundation types shared by every sixscope crate:
//!
//! * [`prefix::Ipv6Prefix`] — CIDR prefix algebra (containment, splitting,
//!   low-byte addresses, the paper's asymmetric split rule),
//! * [`trie::PrefixTrie`] — binary radix trie with longest-prefix match,
//! * [`time::SimTime`] / [`time::SimDuration`] — simulated wall clock,
//! * [`rng::Xoshiro256pp`] — deterministic, splittable PRNG,
//! * [`parallel::map_indexed_with`] — order-preserving fork-join map (with
//!   optional per-worker state) behind the parallel execution engine
//!   (byte-identical at any thread count),
//! * [`asn::Asn`] and network metadata used to label scan sources.
//!
//! Everything here is `std`-only and deterministic; the simulation and the
//! analysis pipeline both build on these types, so they are deliberately
//! small and heavily tested.

pub mod addr;
pub mod asn;
pub mod error;
pub mod intern;
pub mod parallel;
pub mod ports;
pub mod prefix;
pub mod rng;
pub mod time;
pub mod trie;

pub use addr::{iid, nibble, set_nibble, subnet_bits};
pub use asn::{AsInfo, Asn, CountryCode, NetworkType};
pub use error::TypeError;
pub use intern::{FxBuildHasher, FxHasher, InternTable};
pub use parallel::{chunk_ranges, map_indexed, map_indexed_with, num_threads, THREADS_ENV};
pub use prefix::Ipv6Prefix;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;
