//! # sixscope-telescope
//!
//! The measurement half of the paper's §3: four network telescopes with
//! contrasting network embeddings.
//!
//! * [`config`] — T1 (BGP-controlled /32), T2 (partially productive /48 with
//!   a DNS attractor), T3 (silent /48 inside a covering /29), T4 (reactive
//!   /48 inside the same /29),
//! * [`capture`] — the packet store each telescope fills,
//! * [`source`] — scan-source aggregation at /128, /64 and /48,
//! * [`session`] — scan-session construction with the paper's 1-hour
//!   inter-arrival timeout,
//! * [`feed`] — the unified chunked input surface ([`Feed`]) over finished
//!   pcaps, growing capture files and simulated experiments,
//! * [`reactive`] — T4's responder (echo replies, SYN/ACKs, port
//!   unreachables),
//! * [`schedule`] — the bi-weekly asymmetric prefix-split automation of
//!   Fig. 2 (withdraw day, split the half without the inherited low-byte
//!   address, re-announce).

pub mod capture;
pub mod config;
pub mod feed;
pub mod reactive;
pub mod schedule;
pub mod session;
pub mod source;

pub use bytes::Bytes;
pub use capture::{Capture, CapturedPacket, IngestStats, Protocol};
pub use config::{TelescopeConfig, TelescopeId, TelescopeKind};
pub use feed::{Feed, FeedChunk, FeedError, LateFilter, PcapFeed, SimFeed, TailFeed};
pub use reactive::respond;
pub use schedule::{ScheduleAction, ScheduleActionKind, SplitSchedule};
pub use session::{IncrementalSessionizer, ScanSession, Sessionizer, SESSION_TIMEOUT};
pub use source::{AggLevel, SourceKey};
