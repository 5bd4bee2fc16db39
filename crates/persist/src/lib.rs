//! Durable snapshot container for the exploration service.
//!
//! The paper's agility pitch is *design reuse*: distilled Pareto points
//! and per-macro metrics feed later explorations.  Everything the
//! `easyacim::ExplorationService` accumulates toward that reuse — session
//! archives (warm-start genomes per design space), genome-level
//! evaluation caches, macro-metric caches — lives in process memory and
//! dies with it.  This crate is the wire format that lets a service write
//! all of it to one file and a restarted service read it back, so the
//! first request after a restart reaches warm-start speed.
//!
//! # Container layout (format version 1)
//!
//! ```text
//! offset        size  field
//! 0             8     magic "ACIMSNAP"
//! 8             4     format version (u32 LE)
//! 12            4     section count N (u32 LE)
//! 16            16·N  section table: per section
//!                       kind (u32 LE) · payload length (u64 LE) ·
//!                       payload CRC-32 (u32 LE)
//! 16 + 16·N     4     header CRC-32 (over all preceding bytes, u32 LE)
//! 20 + 16·N     …     payloads, concatenated in table order
//! ```
//!
//! Every multi-byte integer is little-endian; every `f64` travels as its
//! IEEE-754 bit pattern (`to_bits`/`from_bits`), so round trips are
//! bit-exact for every value including negative zero and NaN payloads.
//! The file length must equal the header plus the summed payload lengths
//! exactly — trailing bytes are as fatal as missing ones.
//!
//! # Robustness contract
//!
//! [`Snapshot::from_bytes`] never panics and never returns partially
//! decoded data: the magic, version, header checksum, total length, and
//! every per-section checksum are verified before any payload is decoded,
//! and any failure surfaces as one typed [`PersistError`].  A flipped
//! byte anywhere in the file is caught by a checksum (or an even earlier
//! structural check); a truncated file is caught by a length check; a
//! future format version is refused before the header layout is trusted.
//! Consumers therefore get exactly two outcomes: the full snapshot, or a
//! typed error and nothing — the "clean cold start" the service's
//! `restore` builds on.
//!
//! # Versioning policy
//!
//! [`FORMAT_VERSION`] bumps on **any** layout change, including new
//! section kinds — readers reject unknown versions (and unknown section
//! kinds, defensively) rather than guessing.  A newer reader may add
//! back-compat decoding for older versions; a writer only ever emits the
//! current one.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod container;
mod crc;
mod error;
mod snapshot;
mod wire;

pub use container::FORMAT_VERSION;
pub use crc::crc32;
pub use error::PersistError;
pub use snapshot::{
    ArchiveRecord, EvalCacheRecord, EvalEntry, MacroCacheRecord, MacroEntry, Snapshot,
};
