//! # jrs-store — durable replica state
//!
//! The durability leg of the JOSHUA reproduction: a checksummed
//! record-framed write-ahead log ([`Wal`]) of delivered commands plus a
//! periodically published snapshot ([`SnapshotStore`]), both running over
//! the deterministic per-node simulated disk ([`jrs_sim::SimDisk`]).
//!
//! The paper's availability model assumes failed head nodes are *repaired
//! and rejoin*; this crate supplies the local half of that repair. On
//! restart a head loads its newest valid snapshot, replays the WAL to the
//! last valid record (truncating torn tails, quarantining corruption), and
//! rejoins the group needing only the delta it missed — instead of a full
//! in-memory state transfer, or, after a whole-cluster power loss, instead
//! of losing every accepted job.
//!
//! Wire format discipline: everything whose bytes land on disk goes
//! through the deterministic [`Codec`] (fixed-width little-endian, ordered
//! containers), so the construct bans of the deny block below apply to
//! this crate exactly as they do to the replicated state machines
//! themselves. A
//! product type gets its `Codec` from one [`codec!`] declaration.

#![warn(missing_docs)]
// Replica code: the construct bans of DESIGN.md 7.2 (name lists: /clippy.toml).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::cast_possible_truncation,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod codec;
pub mod crc;
pub mod snapshot;
pub mod wal;

pub use codec::{encode_seq, Codec, DecodeError, Reader};
pub use crc::crc32;
pub use snapshot::SnapshotStore;
pub use wal::{Replay, Wal, WalError};
