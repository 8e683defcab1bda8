//! # jrs-gcs — group communication for symmetric active/active replication
//!
//! A from-scratch replacement for the Transis group communication system
//! the JOSHUA paper builds on. It provides the guarantees JOSHUA's external
//! replication needs:
//!
//! * **Reliable, totally ordered multicast** — every member of a view
//!   delivers the same messages in the same order ([`GcsEvent::Deliver`]).
//! * **Fault-tolerant membership** — a heartbeat failure detector plus a
//!   coordinator-driven view-change flush agree on who is in the group
//!   ([`GcsEvent::ViewChange`]); joins, voluntary leaves and crash failures
//!   (single and simultaneous) are all membership changes.
//! * **Virtual synchrony** — members that survive from one view into the
//!   next deliver the same set of messages before the view change.
//! * **Partitions re-merge** — under the default `FailStop` policy both
//!   sides of a partition proceed and, on heal, the losing side ejects and
//!   rejoins with state transfer; `PrimaryComponent` lets only a quorum on.
//!
//! One total-order engine, with two ways to assign sequence numbers
//! ([`EngineKind`]): a fixed **sequencer** (ISIS-style, the default) and
//! a rotating **token** (Totem-style, used for the paper reproduction's
//! ordering ablation).
//!
//! The member is a sans-IO state machine: feed a [`GroupMember`]
//! `start`/`on_wire`/`tick`, transmit the frames it returns, and react to
//! the events. Under `jrs-sim` that embedding exists once,
//! [`simharness::GroupHost`]; `joshua-core` builds its daemon on it.
//!
//! ## Fault model
//!
//! Fail-stop, like the paper: components fail by stopping, and a suspected
//! component is treated as failed (unique view identifiers, epoch-fenced
//! flushes). A partition can split the group until it heals (DESIGN.md 6).
//! Byzantine behaviour is out of scope, as it is for JOSHUA.

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

pub mod config;
pub mod detector;
pub mod engine;
pub mod group;
pub mod link;
pub mod msg;
pub mod simharness;
#[expect(
    clippy::expect_used,
    reason = "harness, not a replica: a missing pump member must stop the experiment"
)]
pub mod testkit;
pub mod view;

pub use config::{EngineKind, FrameCost, GroupConfig, MembershipPolicy};
pub use group::{GcsEvent, GroupMember, GroupStats, Output};
pub use msg::{EngineMsg, Epoch, FlushDigest, GcsMsg, OrderedMsg, Wire};
pub use view::{View, ViewId};
