//! # jrs-pbs — PBS-compatible job and resource management substrate
//!
//! A from-scratch stand-in for the TORQUE PBS server + Maui scheduler +
//! PBS mom stack the JOSHUA paper replicates. The pieces:
//!
//! * [`server::PbsServerCore`] — the PBS server as a **pure, deterministic
//!   state machine**: the property symmetric active/active replication
//!   requires (identical command streams → identical state on every
//!   replica), verified by tests and snapshots.
//! * [`sched`] — scheduling policies: the paper's Maui configuration
//!   (FIFO, exclusive whole-cluster allocation) plus space-shared FIFO and
//!   conservative backfill extensions.
//! * [`mom::PbsMomCore`] — the compute-node execution daemon with
//!   **launch sessions**: each head's start attempt runs a prologue that
//!   asks an arbiter (JOSHUA's jmutex) for permission, so a job executes
//!   exactly once no matter how many active heads dispatch it; completion
//!   is reported to every head (TORQUE's multi-server feature).
//! * [`proc`] — `jrs-sim` process wrappers: the plain single-head server
//!   (baseline TORQUE), the mom, and a measuring closed-loop client that
//!   speaks the same envelope to every HA variant.
//!
//! The JOSHUA layer (`joshua-core`) drives these cores through the group
//! communication system without modifying them — exactly the paper's
//! external replication via the PBS service interface.

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
pub mod job;
pub mod mom;
pub mod proc;
pub mod resources;
pub mod sched;
pub mod server;

pub use job::{Job, JobId, JobSpec, JobState, JobStatus};
pub use mom::{MomAction, MomInbound, PbsMomCore};
pub use proc::{
    ArbiterRelease, ArbiterRequest, ClientDone, ClientReply, ClientRequest, PbsClientProcess,
    PbsCostModel, PbsHeadProcess, PbsMomProcess, SubmitRecord,
};
pub use resources::{ComputeNode, NodePool, NodeState};
pub use sched::{Allocation, Backfill, FifoExclusive, FifoShared, Policy};
pub use server::{CmdReply, MomReport, PbsServerCore, ServerAction, ServerCmd, ServerSnapshot};
