//! `jrs-mc` — bounded model checker for the GCS / jmutex protocol.
//!
//! The checker drives the *real* protocol implementation — the
//! [`jrs_gcs`] group members behind the testkit [`Pump`]'s schedule
//! language ([`Step`]), each applying the shipped
//! [`joshua_core::payload::Payload`] stream through the daemon's own
//! replicated state machine (the PBS server and the jmutex launch mutex) —
//! through every interleaving of message deliveries, drops, crashes and
//! timer ticks up to a configurable depth. No protocol re-model: a bug
//! found here is a bug in the shipping code.
//!
//! Checked invariants:
//!
//! - **The group's guarantees** — total order, same-view delivery,
//!   membership and idle ticks, which the pump checks on every upcall and
//!   tick ([`jrs_gcs::testkit::Violation`]).
//! - **Exactly-once launch** — the jmutex grants each job to exactly one
//!   launch session; no duplicate launch, no lost launch (verdict
//!   redelivery after granter death).
//! - **Convergence** — at quiescence, all installed replicas agree on
//!   view, PBS state and jmutex table (by `state_hash` fingerprints).
//!
//! State explosion is held down by fingerprint-based visited-state
//! deduplication and a sleep-set ("DPOR-lite") partial-order reduction
//! over the independence relation of `model::independent`. A violation
//! is reported as a minimized, replayable action trace — see the
//! `replay` subcommand of the `jrs-mc` binary.
//!
//! [`Pump`]: jrs_gcs::testkit::Pump
//! [`Step`]: jrs_gcs::testkit::Step

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checker;
pub mod model;
pub mod trace;

pub use checker::{check_from, minimize, replay, Budget, Mode, Outcome, Search, Stats};
pub use model::{Action, McConfig, Mutation, Violation, World};
pub use trace::{parse_trace, trace_tokens};
