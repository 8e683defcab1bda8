//! # joshua-repro — reproduction of JOSHUA (IEEE Cluster 2006)
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel (the
//!   testbed substitute).
//! * [`gcs`] — group communication system (the Transis substitute):
//!   membership, totally ordered multicast, virtual synchrony.
//! * [`pbs`] — PBS-compatible job & resource management substrate (the
//!   TORQUE + Maui + mom substitute).
//! * [`core`] — JOSHUA itself: symmetric active/active replication of the
//!   PBS service, plus the paper's HA baselines and the cluster harness.
//! * [`availability`] — the paper's availability analysis and a Monte
//!   Carlo failure simulator.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured results.

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

pub use joshua_core as core;
pub use jrs_availability as availability;
pub use jrs_gcs as gcs;
pub use jrs_pbs as pbs;
pub use jrs_sim as sim;
