//! # jrs-availability — availability analytics for redundant head nodes
//!
//! The paper's Section 5 availability analysis (Equations 1–3, Figure 12)
//! as a library: one exact Markov chain over head states that reproduces
//! Eq. 2 and extends it with the correlated (rack/room) failures the
//! paper flags as a caveat.

#![warn(missing_docs)]
// The panic family of the replica crates' construct bans (DESIGN.md 7.2).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod analytic;

pub use analytic::{
    downtime_hours_per_year, figure12, format_downtime, nines, unavailability, AvailabilityRow,
    NodeReliability, RackFailure, HOURS_PER_YEAR,
};
