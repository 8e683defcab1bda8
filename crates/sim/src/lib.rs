//! # jrs-sim — deterministic discrete-event simulation kernel
//!
//! The substrate on which the JOSHUA reproduction runs. It replaces the
//! paper's physical testbed (four head nodes and two compute nodes on a Fast
//! Ethernet hub) with a deterministic, fully controllable virtual cluster:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) — integer nanoseconds,
//!   bit-for-bit reproducible runs.
//! * **Actors** ([`Process`]) — sans-IO protocol state machines receiving
//!   messages and timer events through a [`Ctx`] handle.
//! * **Network model** ([`network`]) — latency distributions, loss,
//!   partitions, and an optional shared-hub contention model matching the
//!   paper's half-duplex 100 Mbit/s hub.
//! * **Fault injection** — [`World::schedule_at`] runs a closure with full
//!   world access at a chosen instant; crashes ([`World::crash_node`],
//!   [`World::kill_proc`], [`World::revive_node`]), partitions
//!   ([`World::set_partition_group`]) and disk damage (the [`SimDisk`]
//!   hooks) scripted that way are the reproducible equivalent of
//!   "unplugging network cables and forcibly shutting down individual
//!   processes".
//! * **Per-node disks** ([`disk`]) — deterministic simulated storage with
//!   explicit write/fsync semantics that survives node crashes, plus
//!   injectable torn writes, corruption and stalls.
//! * **Measurement** ([`metrics`]) — virtual-time histograms.
//!
//! ## Example
//!
//! ```
//! use jrs_sim::{World, Process, Ctx, Msg, ProcId};
//!
//! struct Counter { seen: u32 }
//! impl Process for Counter {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, _msg: Msg) {
//!         self.seen += 1;
//!     }
//! }
//!
//! let mut world = World::new(42);
//! let node = world.add_node("head-a");
//! let counter = world.add_process(node, Counter { seen: 0 });
//! world.inject(counter, "hello");
//! world.run_until_idle();
//! assert_eq!(world.proc_ref::<Counter>(counter).unwrap().seen, 1);
//! ```

#![warn(missing_docs)]
// Hash sets key lookups here (Cargo.toml allows the type); no hash order may reach an event order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod disk;
pub mod fingerprint;
mod ids;
pub mod metrics;
pub mod network;
mod process;
mod time;
mod world;

pub use disk::SimDisk;
pub use fingerprint::{fingerprint, Fnv64};
pub use ids::{NodeId, ProcId, TimerId};
pub use network::{HubConfig, Latency, LinkConfig, NetworkConfig};
pub use process::{Ctx, Msg, Process, EXTERNAL};
pub use time::{SimDuration, SimTime};
pub use world::World;
