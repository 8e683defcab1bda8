//! # joshua-core — symmetric active/active replication for highly
//! available HPC job and resource management
//!
//! Reproduction of the JOSHUA system (Uhlemann, Engelmann, Scott —
//! IEEE Cluster 2006): the job and resource management service of an HPC
//! cluster is made **continuously available** by running unmodified
//! PBS-compatible servers on several head nodes at once and replicating
//! every interaction through a process group communication system with
//! totally ordered, virtually synchronous delivery.
//!
//! * [`server::JoshuaServer`] — the daemon on each head node: external
//!   interception of the PBS interface, ordered command application,
//!   exactly-once output release, jmutex launch arbitration, state
//!   transfer to joining heads.
//! * [`payload`] — the replicated command stream and jmutex table.
//! * [`persist`] — durable head state: a checksummed WAL of applied
//!   commands plus periodic snapshots on the head's local disk, so a
//!   restarted head recovers locally and fetches only the delta from
//!   its peers (and a full-cluster blackout is survivable).
//! * [`ha`] — the paper's comparison baselines: active/standby (warm
//!   failover, restarts jobs) and asymmetric active/active.
//! * [`cluster`] — a harness assembling any of the four architectures on
//!   the simulated testbed for experiments.
//! * [`workload`] — command-script generators.
//!
//! ```no_run
//! use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
//! use joshua_core::workload;
//! use jrs_sim::SimDuration;
//!
//! // A 2-head JOSHUA cluster, paper-style testbed.
//! let mut cluster = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 2 }));
//! cluster.spawn_client(workload::burst(10));
//! cluster.run_for(SimDuration::from_secs(60));
//! assert_eq!(cluster.take_records().len(), 10);
//! cluster.assert_replicas_consistent();
//! ```

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

#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "harness, not a replica: a mis-built cluster must stop the experiment"
)]
pub mod cluster;
pub mod config;
pub mod ha;
pub mod payload;
pub mod persist;
#[doc(hidden)]
pub mod replica;
pub mod server;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig, HaMode};
pub use config::{JoshuaConfig, JoshuaCostModel, PersistConfig, PolicyKind};
pub use payload::{JMutexState, Payload, ReplicaState};
pub use persist::{HeadStore, Recovered};
pub use server::{JoshuaServer, JoshuaStats, LeaveCmd, RecoveryReport};
