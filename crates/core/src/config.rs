//! JOSHUA head-node configuration and cost model.

use jrs_gcs::GroupConfig;
use jrs_pbs::proc::PbsCostModel;
use jrs_pbs::sched::{Backfill, FifoExclusive, FifoShared, Policy};
use jrs_sim::{ProcId, SimDuration};

/// Scheduling policy selector (replicable, unlike a boxed trait object).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's Maui configuration: FIFO, exclusive cluster access.
    FifoExclusive,
    /// Space-shared FIFO (deterministic, replication-safe).
    FifoShared,
    /// Conservative backfill. Time-dependent, so rejected at build in
    /// any multi-head JOSHUA mode ([`Cluster::build`] panics; see
    /// DESIGN.md section 6).
    ///
    /// [`Cluster::build`]: crate::cluster::Cluster::build
    Backfill,
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn make(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::FifoExclusive => Box::new(FifoExclusive),
            PolicyKind::FifoShared => Box::new(FifoShared),
            PolicyKind::Backfill => Box::new(Backfill),
        }
    }
}

/// CPU cost model of the JOSHUA layer, standing in for the paper's
/// measured overheads (jsub/joshua interception, Transis daemon
/// processing). Calibrated against Figure 10 — see EXPERIMENTS.md.
#[derive(Clone, Copy, Debug)]
pub struct JoshuaCostModel {
    /// PBS server costs (shared with the baseline).
    pub pbs: PbsCostModel,
    /// Per-frame CPU cost of the group communication daemon (Transis-era
    /// user-space processing on a 450 MHz PII); applied serially to each
    /// outgoing protocol frame (ordering traffic, flush traffic).
    pub gcs_frame_delay: SimDuration,
    /// Cost of producing a stability acknowledgement (Transis's
    /// timer-batched acknowledgement path — noticeably slower than the
    /// data fast path).
    pub gcs_ack_delay: SimDuration,
    /// Cost of background datagrams (heartbeats) and bare link-layer acks.
    pub gcs_background_delay: SimDuration,
    /// Fixed cost of intercepting a client command (jsub → joshua local
    /// round) and of relaying the output back.
    pub intercept_overhead: SimDuration,
}

impl Default for JoshuaCostModel {
    fn default() -> Self {
        JoshuaCostModel {
            pbs: PbsCostModel::default(),
            gcs_frame_delay: SimDuration::from_millis(9),
            gcs_ack_delay: SimDuration::from_millis(30),
            gcs_background_delay: SimDuration::from_micros(500),
            intercept_overhead: SimDuration::from_millis(18),
        }
    }
}

/// Durability tunables: write-ahead logging of applied commands plus
/// periodic full-state snapshots on the head's local (simulated) disk.
/// Disabled by default — diskless JOSHUA, the paper's configuration;
/// recovery then relies purely on in-memory state transfer from peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistConfig {
    /// Log + snapshot every applied command; enables crash-restart
    /// recovery from local state.
    pub enabled: bool,
    /// Write a full snapshot every this many applied commands (the WAL
    /// keeps full history; snapshots only bound replay time).
    pub snapshot_every: u64,
}

impl PersistConfig {
    /// Durability on, with defaults sized for the paper's testbed scale.
    pub fn durable() -> Self {
        PersistConfig {
            enabled: true,
            snapshot_every: 32,
        }
    }
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            enabled: false,
            snapshot_every: 32,
        }
    }
}

/// Full configuration of one JOSHUA head-node daemon.
#[derive(Clone, Debug)]
pub struct JoshuaConfig {
    /// Compute nodes and their mom daemon processes.
    pub nodes: Vec<(String, ProcId)>,
    /// Scheduling policy (must be identical on every head).
    pub policy: PolicyKind,
    /// Group communication tunables.
    pub group: GroupConfig,
    /// Cost model.
    pub cost: JoshuaCostModel,
    /// Durability (WAL + snapshots on the head's local disk).
    pub persist: PersistConfig,
}
