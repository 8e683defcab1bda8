//! JOSHUA head-node configuration and cost model.

use jrs_gcs::GroupConfig;
use jrs_pbs::proc::PbsCostModel;
use jrs_pbs::FifoExclusive;
use jrs_sim::{ProcId, SimDuration};

/// Names the one scheduler. Nothing in the workspace selects it; the
/// benchmark package calls `PolicyKind::FifoExclusive.make()`, so it
/// leaves with ROADMAP item 3(a)'s `benchmark` PR, together with
/// [`PbsServerCore::new`](jrs_pbs::PbsServerCore::new)'s ignored
/// arguments.
#[derive(Clone, Copy, Debug)]
pub enum PolicyKind {
    /// The paper's Maui configuration: FIFO, exclusive cluster access.
    FifoExclusive,
}

impl PolicyKind {
    /// The scheduler.
    pub fn make(self) -> FifoExclusive {
        match self {
            PolicyKind::FifoExclusive => FifoExclusive,
        }
    }
}

/// CPU cost model of the JOSHUA layer (jsub/joshua interception), calibrated
/// against Figure 10 — see EXPERIMENTS.md. The Transis daemon's per-frame
/// cost is the group's own, [`GroupConfig::cost`](jrs_gcs::GroupConfig::cost).
#[derive(Clone, Copy, Debug)]
pub struct JoshuaCostModel {
    /// PBS server costs (shared with the baseline).
    pub pbs: PbsCostModel,
    /// Fixed cost of intercepting a client command (jsub → joshua local
    /// round) and of relaying the output back.
    pub intercept_overhead: SimDuration,
}

impl JoshuaCostModel {
    /// [`PbsCostModel::TORQUE`] plus the 18 ms interception round,
    /// calibrated on Fig 10 (EXPERIMENTS.md).
    pub const PAPER: JoshuaCostModel = JoshuaCostModel {
        pbs: PbsCostModel::TORQUE,
        intercept_overhead: SimDuration::from_millis(18),
    };
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
    /// Group communication tunables.
    pub group: GroupConfig,
    /// Durability (WAL + snapshots on the head's local disk).
    pub persist: PersistConfig,
}
