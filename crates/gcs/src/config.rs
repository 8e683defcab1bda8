//! Group communication configuration.

use jrs_sim::SimDuration;

/// Which total-order engine to run inside a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Fixed sequencer: the view's leader, the coordinator that installed
    /// it, assigns sequence numbers (ISIS style). Lowest latency for small
    /// groups.
    Sequencer,
    /// Rotating token: members take turns assigning sequence numbers from a
    /// circulating token (Totem style). Ablation baseline.
    Token,
}

/// How membership reacts to losing members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipPolicy {
    /// Paper-faithful fail-stop model: any non-empty survivor set installs
    /// the next view ("as long as one head node survives"). Under a true
    /// network partition both sides may proceed (split brain) and are
    /// deterministically re-merged when connectivity returns — the losing
    /// side ejects and rejoins with state transfer.
    FailStop,
    /// Primary-component model: a new view requires a strict majority of
    /// the previous view (or exactly half including its leader). Split
    /// brain is impossible, but a string of unlucky failures can block the
    /// group.
    PrimaryComponent,
}

/// Sender-side CPU cost of one frame, by class; a host charges the frames
/// of one output serially. The default charges nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameCost {
    /// Ordering and flush traffic: the full daemon processing cost.
    pub frame: SimDuration,
    /// A stability acknowledgement on a link (the slower ack path).
    pub ack: SimDuration,
    /// Heartbeat and join datagrams, and bare link acks.
    pub background: SimDuration,
}

impl FrameCost {
    /// Transis on the paper's head nodes, calibrated on Fig 10 (EXPERIMENTS.md).
    pub const TRANSIS: FrameCost = FrameCost {
        frame: SimDuration::from_millis(9),
        ack: SimDuration::from_millis(30),
        background: SimDuration::from_micros(500),
    };
}

/// Tunables for a [`crate::GroupMember`].
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// Ordering engine.
    pub engine: EngineKind,
    /// Membership progression policy.
    pub membership: MembershipPolicy,
    /// How often the embedding process must call `tick` (drives heartbeats,
    /// retransmission and failure detection; *not* on the ordering fast
    /// path).
    pub tick_every: SimDuration,
    /// Heartbeat period.
    pub heartbeat_every: SimDuration,
    /// Silence threshold after which a peer is suspected dead.
    pub fail_after: SimDuration,
    /// Retransmission timeout for the reliable links.
    pub rto: SimDuration,
    /// If a view-change flush makes no progress for this long, the next
    /// live member takes over as flush coordinator.
    pub flush_timeout: SimDuration,
    /// Token rotation interval lower bound (token engine only): a holder
    /// with nothing to order passes the token on after this long.
    pub token_idle_pass: SimDuration,
    /// How often a member re-sends ordering requests for its own pending
    /// (not yet ordered) submissions. Covers requests that raced a view
    /// change; the sequencer's duplicate suppression makes this idempotent.
    pub request_retry: SimDuration,
    /// Assumed wire size of one application payload, for the network model.
    pub payload_bytes: u32,
    /// Sender-side CPU cost of each outgoing frame.
    pub cost: FrameCost,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            engine: EngineKind::Sequencer,
            membership: MembershipPolicy::FailStop,
            tick_every: SimDuration::from_millis(5),
            heartbeat_every: SimDuration::from_millis(50),
            fail_after: SimDuration::from_millis(250),
            rto: SimDuration::from_millis(25),
            flush_timeout: SimDuration::from_millis(300),
            token_idle_pass: SimDuration::from_millis(5),
            request_retry: SimDuration::from_millis(100),
            payload_bytes: 256,
            cost: FrameCost::default(),
        }
    }
}

impl GroupConfig {
    /// Default configuration with a specific engine.
    pub fn with_engine(engine: EngineKind) -> Self {
        GroupConfig {
            engine,
            ..Default::default()
        }
    }
}
