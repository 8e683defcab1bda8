//! High-availability baseline models (the paper's Figures 1–3), for the
//! comparison experiments against JOSHUA's symmetric active/active model
//! (Figure 4):
//!
//! * **Single head** — the plain Beowulf architecture; provided directly
//!   by [`jrs_pbs::PbsHeadProcess`].
//! * **Active/standby** ([`ActiveStandbyHead`]) — warm standby with
//!   periodic state checkpoints; failover interrupts service and restarts
//!   running jobs (the HA-OSCAR / SLURM model the paper describes).
//! * **Asymmetric active/active** — several *independent* heads, each
//!   owning a partition of the compute nodes, with client-side
//!   round-robin; improved throughput, but stateful services on a failed
//!   head are simply gone (composed in `cluster.rs` from single heads).

use jrs_pbs::proc::{dispatch, serve, ClientRequest, PbsCostModel};
use jrs_pbs::server::{PbsServerCore, ServerSnapshot};
use jrs_pbs::MomInbound;
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDuration, SimTime, TimerId};

/// Primary heartbeat period.
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(500);
/// The standby declares the primary dead after this silence.
const FAIL_AFTER: SimDuration = SimDuration::from_secs(2);
/// Warm-standby service restart time after detection (the paper cites
/// 3–5 s failovers for HA-OSCAR/SLURM).
const TAKEOVER_DELAY: SimDuration = SimDuration::from_secs(2);

/// Heartbeat from primary to standby.
#[derive(Clone, Copy, Debug)]
struct AsHeartbeat;

/// Checkpoint from primary to standby.
#[derive(Clone, Debug)]
struct AsCheckpoint(ServerSnapshot);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Primary,
    Standby,
    /// Takeover in progress (service restarting).
    TakingOver,
}

/// One head of an active/standby pair. Construct one with
/// `primary = true` and one standby; give the client both as targets
/// (primary first).
pub struct ActiveStandbyHead {
    core: PbsServerCore,
    /// How often the primary checkpoints its state to the standby.
    checkpoint_every: SimDuration,
    peer: ProcId,
    role: Role,
    last_primary_sign: SimTime,
    /// Jobs restarted across failovers (the paper's qualitative cost of
    /// the active/standby model).
    pub restarted_jobs: u64,
    /// Checkpoints received (standby) or sent (primary).
    pub checkpoints: u64,
    /// Moms to register with on takeover.
    moms: Vec<ProcId>,
}

impl ActiveStandbyHead {
    /// Build one half of the pair.
    pub(crate) fn new(
        core: PbsServerCore,
        checkpoint_every: SimDuration,
        peer: ProcId,
        primary: bool,
        moms: Vec<ProcId>,
    ) -> Self {
        ActiveStandbyHead {
            core,
            checkpoint_every,
            peer,
            role: if primary {
                Role::Primary
            } else {
                Role::Standby
            },
            last_primary_sign: SimTime::ZERO,
            restarted_jobs: 0,
            checkpoints: 0,
            moms,
        }
    }

    /// Inspect the server.
    pub fn core(&self) -> &PbsServerCore {
        &self.core
    }

    /// Is this head currently serving?
    pub fn is_active(&self) -> bool {
        self.role == Role::Primary
    }

    fn complete_takeover(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Primary;
        // Register for obituaries, then restart everything that was
        // running (warm standby: running applications do not survive).
        for mom in self.moms.clone() {
            ctx.send(mom, MomInbound::RegisterServer { server: ctx.me() });
        }
        let (requeued, actions) = self.core.requeue_all_running(ctx.now());
        self.restarted_jobs += requeued.len() as u64;
        dispatch(ctx, actions, None, PbsCostModel::TORQUE.dispatch_processing);
    }
}

impl Process for ActiveStandbyHead {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_primary_sign = ctx.now();
        ctx.set_timer(HEARTBEAT_EVERY, 0);
        if self.role == Role::Primary {
            for mom in self.moms.clone() {
                ctx.send(mom, MomInbound::RegisterServer { server: ctx.me() });
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        let now = ctx.now();
        if msg.downcast_ref::<AsHeartbeat>().is_some() {
            self.last_primary_sign = now;
            return;
        }
        if let Some(AsCheckpoint(snap)) = msg.downcast_ref::<AsCheckpoint>() {
            self.last_primary_sign = now;
            self.checkpoints += 1;
            self.core.restore(snap);
            return;
        }
        if self.role != Role::Primary && msg.is::<ClientRequest>() {
            // Standby gives no service: the client times out and retries —
            // the paper's "interruption of service".
            return;
        }
        serve(&mut self.core, ctx, &msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        let now = ctx.now();
        match tag {
            0 => {
                match self.role {
                    Role::Primary => {
                        ctx.send(self.peer, AsHeartbeat);
                        // Piggyback a checkpoint on schedule.
                        if self.checkpoints == 0
                            || now.as_nanos() % self.checkpoint_every.as_nanos().max(1)
                                < HEARTBEAT_EVERY.as_nanos()
                        {
                            self.checkpoints += 1;
                            ctx.send(self.peer, AsCheckpoint(self.core.snapshot()));
                        }
                    }
                    Role::Standby => {
                        if now.since(self.last_primary_sign) >= FAIL_AFTER {
                            self.role = Role::TakingOver;
                            ctx.set_timer(TAKEOVER_DELAY, 1);
                        }
                    }
                    Role::TakingOver => {}
                }
                ctx.set_timer(HEARTBEAT_EVERY, 0);
            }
            1 if self.role == Role::TakingOver => {
                self.complete_takeover(ctx);
            }
            _ => {}
        }
    }
}
