//! Simulation process wrappers: a plain single-head PBS server (the
//! baseline TORQUE of the paper's Figure 1 architecture), the mom daemon,
//! and a measuring PBS client.
//!
//! The client speaks [`ClientRequest`]/[`ClientReply`] — the same envelope
//! the JOSHUA daemons accept — so one client implementation drives the
//! baseline, the active/standby and the symmetric active/active systems.

use crate::job::JobId;
use crate::mom::{MomAction, MomInbound, PbsMomCore};
use crate::server::{CmdReply, MomReport, PbsServerCore, ServerAction, ServerCmd};
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDuration, SimTime, TimerId};
use std::collections::{BTreeMap, VecDeque};

/// A user command sent to a head node, with an id for at-least-once
/// retransmission and server-side duplicate suppression.
#[derive(Clone, Debug)]
pub struct ClientRequest {
    /// The requesting client process.
    pub client: ProcId,
    /// Client-unique request id (monotonic per client).
    pub req_id: u64,
    /// The PBS command.
    pub cmd: ServerCmd,
}

/// A head node's reply to a client.
#[derive(Clone, Debug)]
pub struct ClientReply {
    /// Echoed request id.
    pub req_id: u64,
    /// The command's result.
    pub reply: CmdReply,
}

/// Arbiter request sent by a mom's launch prologue (jmutex acquire).
#[derive(Clone, Copy, Debug)]
pub struct ArbiterRequest {
    /// The job whose launch mutex is requested.
    pub job: JobId,
    /// The launch session on the mom.
    pub session: u64,
    /// The mom process (verdict goes back there).
    pub mom: ProcId,
    /// Post-reboot reclaim (see [`MomAction::AskArbiter`]).
    pub reclaim: bool,
}

/// Mutex release after job completion (jdone).
#[derive(Clone, Copy, Debug)]
pub struct ArbiterRelease {
    /// The job whose launch mutex is released.
    pub job: JobId,
    /// The releasing mom.
    pub mom: ProcId,
}

/// CPU cost model of the PBS server, standing in for the paper's
/// 450 MHz Pentium III head nodes (forking, spooling and accounting I/O
/// per command). Calibrated in EXPERIMENTS.md against Figure 10.
#[derive(Clone, Copy, Debug)]
pub struct PbsCostModel {
    /// Processing cost of a state-changing command (qsub/qdel/...).
    pub cmd_processing: SimDuration,
    /// Processing cost of a status query.
    pub stat_processing: SimDuration,
    /// Cost of dispatching a job start to a mom.
    pub dispatch_processing: SimDuration,
}

impl PbsCostModel {
    /// TORQUE on the paper's head nodes, calibrated on Fig 10 (EXPERIMENTS.md).
    pub const TORQUE: PbsCostModel = PbsCostModel {
        cmd_processing: SimDuration::from_millis(96),
        stat_processing: SimDuration::from_millis(40),
        dispatch_processing: SimDuration::from_millis(5),
    };

    /// Cost of one command.
    pub fn cost_of(&self, cmd: &ServerCmd) -> SimDuration {
        match cmd {
            ServerCmd::Qstat(_) => self.stat_processing,
            ServerCmd::Qsub(_) | ServerCmd::Qdel(_) | ServerCmd::Qhold(_) | ServerCmd::Qrls(_) => {
                self.cmd_processing
            }
        }
    }
}

/// Plain single-head PBS server process: the unreplicated baseline
/// (TORQUE row of Figures 10/11).
pub struct PbsHeadProcess {
    core: PbsServerCore,
}

impl PbsHeadProcess {
    /// Wrap a server core.
    pub fn new(core: PbsServerCore) -> Self {
        PbsHeadProcess { core }
    }

    /// Inspect the server (post-run assertions).
    pub fn core(&self) -> &PbsServerCore {
        &self.core
    }
}

/// Turn a server's actions into mom messages sent `delay` from now: the one
/// translation every head process uses. `arbiter` is who the mom's launch
/// prologue must ask for the jmutex (a JOSHUA head names itself; the
/// unreplicated baselines have none).
pub fn dispatch(
    ctx: &mut Ctx<'_>,
    actions: Vec<ServerAction>,
    arbiter: Option<ProcId>,
    delay: SimDuration,
) {
    let server = ctx.me();
    for a in actions {
        match a {
            ServerAction::Start {
                mom: Some(mom),
                job,
                spec,
            } => {
                ctx.send_after(
                    mom,
                    MomInbound::Start {
                        job,
                        spec,
                        server,
                        arbiter,
                    },
                    delay,
                );
            }
            ServerAction::Cancel {
                mom: Some(mom),
                job,
            } => {
                ctx.send_after(mom, MomInbound::Cancel { job, server }, delay);
            }
            // No mom registered for the node: nothing to tell.
            ServerAction::Start { mom: None, .. } | ServerAction::Cancel { mom: None, .. } => {}
        }
    }
}

/// Serve one message without replication, as a plain head or the
/// primary of an active/standby pair does: a [`ClientRequest`] is applied
/// and answered after its TORQUE cost, a [`MomReport`] is applied, and the
/// resulting actions go to the moms. Any other message is ignored.
pub fn serve(core: &mut PbsServerCore, ctx: &mut Ctx<'_>, msg: &Msg) {
    let now = ctx.now();
    let processing = PbsCostModel::TORQUE.dispatch_processing;
    if let Some(req) = msg.downcast_ref::<ClientRequest>() {
        let cost = PbsCostModel::TORQUE.cost_of(&req.cmd);
        let (reply, actions) = core.apply(now, &req.cmd);
        ctx.send_after(
            req.client,
            ClientReply {
                req_id: req.req_id,
                reply,
            },
            cost,
        );
        dispatch(ctx, actions, None, cost + processing);
    } else if let Some(report) = msg.downcast_ref::<MomReport>() {
        let actions = core.on_report(now, report);
        dispatch(ctx, actions, None, processing);
    }
}

impl Process for PbsHeadProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        serve(&mut self.core, ctx, &msg);
    }
}

/// The mom daemon process.
pub struct PbsMomProcess {
    core: PbsMomCore,
    timers: BTreeMap<JobId, TimerId>,
}

impl PbsMomProcess {
    /// Wrap a mom core.
    pub fn new(core: PbsMomCore) -> Self {
        PbsMomProcess {
            core,
            timers: BTreeMap::new(),
        }
    }

    /// Inspect the mom (post-run assertions, e.g. `real_runs`).
    pub fn core(&self) -> &PbsMomCore {
        &self.core
    }

    /// Carry out a call's actions and hand their `Vec` back to the core.
    fn perform(&mut self, ctx: &mut Ctx<'_>, mut actions: Vec<MomAction>) {
        for a in actions.drain(..) {
            match a {
                MomAction::Report { to, report } => ctx.send(to, report),
                MomAction::AskArbiter {
                    arbiter,
                    job,
                    session,
                    reclaim,
                } => {
                    ctx.send(
                        arbiter,
                        ArbiterRequest {
                            job,
                            session,
                            mom: ctx.me(),
                            reclaim,
                        },
                    );
                }
                MomAction::ReleaseArbiter { arbiter, job } => {
                    ctx.send(arbiter, ArbiterRelease { job, mom: ctx.me() });
                }
                MomAction::StartTimer { job, after } => {
                    let t = ctx.set_timer(after, job.0);
                    self.timers.insert(job, t);
                }
                MomAction::CancelTimer { job } => {
                    if let Some(t) = self.timers.remove(&job) {
                        ctx.cancel_timer(t);
                    }
                }
            }
        }
        self.core.recycle(actions);
    }
}

impl Process for PbsMomProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        // A daemon must degrade on an unexpected payload, not die (the no-panic lints).
        let Ok(msg) = msg.downcast::<MomInbound>() else {
            return;
        };
        let actions = self.core.on_msg(*msg);
        self.perform(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        let job = JobId(tag);
        self.timers.remove(&job);
        let actions = self.core.on_timer(job);
        self.perform(ctx, actions);
    }
}

/// One measured command execution, emitted by the client.
#[derive(Clone, Debug)]
pub struct SubmitRecord {
    /// Position in the script.
    pub index: usize,
    /// Round-trip latency.
    pub latency: SimDuration,
    /// The reply.
    pub reply: CmdReply,
    /// How many sends were needed (1 = no retry).
    pub attempts: u32,
}

/// Emitted when the client's script completes.
#[derive(Clone, Copy, Debug)]
pub struct ClientDone {
    /// When the first command was sent.
    pub started: SimTime,
    /// When the last reply arrived.
    pub finished: SimTime,
    /// Number of commands executed.
    pub count: usize,
}

/// A closed-loop measuring client: sends one command, waits for the
/// reply, records the latency, sends the next. On timeout it fails over
/// to the next target head node and retries the same request id.
pub struct PbsClientProcess {
    targets: Vec<ProcId>,
    current_target: usize,
    /// Rotate the target per command (asymmetric active/active load
    /// balancing) instead of only on failover.
    round_robin: bool,
    script: VecDeque<ServerCmd>,
    next_req: u64,
    index: usize,
    outstanding: Option<Outstanding>,
    timeout: SimDuration,
    started: Option<SimTime>,
}

struct Outstanding {
    req_id: u64,
    cmd: ServerCmd,
    first_sent: SimTime,
    attempts: u32,
    timer: TimerId,
}

impl PbsClientProcess {
    /// New client with a command script and target head nodes (first is
    /// preferred; the rest are failover alternates).
    pub fn new(targets: Vec<ProcId>, script: Vec<ServerCmd>) -> Self {
        assert!(!targets.is_empty(), "client needs at least one target");
        PbsClientProcess {
            targets,
            current_target: 0,
            round_robin: false,
            script: script.into(),
            next_req: 1,
            index: 0,
            outstanding: None,
            timeout: SimDuration::from_secs(2),
            started: None,
        }
    }

    /// Override the failover timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Distribute commands round-robin over the targets (asymmetric
    /// active/active mode).
    pub fn with_round_robin(mut self) -> Self {
        self.round_robin = true;
        self
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cmd) = self.script.pop_front() else {
            let started = self.started.unwrap_or(ctx.now());
            ctx.emit(ClientDone {
                started,
                finished: ctx.now(),
                count: self.index,
            });
            return;
        };
        let req_id = self.next_req;
        self.next_req += 1;
        let now = ctx.now();
        self.started.get_or_insert(now);
        if self.round_robin && self.index > 0 {
            self.current_target = (self.current_target + 1) % self.targets.len();
        }
        let target = self.targets[self.current_target];
        ctx.send(
            target,
            ClientRequest {
                client: ctx.me(),
                req_id,
                cmd: cmd.clone(),
            },
        );
        let timer = ctx.set_timer(self.timeout, 1);
        self.outstanding = Some(Outstanding {
            req_id,
            cmd,
            first_sent: now,
            attempts: 1,
            timer,
        });
    }
}

impl Process for PbsClientProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        let Ok(reply) = msg.downcast::<ClientReply>() else {
            return;
        };
        // Take-then-reinsert instead of check-then-unwrap: a duplicate or
        // late reply (retried request already answered, or a reply racing
        // the completion of the script) must be a no-op, never a panic.
        let Some(out) = self.outstanding.take() else {
            return; // late reply: nothing in flight any more
        };
        if reply.req_id != out.req_id {
            // Stale duplicate from a retried request: put the live
            // request back and keep waiting.
            self.outstanding = Some(out);
            return;
        }
        ctx.cancel_timer(out.timer);
        ctx.emit(SubmitRecord {
            index: self.index,
            latency: ctx.now().since(out.first_sent),
            reply: reply.reply,
            attempts: out.attempts,
        });
        self.index += 1;
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {
        // The request timeout is the only timer a client arms: fail over
        // to the next head and retry the same request id.
        let next_target = (self.current_target + 1) % self.targets.len();
        self.current_target = next_target;
        let target = self.targets[next_target];
        let me = ctx.me();
        let timer = ctx.set_timer(self.timeout, 1);
        // One borrow of the outstanding slot for the whole update:
        // no second `as_mut().unwrap()` that could race a reply
        // clearing the slot between the two accesses (the no-panic lints).
        let Some(out) = &mut self.outstanding else {
            ctx.cancel_timer(timer);
            return;
        };
        out.attempts += 1;
        out.timer = timer;
        let req = ClientRequest {
            client: me,
            req_id: out.req_id,
            cmd: out.cmd.clone(),
        };
        ctx.send(target, req);
    }
}
