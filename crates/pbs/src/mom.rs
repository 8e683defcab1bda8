//! The PBS mom daemon (compute-node execution agent).
//!
//! Under symmetric active/active replication *every* head node's server
//! independently decides to start the same job and contacts the mom. Each
//! such start attempt opens a **launch session** whose prologue asks an
//! arbiter (JOSHUA's `jmutex` — a distributed mutual exclusion through the
//! group communication system) for permission. Exactly one session is
//! granted and really executes the job; denied sessions **emulate** the
//! start, exactly as the paper describes. Completion is reported to every
//! known head node (the TORQUE v2.0p1 multi-server feature the paper
//! relies on), so all replicas converge.
//!
//! The `obituary_bug` flag reproduces the TORQUE defect the paper reports
//! ("PBS mom servers did not simply ignore a failed head node, but rather
//! kept the current job in running status until it returned to service"):
//! with the bug enabled, completion is reported only to the session owner.

use crate::job::{exit, JobId, JobSpec};
use crate::server::MomReport;
use jrs_sim::{ProcId, SimDuration};
use std::collections::{BTreeMap, BTreeSet};

/// Messages accepted by a mom (sent by head-node processes or arbiters).
#[derive(Clone, Debug)]
pub enum MomInbound {
    /// A head node asks to start a job (one replica's attempt).
    Start {
        /// The job.
        job: JobId,
        /// Its spec.
        spec: JobSpec,
        /// The head-node process making this attempt.
        server: ProcId,
        /// Arbiter to ask for launch permission; `None` grants locally
        /// (single-head operation).
        arbiter: Option<ProcId>,
    },
    /// A head node cancels a job (qdel).
    Cancel {
        /// The job.
        job: JobId,
        /// The head node asking.
        server: ProcId,
    },
    /// Arbiter's verdict for a launch session.
    Verdict {
        /// The job.
        job: JobId,
        /// The session the verdict is for.
        session: u64,
        /// Granted = really run; denied = emulate the start.
        granted: bool,
    },
    /// Register a head node for completion reports (multi-server feature).
    RegisterServer {
        /// The head-node process.
        server: ProcId,
    },
}

/// Side effects the mom wants performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MomAction {
    /// Send a report to a head-node process.
    Report {
        /// Destination head process.
        to: ProcId,
        /// The report.
        report: MomReport,
    },
    /// Ask an arbiter for launch permission (jmutex acquire).
    AskArbiter {
        /// The arbiter process.
        arbiter: ProcId,
        /// The job.
        job: JobId,
        /// This session.
        session: u64,
        /// True when this is a post-reboot reclaim: the mom concluded the
        /// standing grant belongs to a previous life of itself (every
        /// session denied while still arbitrating) and asks the arbiter
        /// to adopt this fresh session.
        reclaim: bool,
    },
    /// Release the launch mutex after completion (jdone).
    ReleaseArbiter {
        /// The arbiter process.
        arbiter: ProcId,
        /// The job.
        job: JobId,
    },
    /// Arm the execution timer for a really-started job.
    StartTimer {
        /// The job.
        job: JobId,
        /// Fires after this long.
        after: SimDuration,
    },
    /// Cancel the execution timer (job cancelled).
    CancelTimer {
        /// The job.
        job: JobId,
    },
}

#[derive(Clone, Debug)]
struct Session {
    id: u64,
    arbiter: Option<ProcId>,
    /// The arbiter denied this session.
    denied: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Sessions opened, nothing granted yet.
    Arbitrating,
    /// One session won; the job is executing.
    Running { session: u64 },
    /// Finished (completed, killed or cancelled).
    Done { exit: i32 },
}

#[derive(Clone, Debug)]
struct MomJob {
    spec: JobSpec,
    /// First head to attempt the start ("owner" for the obituary bug).
    owner: ProcId,
    /// Heads that attempted a start.
    interested: BTreeSet<ProcId>,
    /// Launch sessions by requesting head.
    sessions: BTreeMap<ProcId, Session>,
    phase: Phase,
    /// A post-reboot reclaim was already fired (at most one per job).
    reclaimed: bool,
}

/// The mom state machine. Timers are owned by the embedding process; the
/// core only emits `StartTimer`/`CancelTimer` actions and receives
/// `on_timer` calls.
///
/// Each call returns its actions in the `Vec` of the one before: the
/// embedder drains it and hands it back (`recycle`), so a
/// call allocates no action list of its own.
pub struct PbsMomCore {
    next_session: u64,
    jobs: BTreeMap<JobId, MomJob>,
    servers: BTreeSet<ProcId>,
    /// Where a call writes its actions: empty between calls, its capacity
    /// kept by `recycle`.
    acts: Vec<MomAction>,
    /// Reproduce the paper's TORQUE obituary defect.
    pub obituary_bug: bool,
    /// Number of *real* job executions performed (the exactly-once
    /// property asserts on this).
    pub real_runs: u64,
}

impl Default for PbsMomCore {
    fn default() -> Self {
        Self::new()
    }
}

impl PbsMomCore {
    /// New mom with no jobs and no registered servers.
    pub fn new() -> Self {
        PbsMomCore {
            next_session: 1,
            jobs: BTreeMap::new(),
            servers: BTreeSet::new(),
            acts: Vec::new(),
            obituary_bug: false,
            real_runs: 0,
        }
    }

    /// Is the given job really running here?
    #[cfg(test)]
    pub(crate) fn is_running(&self, job: JobId) -> bool {
        matches!(
            self.jobs.get(&job).map(|j| &j.phase),
            Some(Phase::Running { .. })
        )
    }

    /// Handle one inbound message.
    pub(crate) fn on_msg(&mut self, msg: MomInbound) -> Vec<MomAction> {
        match msg {
            MomInbound::RegisterServer { server } => {
                self.servers.insert(server);
            }
            MomInbound::Start {
                job,
                spec,
                server,
                arbiter,
            } => self.on_start(job, spec, server, arbiter),
            MomInbound::Cancel { job, server } => self.on_cancel(job, server),
            MomInbound::Verdict {
                job,
                session,
                granted,
            } => self.on_verdict(job, session, granted),
        }
        std::mem::take(&mut self.acts)
    }

    /// Take back the action `Vec` of an earlier call, drained, so the next
    /// call pushes into its capacity instead of allocating.
    pub(crate) fn recycle(&mut self, acts: Vec<MomAction>) {
        debug_assert!(acts.is_empty());
        if acts.capacity() > self.acts.capacity() {
            self.acts = acts;
        }
    }

    fn on_start(&mut self, job: JobId, spec: JobSpec, server: ProcId, arbiter: Option<ProcId>) {
        self.servers.insert(server);
        // A job that was cancelled may be rerun (failover restart): the
        // new start opens a fresh incarnation.
        if matches!(
            self.jobs.get(&job).map(|j| &j.phase),
            Some(Phase::Done { exit }) if *exit == exit::CANCELLED
        ) {
            self.jobs.remove(&job);
        }
        let next_session = &mut self.next_session;
        let entry = self.jobs.entry(job).or_insert_with(|| MomJob {
            spec,
            owner: server,
            interested: BTreeSet::new(),
            sessions: BTreeMap::new(),
            phase: Phase::Arbitrating,
            reclaimed: false,
        });
        let repeat = !entry.interested.insert(server);
        let (session, arbiter) = match entry.phase {
            // A repeated attempt from a head we already know — a restarted
            // head re-dispatching after recovery — re-asks through the
            // existing session (no second ballot), so the retry converges
            // instead of dropping on the floor; it may name a replacement
            // arbiter.
            Phase::Arbitrating if repeat => {
                let Some(sess) = entry.sessions.get_mut(&server) else {
                    return;
                };
                if arbiter.is_some() {
                    sess.arbiter = arbiter;
                }
                (sess.id, sess.arbiter)
            }
            Phase::Arbitrating => {
                let id = *next_session;
                *next_session += 1;
                entry.sessions.insert(
                    server,
                    Session {
                        id,
                        arbiter,
                        denied: false,
                    },
                );
                (id, arbiter)
            }
            // A late or repeated attempt while the job runs or after it
            // ended: emulate the start (and the end) for this head.
            Phase::Running { .. } => {
                self.acts.push(MomAction::Report {
                    to: server,
                    report: MomReport::Started { job },
                });
                return;
            }
            Phase::Done { exit } => {
                self.acts.extend([
                    MomAction::Report {
                        to: server,
                        report: MomReport::Started { job },
                    },
                    MomAction::Report {
                        to: server,
                        report: MomReport::Finished { job, exit },
                    },
                ]);
                return;
            }
        };
        match arbiter {
            Some(a) => self.acts.push(MomAction::AskArbiter {
                arbiter: a,
                job,
                session,
                reclaim: false,
            }),
            // Local grant (plain single-head PBS): run immediately.
            None => self.grant(job, server),
        }
    }

    fn on_verdict(&mut self, job: JobId, session: u64, granted: bool) {
        let next_session = &mut self.next_session;
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        let Some((&server, _)) = entry.sessions.iter().find(|(_, s)| s.id == session) else {
            return;
        };
        if granted {
            self.grant(job, server);
            return;
        }
        if let Some(sess) = entry.sessions.get_mut(&server) {
            sess.denied = true;
        }
        // Reboot signature: in steady state exactly one of a job's sessions
        // wins the mutex, so "still arbitrating and every session denied"
        // can only mean the standing grant belongs to a previous life of
        // this mom — the launch died with it. Reclaim once with a fresh
        // session; the arbiters adopt it because it comes from the same mom.
        if matches!(entry.phase, Phase::Arbitrating)
            && !entry.reclaimed
            && entry.sessions.values().all(|s| s.denied)
        {
            entry.reclaimed = true;
            let id = *next_session;
            *next_session += 1;
            let arbiter = entry.sessions.get(&server).and_then(|s| s.arbiter);
            entry.sessions.insert(
                server,
                Session {
                    id,
                    arbiter,
                    denied: false,
                },
            );
            if let Some(a) = arbiter {
                self.acts.push(MomAction::AskArbiter {
                    arbiter: a,
                    job,
                    session: id,
                    reclaim: true,
                });
                return;
            }
        }
        // Denied: emulate the start for this head only.
        self.acts.push(MomAction::Report {
            to: server,
            report: MomReport::Started { job },
        });
    }

    /// A session won the launch mutex (or local grant): really execute.
    fn grant(&mut self, job: JobId, server: ProcId) {
        // A verdict for a job this mom no longer tracks (e.g. cancelled
        // while the acquire was in flight) is ignorable, not fatal (the no-panic lints).
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        let session = entry.sessions.get(&server).map(|s| s.id).unwrap_or(0);
        match entry.phase {
            Phase::Arbitrating => {
                entry.phase = Phase::Running { session };
                self.real_runs += 1;
                let run_for = entry.spec.runtime.min(entry.spec.walltime);
                self.acts.push(MomAction::StartTimer {
                    job,
                    after: run_for,
                });
                for &s in &entry.interested {
                    self.acts.push(MomAction::Report {
                        to: s,
                        report: MomReport::Started { job },
                    });
                }
            }
            // A second grant can only be a stale duplicate; the arbiter
            // grants a job's mutex once.
            Phase::Running { .. } | Phase::Done { .. } => {}
        }
    }

    /// Execution timer fired: the job ran to completion (or walltime).
    pub(crate) fn on_timer(&mut self, job: JobId) -> Vec<MomAction> {
        if let Some(entry) = self.jobs.get(&job) {
            if matches!(entry.phase, Phase::Running { .. }) {
                let code = if entry.spec.runtime > entry.spec.walltime {
                    exit::WALLTIME
                } else {
                    exit::OK
                };
                self.finish(job, code);
            }
        }
        std::mem::take(&mut self.acts)
    }

    fn on_cancel(&mut self, job: JobId, _server: ProcId) {
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        match entry.phase {
            Phase::Running { .. } => {
                self.acts.push(MomAction::CancelTimer { job });
                self.finish(job, exit::CANCELLED);
            }
            // Cancelled before any grant arrived: mark done so a late
            // grant is ignored, and report to the interested heads.
            Phase::Arbitrating => self.finish(job, exit::CANCELLED),
            Phase::Done { .. } => {}
        }
    }

    fn finish(&mut self, job: JobId, code: i32) {
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        let was_running_session = match entry.phase {
            Phase::Running { session } => Some(session),
            Phase::Arbitrating | Phase::Done { .. } => None,
        };
        entry.phase = Phase::Done { exit: code };
        // Release the launch mutex (jdone) through the arbiter of the
        // winning session.
        if let Some(sess) = was_running_session {
            if let Some((_, s)) = entry.sessions.iter().find(|(_, s)| s.id == sess) {
                if let Some(a) = s.arbiter {
                    self.acts
                        .push(MomAction::ReleaseArbiter { arbiter: a, job });
                }
            }
        }
        let report = MomReport::Finished { job, exit: code };
        if self.obituary_bug {
            // Paper's TORQUE defect: only the owner head learns.
            self.acts.push(MomAction::Report {
                to: entry.owner,
                report,
            });
        } else {
            // Every registered or interested head, once each, in id order.
            for &to in self.servers.union(&entry.interested) {
                self.acts.push(MomAction::Report { to, report });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::trivial("t")
    }

    fn start(job: u64, server: u32, arbiter: Option<u32>) -> MomInbound {
        MomInbound::Start {
            job: JobId(job),
            spec: spec(),
            server: ProcId(server),
            arbiter: arbiter.map(ProcId),
        }
    }

    fn reports(acts: &[MomAction]) -> Vec<(ProcId, MomReport)> {
        acts.iter()
            .filter_map(|a| match a {
                MomAction::Report { to, report } => Some((*to, *report)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn local_grant_runs_immediately() {
        let mut mom = PbsMomCore::new();
        let acts = mom.on_msg(start(1, 10, None));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MomAction::StartTimer { .. })));
        assert!(mom.is_running(JobId(1)));
        assert_eq!(mom.real_runs, 1);
        let done = mom.on_timer(JobId(1));
        let r = reports(&done);
        assert!(r.contains(&(
            ProcId(10),
            MomReport::Finished {
                job: JobId(1),
                exit: exit::OK
            }
        )));
        assert!(!mom.is_running(JobId(1)));
    }

    #[test]
    fn arbitrated_start_waits_for_verdict() {
        let mut mom = PbsMomCore::new();
        let acts = mom.on_msg(start(1, 10, Some(99)));
        assert_eq!(acts.len(), 1);
        let session = match &acts[0] {
            MomAction::AskArbiter {
                arbiter,
                job,
                session,
                ..
            } => {
                assert_eq!(*arbiter, ProcId(99));
                assert_eq!(*job, JobId(1));
                *session
            }
            other => panic!("{other:?}"),
        };
        assert!(!mom.is_running(JobId(1)));
        let acts = mom.on_msg(MomInbound::Verdict {
            job: JobId(1),
            session,
            granted: true,
        });
        assert!(mom.is_running(JobId(1)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MomAction::StartTimer { .. })));
    }

    #[test]
    fn exactly_one_real_run_among_competing_sessions() {
        // Three heads each attempt the start (symmetric active/active);
        // the arbiter grants one and denies two.
        let mut mom = PbsMomCore::new();
        let mut sessions = Vec::new();
        for head in [10u32, 11, 12] {
            let acts = mom.on_msg(start(1, head, Some(99)));
            for a in acts {
                if let MomAction::AskArbiter { session, .. } = a {
                    sessions.push(session);
                }
            }
        }
        assert_eq!(sessions.len(), 3);
        // Grant the second session, deny the others (order scrambled).
        let _ = mom.on_msg(MomInbound::Verdict {
            job: JobId(1),
            session: sessions[1],
            granted: true,
        });
        let d0 = mom.on_msg(MomInbound::Verdict {
            job: JobId(1),
            session: sessions[0],
            granted: false,
        });
        let d2 = mom.on_msg(MomInbound::Verdict {
            job: JobId(1),
            session: sessions[2],
            granted: false,
        });
        assert_eq!(mom.real_runs, 1, "exactly one real execution");
        // Denied sessions emulated the start towards their heads.
        assert_eq!(
            reports(&d0),
            vec![(ProcId(10), MomReport::Started { job: JobId(1) })]
        );
        assert_eq!(
            reports(&d2),
            vec![(ProcId(12), MomReport::Started { job: JobId(1) })]
        );
        // Completion reaches all three heads.
        let done = mom.on_timer(JobId(1));
        let finished: Vec<ProcId> = reports(&done)
            .into_iter()
            .filter(|(_, r)| matches!(r, MomReport::Finished { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(finished, vec![ProcId(10), ProcId(11), ProcId(12)]);
        // And the mutex is released.
        assert!(done
            .iter()
            .any(|a| matches!(a, MomAction::ReleaseArbiter { job: JobId(1), .. })));
    }

    #[test]
    fn late_attempt_after_run_started_is_emulated() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(start(1, 10, None));
        let acts = mom.on_msg(start(1, 11, Some(99)));
        assert_eq!(
            reports(&acts),
            vec![(ProcId(11), MomReport::Started { job: JobId(1) })]
        );
        assert_eq!(mom.real_runs, 1);
        // The late head still receives the obituary.
        let done = mom.on_timer(JobId(1));
        let heads: Vec<ProcId> = reports(&done).into_iter().map(|(to, _)| to).collect();
        assert!(heads.contains(&ProcId(11)));
    }

    #[test]
    fn attempt_after_completion_gets_both_reports() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(start(1, 10, None));
        let _ = mom.on_timer(JobId(1));
        let acts = mom.on_msg(start(1, 11, Some(99)));
        let r = reports(&acts);
        assert_eq!(r.len(), 2);
        assert!(matches!(r[0].1, MomReport::Started { .. }));
        assert!(matches!(r[1].1, MomReport::Finished { .. }));
    }

    #[test]
    fn duplicate_start_reasks_arbiter_through_same_session() {
        let mut mom = PbsMomCore::new();
        let a1 = mom.on_msg(start(1, 10, Some(99)));
        let s1 = match &a1[..] {
            [MomAction::AskArbiter { session, .. }] => *session,
            other => panic!("{other:?}"),
        };
        // Head 10 restarts and re-dispatches, now naming a fresh arbiter.
        let a2 = mom.on_msg(start(1, 10, Some(98)));
        match &a2[..] {
            [MomAction::AskArbiter {
                arbiter, session, ..
            }] => {
                assert_eq!(*arbiter, ProcId(98), "retry follows the new arbiter");
                assert_eq!(*session, s1, "same session, no second ballot");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mom.real_runs, 0);
    }

    #[test]
    fn duplicate_start_while_running_emulates() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(start(1, 10, None));
        let a2 = mom.on_msg(start(1, 10, None));
        assert_eq!(
            reports(&a2),
            vec![(ProcId(10), MomReport::Started { job: JobId(1) })]
        );
        assert_eq!(mom.real_runs, 1, "retry never re-executes");
    }

    #[test]
    fn duplicate_start_after_completion_replays_both_reports() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(start(1, 10, None));
        let _ = mom.on_timer(JobId(1));
        let a2 = mom.on_msg(start(1, 10, None));
        let r = reports(&a2);
        assert_eq!(r.len(), 2);
        assert!(matches!(r[0].1, MomReport::Started { .. }));
        assert!(matches!(r[1].1, MomReport::Finished { .. }));
        assert_eq!(mom.real_runs, 1);
    }

    #[test]
    fn walltime_exceeded_reports_kill() {
        let mut mom = PbsMomCore::new();
        let mut s = spec();
        s.runtime = SimDuration::from_secs(100);
        s.walltime = SimDuration::from_secs(10);
        let acts = mom.on_msg(MomInbound::Start {
            job: JobId(1),
            spec: s,
            server: ProcId(10),
            arbiter: None,
        });
        match acts
            .iter()
            .find(|a| matches!(a, MomAction::StartTimer { .. }))
        {
            Some(MomAction::StartTimer { after, .. }) => {
                assert_eq!(*after, SimDuration::from_secs(10), "killed at walltime");
            }
            _ => panic!("no timer"),
        }
        let done = mom.on_timer(JobId(1));
        assert!(reports(&done).iter().any(
            |(_, r)| matches!(r, MomReport::Finished { exit, .. } if *exit == exit::WALLTIME)
        ));
    }

    #[test]
    fn cancel_running_job() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(start(1, 10, None));
        let acts = mom.on_msg(MomInbound::Cancel {
            job: JobId(1),
            server: ProcId(10),
        });
        assert!(acts
            .iter()
            .any(|a| matches!(a, MomAction::CancelTimer { .. })));
        assert!(reports(&acts).iter().any(
            |(_, r)| matches!(r, MomReport::Finished { exit, .. } if *exit == exit::CANCELLED)
        ));
        // A later timer fire (wrapper failed to cancel in time) is a no-op.
        assert!(mom.on_timer(JobId(1)).is_empty());
    }

    #[test]
    fn cancel_before_verdict_blocks_late_grant() {
        let mut mom = PbsMomCore::new();
        let acts = mom.on_msg(start(1, 10, Some(99)));
        let session = match &acts[0] {
            MomAction::AskArbiter { session, .. } => *session,
            other => panic!("{other:?}"),
        };
        let _ = mom.on_msg(MomInbound::Cancel {
            job: JobId(1),
            server: ProcId(10),
        });
        let acts = mom.on_msg(MomInbound::Verdict {
            job: JobId(1),
            session,
            granted: true,
        });
        assert!(
            acts.is_empty(),
            "late grant after cancel must not run the job"
        );
        assert_eq!(mom.real_runs, 0);
    }

    #[test]
    fn obituary_bug_reports_only_to_owner() {
        let mut mom = PbsMomCore::new();
        mom.obituary_bug = true;
        let _ = mom.on_msg(MomInbound::RegisterServer { server: ProcId(20) });
        let _ = mom.on_msg(start(1, 10, None));
        let _ = mom.on_msg(start(1, 11, Some(99)));
        let done = mom.on_timer(JobId(1));
        let finished: Vec<ProcId> = reports(&done)
            .into_iter()
            .filter(|(_, r)| matches!(r, MomReport::Finished { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(finished, vec![ProcId(10)], "bug: only the owner learns");
    }

    #[test]
    fn registered_servers_receive_obituaries_even_without_attempts() {
        let mut mom = PbsMomCore::new();
        let _ = mom.on_msg(MomInbound::RegisterServer { server: ProcId(30) });
        let _ = mom.on_msg(start(1, 10, None));
        let done = mom.on_timer(JobId(1));
        let finished: Vec<ProcId> = reports(&done)
            .into_iter()
            .filter(|(_, r)| matches!(r, MomReport::Finished { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(finished, vec![ProcId(10), ProcId(30)]);
    }
}
