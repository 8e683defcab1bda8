//! The replicated command stream: everything JOSHUA pushes through the
//! group communication system, and the jmutex (distributed launch mutual
//! exclusion) state machine.

use jrs_pbs::server::ServerSnapshot;
use jrs_pbs::{CmdReply, JobId, ServerCmd};
use jrs_sim::ProcId;
use jrs_store::codec;
use std::collections::{BTreeMap, BTreeSet};

/// Everything ordered through the group. Every replica applies these in
/// the same total order, which — the PBS server being deterministic — is
/// exactly what keeps all head nodes in the same state.
#[derive(Clone, Debug, Hash)]
pub enum Payload {
    /// An intercepted PBS user command (jsub/jdel/jstat/jhold/jrls).
    Client {
        /// Requesting client process.
        client: ProcId,
        /// Client-unique request id (duplicate suppression across client
        /// retries / head failover).
        req_id: u64,
        /// The PBS command.
        cmd: ServerCmd,
    },
    /// Agreed output release for a previously applied command: the current
    /// responder sends the cached reply to the client (for a cached read,
    /// the listing of its state at this point). Ordering output
    /// through the group is the paper's "distributed mutual exclusion to
    /// ensure that output is delivered only once".
    Output {
        /// The client to answer.
        client: ProcId,
        /// Which request's cached reply to release.
        req_id: u64,
    },
    /// A job-completion obituary lifted into the total order, so replicas
    /// (and future joiners, via snapshot + replay) converge on job state.
    MomFinished {
        /// The finished job.
        job: JobId,
        /// Exit status.
        exit: i32,
        /// Reporting mom (diagnostic).
        mom: ProcId,
    },
    /// jmutex acquire: a launch session on a mom asks for the job's launch
    /// mutex through its head's JOSHUA daemon. The first acquire delivered
    /// for a job wins.
    JMutexAcquire {
        /// The job.
        job: JobId,
        /// The requesting mom.
        mom: ProcId,
        /// The launch session on the mom.
        session: u64,
        /// The JOSHUA daemon that forwarded this request (it sends the
        /// verdict back to the mom).
        granter: ProcId,
        /// Reclaim after a mom reboot: every session the mom knows was
        /// denied and nothing runs locally, so a standing same-mom grant
        /// is re-won with this fresh session.
        reclaim: bool,
    },
    /// jdone: release the launch mutex after completion.
    JMutexRelease {
        /// The job.
        job: JobId,
    },
    /// State transfer to joining head nodes, ordered in-stream so the
    /// joiner can replay subsequent commands exactly.
    Snapshot {
        /// The joiners this snapshot is for.
        targets: Vec<ProcId>,
        /// The donor had applied ordered messages up to this sequence
        /// number when it created the state; targets replay only
        /// payloads with larger sequence numbers.
        as_of_seq: u64,
        /// The full replica state.
        state: Box<ReplicaState>,
    },
    /// A (re)joining head announces how much replicated state it already
    /// holds — recovered from its local WAL + snapshot — so the donor can
    /// ship only the delta it missed instead of a full snapshot. A fresh
    /// joiner sends `applied_index == 0`. After a total-cluster blackout
    /// every cold-restarted head sends one, and the group reconciles on
    /// the most advanced recovered state.
    Hello {
        /// The announcing head.
        member: ProcId,
        /// Commands applied (and persisted) before the announcement.
        applied_index: u64,
        /// Fingerprint of the recovered replicated state (cold-restart
        /// agreement check: equal indices must mean equal fingerprints).
        fingerprint: u64,
    },
    /// Delta state transfer: the commands a recovered joiner missed,
    /// keyed by the donor's applied-command index. The cheap counterpart
    /// of [`Payload::Snapshot`], read from the donor's WAL window while
    /// that still covers the joiner's gap.
    CatchUp {
        /// The recovered heads this delta is for.
        targets: Vec<ProcId>,
        /// Targets replay buffered ordered payloads with sequence numbers
        /// strictly greater than this (0 = replay the whole buffer).
        as_of_seq: u64,
        /// Missed commands `(applied_index, payload)`, contiguous and
        /// ascending; targets apply only indices above their own.
        entries: Vec<(u64, Payload)>,
    },
}

/// Complete replicated state of one JOSHUA head, shipped to joiners.
#[derive(Clone, Debug, Hash)]
pub struct ReplicaState {
    /// PBS server state.
    pub pbs: ServerSnapshot,
    /// Launch mutex table.
    pub jmutex: JMutexState,
    /// Client duplicate-suppression floors and cached replies.
    pub applied: Vec<(ProcId, u64, CmdReply)>,
    /// Joiners still awaiting a snapshot (replicated bookkeeping so any
    /// donor death leads to re-donation at the next view change).
    pub needs_snapshot: Vec<ProcId>,
    /// Commands applied since genesis (monotonic across restarts, unlike
    /// the per-incarnation group sequence numbers) — the key space of the
    /// write-ahead log.
    pub applied_index: u64,
    /// Recovery announcements seen and not yet resolved:
    /// `(member, applied_index, fingerprint)` (replicated bookkeeping so
    /// a new donor can re-donate after the original died).
    pub hellos: Vec<(ProcId, u64, u64)>,
}

/// The jmutex table: which job launches have been granted and released.
/// Lives in replicated state; decisions happen at delivery time, so all
/// replicas agree on the single winner per job.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct JMutexState {
    granted: BTreeMap<JobId, Grant>,
    released: BTreeSet<JobId>,
}

/// A granted launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The mom that holds the launch right.
    pub mom: ProcId,
    /// The winning session on that mom.
    pub session: u64,
    /// The daemon that forwarded the winning request.
    pub granter: ProcId,
}

/// Outcome of an acquire delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JMutexOutcome {
    /// This acquire won: its session really launches the job.
    Granted,
    /// Another session already holds (or held) the mutex: emulate.
    Denied,
}

impl JMutexState {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process one delivered acquire. Deterministic: first delivered
    /// acquire for a job wins; later ones (and any after release) lose.
    ///
    /// Idempotent for the winner: a re-acquire naming the same mom and
    /// session as the standing grant is granted again (covers a verdict
    /// lost when heads crashed — after a restart the heads re-dispatch
    /// and the mom re-asks through its original session; the grant
    /// replayed from the WAL must not deny it).
    ///
    /// A `reclaim` acquire additionally wins with a *fresh* session, as
    /// long as it comes from the grant-holding mom: the mom asserts that
    /// every session it knows for this job was denied and nothing runs
    /// locally — the reboot signature (launch competition is same-mom
    /// only), so the standing grant belongs to a launch that died with
    /// the mom's previous life. The grant adopts the new session so the
    /// verdict reaches the live prologue.
    pub fn acquire(
        &mut self,
        job: JobId,
        mom: ProcId,
        session: u64,
        granter: ProcId,
        reclaim: bool,
    ) -> JMutexOutcome {
        if self.released.contains(&job) {
            return JMutexOutcome::Denied;
        }
        if let Some(g) = self.granted.get_mut(&job) {
            return if g.mom == mom && (g.session == session || reclaim) {
                g.session = session;
                JMutexOutcome::Granted
            } else {
                JMutexOutcome::Denied
            };
        }
        self.granted.insert(
            job,
            Grant {
                mom,
                session,
                granter,
            },
        );
        JMutexOutcome::Granted
    }

    /// Process a delivered release (jdone).
    pub fn release(&mut self, job: JobId) {
        self.granted.remove(&job);
        self.released.insert(job);
    }

    /// Current grant holder, if any.
    #[cfg(test)]
    pub(crate) fn holder(&self, job: JobId) -> Option<Grant> {
        self.granted.get(&job).copied()
    }

    /// Has the job's mutex been released (job completed)?
    #[cfg(test)]
    pub(crate) fn is_released(&self, job: JobId) -> bool {
        self.released.contains(&job)
    }

    /// Number of currently granted (outstanding) launches.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> usize {
        self.granted.len()
    }

    /// Iterate over outstanding grants.
    pub fn grants(&self) -> impl Iterator<Item = (JobId, Grant)> + '_ {
        self.granted.iter().map(|(j, g)| (*j, *g))
    }

    /// Outstanding grants whose granter is not among `members`: its verdict
    /// can never reach the mom, so after a view change the [`responder`]
    /// re-sends it (idempotent at the mom).
    pub fn orphaned_grants<'a>(
        &'a self,
        members: &'a [ProcId],
    ) -> impl Iterator<Item = (JobId, Grant)> + 'a {
        self.grants().filter(|(_, g)| !members.contains(&g.granter))
    }

    /// Deterministic fingerprint of the mutex table (replica-convergence
    /// checks and model-checker state deduplication).
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        jrs_sim::fingerprint(self)
    }
}

/// The member responsible for client-visible output: the lowest-ranked
/// member of the view (`members`, sorted) that did not join in it
/// (`joined_current`), so it certainly holds full state. Deterministic at
/// every replica by virtue of virtual synchrony.
pub fn responder(members: &[ProcId], joined_current: &BTreeSet<ProcId>) -> Option<ProcId> {
    members
        .iter()
        .copied()
        .find(|m| !joined_current.contains(m))
        .or_else(|| members.first().copied())
}

/// Who sends a delivered acquire's verdict to the mom: the head that
/// forwarded it, or the [`responder`] covering for it when it left the view
/// while the acquire was in flight (every replica sees the same view).
pub fn verdict_sender(members: &[ProcId], granter: ProcId, responder: Option<ProcId>) -> ProcId {
    if members.contains(&granter) {
        granter
    } else {
        responder.unwrap_or(granter)
    }
}

// ----------------------------------------------------------------------
// Durable encoding (WAL records and snapshot files)
// ----------------------------------------------------------------------

codec!(struct Grant { mom, session, granter });
codec!(struct JMutexState { granted, released });
codec!(struct ReplicaState { pbs, jmutex, applied, needs_snapshot, applied_index, hellos });
codec!(enum Payload {
    0 => Client { client, req_id, cmd },
    1 => Output { client, req_id },
    2 => MomFinished { job, exit, mom },
    3 => JMutexAcquire { job, mom, session, granter, reclaim },
    4 => JMutexRelease { job },
    5 => Snapshot { targets, as_of_seq, state },
    6 => Hello { member, applied_index, fingerprint },
    7 => CatchUp { targets, as_of_seq, entries },
});

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_store::Codec;

    const MOM: ProcId = ProcId(50);
    const MOM2: ProcId = ProcId(51);
    const G1: ProcId = ProcId(1);
    const G2: ProcId = ProcId(2);

    #[test]
    fn first_acquire_wins_rest_denied() {
        let mut t = JMutexState::new();
        assert_eq!(
            t.acquire(JobId(1), MOM, 10, G1, false),
            JMutexOutcome::Granted
        );
        // Competing sessions (same mom, other heads' ballots) lose.
        assert_eq!(
            t.acquire(JobId(1), MOM, 11, G2, false),
            JMutexOutcome::Denied
        );
        assert_eq!(
            t.acquire(JobId(1), MOM, 12, G1, false),
            JMutexOutcome::Denied
        );
        let g = t.holder(JobId(1)).unwrap();
        assert_eq!(g.session, 10);
        assert_eq!(g.granter, G1);
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn independent_jobs_do_not_interfere() {
        let mut t = JMutexState::new();
        assert_eq!(
            t.acquire(JobId(1), MOM, 1, G1, false),
            JMutexOutcome::Granted
        );
        assert_eq!(
            t.acquire(JobId(2), MOM, 2, G2, false),
            JMutexOutcome::Granted
        );
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    fn release_prevents_regrant() {
        let mut t = JMutexState::new();
        let _ = t.acquire(JobId(1), MOM, 1, G1, false);
        t.release(JobId(1));
        assert!(t.is_released(JobId(1)));
        assert_eq!(t.holder(JobId(1)), None);
        // A straggler acquire after release must not launch again.
        assert_eq!(t.acquire(JobId(1), MOM, 9, G2, true), JMutexOutcome::Denied);
    }

    #[test]
    fn replicated_determinism() {
        // Two replicas processing the same delivery order agree.
        let ops = [
            (JobId(1), 10u64, G1),
            (JobId(2), 11, G2),
            (JobId(1), 12, G2),
            (JobId(2), 13, G1),
        ];
        let mut a = JMutexState::new();
        let mut b = JMutexState::new();
        for (job, session, granter) in ops {
            let ra = a.acquire(job, MOM, session, granter, false);
            let rb = b.acquire(job, MOM, session, granter, false);
            assert_eq!(ra, rb);
        }
        assert_eq!(a, b);
    }

    fn empty_state() -> ReplicaState {
        ReplicaState {
            pbs: ServerSnapshot {
                jobs: vec![],
                next_id: 1,
                pool: Default::default(),
                running_since: vec![],
            },
            jmutex: JMutexState::new(),
            applied: vec![],
            needs_snapshot: vec![],
            applied_index: 0,
            hellos: vec![],
        }
    }

    #[test]
    fn regrant_and_reclaim_semantics() {
        let mut t = JMutexState::new();
        assert_eq!(
            t.acquire(JobId(1), MOM, 10, G1, false),
            JMutexOutcome::Granted
        );
        // Replayed acquire after a blackout: same mom + session wins again
        // (the verdict was lost with the heads; the mom still waits).
        assert_eq!(
            t.acquire(JobId(1), MOM, 10, G2, false),
            JMutexOutcome::Granted
        );
        // A plain fresh session still loses (steady-state competition).
        assert_eq!(
            t.acquire(JobId(1), MOM, 11, G2, false),
            JMutexOutcome::Denied
        );
        // The mom itself was rebooted: its reclaim re-wins with a fresh
        // session and the grant adopts it (the old launch died with it).
        assert_eq!(
            t.acquire(JobId(1), MOM, 12, G2, true),
            JMutexOutcome::Granted
        );
        assert_eq!(t.holder(JobId(1)).unwrap().session, 12);
        // A reclaim from another mom is still denied.
        assert_eq!(
            t.acquire(JobId(1), MOM2, 13, G2, true),
            JMutexOutcome::Denied
        );
        assert_eq!(t.outstanding(), 1);
        assert_eq!(
            t.holder(JobId(1)).unwrap().granter,
            G1,
            "original grant kept"
        );
    }

    #[test]
    fn payloads_round_trip_through_codec() {
        use jrs_pbs::{JobSpec, ServerCmd};
        let samples = vec![
            Payload::Client {
                client: ProcId(20),
                req_id: 3,
                cmd: ServerCmd::Qsub(JobSpec::trivial("j")),
            },
            Payload::Output {
                client: ProcId(20),
                req_id: 3,
            },
            Payload::MomFinished {
                job: JobId(1),
                exit: -2,
                mom: MOM,
            },
            Payload::JMutexAcquire {
                job: JobId(1),
                mom: MOM,
                session: 4,
                granter: G1,
                reclaim: true,
            },
            Payload::JMutexRelease { job: JobId(2) },
            Payload::Hello {
                member: G2,
                applied_index: 11,
                fingerprint: 99,
            },
            Payload::Snapshot {
                targets: vec![G2],
                as_of_seq: 5,
                state: Box::new(empty_state()),
            },
        ];
        let catch_up = Payload::CatchUp {
            targets: vec![G2],
            as_of_seq: 5,
            entries: samples
                .iter()
                .take(2)
                .enumerate()
                .map(|(i, p)| (u64::try_from(i).expect("small") + 1, p.clone()))
                .collect(),
        };
        for p in samples.into_iter().chain([catch_up]) {
            let bytes = p.to_bytes();
            let back = Payload::from_bytes(&bytes).unwrap();
            // Payload has no PartialEq (ReplicaState holds a boxed tree);
            // compare fingerprints of the hashable structure instead.
            assert_eq!(jrs_sim::fingerprint(&back), jrs_sim::fingerprint(&p));
        }
    }
}
