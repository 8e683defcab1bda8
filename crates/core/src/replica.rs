//! The replicated state of one JOSHUA head, behind a privacy boundary.
//!
//! The paper's correctness argument (PAPER.md §3) is that every head is a
//! deterministic state machine and only the totally ordered command stream
//! changes its state. [`Replica`] holds that state (the PBS server, the
//! jmutex table, the per-client reply cache and the applied-command index)
//! in private fields, and its `&mut self` methods are the only ways to
//! change it: apply one ordered command, install a donated or recovered
//! [`ReplicaState`], reset after an ejection. Anywhere else in the daemon, a
//! `Process` callback included, writing a field is E0616 (and calling a
//! private method, should this module grow one, E0624).
//!
//! The methods take no `Ctx`. They change state and return what the daemon
//! must do about it (the PBS actions to dispatch, a jmutex verdict), so
//! every effect that leaves the head stays in `JoshuaServer`, in order.
//!
//! The type is `pub` but hidden from the docs for one outside caller: the
//! model checker (`jrs-mc`) applies its ordered stream through this same
//! state machine. The fields stay private there too.

use crate::payload::{JMutexOutcome, JMutexState, Payload, ReplicaState};
use jrs_pbs::server::{MomReport, PbsServerCore, ServerAction};
use jrs_pbs::{CmdReply, JobId, ServerCmd};
use jrs_sim::{ProcId, SimTime};
use jrs_store::{encode_seq, Codec};
use std::collections::{BTreeMap, BTreeSet};

/// The replicated state machine of one head. See module docs.
#[derive(Clone, Debug)]
pub struct Replica {
    pbs: PbsServerCore,
    jmutex: JMutexState,
    /// Per-client duplicate-suppression floor and cached reply; a jstat
    /// caches its read, [`CmdReply::Read`], not a listing.
    applied: BTreeMap<ProcId, (u64, CmdReply)>,
    /// Commands applied since genesis — monotonic across restarts (group
    /// sequence numbers reset per incarnation); the WAL key space.
    applied_index: u64,
}

/// What applying one ordered command asks of the daemon.
pub enum Applied<'p> {
    /// A client command ran and its reply (a jstat: its read) is cached
    /// for release.
    Ran {
        client: ProcId,
        req_id: u64,
        cmd: &'p ServerCmd,
        actions: Vec<ServerAction>,
    },
    /// A client retried its newest applied request through another head:
    /// the cached reply may be released again.
    Retried { client: ProcId, req_id: u64 },
    /// An obituary ran: the PBS actions it caused.
    Finished(Vec<ServerAction>),
    /// An acquire was decided.
    Decided {
        job: JobId,
        mom: ProcId,
        session: u64,
        granter: ProcId,
        outcome: JMutexOutcome,
    },
    /// A release, an older duplicate, or a control payload: nothing for
    /// the daemon to do.
    Quiet,
}

impl Replica {
    /// Genesis: `pbs` as configured, empty tables, index 0.
    pub fn new(pbs: PbsServerCore) -> Self {
        Replica {
            pbs,
            jmutex: JMutexState::new(),
            applied: BTreeMap::new(),
            applied_index: 0,
        }
    }

    /// The embedded PBS server.
    pub fn pbs(&self) -> &PbsServerCore {
        &self.pbs
    }

    /// The launch mutex table.
    pub fn jmutex(&self) -> &JMutexState {
        &self.jmutex
    }

    /// Commands applied since genesis.
    pub(crate) fn applied_index(&self) -> u64 {
        self.applied_index
    }

    /// The reply to release for `client`'s request `req_id`, if that is
    /// the newest request applied for it: a cached reply as cached, a
    /// cached read as the listing of the state now. Every head holds the
    /// same state at the same point of the total order, so whichever head
    /// releases it sends the same rows.
    pub(crate) fn release(&self, client: ProcId, req_id: u64) -> Option<CmdReply> {
        match self.applied.get(&client) {
            Some((id, CmdReply::Read(filter))) if *id == req_id => {
                Some(CmdReply::Status(self.pbs.status(*filter)))
            }
            Some((id, reply)) if *id == req_id => Some(reply.clone()),
            Some(_) | None => None,
        }
    }

    /// Deterministic fingerprint of the replicated state, reply cache
    /// included.
    pub fn fingerprint(&self) -> u64 {
        jrs_sim::fingerprint(&(
            self.pbs.state_hash(),
            self.jmutex.state_hash(),
            &self.applied,
            self.applied_index,
        ))
    }

    /// Encode [`Self::state`] into `out` from the live state, byte for
    /// byte what `state(..).encode(out)` writes, without building it: no
    /// job, grant or cached reply is cloned. This is what a snapshot file
    /// holds.
    pub fn encode_state(
        &self,
        needs_snapshot: &BTreeSet<ProcId>,
        hellos: &BTreeMap<ProcId, (u64, u64)>,
        out: &mut Vec<u8>,
    ) {
        self.pbs.encode_snapshot(out);
        self.jmutex.encode(out);
        encode_seq(self.applied.iter(), out, |(client, (id, reply)), out| {
            client.encode(out);
            id.encode(out);
            reply.encode(out);
        });
        encode_seq(needs_snapshot.iter(), out, ProcId::encode);
        self.applied_index.encode(out);
        encode_seq(hellos.iter(), out, |(member, (index, print)), out| {
            member.encode(out);
            index.encode(out);
            print.encode(out);
        });
    }

    /// The full replicated state plus the daemon's membership bookkeeping,
    /// for donation.
    pub(crate) fn state(
        &self,
        needs_snapshot: &BTreeSet<ProcId>,
        hellos: &BTreeMap<ProcId, (u64, u64)>,
    ) -> ReplicaState {
        ReplicaState {
            pbs: self.pbs.snapshot(),
            jmutex: self.jmutex.clone(),
            applied: self
                .applied
                .iter()
                .map(|(c, (id, r))| (*c, *id, r.clone()))
                .collect(),
            needs_snapshot: needs_snapshot.iter().copied().collect(),
            applied_index: self.applied_index,
            hellos: hellos.iter().map(|(m, (i, f))| (*m, *i, *f)).collect(),
        }
    }

    /// Apply one of the four state-machine commands (`Client`,
    /// `MomFinished`, `JMutexAcquire`, `JMutexRelease`) and number it.
    pub fn apply<'p>(&mut self, now: SimTime, payload: &'p Payload) -> Applied<'p> {
        self.applied_index += 1;
        match *payload {
            Payload::Client {
                client,
                req_id,
                ref cmd,
            } => {
                let floor = self.applied.get(&client).map_or(0, |(id, _)| *id);
                if req_id == floor {
                    return Applied::Retried { client, req_id };
                }
                if req_id < floor {
                    return Applied::Quiet;
                }
                // A jstat changes nothing: its listing is built where its
                // reply is released (`release`), once per cluster.
                let (reply, actions) = match *cmd {
                    ServerCmd::Qstat(filter) => (CmdReply::Read(filter), Vec::new()),
                    ServerCmd::Qsub(_)
                    | ServerCmd::Qdel(_)
                    | ServerCmd::Qhold(_)
                    | ServerCmd::Qrls(_) => self.pbs.apply(now, cmd),
                };
                self.applied.insert(client, (req_id, reply));
                Applied::Ran {
                    client,
                    req_id,
                    cmd,
                    actions,
                }
            }
            Payload::MomFinished { job, exit, .. } => {
                Applied::Finished(self.pbs.on_report(now, &MomReport::Finished { job, exit }))
            }
            Payload::JMutexAcquire {
                job,
                mom,
                session,
                granter,
                reclaim,
            } => Applied::Decided {
                job,
                mom,
                session,
                granter,
                outcome: self.jmutex.acquire(job, mom, session, granter, reclaim),
            },
            Payload::JMutexRelease { job } => {
                self.jmutex.release(job);
                Applied::Quiet
            }
            // The control payloads are consumed before numbering. Named
            // (instead of `_`) so a new replicated command cannot be
            // silently dropped here (`clippy::wildcard_enum_match_arm`).
            Payload::Output { .. }
            | Payload::Snapshot { .. }
            | Payload::Hello { .. }
            | Payload::CatchUp { .. } => Applied::Quiet,
        }
    }

    /// Overwrite the replicated state with a donated or recovered one.
    /// Returns the membership bookkeeping it carried (joiners awaiting a
    /// snapshot, unresolved recovery announcements), which the daemon
    /// keeps.
    pub(crate) fn install(
        &mut self,
        state: ReplicaState,
    ) -> (Vec<ProcId>, Vec<(ProcId, u64, u64)>) {
        self.pbs.restore(&state.pbs);
        self.jmutex = state.jmutex;
        self.applied = state
            .applied
            .into_iter()
            .map(|(c, id, r)| (c, (id, r)))
            .collect();
        self.applied_index = state.applied_index;
        (state.needs_snapshot, state.hellos)
    }

    /// Total state reset after an ejection: genesis with `pbs`.
    pub(crate) fn reset(&mut self, pbs: PbsServerCore) {
        *self = Replica::new(pbs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_pbs::JobSpec;

    fn qsub(client: u32, req_id: u64) -> Payload {
        Payload::Client {
            client: ProcId(client),
            req_id,
            cmd: ServerCmd::Qsub(JobSpec::trivial("j")),
        }
    }

    #[test]
    fn fingerprint_covers_the_reply_cache() {
        let pbs = PbsServerCore::with_moms(&[("c00".to_string(), ProcId(9))]);
        let (mut a, mut b) = (Replica::new(pbs.clone()), Replica::new(pbs));
        let _ = a.apply(SimTime::ZERO, &qsub(100, 1));
        let _ = b.apply(SimTime::ZERO, &qsub(101, 7));
        assert_eq!(a.pbs.state_hash(), b.pbs.state_hash());
        assert_eq!(a.jmutex, b.jmutex);
        assert_eq!(a.applied_index, b.applied_index);
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "replicas that owe different clients a reply are not the same state"
        );
    }

    #[test]
    fn a_cached_read_lists_the_state_at_release() {
        let pbs = PbsServerCore::with_moms(&[("c00".to_string(), ProcId(9))]);
        let mut r = Replica::new(pbs);
        let _ = r.apply(SimTime::ZERO, &qsub(100, 1));
        let read = Payload::Client {
            client: ProcId(101),
            req_id: 1,
            cmd: ServerCmd::Qstat(None),
        };
        let _ = r.apply(SimTime::ZERO, &read);
        assert_eq!(
            r.applied.get(&ProcId(101)),
            Some(&(1, CmdReply::Read(None)))
        );
        let _ = r.apply(SimTime::ZERO, &qsub(100, 2));
        let Some(CmdReply::Status(rows)) = r.release(ProcId(101), 1) else {
            panic!("a read released no listing")
        };
        assert_eq!(rows.len(), 2, "the listing is the state at release");
        assert_eq!(r.release(ProcId(101), 2), None, "not an applied request");
    }
}
