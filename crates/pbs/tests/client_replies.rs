//! Regression tests for the client's outstanding-request handling.
//!
//! The first whole-workspace panic-reachability sweep flagged the reply path
//! in `PbsClientProcess`: `outstanding.take().unwrap()` after a separate
//! `is_some` check, and a second `as_mut().unwrap()` on the retry timer
//! path. Those were rewritten as a single fallible take-then-reinsert;
//! these tests pin the required behaviour — a duplicate, stale, or late
//! reply is a no-op, never a panic, and never double-counts a command.

use jrs_pbs::{
    ClientDone, ClientReply, ClientRequest, CmdReply, JobId, JobSpec, PbsClientProcess, ServerCmd,
    SubmitRecord,
};
use jrs_sim::{Ctx, Msg, NetworkConfig, ProcId, Process, SimDuration, SimTime, World};

/// A hostile head: answers every request with a stale reply (wrong
/// req_id), then the real reply, then an exact duplicate of the real
/// reply. A correct client absorbs all three and advances exactly once.
struct EchoStorm {
    replies_sent: u64,
}

impl Process for EchoStorm {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        let Ok(req) = msg.downcast::<ClientRequest>() else {
            return;
        };
        let reply = ClientReply {
            req_id: req.req_id,
            reply: CmdReply::Submitted(JobId(req.req_id)),
        };
        // 1. Stale: a reply to a request id this client never retried.
        ctx.send(
            from,
            ClientReply {
                req_id: req.req_id + 1000,
                reply: reply.reply.clone(),
            },
        );
        // 2. The real reply.
        ctx.send(from, reply.clone());
        // 3. An exact duplicate, landing after the client moved on.
        ctx.send(from, reply);
        self.replies_sent += 3;
    }
}

/// A head that never answers: forces the client's timeout/retry path
/// (the second flagged unwrap) while a late reply from the *first*
/// attempt races the retry.
struct AnswerLate;

impl Process for AnswerLate {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        let Ok(req) = msg.downcast::<ClientRequest>() else {
            return;
        };
        // Answer well after the client's failover timeout, so the reply
        // arrives while a retried copy of the same req_id is in flight.
        let reply = ClientReply {
            req_id: req.req_id,
            reply: CmdReply::Submitted(JobId(req.req_id)),
        };
        ctx.send_after(from, reply, SimDuration::from_secs(3));
    }
}

fn script(n: u64) -> Vec<ServerCmd> {
    (0..n)
        .map(|i| {
            ServerCmd::Qsub(JobSpec::with_runtime(
                format!("j{i}"),
                SimDuration::from_secs(1),
            ))
        })
        .collect()
}

#[test]
fn duplicate_and_stale_replies_are_noops() {
    let mut world = World::with_network(42, NetworkConfig::default());
    let hn = world.add_node("head");
    let head = world.add_process(hn, EchoStorm { replies_sent: 0 });
    let ln = world.add_node("login");
    let client = world.add_process(ln, PbsClientProcess::new(vec![head], script(4)));
    world.run_until(SimTime::ZERO + SimDuration::from_secs(60));

    // Every command completed exactly once, in order, despite each reply
    // arriving three ways (stale id, real, duplicate).
    let records = world.take_emitted::<SubmitRecord>();
    assert_eq!(
        records.len(),
        4,
        "each command must be recorded exactly once"
    );
    for (i, (_, from, rec)) in records.iter().enumerate() {
        assert_eq!(*from, client);
        assert_eq!(rec.index, i);
        assert_eq!(rec.attempts, 1, "no retries were needed");
    }
    assert_eq!(world.take_emitted::<ClientDone>().len(), 1);
    let storm = world.proc_ref::<EchoStorm>(head).unwrap();
    assert_eq!(storm.replies_sent, 12);
}

#[test]
fn late_reply_racing_a_retry_does_not_panic_or_double_count() {
    let mut world = World::with_network(7, NetworkConfig::default());
    let hn = world.add_node("head");
    let head = world.add_process(hn, AnswerLate);
    let ln = world.add_node("login");
    // 2 s failover timeout < 3 s reply delay: every command times out at
    // least once, and the attempt-1 reply then lands next to attempt-2's.
    let client = world.add_process(
        ln,
        PbsClientProcess::new(vec![head], script(3)).with_timeout(SimDuration::from_secs(2)),
    );
    world.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let records = world.take_emitted::<SubmitRecord>();
    assert_eq!(records.len(), 3, "each command must complete exactly once");
    for (_, from, rec) in &records {
        assert_eq!(*from, client);
        assert!(
            rec.attempts >= 2,
            "the silent head must have forced a retry"
        );
    }
    assert_eq!(world.take_emitted::<ClientDone>().len(), 1);
}
