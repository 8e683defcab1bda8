//! Partition behaviour (under both membership policies) and the
//! exactly-once client-command semantics across retries and responder
//! death.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use jrs_gcs::MembershipPolicy;
use jrs_pbs::{CmdReply, JobState};
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn primary_component_majority_keeps_serving_through_partition() {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
    cfg.group.membership = MembershipPolicy::PrimaryComponent;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(15));
    // Cut head-2 off the LAN at t=1s (pulled cable), heal at t=20s.
    let isolated = c.head_nodes[2];
    c.world
        .schedule_at(secs(1), move |w| w.set_partition_group(isolated, 9));
    c.world
        .schedule_at(secs(20), move |w| w.network_mut().heal_partitions());
    c.run_until(secs(300));

    let records = c.take_records();
    assert_eq!(records.len(), 15, "majority must keep serving");
    assert_eq!(c.total_real_runs(), 15, "exactly-once through partition");
    // After healing, the isolated head ejects, rejoins, gets state
    // transfer, and agrees with the majority again.
    assert_eq!(c.assert_replicas_consistent(), 3);
    let h2 = c.joshua(2);
    assert!(h2.is_established());
    assert_eq!(h2.pbs().count_state(JobState::Complete), 15);
    assert!(
        h2.group_stats().ejections >= 1,
        "minority must have rejoined via ejection"
    );
}

#[test]
fn failstop_policy_remerges_after_partition() {
    // Under the paper-faithful fail-stop policy, both sides keep going
    // during a partition; on heal the smaller component deterministically
    // yields, ejects and rejoins with state transfer. Jobs submitted to
    // the majority survive; the client never observes an outage.
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
    cfg.group.membership = MembershipPolicy::FailStop;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(15));
    let isolated = c.head_nodes[2];
    c.world
        .schedule_at(secs(1), move |w| w.set_partition_group(isolated, 9));
    c.world
        .schedule_at(secs(20), move |w| w.network_mut().heal_partitions());
    c.run_until(secs(300));

    let records = c.take_records();
    assert_eq!(records.len(), 15);
    assert_eq!(c.assert_replicas_consistent(), 3);
}

#[test]
fn client_retry_after_responder_death_is_deduplicated() {
    // Kill the client's preferred head (and current responder) the moment
    // the burst starts: some commands are retried against the other head
    // with the same request id — state must show each submission once.
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 2 });
    cfg.client_timeout = SimDuration::from_millis(800);
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(10));
    let n0 = c.head_nodes[0];
    // Crash right in the middle of the first command's processing window.
    c.world
        .schedule_at(SimTime::ZERO + SimDuration::from_millis(150), move |w| {
            w.crash_node(n0)
        });
    c.run_until(secs(200));
    let records = c.take_records();
    assert_eq!(records.len(), 10);
    assert!(
        records.iter().any(|r| r.attempts > 1),
        "the crash should force at least one retry"
    );
    // Dedup: exactly ten jobs exist, with ids 1..=10 and no duplicates.
    let survivor = c.joshua(1);
    let ids: Vec<u64> = survivor.pbs().jobs_in_order().map(|j| j.id.0).collect();
    assert_eq!(
        ids,
        (1..=10).collect::<Vec<u64>>(),
        "duplicate or lost submissions"
    );
    // Replies carried the right ids too.
    for (i, r) in records.iter().enumerate() {
        let CmdReply::Submitted(id) = r.reply else {
            panic!("unexpected reply {:?}", r.reply)
        };
        assert_eq!(id.0, i as u64 + 1);
    }
    assert_eq!(c.total_real_runs(), 10);
}

#[test]
fn qstat_reads_are_ordered_and_consistent() {
    // jstat goes through the same total order, so a status snapshot can
    // never show a state that contradicts the command order (e.g. a
    // deletion reported before the submission it deletes).
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 3 }));
    let mut script = Vec::new();
    for i in 0..5 {
        script.push(jrs_pbs::ServerCmd::Qsub(jrs_pbs::JobSpec::trivial(
            format!("j{i}"),
        )));
        script.push(jrs_pbs::ServerCmd::Qstat(None));
    }
    c.spawn_client(script);
    c.run_until(secs(120));
    let records = c.take_records();
    assert_eq!(records.len(), 10);
    for (k, r) in records.iter().enumerate() {
        if k % 2 == 1 {
            let CmdReply::Status(rows) = &r.reply else {
                panic!()
            };
            // After the (k/2+1)-th submission, exactly that many jobs
            // exist — reads are linearizable with writes.
            assert_eq!(rows.len(), k / 2 + 1, "qstat #{k} saw {} rows", rows.len());
        }
    }
}
