//! End-to-end tests of the full JOSHUA stack: measuring client → JOSHUA
//! daemons (group-ordered PBS commands) → moms with jmutex launch
//! arbitration → ordered obituaries, over the simulated Fast-Ethernet
//! testbed.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use jrs_pbs::{CmdReply, JobId, JobSpec, JobState, ServerCmd};
use jrs_sim::{SimDuration, SimTime};

fn joshua(heads: usize) -> Cluster {
    Cluster::build(ClusterConfig::new(HaMode::Joshua { heads }))
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn two_heads_submit_run_complete() {
    let mut c = joshua(2);
    c.spawn_client(workload::burst(5));
    c.run_until(secs(120));
    let records = c.take_records();
    assert_eq!(records.len(), 5, "every submission must be answered");
    for r in &records {
        assert!(matches!(r.reply, CmdReply::Submitted(_)), "{:?}", r.reply);
        assert_eq!(r.attempts, 1, "no retries needed in steady state");
    }
    // All 5 jobs ran exactly once in total, despite 2 heads dispatching.
    assert_eq!(c.total_real_runs(), 5);
    // Both replicas converged to identical PBS state.
    assert_eq!(c.assert_replicas_consistent(), 2);
    for i in 0..2 {
        assert_eq!(c.joshua(i).pbs().count_state(JobState::Complete), 5);
    }
}

#[test]
fn four_heads_exactly_once_execution() {
    let mut c = joshua(4);
    c.spawn_client(workload::burst(8));
    c.run_until(secs(200));
    let records = c.take_records();
    assert_eq!(records.len(), 8);
    assert_eq!(c.total_real_runs(), 8, "each job must execute exactly once");
    assert_eq!(c.assert_replicas_consistent(), 4);
    // jmutex saw competition: grants = jobs, denials > 0 (other heads'
    // attempts were emulated).
    let grants: u64 = (0..4).map(|i| c.joshua(i).stats().jmutex_granted).sum();
    let denials: u64 = (0..4).map(|i| c.joshua(i).stats().jmutex_denied).sum();
    assert_eq!(grants, 8);
    assert!(denials > 0, "with 4 heads some launch attempts must lose");
}

#[test]
fn mixed_commands_replicate_consistently() {
    let mut c = joshua(3);
    c.spawn_client(workload::mixed(40, 99));
    c.run_until(secs(300));
    let records = c.take_records();
    assert_eq!(records.len(), 40);
    assert_eq!(c.assert_replicas_consistent(), 3);
}

#[test]
fn head_crash_mid_burst_service_continues() {
    // The paper's headline property: continuous availability without any
    // interruption of service and without any loss of state.
    let mut c = joshua(2);
    c.spawn_client(workload::burst(20));
    // Crash head 0 (the client's preferred target AND group leader) while
    // the burst is in flight.
    c.world.schedule_at(secs(2), |_w| {});
    let node = c.head_nodes[0];
    c.world.schedule_at(secs(2), move |w| w.crash_node(node));
    c.run_until(secs(300));
    let records = c.take_records();
    assert_eq!(
        records.len(),
        20,
        "every submission must eventually be acknowledged despite the crash"
    );
    // The survivor holds all 20 jobs, each run exactly once.
    let survivor = c.joshua(1);
    assert_eq!(survivor.pbs().jobs_in_order().count(), 20);
    assert_eq!(c.total_real_runs(), 20);
    // Some client requests needed failover retries.
    assert!(records.iter().any(|r| r.attempts > 1));
}

#[test]
fn double_simultaneous_crash_with_four_heads() {
    let mut c = joshua(4);
    c.spawn_client(workload::burst(15));
    let (n0, n2) = (c.head_nodes[0], c.head_nodes[2]);
    c.world.schedule_at(secs(2), move |w| {
        w.crash_node(n0);
        w.crash_node(n2);
    });
    c.run_until(secs(300));
    let records = c.take_records();
    assert_eq!(records.len(), 15);
    assert_eq!(c.total_real_runs(), 15);
    // The two survivors agree.
    let s1 = c.joshua(1).pbs().snapshot();
    let s3 = c.joshua(3).pbs().snapshot();
    assert!(s1.consistent_with(&s3));
    assert_eq!(c.joshua(1).view().members.len(), 2);
}

#[test]
fn voluntary_leave_keeps_service_up() {
    let mut c = joshua(3);
    c.spawn_client(workload::burst(12));
    let head1 = c.heads[1];
    c.world.schedule_at(secs(1), move |w| {
        w.inject(head1, joshua_core::LeaveCmd);
    });
    c.run_until(secs(200));
    let records = c.take_records();
    assert_eq!(records.len(), 12);
    assert_eq!(c.assert_replicas_consistent(), 2);
    assert_eq!(c.joshua(0).view().members.len(), 2);
}

#[test]
fn replacement_head_joins_with_state_transfer() {
    let mut c = joshua(2);
    c.spawn_client(workload::burst(6));
    // Let the burst finish, then add a third head.
    c.run_until(secs(60));
    assert_eq!(c.take_records().len(), 6);
    let newcomer = c.add_joshua_head();
    c.run_until(secs(120));
    // The joiner is established and holds the full job history.
    let j = c
        .world
        .proc_ref::<joshua_core::JoshuaServer>(newcomer)
        .unwrap();
    assert!(j.is_established(), "joiner must finish state transfer");
    assert_eq!(j.pbs().jobs_in_order().count(), 6);
    assert_eq!(j.stats().snapshots_installed, 1);
    assert_eq!(c.assert_replicas_consistent(), 3);
    // And it participates in ordering new work.
    c.spawn_client(workload::burst(3));
    c.run_until(secs(240));
    assert_eq!(c.take_records().len(), 3);
    assert_eq!(c.joshua(0).pbs().jobs_in_order().count(), 9);
    assert_eq!(c.assert_replicas_consistent(), 3);
}

#[test]
fn crash_then_replace_then_crash_again() {
    // Sustained availability through a rolling sequence of failures and
    // replacements (the paper's replacement-of-failed-heads scenario).
    let mut c = joshua(3);
    c.spawn_client(workload::burst(30));
    let n0 = c.head_nodes[0];
    c.world.schedule_at(secs(2), move |w| w.crash_node(n0));
    c.run_until(secs(90));
    let _ = c.add_joshua_head();
    c.run_until(secs(150));
    let n1 = c.head_nodes[1];
    c.world.schedule_at(secs(151), move |w| w.crash_node(n1));
    c.run_until(secs(400));
    let records = c.take_records();
    assert_eq!(
        records.len(),
        30,
        "service continuity across the whole sequence"
    );
    assert_eq!(c.total_real_runs(), 30);
    assert!(c.assert_replicas_consistent() >= 2);
}

#[test]
fn qdel_and_qstat_through_replication() {
    let mut c = joshua(2);
    let mut script = workload::burst_with_runtime(2, SimDuration::from_secs(500));
    script.push(ServerCmd::Qdel(jrs_pbs::JobId(1)));
    script.push(ServerCmd::Qstat(None));
    c.spawn_client(script);
    c.run_until(secs(120));
    let records = c.take_records();
    assert_eq!(records.len(), 4);
    let CmdReply::Status(rows) = &records[3].reply else {
        panic!("expected status reply, got {:?}", records[3].reply);
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].state, 'C', "deleted job must be complete");
    // Job 2 got the freed cluster.
    assert_eq!(rows[1].state, 'R');
    assert_eq!(c.assert_replicas_consistent(), 2);
}

#[test]
fn ids_outside_the_job_table_are_unknown_on_every_head() {
    // A head finds a job at index `id - 1`: id 0 and the next id to be
    // handed out must name no job, never a neighbour's row.
    let mut c = joshua(3);
    let verbs: [fn(JobId) -> ServerCmd; 3] = [ServerCmd::Qdel, ServerCmd::Qhold, ServerCmd::Qrls];
    let hostile: Vec<(ServerCmd, CmdReply)> = [0, 4]
        .into_iter()
        .flat_map(|id| {
            verbs.map(|verb| {
                (
                    verb(JobId(id)),
                    CmdReply::Error(format!("unknown job {}", JobId(id))),
                )
            })
        })
        .collect();
    let mut script: Vec<ServerCmd> = (0..3)
        .map(|i| ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))))
        .collect();
    script.extend(hostile.iter().map(|(cmd, _)| cmd.clone()));
    c.spawn_client(script);
    c.run_until(secs(120));
    let records = c.take_records();
    let replies: Vec<&CmdReply> = records[3..].iter().map(|r| &r.reply).collect();
    let unknown: Vec<&CmdReply> = hostile.iter().map(|(_, reply)| reply).collect();
    assert_eq!(replies, unknown, "the client's replies");
    assert_eq!(c.assert_replicas_consistent(), 3);
    for i in 0..3 {
        let pbs = c.joshua(i).pbs();
        for id in [0, 4, u64::MAX] {
            assert!(pbs.job(JobId(id)).is_none(), "head {i} found job {id}");
        }
        let mut table = pbs.clone();
        for (cmd, unknown) in &hostile {
            let (reply, actions) = table.apply(secs(120), cmd);
            assert_eq!((&reply, actions.len()), (unknown, 0), "head {i}, {cmd:?}");
        }
        assert_eq!(
            table.state_hash(),
            pbs.state_hash(),
            "head {i} changed state"
        );
    }
}

#[test]
fn deterministic_runs() {
    let run = |seed: u64| {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
        cfg.seed = seed;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::burst(10));
        c.run_until(secs(120));
        let lat: Vec<u64> = c
            .take_records()
            .iter()
            .map(|r| r.latency.as_nanos())
            .collect();
        (lat, c.world.events_processed())
    };
    assert_eq!(run(7), run(7));
}
