//! Workspace-level integration tests: the full stack (simulation kernel →
//! group communication → PBS substrate → JOSHUA) exercised through the
//! umbrella crate's public API, covering the paper's functional test
//! matrix end to end.

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::{workload, JoshuaServer, LeaveCmd};
use joshua_repro::pbs::{CmdReply, JobId, JobState, ServerCmd};
use joshua_repro::sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn paper_functional_matrix_in_one_run() {
    // One long scenario covering: normal operation, a crash, a voluntary
    // leave, a join, and continued operation — state consistent at every
    // surviving head throughout (paper Section 5, functional testing).
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 4 }));
    c.spawn_client(workload::burst(25));

    let crash_node = c.head_nodes[2];
    c.world
        .schedule_at(secs(2), move |w| w.crash_node(crash_node));
    let leaver = c.heads[3];
    c.world
        .schedule_at(secs(8), move |w| w.inject(leaver, LeaveCmd));
    c.run_until(secs(30));
    let _replacement = c.add_joshua_head();
    c.run_until(secs(300));

    let records = c.take_records();
    assert_eq!(
        records.len(),
        25,
        "continuous service through crash+leave+join"
    );
    assert_eq!(c.total_real_runs(), 25, "exactly-once execution");
    assert!(c.assert_replicas_consistent() >= 3);
}

#[test]
fn all_pbs_verbs_replicate() {
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 3 }));
    let script = vec![
        ServerCmd::Qsub(joshua_repro::pbs::JobSpec::with_runtime(
            "long",
            SimDuration::from_secs(600),
        )),
        ServerCmd::Qsub(joshua_repro::pbs::JobSpec::trivial("queued")),
        ServerCmd::Qhold(JobId(2)),
        ServerCmd::Qstat(None),
        ServerCmd::Qrls(JobId(2)),
        ServerCmd::Qdel(JobId(1)),
        ServerCmd::Qstat(Some(JobId(1))),
    ];
    c.spawn_client(script);
    c.run_until(secs(120));
    let records = c.take_records();
    assert_eq!(records.len(), 7);
    assert!(matches!(records[2].reply, CmdReply::Held(JobId(2))));
    assert!(matches!(records[4].reply, CmdReply::Released(JobId(2))));
    assert!(matches!(records[5].reply, CmdReply::Deleted(JobId(1))));
    let CmdReply::Status(rows) = &records[6].reply else {
        panic!("qstat reply: {:?}", records[6].reply)
    };
    assert_eq!(rows[0].state, 'C');
    assert_eq!(c.assert_replicas_consistent(), 3);
    // The paper's prototype could not hold/release on joining replicas —
    // ours can: add a joiner and verify it sees the held/released history.
    let newcomer = c.add_joshua_head();
    c.run_until(secs(240));
    let j = c.world.proc_ref::<JoshuaServer>(newcomer).unwrap();
    assert!(j.is_established());
    assert_eq!(j.pbs().jobs_in_order().count(), 2);
    assert_eq!(c.assert_replicas_consistent(), 4);
}

#[test]
fn mom_obituary_bug_reproduction() {
    // With the paper's TORQUE bug enabled, a head crash can leave the
    // other heads with a job stuck in Running — exactly the defect the
    // paper reported to the TORQUE developers.
    let run = |bug: bool| {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 2 });
        cfg.mom_obituary_bug = bug;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::burst_with_runtime(3, SimDuration::from_secs(10)));
        // Crash head-0 (the first job's launch owner) while job 1 runs.
        let n0 = c.head_nodes[0];
        c.world.schedule_at(secs(3), move |w| w.crash_node(n0));
        c.run_until(secs(300));
        let stuck = c.joshua(1).pbs().count_state(JobState::Running)
            + c.joshua(1).pbs().count_state(JobState::Queued);
        (c.take_records().len(), stuck)
    };
    let (answered_fixed, stuck_fixed) = run(false);
    assert_eq!(answered_fixed, 3);
    assert_eq!(stuck_fixed, 0, "fixed moms report to every head");
    let (answered_bug, stuck_bug) = run(true);
    assert_eq!(answered_bug, 3, "submissions still work");
    assert!(
        stuck_bug > 0,
        "with the obituary bug, jobs owned by the dead head stay stuck"
    );
}

#[test]
fn high_throughput_hundred_jobs_four_heads() {
    // The paper's throughput scenario at full scale: 100 jobs, 4 heads.
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 4 }));
    c.spawn_client(workload::burst(100));
    c.run_until(secs(600));
    let dones = c.take_dones();
    assert_eq!(dones.len(), 1);
    let total = dones[0].finished.since(dones[0].started).as_secs_f64();
    // Paper: 33.32 s. Accept a generous band around it.
    assert!(
        (25.0..45.0).contains(&total),
        "100 jobs on 4 heads took {total:.1}s, expected ≈33s"
    );
    assert_eq!(c.total_real_runs(), 100);
    assert_eq!(c.assert_replicas_consistent(), 4);
}

#[test]
fn long_soak_with_failures_and_rejoins() {
    // The paper's Transis crashed after days of heavy traffic; our GCS
    // must survive a sustained stream with periodic membership churn.
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
    cfg.seed = 77;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(150));
    let n1 = c.head_nodes[1];
    c.world.schedule_at(secs(10), move |w| w.crash_node(n1));
    c.run_until(secs(60));
    let _ = c.add_joshua_head();
    c.run_until(secs(900));
    let records = c.take_records();
    assert_eq!(records.len(), 150);
    assert_eq!(c.total_real_runs(), 150);
    assert!(c.assert_replicas_consistent() >= 2);
}

#[test]
fn deterministic_full_cluster_runs() {
    let run = |seed| {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 2 });
        cfg.seed = seed;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::mixed(20, 5));
        let n0 = c.head_nodes[0];
        c.world.schedule_at(secs(2), move |w| w.crash_node(n0));
        c.run_until(secs(200));
        let lat: Vec<u64> = c
            .take_records()
            .iter()
            .map(|r| r.latency.as_nanos())
            .collect();
        (lat, c.world.events_processed())
    };
    assert_eq!(run(9), run(9), "same seed, same universe");
}
