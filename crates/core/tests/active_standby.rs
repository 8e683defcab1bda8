//! Focused tests of the active/standby baseline (the paper's Figure 2
//! architecture): checkpointing, failover detection, takeover, job
//! restarts and the staleness window.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::ha::ActiveStandbyHead;
use joshua_core::workload;
use jrs_pbs::JobState;
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn standby_cluster(checkpoint_secs: u64) -> Cluster {
    let mut cfg = ClusterConfig::new(HaMode::ActiveStandby);
    cfg.checkpoint_every = SimDuration::from_secs(checkpoint_secs);
    cfg.client_timeout = SimDuration::from_millis(800);
    Cluster::build(cfg)
}

#[test]
fn normal_operation_primary_serves_and_checkpoints() {
    let mut c = standby_cluster(2);
    c.spawn_client(workload::burst(6));
    c.run_until(secs(60));
    assert_eq!(c.take_records().len(), 6);
    let primary = c.world.proc_ref::<ActiveStandbyHead>(c.heads[0]).unwrap();
    let standby = c.world.proc_ref::<ActiveStandbyHead>(c.heads[1]).unwrap();
    assert!(primary.is_active());
    assert!(!standby.is_active());
    assert!(primary.checkpoints > 1, "periodic checkpoints must flow");
    assert!(standby.checkpoints > 1);
    // The standby's mirrored state trails the primary but holds the jobs.
    assert_eq!(standby.core().jobs_in_order().count(), 6);
}

#[test]
fn failover_restores_service_and_restarts_running_jobs() {
    let mut c = standby_cluster(2);
    c.spawn_client(workload::burst_with_runtime(8, SimDuration::from_secs(30)));
    let n0 = c.head_nodes[0];
    // Crash after a checkpoint has captured job 1 in its Running state
    // (checkpoints flow every 2 s; the burst finishes within ~0.8 s).
    c.world.schedule_at(secs(3), move |w| w.crash_node(n0));
    c.run_until(secs(600));
    let records = c.take_records();
    assert_eq!(records.len(), 8, "standby must pick the service back up");
    let standby = c.world.proc_ref::<ActiveStandbyHead>(c.heads[1]).unwrap();
    assert!(standby.is_active(), "standby must have taken over");
    assert!(
        standby.restarted_jobs >= 1,
        "the running job at crash time must restart (warm standby)"
    );
    // Everything eventually completes on the new primary.
    assert_eq!(standby.core().count_state(JobState::Complete), 8);
}

#[test]
fn stale_checkpoint_loses_recent_submissions() {
    // With a long checkpoint interval the failover rolls back to an old
    // backup — the paper's core criticism of the active/standby model.
    let mut c = standby_cluster(60); // only the initial checkpoint
    c.spawn_client(workload::burst_with_runtime(10, SimDuration::from_secs(5)));
    let n0 = c.head_nodes[0];
    c.world.schedule_at(secs(2), move |w| w.crash_node(n0));
    c.run_until(secs(600));
    let standby = c.world.proc_ref::<ActiveStandbyHead>(c.heads[1]).unwrap();
    assert!(standby.is_active());
    // Jobs acknowledged by the primary after its last checkpoint are gone
    // from the standby's world...
    let known = standby.core().jobs_in_order().count();
    assert!(
        known < 10,
        "rollback must lose post-checkpoint submissions, knows {known}"
    );
    // ...yet the client was told they were submitted: acknowledged-but-
    // lost work, which symmetric active/active can never produce.
    let acked = c.take_records().len();
    assert!(acked > known, "acked {acked} vs surviving {known}");
}

#[test]
fn joshua_has_no_staleness_window_under_same_fault() {
    // Control experiment for the test above: identical fault, JOSHUA mode.
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 2 });
    cfg.client_timeout = SimDuration::from_millis(800);
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst_with_runtime(10, SimDuration::from_secs(5)));
    let n0 = c.head_nodes[0];
    c.world.schedule_at(secs(2), move |w| w.crash_node(n0));
    c.run_until(secs(600));
    assert_eq!(c.take_records().len(), 10);
    let survivor = c.joshua(1);
    assert_eq!(
        survivor.pbs().jobs_in_order().count(),
        10,
        "no acknowledged job lost"
    );
    assert_eq!(survivor.pbs().count_state(JobState::Complete), 10);
}
