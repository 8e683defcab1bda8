//! Durable-replica-state end-to-end tests: crash → power-on → local
//! recovery → rejoin, for a single head (warm restart, delta catch-up),
//! the whole cluster (blackout, cold restart with reconciliation), and
//! the disk-fault menu (torn WAL tail, mid-log corruption).

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::workload;
use jrs_pbs::JobState;
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn durable_cfg(heads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.persist = PersistConfig::durable();
    cfg
}

/// Crash one head mid-burst, power it back on later: it recovers its
/// applied prefix from the local snapshot + WAL, rejoins the survivors
/// and fetches only the delta (no full snapshot transfer), ending with
/// the same fingerprint as the replicas that never died.
#[test]
fn warm_restart_catches_up_with_delta() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        20,
        SimDuration::from_millis(500),
    ));
    c.run_until(secs(2));
    c.crash_head(1);
    c.run_until(secs(8));
    c.restart_joshua_head(1);
    c.run_until(secs(120));

    assert_eq!(c.take_records().len(), 20);
    assert_eq!(c.total_real_runs(), 20, "exactly-once through the restart");
    assert_eq!(c.assert_replicas_consistent(), 3);

    let h1 = c.joshua(1);
    assert!(h1.is_established());
    let rec = h1.recovery_report().expect("restart went through recovery");
    assert!(rec.recovered_index > 0, "local disk vouched for a prefix");
    assert!(!rec.torn_tail_truncated);
    assert_eq!(rec.corruption_offset, None);
    let s = h1.stats();
    assert_eq!(s.catch_ups_applied, 1, "rejoined via delta, not snapshot");
    assert_eq!(s.snapshots_installed, 0);
    assert!(s.wal_records > 0, "the new life keeps logging");
    assert_eq!(h1.state_fingerprint(), c.joshua(0).state_fingerprint());
    assert_eq!(h1.applied_index(), c.joshua(0).applied_index());
    assert_eq!(c.joshua(1).pbs().count_state(JobState::Complete), 20);
}

/// Power off every head and every compute node at once, then cold-start
/// the whole cluster: the heads reconcile their recovered states (most
/// advanced wins), jobs completed before the outage stay completed (no
/// relaunch), jobs that were in flight are relaunched exactly once, and
/// the client — which kept retrying — loses nothing.
#[test]
fn full_blackout_cold_restart_recovers_every_job() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        12,
        SimDuration::from_millis(400),
    ));
    c.run_until(secs(3));
    let done_before = c.joshua(0).pbs().count_state(JobState::Complete);
    c.blackout();
    c.run_until(secs(6));
    c.cold_restart();
    c.run_until(secs(300));

    assert_eq!(
        c.take_records().len(),
        12,
        "client retries cover the outage"
    );
    assert_eq!(c.assert_replicas_consistent(), 3);
    for i in 0..3 {
        let h = c.joshua(i);
        assert!(h.is_established(), "head {i} not established");
        assert!(h.recovery_report().is_some(), "head {i} skipped recovery");
        assert_eq!(h.pbs().count_state(JobState::Complete), 12, "head {i}");
    }
    assert_eq!(
        c.joshua(0).state_fingerprint(),
        c.joshua(1).state_fingerprint(),
        "reconciled replicas agree"
    );
    assert_eq!(
        c.joshua(1).state_fingerprint(),
        c.joshua(2).state_fingerprint(),
        "reconciled replicas agree"
    );
    // Completed-before-outage jobs were recovered from disk, not rerun:
    // the rebooted (state-less) moms only launched what was still open.
    let total: u64 = c.total_real_runs();
    assert_eq!(
        total,
        12 - u64::try_from(done_before).expect("fits"),
        "each unfinished job relaunched exactly once ({done_before} were already done)"
    );
}

/// A crash can tear the last WAL record (power died mid-write). Recovery
/// truncates to the last valid record, reports it, and the head still
/// rejoins and converges — the torn command is simply part of the delta
/// its peers donate.
#[test]
fn torn_wal_tail_truncated_then_delta_rejoin() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        10,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(2));
    // Arm the fault: at the next crash, the most recently fsynced file on
    // head 1's disk keeps only 4 bytes of its final write batch.
    c.world.disk_mut(c.head_nodes[1]).arm_torn_write(4);
    c.run_until(secs(3));
    c.crash_head(1);
    c.run_until(secs(8));
    c.restart_joshua_head(1);
    c.run_until(secs(120));

    assert_eq!(c.take_records().len(), 10);
    assert_eq!(c.assert_replicas_consistent(), 3);
    let h1 = c.joshua(1);
    assert!(h1.is_established());
    let rec = h1.recovery_report().expect("recovery ran");
    assert!(rec.torn_tail_truncated, "torn tail detected and truncated");
    assert!(rec.recovered_index > 0);
    assert_eq!(h1.state_fingerprint(), c.joshua(0).state_fingerprint());
    assert_eq!(c.world.disk(c.head_nodes[1]).torn_truncations, 1);
}

/// Silent media corruption in the middle of the WAL: the log cannot be
/// trusted past (or before) the bad record, so it is quarantined with the
/// failing offset, recovery falls back to the snapshot alone, and the
/// peers make up the difference.
#[test]
fn corrupt_wal_quarantined_then_rejoin() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        10,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(4));
    c.crash_head(1);
    c.run_until(secs(5));
    // Flip a byte early in the log, well inside the first records.
    let node = c.head_nodes[1];
    assert!(c.world.disk_mut(node).corrupt_byte("joshua.wal", 12));
    c.restart_joshua_head(1);
    c.run_until(secs(120));

    assert_eq!(c.take_records().len(), 10);
    assert_eq!(c.assert_replicas_consistent(), 3);
    let h1 = c.joshua(1);
    assert!(h1.is_established());
    let rec = h1.recovery_report().expect("recovery ran");
    assert!(
        rec.corruption_offset.is_some(),
        "corruption detected with offset"
    );
    assert_eq!(h1.state_fingerprint(), c.joshua(0).state_fingerprint());
    // The damaged log was moved aside, and the new life started a clean one.
    assert!(c.world.disk(node).exists("joshua.wal.corrupt"));
}

/// Regression: powering a node back on WITHOUT restarting its processes
/// (a revived machine whose daemons stay down) must not wedge the
/// surviving group — the dead head stays ejected and the survivors keep
/// serving.
#[test]
fn revive_without_restart_does_not_wedge_survivors() {
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 3 }));
    c.spawn_client(workload::burst_with_runtime(
        10,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(1));
    c.crash_head(2);
    c.run_until(secs(4));
    // Node powers back on, but no daemon is started on it.
    c.world.revive_node(c.head_nodes[2]);
    c.run_until(secs(120));

    assert_eq!(c.take_records().len(), 10, "survivors keep serving");
    assert_eq!(c.total_real_runs(), 10);
    assert_eq!(c.assert_replicas_consistent(), 2);
    assert!(c.joshua(0).is_established());
    assert!(c.joshua(1).is_established());
}

/// A restarted head whose disk stalls must not announce an incarnation it
/// could not make durable and then forget it: the life after its next
/// crash would rejoin with one its peers already saw and be ignored for
/// good. Head 1 restarts onto a stalled disk, joins (announcing its new
/// incarnation), crashes before the stall ends, and restarts again; it
/// must rejoin and converge.
#[test]
fn incarnation_survives_a_stalled_disk_across_two_restarts() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        10,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(2));
    c.crash_head(1);
    c.world.disk_mut(c.head_nodes[1]).stall_until(secs(30));
    c.run_until(secs(4));
    c.restart_joshua_head(1);
    c.run_until(secs(10));
    c.crash_head(1);
    c.run_until(secs(12));
    c.restart_joshua_head(1);
    c.run_until(secs(300));

    assert_eq!(c.take_records().len(), 10);
    let h1 = c.joshua(1);
    assert!(
        h1.is_established(),
        "head 1 never rejoined after its second restart"
    );
    assert_eq!(c.assert_replicas_consistent(), 3);
    assert_eq!(h1.state_fingerprint(), c.joshua(0).state_fingerprint());
}
