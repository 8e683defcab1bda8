//! Durable-replica-state end-to-end tests: crash → power-on → local
//! recovery → rejoin, for a single head (warm restart, delta catch-up),
//! the whole cluster (blackout, cold restart with reconciliation), and
//! the disk-fault menu (torn WAL tail, mid-log corruption, torn or
//! corrupted snapshots beside a compacted log).

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::persist::HeadStore;
use joshua_core::persist::RING_CAPACITY;
use joshua_core::workload;
use jrs_pbs::JobState;
use jrs_sim::{SimDuration, SimTime};
use jrs_store::{SnapshotStore, Wal};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn durable_cfg(heads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.persist = PersistConfig::durable();
    cfg
}

/// The indices of the records in head `i`'s WAL.
fn wal_indices(c: &Cluster, i: usize) -> Vec<u64> {
    let replay = Wal::new("joshua.wal").replay(c.world.disk(c.head_nodes[i]));
    let entries = replay.expect("an undamaged log").entries;
    entries.iter().map(|(idx, _)| *idx).collect()
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

/// The index of the newest valid snapshot on head `i`'s disk.
fn newest_snapshot(c: &Cluster, i: usize) -> Option<u64> {
    let disk = c.world.disk(c.head_nodes[i]);
    HeadStore::new().load_snapshot(disk).map(|(idx, _)| idx)
}

/// Run until each of the first `heads` heads has applied the first
/// snapshot index past `after` and written that snapshot, with no record
/// logged after it, so an armed torn write would fall on the snapshot.
/// Returns the index.
fn run_to_a_landed_snapshot(c: &mut Cluster, heads: usize, after: u64) -> u64 {
    let every = PersistConfig::durable().snapshot_every;
    let at = (after / every + 1) * every;
    loop {
        let applied: Vec<u64> = (0..heads).map(|i| c.joshua(i).applied_index()).collect();
        if applied.iter().all(|a| *a == at) {
            break;
        }
        assert!(
            applied.iter().all(|a| *a <= at),
            "stepped past {at}: {applied:?}"
        );
        assert!(c.world.now() < secs(300), "never reached {at}");
        let near = applied.iter().any(|a| a + 2 >= at);
        c.run_for(SimDuration::from_micros(if near { 10 } else { 5_000 }));
    }
    for i in 0..heads {
        assert_eq!(newest_snapshot(c, i), Some(at), "head {i}'s snapshot");
        assert_eq!(wal_indices(c, i).last(), Some(&at), "head {i}'s log");
    }
    at
}

/// Run until head `i`'s log has been compacted: it no longer starts at
/// the first command.
fn run_to_a_compacted_log(c: &mut Cluster, i: usize) {
    while wal_indices(c, i).first().is_none_or(|first| *first == 1) {
        assert!(
            c.world.now() < secs(100),
            "head {i}'s log was never compacted"
        );
        c.run_for(SimDuration::from_millis(5));
    }
}

/// Arm a torn write on each of the first `heads` heads' disks, which
/// falls on the snapshot that just landed at `at`, and crash them all.
/// The older snapshot, `every` commands back, is then the newest valid.
fn tear_the_snapshots_at(c: &mut Cluster, heads: usize, at: u64) {
    for i in 0..heads {
        c.world.disk_mut(c.head_nodes[i]).arm_torn_write(16);
    }
    c.blackout();
    let older = at.checked_sub(PersistConfig::durable().snapshot_every);
    for i in 0..heads {
        assert_eq!(newest_snapshot(c, i), older.filter(|o| *o > 0), "head {i}");
    }
}

/// A head's first snapshot, torn as it lands, is rescued by the log,
/// which is compacted only once an older snapshot lies behind it: until
/// then it still reaches back to the first command.
#[test]
fn a_torn_first_snapshot_is_rescued_by_the_whole_log() {
    let mut c = Cluster::build(durable_cfg(1));
    c.spawn_client(workload::burst(100));
    let at = run_to_a_landed_snapshot(&mut c, 1, 0);
    assert_eq!(wal_indices(&c, 0), (1..=at).collect::<Vec<u64>>());
    let pre_fingerprint = c.joshua(0).state_fingerprint();
    tear_the_snapshots_at(&mut c, 1, at);
    c.restart_joshua_head(0);
    c.run_for(SimDuration::from_secs(5));

    let h = c.joshua(0);
    let rec = h.recovery_report().expect("restart went through recovery");
    assert_eq!(rec.recovered_index, at, "the log alone rebuilt the state");
    assert_eq!(rec.wal_replayed, usize::try_from(at).expect("fits"));
    assert_eq!(rec.recovered_fingerprint, pre_fingerprint);
    assert!(h.is_established());
}

/// A snapshot torn as it lands once the log has been compacted: the head
/// wrote it over the older of its two snapshots, so recovery falls back
/// to the other one and replays the records after it, which compaction
/// kept. With one snapshot file rewritten in place, the torn snapshot
/// would leave the log's window with no base, and a sole head would lose
/// every command it had acknowledged.
#[test]
fn a_snapshot_torn_after_compaction_falls_back_to_the_older_one() {
    let mut c = Cluster::build(durable_cfg(1));
    c.spawn_client(workload::burst(400));
    run_to_a_compacted_log(&mut c, 0);
    let applied = c.joshua(0).applied_index();
    let at = run_to_a_landed_snapshot(&mut c, 1, applied);
    let pre_fingerprint = c.joshua(0).state_fingerprint();
    tear_the_snapshots_at(&mut c, 1, at);
    c.restart_joshua_head(0);
    c.run_for(SimDuration::from_secs(5));

    let h = c.joshua(0);
    let rec = h.recovery_report().expect("restart went through recovery");
    assert_eq!(
        rec.recovered_index, at,
        "the older snapshot and its records"
    );
    assert_eq!(rec.wal_replayed, 32, "one snapshot interval replayed");
    assert_eq!(rec.recovered_fingerprint, pre_fingerprint);
    assert!(h.is_established());
}

/// Every head snapshots at the same index, so one blackout right after
/// that index can tear all their snapshots at once. Each head still
/// recovers the whole state from its own disk, and the cluster serves the
/// rest of the script.
#[test]
fn a_blackout_tearing_every_heads_snapshot_recovers_locally() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst(400));
    run_to_a_compacted_log(&mut c, 0);
    let applied = c.joshua(0).applied_index();
    let at = run_to_a_landed_snapshot(&mut c, 3, applied);
    let pre_fingerprint = c.joshua(0).state_fingerprint();
    tear_the_snapshots_at(&mut c, 3, at);
    c.run_for(SimDuration::from_secs(1));
    c.cold_restart();
    c.run_until(secs(400));

    assert_eq!(c.take_records().len(), 400);
    assert_eq!(c.assert_replicas_consistent(), 3);
    for i in 0..3 {
        let rec = c.joshua(i).recovery_report().expect("recovery ran");
        assert_eq!(
            (rec.recovered_index, rec.recovered_fingerprint),
            (at, pre_fingerprint),
            "head {i}"
        );
        assert_eq!(c.world.disk(c.head_nodes[i]).torn_truncations, 1);
    }
}

/// Silent media corruption of the newest snapshot once the log has been
/// compacted: recovery falls back to the older snapshot and the records
/// after it, so the head rejoins by a delta, as if nothing were damaged.
#[test]
fn a_corrupted_newest_snapshot_falls_back_to_the_older_one() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst(150));
    run_to_a_compacted_log(&mut c, 1);
    c.crash_head(1);
    let pre_index = c.joshua(1).applied_index();
    let pre_fingerprint = c.joshua(1).state_fingerprint();
    let newest = newest_snapshot(&c, 1).expect("a snapshot");
    let node = c.head_nodes[1];
    let slot = ["joshua.snap.0", "joshua.snap.1"]
        .into_iter()
        .find(|path| SnapshotStore::new(path).valid_index(c.world.disk(node)) == Some(newest))
        .expect("the newest snapshot's slot");
    assert!(c.world.disk_mut(node).corrupt_byte(slot, 20));
    assert!(
        newest_snapshot(&c, 1) < Some(newest),
        "the older one is next"
    );
    c.run_for(SimDuration::from_secs(1));
    c.restart_joshua_head(1);
    c.run_until(secs(300));

    assert_eq!(c.take_records().len(), 150);
    assert_eq!(c.assert_replicas_consistent(), 3);
    let h1 = c.joshua(1);
    let rec = h1.recovery_report().expect("recovery ran");
    assert_eq!(
        (rec.recovered_index, rec.recovered_fingerprint),
        (pre_index, pre_fingerprint)
    );
    let s = h1.stats();
    assert_eq!(
        (s.catch_ups_applied, s.snapshots_installed),
        (1, 0),
        "a delta"
    );
}

/// Media corruption of both snapshots once the log has been compacted is
/// the trade compaction makes: the log's window starts past the first
/// command, so the head has no local base, recovers nothing, and rejoins
/// by a full snapshot from a peer, as mid-log WAL corruption already
/// makes it do.
#[test]
fn both_snapshots_corrupted_after_compaction_rejoin_by_full_snapshot() {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst(150));
    run_to_a_compacted_log(&mut c, 1);
    c.crash_head(1);
    c.run_for(SimDuration::from_secs(1));
    let node = c.head_nodes[1];
    for slot in ["joshua.snap.0", "joshua.snap.1"] {
        assert!(c.world.disk_mut(node).corrupt_byte(slot, 20));
    }
    c.restart_joshua_head(1);
    c.run_until(secs(300));

    assert_eq!(c.take_records().len(), 150);
    assert_eq!(c.assert_replicas_consistent(), 3);
    let h1 = c.joshua(1);
    assert!(h1.is_established());
    let rec = h1.recovery_report().expect("recovery ran");
    assert_eq!(rec.recovered_index, 0, "no local base");
    assert_eq!(rec.wal_replayed, 0);
    assert_eq!(rec.corruption_offset, None, "the log itself was sound");
    let s = h1.stats();
    assert_eq!(s.snapshots_installed, 1, "rejoined by a full snapshot");
    assert_eq!(s.catch_ups_applied, 0);
    assert_eq!(h1.state_fingerprint(), c.joshua(0).state_fingerprint());
}

/// Three durable heads under three mixed scripts: at every step, each
/// head's log is a window of at most `RING_CAPACITY` plus one
/// snapshot interval of records, and once the scripts are done it still
/// holds the last `RING_CAPACITY` records, all a delta can donate.
#[test]
fn every_heads_log_stays_a_window_of_the_ring_and_one_interval() {
    let cfg = durable_cfg(3);
    let every = usize::try_from(cfg.persist.snapshot_every).expect("fits");
    let mut c = Cluster::build(cfg);
    for seed in 0..3 {
        c.spawn_client(workload::mixed(300, seed));
    }
    let mut done = 0;
    while done < 3 {
        assert!(c.world.now() < secs(600), "the scripts did not finish");
        c.run_for(SimDuration::from_millis(50));
        done += c.take_dones().len();
        for i in 0..3 {
            let held = wal_indices(&c, i).len();
            assert!(
                held <= RING_CAPACITY + every,
                "head {i}'s log holds {held} records"
            );
        }
    }
    for i in 0..3 {
        let held = wal_indices(&c, i);
        assert!(held.len() >= RING_CAPACITY, "head {i} holds {}", held.len());
        assert_eq!(held.last(), Some(&c.joshua(i).applied_index()));
    }
    assert_eq!(c.assert_replicas_consistent(), 3);
}

/// Cut the login node (the client) off with head 0 from 1 s to 20 s: under
/// the default `FailStop` policy head 0 serves the client alone, and on
/// the heal it ejects and installs the majority's state.
fn cut_off_head_0_with_the_client(c: &mut Cluster, client: jrs_sim::ProcId) {
    let (login, cut) = (c.world.node_of(client), c.head_nodes[0]);
    c.world.schedule_at(secs(1), move |w| {
        w.set_partition_group(login, 9);
        w.set_partition_group(cut, 9);
    });
    c.world
        .schedule_at(secs(20), move |w| w.network_mut().heal_partitions());
}

/// An ejected head empties its log and snapshots with its state: crashed
/// before the majority's snapshot reaches it, it recovers nothing and
/// rejoins by a full snapshot.
#[test]
fn an_ejected_head_keeps_nothing_of_its_discarded_state_on_disk() {
    let mut c = Cluster::build(durable_cfg(3));
    let client = c.spawn_client(workload::burst(40));
    cut_off_head_0_with_the_client(&mut c, client);
    while c.joshua(0).group_stats().ejections == 0 {
        assert!(c.world.now() < secs(60), "head 0 never ejected");
        c.run_for(SimDuration::from_micros(50));
    }
    assert_eq!(c.joshua(0).stats().snapshots_installed, 0);
    c.crash_head(0);
    c.run_until(secs(80));
    c.restart_joshua_head(0);
    c.run_until(secs(200));
    let rec = c.joshua(0).recovery_report().expect("recovery ran");
    assert_eq!((rec.recovered_index, rec.wal_replayed), (0, 0));
    assert_eq!(c.joshua(0).stats().snapshots_installed, 1);
    assert_eq!(c.assert_replicas_consistent(), 3);
}

/// An installed snapshot empties the head's log and snapshots first, so
/// no record of the discarded life replays on top of it. Head 0 and the
/// client are cut off together under the default `FailStop` policy; on
/// the heal head 0 ejects and installs the majority's state. It crashes,
/// more commands run without it, and it restarts: it must recover exactly
/// the state it installed and agree with the others.
#[test]
fn a_restart_after_an_install_replays_nothing_of_the_discarded_life() {
    let mut c = Cluster::build(durable_cfg(3));
    let client = c.spawn_client(workload::burst(40));
    cut_off_head_0_with_the_client(&mut c, client);
    c.run_until(secs(60));
    assert_eq!(c.joshua(0).stats().snapshots_installed, 1);
    let installed = c.joshua(0).applied_index();
    assert_eq!(
        newest_snapshot(&c, 0),
        Some(installed),
        "the install's anchor"
    );

    c.crash_head(0);
    c.spawn_client(workload::burst(15));
    c.run_until(secs(200));
    c.restart_joshua_head(0);
    c.run_until(secs(400));
    let rec = c.joshua(0).recovery_report().expect("recovery ran");
    assert_eq!((rec.recovered_index, rec.wal_replayed), (installed, 0));
    assert_eq!(c.assert_replicas_consistent(), 3);
}

/// Finding 2's schedule (ROADMAP 6(h)): head 1 restarts, and once head 0's
/// view holds it again the incarnation file was the last one fsynced. A
/// torn write then cuts that file to `keep` bytes as head 1 crashes
/// again; it restarts at 8 s. Returns whether head 1 is established at
/// 300 s with head 0's fingerprint.
fn rejoins_after_a_torn_incarnation_file(keep: u32) -> bool {
    let mut c = Cluster::build(durable_cfg(3));
    c.spawn_client(workload::burst_with_runtime(
        40,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(2));
    c.crash_head(1);
    c.run_until(secs(4));
    c.restart_joshua_head(1);
    let h1 = c.heads[1];
    while !c.joshua(0).view().members.contains(&h1) {
        assert!(c.world.now() < secs(8), "head 1 never rejoined the view");
        c.run_for(SimDuration::from_micros(50));
    }
    c.world.disk_mut(c.head_nodes[1]).arm_torn_write(keep);
    c.crash_head(1);
    c.run_until(secs(8));
    c.restart_joshua_head(1);
    c.run_until(secs(300));
    c.joshua(1).is_established()
        && c.joshua(1).state_fingerprint() == c.joshua(0).state_fingerprint()
}

/// Pin for ROADMAP 6(h): a torn write that leaves 4 bytes of the 8-byte
/// incarnation file makes recovery read incarnation 0, so the next life
/// announces one its peers have already seen, and they ignore it.
#[test]
#[ignore = "ROADMAP 6(h): a torn incarnation file keeps a head out for good"]
fn item_6h_a_torn_incarnation_file_does_not_keep_a_head_out() {
    assert!(
        rejoins_after_a_torn_incarnation_file(4),
        "head 1 never rejoined"
    );
}

/// The 6(h) pin's twin: a tear that keeps the whole 8-byte file changes
/// nothing, and head 1 rejoins.
#[test]
fn an_incarnation_file_the_tear_leaves_whole_rejoins() {
    assert!(
        rejoins_after_a_torn_incarnation_file(16),
        "head 1 never rejoined"
    );
}
