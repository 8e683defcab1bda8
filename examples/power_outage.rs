//! Durable replica state under the worst case the paper's architecture
//! leaves open: a machine-room power outage that takes down every head
//! node and every compute node at once.
//!
//! Each JOSHUA head keeps a checksummed WAL of applied commands plus
//! periodic snapshots on its local disk. The demo runs three acts:
//!
//! 1. **Warm restart** — one head crashes mid-burst, powers back on,
//!    recovers locally and fetches only the delta from the survivors.
//! 2. **Total blackout** — everything loses power mid-burst; on cold
//!    restart the heads reconcile their recovered states (most advanced
//!    wins), finished jobs stay finished, in-flight jobs relaunch
//!    exactly once, and the retrying client never observes data loss.
//! 3. **Torn write** — the power dies mid-WAL-append; recovery truncates
//!    to the last valid record and reports the damage.
//!
//! ```sh
//! cargo run --example power_outage
//! ```

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::config::PersistConfig;
use joshua_repro::core::workload;
use joshua_repro::pbs::JobState;
use joshua_repro::sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn durable_cluster(heads: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.persist = PersistConfig::durable();
    Cluster::build(cfg)
}

fn warm_restart() {
    println!("== act 1: one head crashes and recovers from its own disk ==");
    let mut c = durable_cluster(3);
    c.spawn_client(workload::burst_with_runtime(
        20,
        SimDuration::from_millis(500),
    ));
    c.run_until(secs(2));
    c.crash_head(1);
    c.run_until(secs(8));
    c.restart_joshua_head(1);
    c.run_until(secs(120));

    let answered = c.take_records().len();
    let h1 = c.joshua(1);
    let rec = h1.recovery_report().expect("recovery ran");
    let agree = h1.state_fingerprint() == c.joshua(0).state_fingerprint();
    println!("  submissions answered    : {answered}/20");
    println!("  jobs executed           : {}", c.total_real_runs());
    println!("  recovered from disk     : index {}", rec.recovered_index);
    println!("  WAL commands replayed   : {}", rec.wal_replayed);
    println!(
        "  delta catch-ups applied : {}",
        h1.stats().catch_ups_applied
    );
    println!("  fingerprints agree      : {agree}");
    println!(
        "  consistent replicas     : {}\n",
        c.assert_replicas_consistent()
    );
}

fn blackout() {
    println!("== act 2: total power outage, cold restart ==");
    let mut c = durable_cluster(3);
    c.spawn_client(workload::burst_with_runtime(
        12,
        SimDuration::from_millis(400),
    ));
    c.run_until(secs(3));
    let done_before = c.joshua(0).pbs().count_state(JobState::Complete);
    println!("  outage at t=3s          : {done_before}/12 jobs already complete");
    c.blackout();
    c.run_until(secs(6));
    c.cold_restart();
    c.run_until(secs(300));

    let answered = c.take_records().len();
    println!("  submissions answered    : {answered}/12 (client retried through the outage)");
    println!(
        "  jobs relaunched         : {} (finished ones were not)",
        c.total_real_runs()
    );
    for i in 0..3 {
        let h = c.joshua(i);
        let rec = h.recovery_report().expect("recovery ran");
        println!(
            "  head {i} recovery         : index {}, {} WAL commands, complete jobs now {}",
            rec.recovered_index,
            rec.wal_replayed,
            h.pbs().count_state(JobState::Complete),
        );
    }
    println!(
        "  consistent replicas     : {}\n",
        c.assert_replicas_consistent()
    );
}

fn torn_write() {
    println!("== act 3: power dies mid-WAL-append (torn write) ==");
    let mut c = durable_cluster(3);
    c.spawn_client(workload::burst_with_runtime(
        10,
        SimDuration::from_millis(300),
    ));
    c.run_until(secs(2));
    c.world.disk_mut(c.head_nodes[1]).arm_torn_write(4);
    c.run_until(secs(3));
    c.crash_head(1);
    c.run_until(secs(8));
    c.restart_joshua_head(1);
    c.run_until(secs(120));

    let answered = c.take_records().len();
    let h1 = c.joshua(1);
    let rec = h1.recovery_report().expect("recovery ran");
    println!("  submissions answered    : {answered}/10");
    println!("  torn tail truncated     : {}", rec.torn_tail_truncated);
    println!("  recovered index         : {}", rec.recovered_index);
    println!(
        "  fingerprints agree      : {}",
        h1.state_fingerprint() == c.joshua(0).state_fingerprint()
    );
    println!(
        "  consistent replicas     : {}",
        c.assert_replicas_consistent()
    );
}

fn main() {
    warm_restart();
    blackout();
    torn_write();
}
