//! Side-by-side failover behaviour of the four HA architectures from the
//! paper's Figures 1–4, under an identical head crash: single head,
//! active/standby, asymmetric active/active, and JOSHUA's symmetric
//! active/active.
//!
//! ```sh
//! cargo run --example failover_demo
//! ```

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::ha::ActiveStandbyHead;
use joshua_repro::core::workload;
use joshua_repro::sim::{SimDuration, SimTime};

const JOBS: usize = 12;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn demo(mode: HaMode) {
    println!("== {} ==", mode.label());
    let mut cluster = Cluster::build(ClusterConfig::new(mode));
    cluster.spawn_client(workload::burst_with_runtime(
        JOBS,
        SimDuration::from_secs(2),
    ));
    let victim = cluster.head_nodes[0];
    cluster
        .world
        .schedule_at(secs(1), move |w| w.crash_node(victim));
    cluster.run_until(secs(400));

    let records = cluster.take_records();
    let answered = records.len();
    let retried = records.iter().filter(|r| r.attempts > 1).count();
    let executed = cluster.total_real_runs();
    let restarted: u64 = cluster
        .heads
        .iter()
        .filter_map(|p| cluster.world.proc_ref::<ActiveStandbyHead>(*p))
        .map(|h| h.restarted_jobs)
        .sum();

    println!("  submissions answered : {answered}/{JOBS}");
    println!("  needed failover retry: {retried}");
    println!("  jobs actually run    : {executed}/{JOBS}");
    if matches!(mode, HaMode::ActiveStandby) {
        println!("  jobs restarted       : {restarted}");
    }
    let verdict = match mode {
        _ if answered < JOBS => "head crash took the whole service down",
        HaMode::ActiveStandby => "failover interrupted service; running jobs restarted",
        _ if (executed as usize) < JOBS => "service continued but the dead head's jobs are lost",
        _ => "continuous availability: nothing lost, nothing restarted",
    };
    println!("  -> {verdict}");
    println!();
}

fn main() {
    println!("Identical fault everywhere: head-0 crashes at t=1s during a {JOBS}-job burst.");
    println!();
    demo(HaMode::SingleHead);
    demo(HaMode::ActiveStandby);
    demo(HaMode::Asymmetric { heads: 2 });
    demo(HaMode::Joshua { heads: 2 });
}
