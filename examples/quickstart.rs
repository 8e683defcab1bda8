//! Quickstart: build a 2-head JOSHUA cluster on the simulated testbed,
//! submit jobs, kill a head node mid-run, and watch the service continue
//! without interruption or state loss.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::workload;
use joshua_repro::pbs::{CmdReply, JobState};
use joshua_repro::sim::{SimDuration, SimTime};

fn main() {
    // Two symmetric active/active head nodes, two compute nodes, a
    // Fast-Ethernet-hub network — the paper's testbed in miniature.
    let mut cluster = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 2 }));

    // A user on the login node submits ten jobs back to back (jsub).
    cluster.spawn_client(workload::burst(10));

    // Pull the power on head-0 one second in (mid-burst).
    let victim = cluster.head_nodes[0];
    cluster
        .world
        .schedule_at(SimTime::ZERO + SimDuration::from_secs(1), move |w| {
            println!("!! head-0 crashes now");
            w.crash_node(victim);
        });

    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(180));

    // Every submission was acknowledged — some after a transparent
    // failover retry.
    let records = cluster.take_records();
    println!("submissions answered: {}/10", records.len());
    for r in &records {
        let CmdReply::Submitted(id) = &r.reply else {
            continue;
        };
        println!(
            "  job {id}: latency {:>7.1}ms, attempts {}",
            r.latency.as_millis_f64(),
            r.attempts
        );
    }

    // The surviving head holds all ten jobs; each ran exactly once.
    let survivor = cluster.joshua(1);
    println!(
        "survivor view: {:?}, jobs complete: {}/10, real executions: {}",
        survivor.view().members,
        survivor.pbs().count_state(JobState::Complete),
        cluster.total_real_runs()
    );
    assert_eq!(records.len(), 10);
    assert_eq!(cluster.total_real_runs(), 10);
    println!("continuous availability: no interruption, no lost state ✓");
}
