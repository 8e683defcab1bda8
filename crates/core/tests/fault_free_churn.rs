//! ROADMAP item 1(a) and 1(b): a fault-free group must not change its
//! membership, nor resend what its peers received, nor stop answering
//! under load. Nothing crashes, no frame is dropped, no partition is set,
//! so every view change or ejection here is a live member suspected by its
//! peers, and every retransmission is a frame whose ack had not left when
//! `rto` expired.
//!
//! Observed at the time of writing (seed 2006):
//! - 1(a), token form (the runs `ablation_ordering -- 50` prints as its `4`
//!   rows): the four token heads install 217 views and eject members 133
//!   times in total, and all 50 submissions are still answered;
//! - 1(a), sequencer form (same runs): the four sequencer heads install no
//!   view and eject no one, but retransmit about 13.7k link frames in
//!   total, against about 3.8k link data frames sent;
//! - 1(b), 16 clients of 50 submissions each on four sequencer heads: 32
//!   of the 800 are answered in 600 sim s, while the heads install 304
//!   views, eject members 104 times and retransmit about 823k link frames
//!   in total.
//!
//! All three tests are ignored until item 1's fix lands;
//! `cargo test -p joshua-core --test fault_free_churn -- --ignored` runs
//! them, and they fail with those counts.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::{workload, JoshuaServer};
use jrs_gcs::{EngineKind, GroupStats};
use jrs_sim::{SimDuration, SimTime};

const JOBS: usize = 50;

/// Each live head's group counters.
fn group_stats(cluster: &Cluster) -> Vec<GroupStats> {
    cluster
        .heads
        .iter()
        .filter_map(|&p| cluster.world.proc_ref::<JoshuaServer>(p))
        .map(JoshuaServer::group_stats)
        .collect()
}

/// 50 serial submissions on four fault-free heads running `engine`; every
/// one must be answered. Returns each head's group counters.
fn four_heads_fifty_serial_submissions(engine: EngineKind) -> Vec<GroupStats> {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
    cfg.seed = 2006;
    cfg.group.engine = engine;
    let mut cluster = Cluster::build(cfg);
    cluster.spawn_client(workload::burst(JOBS));
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs((JOBS as u64 + 10) * 5));
    assert_eq!(
        cluster.take_records().len(),
        JOBS,
        "every submission is answered"
    );
    group_stats(&cluster)
}

#[test]
#[ignore = "ROADMAP item 1(a)"]
fn token_four_heads_fifty_serial_submissions_keep_one_view() {
    let (views, ejections) = four_heads_fifty_serial_submissions(EngineKind::Token)
        .iter()
        .fold((0, 0), |(v, e), g| (v + g.view_changes, e + g.ejections));
    assert_eq!(
        (views, ejections),
        (0, 0),
        "a fault-free token group changed views {views} times and ejected members {ejections} times"
    );
}

#[test]
#[ignore = "ROADMAP item 1"]
fn sequencer_four_heads_fifty_serial_submissions_retransmit_nothing() {
    let retransmissions: u64 = four_heads_fifty_serial_submissions(EngineKind::Sequencer)
        .iter()
        .map(|g| g.retransmissions)
        .sum();
    assert_eq!(
        retransmissions, 0,
        "a fault-free sequencer group retransmitted {retransmissions} link frames"
    );
}

#[test]
#[ignore = "ROADMAP item 1(b)"]
fn sequencer_four_heads_sixteen_clients_answer_every_submission() {
    const CLIENTS: usize = 16;
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
    cfg.seed = 2006;
    let mut cluster = Cluster::build(cfg);
    // A runaway guard, far above what a healthy run needs.
    cluster.world.set_max_events(20_000_000);
    for _ in 0..CLIENTS {
        cluster.spawn_client(workload::burst(JOBS));
    }
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let answered = cluster.take_records().len();
    let (views, ejections, retransmissions) = group_stats(&cluster)
        .iter()
        .fold((0, 0, 0), |(v, e, r), g| {
            (v + g.view_changes, e + g.ejections, r + g.retransmissions)
        });
    assert_eq!(
        answered,
        CLIENTS * JOBS,
        "{answered} of {} submissions answered in 600 sim s; the heads changed views {views} \
         times, ejected members {ejections} times and retransmitted {retransmissions} link frames",
        CLIENTS * JOBS
    );
}
