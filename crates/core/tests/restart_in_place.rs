//! ROADMAP item 1(c): a head restarted in place must rejoin. Three heads,
//! seed 2006; head 0 crashes at 5 s and `Cluster::restart_joshua_head`
//! boots a fresh daemon under its process id at 10 s. Nothing else fails.
//!
//! While the engine made rank 0 of a view its sequencer, the restarted
//! head 0 ordered frames that reached the flush coordinator, head 1,
//! before head 1 had installed the view; they were dropped and the total
//! order stopped. Then head 0 was not established at 60 s, and one
//! `burst(40)` client got 31 of its 40 submissions answered. The leader of
//! a view is now the coordinator that installed it, which installs last.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::workload;
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Three heads; `client` submissions from one client started at 0 s;
/// head 0 crashes at 5 s and is restarted in place at 10 s. Runs to 60 s.
fn restart_head_zero(persist: PersistConfig, client: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
    cfg.seed = 2006;
    cfg.persist = persist;
    let mut cluster = Cluster::build(cfg);
    // A runaway guard, far above what a healthy run needs.
    cluster.world.set_max_events(20_000_000);
    if client > 0 {
        cluster.spawn_client(workload::burst(client));
    }
    cluster.run_until(secs(5));
    cluster.crash_head(0);
    cluster.run_until(secs(10));
    cluster.restart_joshua_head(0);
    cluster.run_until(secs(60));
    cluster
}

fn assert_every_head_established(cluster: &Cluster) {
    let established: Vec<bool> = (0..cluster.heads.len())
        .map(|i| cluster.joshua(i).is_established())
        .collect();
    assert!(
        established.iter().all(|e| *e),
        "established at 60 s, by head: {established:?}"
    );
}

#[test]
fn idle_diskless_head_zero_rejoins() {
    assert_every_head_established(&restart_head_zero(PersistConfig::default(), 0));
}

#[test]
fn idle_durable_head_zero_rejoins() {
    assert_every_head_established(&restart_head_zero(PersistConfig::durable(), 0));
}

#[test]
fn head_zero_restarted_under_traffic_answers_every_submission() {
    const JOBS: usize = 40;
    let mut cluster = restart_head_zero(PersistConfig::default(), JOBS);
    let answered = cluster.take_records().len();
    assert_eq!(
        answered,
        JOBS,
        "{answered} of {JOBS} submissions answered in {} kernel events",
        cluster.world.events_processed()
    );
}
