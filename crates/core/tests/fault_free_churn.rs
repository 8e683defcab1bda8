//! ROADMAP item 1(a), token form: a fault-free group must not change its
//! membership. Nothing crashes, no frame is dropped, no partition is set,
//! so every view change or ejection here is a live member suspected by its
//! peers.
//!
//! Observed at the time of writing (seed 2006, the run
//! `ablation_ordering -- 50` prints as its `4` row): the four token heads
//! install 217 views and eject members 133 times in total, and all 50
//! submissions are still answered. The test is ignored until item 1's fix
//! lands; `cargo test -p joshua-core --test fault_free_churn -- --ignored`
//! runs it, and it fails with those counts.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::{workload, JoshuaServer};
use jrs_gcs::EngineKind;
use jrs_sim::{SimDuration, SimTime};

#[test]
#[ignore = "ROADMAP item 1(a)"]
fn token_four_heads_fifty_serial_submissions_keep_one_view() {
    const JOBS: usize = 50;
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
    cfg.seed = 2006;
    cfg.group.engine = EngineKind::Token;
    let mut cluster = Cluster::build(cfg);
    cluster.spawn_client(workload::burst(JOBS));
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs((JOBS as u64 + 10) * 5));
    assert_eq!(
        cluster.take_records().len(),
        JOBS,
        "every submission is answered"
    );

    let (views, ejections) = cluster
        .heads
        .iter()
        .filter_map(|&p| cluster.world.proc_ref::<JoshuaServer>(p))
        .map(JoshuaServer::group_stats)
        .fold((0, 0), |(v, e), g| (v + g.view_changes, e + g.ejections));
    assert_eq!(
        (views, ejections),
        (0, 0),
        "a fault-free token group changed views {views} times and ejected members {ejections} times"
    );
}
