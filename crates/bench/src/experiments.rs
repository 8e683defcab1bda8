//! Experiment runners shared by the table binaries. Each runs a full
//! virtual cluster and returns the measured figures; all runs are
//! deterministic for a given seed.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use joshua_core::JoshuaServer;
use jrs_gcs::EngineKind;
use jrs_sim::metrics::DurationHistogram;
use jrs_sim::{SimDuration, SimTime};

/// One row of the Figure 10 (submission latency) table.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// System label.
    pub label: String,
    /// Head-node count.
    pub heads: usize,
    /// Mean submission latency (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Samples.
    pub count: usize,
    /// Views installed after start-up, summed over the JOSHUA heads (none
    /// in a fault-free run unless the group suspects a live member).
    pub views: u64,
    /// Times a JOSHUA head ejected itself and rejoined, summed likewise.
    pub ejections: u64,
}

/// One row of the Figure 11 (submission throughput) table.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// System label.
    pub label: String,
    /// Head-node count.
    pub heads: usize,
    /// Batch size → total wall time (s), in batch order.
    pub totals_s: Vec<(usize, f64)>,
}

fn build(mode: HaMode, seed: u64, engine: EngineKind) -> Cluster {
    let mut cfg = ClusterConfig::new(mode);
    cfg.seed = seed;
    cfg.group.engine = engine;
    Cluster::build(cfg)
}

/// Measure per-submission latency for `jobs` back-to-back trivial
/// submissions (the paper's Figure 10 workload).
pub fn latency_experiment(mode: HaMode, jobs: usize, seed: u64) -> LatencyRow {
    latency_experiment_with_engine(mode, jobs, seed, EngineKind::Sequencer)
}

/// Latency experiment with an explicit ordering engine (E5 ablation).
pub fn latency_experiment_with_engine(
    mode: HaMode,
    jobs: usize,
    seed: u64,
    engine: EngineKind,
) -> LatencyRow {
    let mut cluster = build(mode, seed, engine);
    cluster.spawn_client(workload::burst(jobs));
    // Generous horizon: jobs * (latency + execution) with slack.
    let horizon = SimTime::ZERO + SimDuration::from_secs((jobs as u64 + 10) * 5);
    cluster.run_until(horizon);
    let records = cluster.take_records();
    assert_eq!(
        records.len(),
        jobs,
        "{}: only {}/{} submissions answered",
        mode.label(),
        records.len(),
        jobs
    );
    let mut h = DurationHistogram::new();
    for r in &records {
        h.record(r.latency);
    }
    let s = h.summary();
    let (views, ejections) = cluster
        .heads
        .iter()
        .filter_map(|&p| cluster.world.proc_ref::<JoshuaServer>(p))
        .map(JoshuaServer::group_stats)
        .fold((0, 0), |(v, e), g| (v + g.view_changes, e + g.ejections));
    LatencyRow {
        label: mode.label(),
        heads: mode.head_count(),
        mean_ms: s.mean.as_millis_f64(),
        p50_ms: s.p50.as_millis_f64(),
        p99_ms: s.p99.as_millis_f64(),
        count: s.count,
        views,
        ejections,
    }
}

/// Measure total wall time to push a batch of submissions through the
/// queue (the paper's Figure 11 workload: 10/50/100 jobs).
pub fn throughput_experiment(mode: HaMode, batches: &[usize], seed: u64) -> ThroughputRow {
    let mut totals = Vec::new();
    for &batch in batches {
        let mut cluster = build(mode, seed, EngineKind::Sequencer);
        cluster.spawn_client(workload::burst(batch));
        let horizon = SimTime::ZERO + SimDuration::from_secs((batch as u64 + 10) * 5);
        cluster.run_until(horizon);
        let dones = cluster.take_dones();
        assert_eq!(
            dones.len(),
            1,
            "{}: batch {batch} did not finish",
            mode.label()
        );
        let total = dones[0].finished.since(dones[0].started);
        totals.push((batch, total.as_secs_f64()));
    }
    ThroughputRow {
        label: mode.label(),
        heads: mode.head_count(),
        totals_s: totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rows_are_deterministic() {
        let a = latency_experiment(HaMode::SingleHead, 5, 3);
        let b = latency_experiment(HaMode::SingleHead, 5, 3);
        assert_eq!(a.mean_ms, b.mean_ms);
        assert_eq!(a.count, 5);
    }

    #[test]
    fn joshua_latency_grows_with_heads() {
        let l1 = latency_experiment(HaMode::Joshua { heads: 1 }, 8, 5);
        let l2 = latency_experiment(HaMode::Joshua { heads: 2 }, 8, 5);
        let l4 = latency_experiment(HaMode::Joshua { heads: 4 }, 8, 5);
        assert!(l1.mean_ms < l2.mean_ms, "{} !< {}", l1.mean_ms, l2.mean_ms);
        assert!(l2.mean_ms < l4.mean_ms, "{} !< {}", l2.mean_ms, l4.mean_ms);
    }

    #[test]
    fn throughput_scales_with_batch() {
        let t = throughput_experiment(HaMode::SingleHead, &[5, 10], 1);
        assert_eq!(t.totals_s.len(), 2);
        assert!(t.totals_s[1].1 > t.totals_s[0].1);
    }
}
