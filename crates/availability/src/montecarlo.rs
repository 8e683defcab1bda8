//! Monte Carlo validation of the availability analysis: simulate years of
//! exponential failure/repair processes on `n` head nodes and measure the
//! fraction of time at least one is up. Also models the paper's caveat —
//! **correlated failures** (rack/room outages taking all heads down at
//! once), which the analytic Eq. 2 cannot capture.
//!
//! Trials are independent and run in parallel with scoped threads.

use crate::analytic::NodeReliability;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Monte Carlo configuration.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Node failure/repair distribution means.
    pub node: NodeReliability,
    /// Number of redundant head nodes.
    pub nodes: u32,
    /// Simulated span per trial, in hours (e.g. 50 years = 438 000).
    pub span_hours: f64,
    /// Independent trials (averaged).
    pub trials: u32,
    /// RNG seed.
    pub seed: u64,
    /// Mean time between correlated whole-rack failures (hours);
    /// `f64::INFINITY` disables them.
    pub correlated_mttf_hours: f64,
    /// Restore time after a correlated failure (hours).
    pub correlated_mttr_hours: f64,
}

impl McConfig {
    /// Paper parameters, no correlated failures.
    pub fn paper(nodes: u32) -> Self {
        McConfig {
            node: NodeReliability::paper(),
            nodes,
            span_hours: 50.0 * 8760.0,
            trials: 8,
            seed: 2006,
            correlated_mttf_hours: f64::INFINITY,
            correlated_mttr_hours: 24.0,
        }
    }
}

/// Result of a Monte Carlo run.
#[derive(Clone, Copy, Debug)]
pub struct McResult {
    /// Measured service availability.
    pub availability: f64,
    /// Measured downtime fraction converted to hours/year.
    pub downtime_hours_per_year: f64,
    /// Total simulated hours across trials.
    pub simulated_hours: f64,
    /// Number of complete-outage episodes observed.
    pub outages: u64,
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    // Inverse CDF; guard the log against u == 0.
    let u: f64 = rng.random::<f64>().max(1e-12);
    -mean * u.ln()
}

/// Event-driven single trial: per-node alternating up/down renewal
/// processes plus an optional correlated killer; integrate the time during
/// which zero nodes are up.
fn run_trial(cfg: &McConfig, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.nodes as usize;
    // next_flip[i]: when node i changes state; up[i]: current state.
    let mut up = vec![true; n];
    let mut next_flip: Vec<f64> = (0..n)
        .map(|_| sample_exp(&mut rng, cfg.node.mttf_hours))
        .collect();
    let mut next_corr = if cfg.correlated_mttf_hours.is_finite() {
        sample_exp(&mut rng, cfg.correlated_mttf_hours)
    } else {
        f64::INFINITY
    };
    let mut t = 0.0f64;
    let mut down_time = 0.0f64;
    let mut outages = 0u64;
    let mut all_down_since: Option<f64> = None;
    while t < cfg.span_hours {
        // Next event: earliest node flip or correlated failure.
        let (i_min, &t_node) = next_flip
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("at least one node");
        let t_next = t_node.min(next_corr).min(cfg.span_hours);
        t = t_next;
        if t >= cfg.span_hours {
            break;
        }
        if next_corr <= t_node {
            // Correlated failure: everything down, repairs staggered.
            for i in 0..n {
                up[i] = false;
                next_flip[i] = t + sample_exp(&mut rng, cfg.correlated_mttr_hours);
            }
            next_corr = t + sample_exp(&mut rng, cfg.correlated_mttf_hours);
        } else {
            let i = i_min;
            up[i] = !up[i];
            let mean = if up[i] {
                cfg.node.mttf_hours
            } else {
                cfg.node.mttr_hours
            };
            next_flip[i] = t + sample_exp(&mut rng, mean);
        }
        let any_up = up.iter().any(|&u| u);
        match (any_up, all_down_since) {
            (false, None) => {
                all_down_since = Some(t);
                outages += 1;
            }
            (true, Some(since)) => {
                down_time += t - since;
                all_down_since = None;
            }
            _ => {}
        }
    }
    if let Some(since) = all_down_since {
        down_time += cfg.span_hours - since;
    }
    (down_time, outages)
}

/// Run the Monte Carlo: `trials` independent spans, in parallel.
pub fn run(cfg: &McConfig) -> McResult {
    let results: Vec<(f64, u64)> = if cfg.trials <= 1 {
        vec![run_trial(cfg, cfg.seed)]
    } else {
        let mut results = vec![(0.0, 0); cfg.trials as usize];
        std::thread::scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                let cfg = *cfg;
                s.spawn(move || {
                    *slot = run_trial(&cfg, cfg.seed.wrapping_add(i as u64 * 7919));
                });
            }
        });
        results
    };
    let total_hours = cfg.span_hours * cfg.trials.max(1) as f64;
    let down: f64 = results.iter().map(|(d, _)| d).sum();
    let outages: u64 = results.iter().map(|(_, o)| o).sum();
    let availability = 1.0 - down / total_hours;
    McResult {
        availability,
        downtime_hours_per_year: (down / total_hours) * 8760.0,
        simulated_hours: total_hours,
        outages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::parallel_availability;

    #[test]
    fn single_node_matches_analytic() {
        let mut cfg = McConfig::paper(1);
        cfg.trials = 4;
        cfg.span_hours = 20.0 * 8760.0;
        let r = run(&cfg);
        let expected = NodeReliability::paper().availability();
        assert!(
            (r.availability - expected).abs() < 0.01,
            "MC {} vs analytic {}",
            r.availability,
            expected
        );
        assert!(r.outages > 0);
    }

    #[test]
    fn two_nodes_match_analytic() {
        let mut cfg = McConfig::paper(2);
        cfg.trials = 8;
        cfg.span_hours = 200.0 * 8760.0; // rare double faults need time
        let r = run(&cfg);
        let expected = parallel_availability(NodeReliability::paper(), 2);
        assert!(
            (r.availability - expected).abs() < 5e-4,
            "MC {} vs analytic {}",
            r.availability,
            expected
        );
    }

    #[test]
    fn redundancy_reduces_downtime() {
        let run_n = |n| {
            let mut cfg = McConfig::paper(n);
            cfg.span_hours = 50.0 * 8760.0;
            cfg.trials = 4;
            run(&cfg)
        };
        let r1 = run_n(1);
        let r2 = run_n(2);
        assert!(r2.downtime_hours_per_year < r1.downtime_hours_per_year / 10.0);
    }

    #[test]
    fn correlated_failures_floor_the_availability() {
        // The paper's caveat: with rack-level correlated failures, adding
        // heads stops helping — Eq. 2 becomes wildly optimistic.
        let mk = |n: u32| {
            let mut cfg = McConfig::paper(n);
            cfg.correlated_mttf_hours = 5000.0; // rack dies as often as a node
            cfg.correlated_mttr_hours = 24.0;
            cfg.span_hours = 50.0 * 8760.0;
            cfg.trials = 4;
            run(&cfg)
        };
        let r2 = mk(2);
        let r4 = mk(4);
        let analytic4 = parallel_availability(NodeReliability::paper(), 4);
        // 4-node MC with correlated failures sits orders of magnitude
        // below the analytic 7-nines promise: the rack outage floor
        // (~24h per ~5000h) dominates.
        assert!(analytic4 > 0.9999999);
        assert!(
            r4.availability < 0.999,
            "correlated failures must cap availability, got {}",
            r4.availability
        );
        // And the marginal benefit of 2 extra heads nearly vanishes
        // compared to the first head's (~1.4e-2 → ~2e-4 analytic jump).
        let gain = r4.availability - r2.availability;
        assert!(gain.abs() < 0.005, "gain {gain} should be marginal");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = McConfig {
            trials: 2,
            span_hours: 8760.0,
            ..McConfig::paper(2)
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.outages, b.outages);
    }
}
