//! E6 — HA-model comparison under the same fault: the four architectures
//! of the paper's Figures 1–4 run the same job burst and suffer the same
//! head crash at t = 3 s. Measured: commands answered, worst client-
//! visible service gap, jobs restarted (active/standby failover cost),
//! and jobs whose execution was lost entirely.
//!
//! This quantifies the paper's qualitative Section 2 comparison:
//! single-head loses the service, active/standby interrupts it and
//! restarts applications, asymmetric active/active loses the failed
//! head's queue, and JOSHUA continues without interruption.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::ha::ActiveStandbyHead;
use joshua_core::workload;
use jrs_bench::report;
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

struct Outcome {
    label: String,
    answered: usize,
    max_gap_ms: f64,
    restarted: u64,
    completed_jobs: u64,
}

fn run(mode: HaMode, jobs: usize) -> Outcome {
    let mut cfg = ClusterConfig::new(mode);
    cfg.seed = 2006;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst_with_runtime(
        jobs,
        SimDuration::from_secs(2),
    ));
    let n0 = c.head_nodes[0];
    c.world.schedule_at(secs(1), move |w| w.crash_node(n0));
    c.run_until(secs((jobs as u64 + 60) * 6));
    let raw = c.world.take_emitted::<jrs_pbs::SubmitRecord>();
    let times: Vec<SimTime> = raw.iter().map(|(t, _, _)| *t).collect();
    let max_gap_ms = times
        .windows(2)
        .map(|w| w[1].since(w[0]).as_millis_f64())
        .fold(0.0, f64::max);
    let restarted = match mode {
        HaMode::ActiveStandby => c
            .heads
            .iter()
            .filter_map(|p| c.world.proc_ref::<ActiveStandbyHead>(*p))
            .map(|h| h.restarted_jobs)
            .sum(),
        _ => 0,
    };
    Outcome {
        label: mode.label(),
        answered: raw.len(),
        max_gap_ms,
        restarted,
        completed_jobs: c.total_real_runs(),
    }
}

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);

    println!("E6 — HA model comparison ({jobs}-job burst, head-0 crash at t=1s)");
    println!();

    let modes = [
        HaMode::SingleHead,
        HaMode::ActiveStandby,
        HaMode::Asymmetric { heads: 2 },
        HaMode::Joshua { heads: 2 },
    ];
    let mut rows = Vec::new();
    for mode in modes {
        let o = run(mode, jobs);
        let verdict = if o.answered < jobs {
            "SERVICE LOST"
        } else if o.restarted > 0 {
            "INTERRUPTED, JOBS RESTARTED"
        } else if (o.completed_jobs as usize) < jobs {
            "ACCEPTED JOBS LOST"
        } else if o.max_gap_ms > 5_000.0 {
            "INTERRUPTED"
        } else {
            "CONTINUOUS"
        };
        rows.push(vec![
            o.label,
            format!("{}/{}", o.answered, jobs),
            format!("{:.1}s", o.max_gap_ms / 1000.0),
            o.restarted.to_string(),
            o.completed_jobs.to_string(),
            verdict.into(),
        ]);
    }
    report::table(
        &[
            "System",
            "Answered",
            "MaxGap",
            "Restarted",
            "RealRuns",
            "Verdict",
        ],
        &rows,
    );
}
