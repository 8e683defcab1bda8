//! E5 — ordering-engine ablation: submission latency under the fixed
//! sequencer (ISIS-style, JOSHUA default) vs. the rotating token
//! (Totem-style, closer to what Totem/Spread-era systems did), across
//! head-node counts.
//!
//! The paper names Spread and Ensemble as candidate Transis replacements;
//! this ablation quantifies what the ordering mechanism costs.
//!
//! The run is fault-free, so no view should ever change: the `views` and
//! `eject` columns (summed over the heads) show when the group suspected
//! live members anyway, which is then what the latency columns measure.
//! A sequencer row with either above zero fails the run; token rows are
//! printed only (DESIGN.md section 6: token x4 churns).

use joshua_core::cluster::HaMode;
use jrs_bench::experiments::latency_experiment_with_engine;
use jrs_bench::report;
use jrs_gcs::EngineKind;

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    let seed = 2006u64;

    println!("E5 — ordering engine ablation ({jobs} submissions, seed {seed})");
    println!();

    let mut rows = Vec::new();
    let mut sequencer_churn = false;
    for heads in 1..=4usize {
        let seq = latency_experiment_with_engine(
            HaMode::Joshua { heads },
            jobs,
            seed,
            EngineKind::Sequencer,
        );
        let tok =
            latency_experiment_with_engine(HaMode::Joshua { heads }, jobs, seed, EngineKind::Token);
        rows.push(vec![
            heads.to_string(),
            format!("{:.0}ms", seq.mean_ms),
            format!("{:.0}ms", seq.p99_ms),
            format!("{:.0}ms", tok.mean_ms),
            format!("{:.0}ms", tok.p99_ms),
            format!("{:+.0}%", (tok.mean_ms / seq.mean_ms - 1.0) * 100.0),
            seq.views.to_string(),
            seq.ejections.to_string(),
            tok.views.to_string(),
            tok.ejections.to_string(),
        ]);
        sequencer_churn |= seq.views + seq.ejections > 0;
    }
    report::table(
        &[
            "Heads",
            "Sequencer",
            "seq p99",
            "Token",
            "tok p99",
            "Token vs Seq",
            "seq views",
            "seq eject",
            "tok views",
            "tok eject",
        ],
        &rows,
    );
    if sequencer_churn {
        eprintln!("FAIL: the sequencer group changed views in a fault-free run");
        std::process::exit(1);
    }
}
