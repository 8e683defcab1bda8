//! E4 — the paper's Section 5 functional testing, as a measured matrix:
//! fault scenarios against JOSHUA clusters of 2–4 heads, asserting the
//! paper's claims — "no interruption of service and no loss of state",
//! job state "maintained consistently at all head nodes", and continuous
//! service "as long as one head node survives".
//!
//! For each scenario we report: answered submissions (of the script),
//! the worst service gap seen by the client, total real job executions
//! (exactly-once check) and whether all surviving replicas agree.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use jrs_bench::report;
use jrs_sim::{SimDuration, SimTime};

struct Outcome {
    scenario: String,
    heads: usize,
    answered: usize,
    expected: usize,
    max_gap_ms: f64,
    real_runs: u64,
    consistent: usize,
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn max_reply_gap(times: &[SimTime]) -> f64 {
    times
        .windows(2)
        .map(|w| w[1].since(w[0]).as_millis_f64())
        .fold(0.0, f64::max)
}

fn run_scenario(
    name: &str,
    heads: usize,
    jobs: usize,
    fault: impl FnOnce(&mut Cluster),
) -> Outcome {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.seed = 2006;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(jobs));
    fault(&mut c);
    c.run_until(secs((jobs as u64 + 30) * 6));
    // Reply arrival times come from the emitted records' order; reuse
    // latency + reconstruct arrival spacing via the world emission times.
    let raw = c.world.take_emitted::<jrs_pbs::SubmitRecord>();
    let times: Vec<SimTime> = raw.iter().map(|(t, _, _)| *t).collect();
    let answered = raw.len();
    let consistent = c.assert_replicas_consistent();
    Outcome {
        scenario: name.to_string(),
        heads,
        answered,
        expected: jobs,
        max_gap_ms: max_reply_gap(&times),
        real_runs: c.total_real_runs(),
        consistent,
    }
}

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);

    println!("E4 — failure matrix (JOSHUA, {jobs}-job burst, fault at t=2s)");
    println!();

    let mut outcomes = Vec::new();

    for heads in [2usize, 3, 4] {
        outcomes.push(run_scenario("single crash", heads, jobs, |c| {
            let n = c.head_nodes[0];
            c.world.schedule_at(secs(2), move |w| w.crash_node(n));
        }));
    }
    for heads in [3usize, 4] {
        outcomes.push(run_scenario(
            "double simultaneous crash",
            heads,
            jobs,
            |c| {
                let (a, b) = (c.head_nodes[0], c.head_nodes[1]);
                c.world.schedule_at(secs(2), move |w| {
                    w.crash_node(a);
                    w.crash_node(b);
                });
            },
        ));
    }
    outcomes.push(run_scenario("cascade to last survivor", 4, jobs, |c| {
        for (i, k) in [0usize, 1, 2].iter().enumerate() {
            let n = c.head_nodes[*k];
            c.world
                .schedule_at(secs(2 + 6 * i as u64), move |w| w.crash_node(n));
        }
    }));
    outcomes.push(run_scenario("voluntary leave", 3, jobs, |c| {
        let head = c.heads[1];
        c.world.schedule_at(secs(2), move |w| {
            w.inject(head, joshua_core::LeaveCmd);
        });
    }));
    outcomes.push({
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 2 });
        cfg.seed = 2006;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::burst(jobs));
        c.run_until(secs(10));
        let _ = c.add_joshua_head(); // join mid-burst
        c.run_until(secs((jobs as u64 + 30) * 6));
        let raw = c.world.take_emitted::<jrs_pbs::SubmitRecord>();
        let times: Vec<SimTime> = raw.iter().map(|(t, _, _)| *t).collect();
        Outcome {
            scenario: "join mid-burst".into(),
            heads: 2,
            answered: raw.len(),
            expected: jobs,
            max_gap_ms: max_reply_gap(&times),
            real_runs: c.total_real_runs(),
            consistent: c.assert_replicas_consistent(),
        }
    });

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let state_ok = o.answered == o.expected && o.real_runs == o.expected as u64;
            vec![
                o.scenario.clone(),
                o.heads.to_string(),
                format!("{}/{}", o.answered, o.expected),
                format!("{:.0}ms", o.max_gap_ms),
                format!("{}/{}", o.real_runs, o.expected),
                o.consistent.to_string(),
                if state_ok {
                    "PASS".into()
                } else {
                    "FAIL".into()
                },
            ]
        })
        .collect();
    report::table(
        &[
            "Scenario", "Heads", "Answered", "MaxGap", "RealRuns", "Agreeing", "Verdict",
        ],
        &rows,
    );
    let all_ok = outcomes
        .iter()
        .all(|o| o.answered == o.expected && o.real_runs == o.expected as u64);
    println!();
    println!(
        "{}",
        if all_ok {
            "All scenarios: continuous service, no lost state, exactly-once execution."
        } else {
            "SOME SCENARIOS FAILED — see table."
        }
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}
