//! Work ceilings per command: the kernel events and network frames the
//! paper's Fig 10 workload (one client, 100 back-to-back trivial
//! submissions) costs a JOSHUA cluster of 1 to 4 heads.
//!
//! Host time per command tracks these two counts (ROADMAP item 26), and
//! unlike host time they are exact per seed, so they compare across
//! machines and over time. A change that
//! makes a command cost more protocol work (an extra frame per round,
//! heartbeats sent twice, a timer that fires where it used to be skipped)
//! fails here even when no latency moves. Each ceiling is the value
//! measured at seed 1 plus 5 %, rounded up; a change that lowers the work
//! states its new measured row and lowers the ceiling with it.
//!
//! | heads | events per command | ceiling | frames per command | ceiling |
//! |---|---|---|---|---|
//! | 1 | 32.51 | 34.14 | 2.84 | 2.99 |
//! | 2 | 171.15 | 179.71 | 63.39 | 66.56 |
//! | 3 | 340.21 | 357.23 | 163.24 | 171.41 |
//! | 4 | 623.23 | 654.40 | 358.59 | 376.52 |

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::workload;
use joshua_repro::sim::{SimDuration, SimTime};

/// Submissions in the script.
const JOBS: u64 = 100;

/// `(heads, events, frames)` ceilings per command in hundredths, which
/// over the 100 submissions is the ceiling on the run's total.
const CEILINGS: [(usize, u64, u64); 4] = [
    (1, 3_414, 299),
    (2, 17_971, 6_656),
    (3, 35_723, 17_141),
    (4, 65_440, 37_652),
];

/// Run the Fig 10 script on `heads` heads until the client is done; the
/// world's event count and the network's frame count at that point.
fn work(heads: usize) -> (u64, u64) {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.seed = 1;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(JOBS as usize));
    while c.take_dones().is_empty() {
        assert!(
            c.world.now() < SimTime::ZERO + SimDuration::from_secs(300),
            "{heads} heads: the script did not finish in 300 s"
        );
        c.run_for(SimDuration::from_millis(100));
    }
    assert_eq!(c.take_records().len() as u64, JOBS, "{heads} heads");
    (c.world.events_processed(), c.world.network().sent)
}

/// `n` hundredths as a decimal.
fn per_cmd(n: u64) -> String {
    format!("{}.{:02}", n / 100, n % 100)
}

#[test]
fn fig10_work_per_command_stays_under_its_ceiling() {
    let mut over = Vec::new();
    for (heads, max_events, max_frames) in CEILINGS {
        let (events, frames) = work(heads);
        println!(
            "{heads} heads: {} events and {} frames per command (ceilings {} and {})",
            per_cmd(events),
            per_cmd(frames),
            per_cmd(max_events),
            per_cmd(max_frames)
        );
        if events > max_events || frames > max_frames {
            over.push(heads);
        }
    }
    assert!(
        over.is_empty(),
        "a command costs more work than its ceiling at {over:?} heads"
    );
}
