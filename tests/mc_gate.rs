//! Model-checking gate: `cargo test` runs a bounded exhaustive sweep of
//! the GCS / jmutex protocol on every change. The same checker runs
//! deeper in CI (`cargo run -p jrs-mc -- check`); this gate keeps the
//! tight configurations — small enough to exhaust in seconds — in the
//! ordinary test loop so an interleaving bug never gets as far as a
//! pull request.
//!
//! What is covered:
//!
//! - clean sweeps: no reachable invariant violation on the unmutated
//!   protocol for both ordering engines, with and without a crash fault;
//! - seeded-bug detection: the `grant-on-forward` mutation (launch on
//!   forward instead of on verdict) must be caught as a duplicate
//!   launch, with a minimized, replayable counterexample;
//! - the jmutex-under-view-change regression: the mutex holder crashes
//!   between `jmutex` and `jdone`; the job must still launch exactly
//!   once (verdict redelivery by the responder). Disabling redelivery
//!   (`no-cover` mutation) must be caught as a lost launch;
//! - reduction sanity: the sleep-set (DPOR-lite) search explores at
//!   least 2x fewer states than the naive baseline on a stateless
//!   sweep, and the two searches agree on the verdict;
//! - the exploration itself: the state counts of four small sweeps are
//!   pinned, so a change to what the checker enumerates or fingerprints
//!   shows as a count that moved.

use jrs_mc::{
    check_from, minimize, replay, Action, Budget, McConfig, Mode, Mutation, Outcome, Search,
    Violation, World,
};

use jrs_gcs::EngineKind;

fn cfg(engine: EngineKind, faults: u32, mutation: Mutation) -> McConfig {
    McConfig {
        procs: 3,
        submits: 1,
        faults,
        engine,
        mutation,
    }
}

fn assert_clean(cfg: McConfig, depth: u32) {
    let out = check_from(
        &World::new(cfg.clone()),
        depth,
        Mode::Dpor,
        Budget::unlimited(),
    );
    match out {
        Outcome::Clean(s) => {
            assert!(!s.truncated, "unbudgeted run cannot truncate");
            assert!(s.explored > 0);
        }
        Outcome::Violation {
            violation, trace, ..
        } => panic!(
            "{:?} engine, faults={}, depth={depth}: unexpected {violation:?} via {:?}",
            cfg.engine, cfg.faults, trace
        ),
    }
}

#[test]
fn sequencer_sweep_is_clean() {
    assert_clean(cfg(EngineKind::Sequencer, 0, Mutation::None), 7);
    assert_clean(cfg(EngineKind::Sequencer, 1, Mutation::None), 5);
}

#[test]
fn token_sweep_is_clean() {
    assert_clean(cfg(EngineKind::Token, 0, Mutation::None), 7);
    assert_clean(cfg(EngineKind::Token, 1, Mutation::None), 5);
}

#[test]
fn seeded_ordering_bug_is_caught_with_replayable_trace() {
    let config = cfg(EngineKind::Sequencer, 0, Mutation::GrantOnForward);
    let start = World::new(config);
    let Outcome::Violation {
        violation, trace, ..
    } = check_from(&start, 6, Mode::Dpor, Budget::unlimited())
    else {
        panic!("grant-on-forward duplicate launch not found");
    };
    assert!(
        matches!(violation, Violation::DuplicateLaunch { .. }),
        "expected duplicate launch, got {violation:?}"
    );
    // The minimized trace still replays to a violation, and removing any
    // single step loses it (1-minimality).
    let min = minimize(&start, &trace);
    assert!(min.len() <= trace.len());
    assert!(
        replay(&start, &min).is_some(),
        "minimized trace must replay"
    );
    for i in 0..min.len() {
        let mut shorter = min.clone();
        shorter.remove(i);
        assert!(
            replay(&start, &shorter).is_none(),
            "trace not 1-minimal: step {i} is removable"
        );
    }
}

/// The mutex holder crashes between `jmutex` (ordered acquire) and
/// `jdone` (release): across every interleaving within the bound, the
/// job launches exactly once. The token engine is the interesting one —
/// all-to-all stability lets the other replicas deliver the acquire
/// before the granter does, which is exactly the window the responder's
/// verdict redelivery exists to cover.
#[test]
fn jmutex_holder_crash_launches_exactly_once() {
    // Scripted prefix: get the submission into the system, then explore
    // deliveries, crashes and ticks around it.
    let mut start = World::new(cfg(EngineKind::Token, 1, Mutation::None));
    assert_eq!(start.apply(Action::Submit), Ok(true));
    let out = check_from(&start, 6, Mode::Dpor, Budget::unlimited());
    let Outcome::Clean(stats) = out else {
        panic!("holder crash must not lose or duplicate the launch: {out:?}");
    };
    assert!(stats.explored > 0);
}

/// Same exploration with verdict redelivery disabled (`no-cover`
/// mutation): the checker must find the lost launch, proving the sweep
/// in [`jmutex_holder_crash_launches_exactly_once`] actually covers the
/// holder-crash window.
#[test]
fn no_cover_mutation_loses_a_launch() {
    let mut start = World::new(cfg(EngineKind::Token, 1, Mutation::NoCoverOnViewChange));
    assert_eq!(start.apply(Action::Submit), Ok(true));
    let Outcome::Violation {
        violation, trace, ..
    } = check_from(&start, 6, Mode::Dpor, Budget::unlimited())
    else {
        panic!("disabled verdict redelivery not detected");
    };
    assert!(
        matches!(violation, Violation::LostLaunch { .. }),
        "expected lost launch, got {violation:?}"
    );
    // The counterexample replays from the same prefix.
    assert!(replay(&start, &trace).is_some());
}

#[test]
fn dpor_reduces_states_at_least_2x_and_agrees_with_naive() {
    // Stateless (no-dedup) sweep: with the visited-state table off, the
    // sleep-set reduction's pruning is directly visible in the explored
    // count. 3 procs gives enough concurrent independent targets for a
    // >=2x reduction.
    let start = World::new(cfg(EngineKind::Sequencer, 0, Mutation::None));
    let naive = Search::new(Mode::Naive).no_dedup().run(&start, 7);
    let dpor = Search::new(Mode::Dpor).no_dedup().run(&start, 7);
    let (Outcome::Clean(n), Outcome::Clean(d)) = (naive, dpor) else {
        panic!("both sweeps must be clean");
    };
    assert!(
        n.explored >= 2 * d.explored,
        "DPOR-lite must prune >=2x on the stateless sweep (naive {} vs dpor {})",
        n.explored,
        d.explored
    );
    assert!(d.slept > 0);
}

/// The exploration is pinned: explored / deduped / slept / settled at
/// `procs 3, depth 6`, with the CLI's defaults otherwise (one submission,
/// sleep sets, visited-state dedup), for both engines with and without a
/// fault. The counts move only with a protocol change, or a change to
/// what the checker enumerates or fingerprints; such a change regenerates
/// them deliberately from `jrs-mc check --procs 3 --depth 6 --engine E
/// --faults F`.
#[test]
fn exploration_counts_are_pinned() {
    let pinned = [
        (EngineKind::Sequencer, 0, [1604, 303, 475, 1119]),
        (EngineKind::Sequencer, 1, [5394, 2650, 1605, 3699]),
        (EngineKind::Token, 0, [2181, 442, 735, 1524]),
        (EngineKind::Token, 1, [8331, 3678, 2646, 5807]),
    ];
    for (engine, faults, want) in pinned {
        let start = World::new(cfg(engine, faults, Mutation::None));
        let Outcome::Clean(s) = check_from(&start, 6, Mode::Dpor, Budget::unlimited()) else {
            panic!("{engine:?} faults={faults}: the sweep must be clean");
        };
        assert_eq!(
            [s.explored, s.deduped, s.slept, s.settled],
            want,
            "{engine:?} faults={faults}: explored, deduped, slept, settled"
        );
    }
}
