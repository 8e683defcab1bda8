//! Bounded depth-first exploration of the model's interleavings, with an
//! optional sleep-set (DPOR-lite) partial-order reduction, visited-state
//! deduplication by fingerprint, a wall-clock budget, and ddmin-style
//! counterexample minimization.

use crate::model::{independent, Action, Violation, World};
use std::collections::{BTreeSet, HashMap};

/// Exploration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Explore every enabled action at every state (baseline).
    Naive,
    /// Sleep-set reduction: skip an action when a provably equivalent
    /// interleaving (same actions, independent ones reordered) was already
    /// explored from this state.
    Dpor,
}

impl Mode {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "naive" => Some(Mode::Naive),
            "dpor" => Some(Mode::Dpor),
            _ => None,
        }
    }
}

/// Exploration counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Distinct states expanded.
    pub explored: u64,
    /// Visits pruned because the state (with no less remaining depth and a
    /// subsumed sleep set) was seen before.
    pub deduped: u64,
    /// Actions skipped by the sleep-set reduction.
    pub slept: u64,
    /// Terminal (depth-exhausted) states put through the settle check.
    pub settled: u64,
    /// True if the wall-clock budget expired before the bound was covered.
    pub truncated: bool,
}

/// Result of one bounded check.
#[derive(Debug)]
pub enum Outcome {
    /// No reachable violation within the bound.
    Clean(Stats),
    /// A violation, with the action trace that reaches it.
    Violation {
        /// What broke.
        violation: Violation,
        /// Actions from the initial state to the violation (minimized if
        /// the caller ran [`minimize`]).
        trace: Vec<Action>,
        /// Counters up to the point of discovery.
        stats: Stats,
    },
}

/// Wall-clock budget for an exploration. The checker polls it every few
/// hundred states; on expiry the search unwinds cleanly and reports
/// `truncated`. `None` means unbounded.
pub struct Budget {
    deadline: Option<std::time::Instant>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Budget { deadline: None }
    }

    /// Budget of `secs` wall-clock seconds from now.
    pub fn seconds(secs: u64) -> Self {
        Budget {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(secs)),
        }
    }

    fn expired(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// Visited-state table. Keyed by [`World::state_hash`]; each entry keeps
/// the best (largest) remaining depth the state was expanded with, and —
/// in DPOR mode — the sleep sets it was expanded under. A revisit is
/// pruned only when it cannot reach anything new: its remaining depth is
/// no larger and some recorded expansion slept a subset of what this
/// visit would sleep.
struct Visited {
    map: HashMap<u64, Vec<(u32, BTreeSet<Action>)>>,
}

impl Visited {
    fn new() -> Self {
        Visited {
            map: HashMap::new(),
        }
    }

    /// True if a recorded expansion subsumes this one.
    fn subsumes(&self, hash: u64, depth: u32, sleep: &BTreeSet<Action>) -> bool {
        self.map.get(&hash).is_some_and(|entries| {
            entries
                .iter()
                .any(|(d, s)| *d >= depth && s.is_subset(sleep))
        })
    }

    fn record(&mut self, hash: u64, depth: u32, sleep: BTreeSet<Action>) {
        let entries = self.map.entry(hash).or_default();
        // Drop entries the new one subsumes, then keep the table small.
        entries.retain(|(d, s)| !(depth >= *d && sleep.is_subset(s)));
        if entries.len() < 8 {
            entries.push((depth, sleep));
        }
    }
}

struct Dfs {
    mode: Mode,
    dedup: bool,
    budget: Budget,
    visited: Visited,
    /// Settle verdicts by terminal-state fingerprint: identical states
    /// settle identically, and stateless (no-dedup) searches reach the
    /// same terminal through many equivalent interleavings.
    settled: HashMap<u64, Option<Violation>>,
    stats: Stats,
    path: Vec<Action>,
}

impl Dfs {
    fn run(&mut self, world: &World, depth: u32, sleep: BTreeSet<Action>) -> Option<Violation> {
        if self.stats.explored.is_multiple_of(256) && self.budget.expired() {
            self.stats.truncated = true;
            return None;
        }
        let hash = world.state_hash();
        if self.dedup {
            if self.visited.subsumes(hash, depth, &sleep) {
                self.stats.deduped += 1;
                return None;
            }
            self.visited.record(hash, depth, sleep.clone());
        }
        self.stats.explored += 1;
        if depth == 0 {
            if let Some(v) = self.settled.get(&hash) {
                return v.clone();
            }
            self.stats.settled += 1;
            let v = world.clone().settle();
            self.settled.insert(hash, v.clone());
            return v;
        }
        let mut sleep_now = sleep;
        for action in world.enabled() {
            if self.stats.truncated {
                return None;
            }
            if self.mode == Mode::Dpor && sleep_now.contains(&action) {
                self.stats.slept += 1;
                continue;
            }
            let mut child = world.clone();
            self.path.push(action);
            match child.apply(action) {
                Ok(false) => {
                    self.path.pop();
                    continue;
                }
                Err(v) => return Some(v),
                Ok(true) => {}
            }
            let child_sleep: BTreeSet<Action> = match self.mode {
                Mode::Naive => BTreeSet::new(),
                Mode::Dpor => sleep_now
                    .iter()
                    .copied()
                    .filter(|&b| independent(action, b))
                    .collect(),
            };
            if let Some(v) = self.run(&child, depth - 1, child_sleep) {
                return Some(v);
            }
            self.path.pop();
            if self.mode == Mode::Dpor {
                sleep_now.insert(action);
            }
        }
        None
    }
}

/// A configured exploration: mode, dedup toggle and budget.
///
/// Visited-state dedup is on by default and is what makes deep bounds
/// tractable. Turning it off (`no_dedup`) gives the textbook *stateless*
/// search, where the sleep-set reduction's pruning power is directly
/// visible in the explored-state count — that is the configuration the
/// naive-vs-DPOR comparison uses.
pub struct Search {
    /// Exploration strategy.
    pub mode: Mode,
    /// Deduplicate visited states by fingerprint.
    pub dedup: bool,
    /// Wall-clock budget.
    pub budget: Budget,
}

impl Search {
    /// A deduplicating, unbudgeted search in the given mode.
    pub fn new(mode: Mode) -> Self {
        Search {
            mode,
            dedup: true,
            budget: Budget::unlimited(),
        }
    }

    /// Disable visited-state dedup (stateless search).
    #[must_use]
    pub fn no_dedup(mut self) -> Self {
        self.dedup = false;
        self
    }

    /// Set a wall-clock budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Explore from `world` up to `depth` actions deep.
    pub fn run(self, world: &World, depth: u32) -> Outcome {
        let mut dfs = Dfs {
            mode: self.mode,
            dedup: self.dedup,
            budget: self.budget,
            visited: Visited::new(),
            settled: HashMap::new(),
            stats: Stats::default(),
            path: Vec::new(),
        };
        match dfs.run(world, depth, BTreeSet::new()) {
            Some(violation) => Outcome::Violation {
                violation,
                trace: dfs.path,
                stats: dfs.stats,
            },
            None => Outcome::Clean(dfs.stats),
        }
    }
}

/// Explore from an arbitrary starting world (e.g. after a scripted
/// prefix); used by regression tests to pin a protocol state and then
/// exhaust the interleavings around it.
pub fn check_from(world: &World, depth: u32, mode: Mode, budget: Budget) -> Outcome {
    Search {
        mode,
        dedup: true,
        budget,
    }
    .run(world, depth)
}

/// Replay a trace from `start`, checking invariants at every step and the
/// settle properties at the end. Returns the violation it hits, if any;
/// `None` if the trace runs clean or becomes infeasible.
pub fn replay(start: &World, trace: &[Action]) -> Option<Violation> {
    let mut world = start.clone();
    for &a in trace {
        match world.apply(a) {
            Ok(true) => {}
            Ok(false) => return None,
            Err(v) => return Some(v),
        }
    }
    world.settle()
}

/// Shrink a violating trace by repeatedly deleting single actions while
/// the replay still produces *a* violation (not necessarily the identical
/// one — any violation keeps the counterexample useful). Runs to a
/// fixpoint; the result is 1-minimal: removing any one action loses the
/// bug.
pub fn minimize(start: &World, trace: &[Action]) -> Vec<Action> {
    let mut best: Vec<Action> = trace.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if replay(start, &candidate).is_some() {
                best = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{McConfig, Mutation};

    fn small() -> McConfig {
        McConfig {
            procs: 2,
            submits: 1,
            faults: 0,
            ..McConfig::default()
        }
    }

    #[test]
    fn small_config_is_clean_and_modes_agree() {
        let start = World::new(small());
        let naive = check_from(&start, 6, Mode::Naive, Budget::unlimited());
        let dpor = check_from(&start, 6, Mode::Dpor, Budget::unlimited());
        let (Outcome::Clean(n), Outcome::Clean(d)) = (naive, dpor) else {
            panic!("expected both modes clean");
        };
        assert!(n.explored > 0 && d.explored > 0);
    }

    #[test]
    fn sleep_sets_prune_stateless_search() {
        let start = World::new(small());
        let naive = Search::new(Mode::Naive).no_dedup().run(&start, 6);
        let dpor = Search::new(Mode::Dpor).no_dedup().run(&start, 6);
        let (Outcome::Clean(n), Outcome::Clean(d)) = (naive, dpor) else {
            panic!("expected both modes clean");
        };
        assert!(
            d.explored < n.explored,
            "sleep sets must prune interleavings ({} vs {})",
            d.explored,
            n.explored
        );
        assert!(d.slept > 0);
    }

    #[test]
    fn seeded_bug_is_caught_and_trace_minimizes() {
        let cfg = McConfig {
            mutation: Mutation::GrantOnForward,
            ..small()
        };
        let start = World::new(cfg);
        let Outcome::Violation {
            violation, trace, ..
        } = check_from(&start, 6, Mode::Dpor, Budget::unlimited())
        else {
            panic!("seeded grant-on-forward bug not found");
        };
        assert!(matches!(violation, Violation::DuplicateLaunch { .. }));
        let min = minimize(&start, &trace);
        assert!(min.len() <= trace.len());
        assert!(
            replay(&start, &min).is_some(),
            "minimized trace must replay"
        );
    }

    #[test]
    fn budget_expiry_truncates_cleanly() {
        let start = World::new(McConfig::default());
        let out = check_from(&start, 12, Mode::Naive, Budget::seconds(0));
        let Outcome::Clean(stats) = out else {
            panic!("truncated run must not invent violations");
        };
        assert!(stats.truncated);
    }
}
