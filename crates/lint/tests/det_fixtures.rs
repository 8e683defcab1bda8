//! Fixture-driven end-to-end tests for the D/P line rules: one small
//! source fixture per rule class, plus suppression behaviour and a
//! clean file, all driven through the public `analyze` API (the same
//! path the CLI and the root-crate gate use) with empty F/W registries.
//! Every pass runs on every fixture, so the assertions also pin that
//! the F and W families stay silent on these trees.

use jrs_lint::{analyze, Config, Finding};

/// Analyse one file's source text.
fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    analyze(&Config::default(), &[(rel_path, source)], None)
        .report
        .findings
}

/// D001: hash collections in a replicated-state crate.
#[test]
fn d001_hash_collections_flagged() {
    let src = "\
use std::collections::{HashMap, HashSet};

struct Tracker {
    seen: HashMap<u64, u64>,
    dead: HashSet<u64>,
}
";
    let v = check_source("crates/gcs/src/fixture.rs", src);
    let d001: Vec<_> = v.iter().filter(|v| v.rule == "D001").collect();
    // Two tokens on the use line, one on each field line.
    assert_eq!(d001.len(), 4, "{v:?}");
    assert!(d001.iter().any(|v| v.line == 1));
    assert!(d001
        .iter()
        .any(|v| v.line == 4 && v.message.contains("BTreeMap")));
    assert!(d001
        .iter()
        .any(|v| v.line == 5 && v.message.contains("BTreeSet")));
}

/// D001 does not fire outside the replicated-state crates.
#[test]
fn d001_scoped_out_of_analysis_crates() {
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u8, u8> { HashMap::new() }\n";
    assert!(check_source("crates/availability/src/fixture.rs", src).is_empty());
    assert!(check_source("crates/lint/src/fixture.rs", src).is_empty());
}

/// The durable-state crate feeds recovered bytes straight back into the
/// replicated state machine, so the strict replicated-crate rules cover
/// it too.
#[test]
fn store_crate_is_replicated_scope() {
    let src =
        "use std::collections::HashMap;\nstruct Index {\n    offsets: HashMap<u64, u64>,\n}\n";
    let v = check_source("crates/store/src/fixture.rs", src);
    assert!(v.iter().any(|v| v.rule == "D001"), "{v:?}");
}

/// D002: wall-clock reads outside the simulator.
#[test]
fn d002_wall_clock_flagged() {
    let src = "\
use std::time::{Instant, SystemTime};

fn stamp() -> u64 {
    let _t0 = Instant::now();
    SystemTime::now().elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)
}
";
    let v = check_source("crates/core/src/fixture.rs", src);
    let d002: Vec<_> = v.iter().filter(|v| v.rule == "D002").collect();
    assert_eq!(d002.len(), 2, "{v:?}");
    assert!(d002.iter().any(|v| v.line == 4));
    assert!(d002.iter().any(|v| v.line == 5));
    // The simulator itself owns virtual time and is exempt.
    assert!(check_source("crates/sim/src/fixture.rs", src).is_empty());
}

/// D003: ambient entropy, flagged in every non-exempt crate.
#[test]
fn d003_ambient_entropy_flagged() {
    let src = "\
fn jitter() -> u64 {
    let mut rng = rand::thread_rng();
    rand::random::<u64>()
}
";
    let v = check_source("crates/sim/src/fixture.rs", src);
    let d003: Vec<_> = v.iter().filter(|v| v.rule == "D003").collect();
    assert_eq!(d003.len(), 2, "{v:?}");
    // The vendored rand shim is the seeded implementation itself.
    assert!(check_source("shims/rand/src/fixture.rs", src).is_empty());
}

/// D004: float fields in replicated-state types; local float math is fine.
#[test]
fn d004_float_fields_flagged() {
    let src = "\
pub struct JobRecord {
    pub id: u64,
    pub priority: f64,
}

pub fn utilisation(busy: u64, total: u64) -> f64 {
    busy as f64 / total as f64
}
";
    let v = check_source("crates/pbs/src/fixture.rs", src);
    let d004: Vec<_> = v.iter().filter(|v| v.rule == "D004").collect();
    assert_eq!(d004.len(), 1, "{v:?}");
    assert_eq!(d004[0].line, 3);
    // Availability math is analysis output, not replicated state.
    assert!(check_source("crates/availability/src/fixture.rs", src).is_empty());
}

/// P001: panic paths in the delivery hot path only.
#[test]
fn p001_panic_paths_flagged() {
    let src = "\
fn deliver(log: &std::collections::BTreeMap<u64, u8>, cursor: u64) -> u8 {
    let m = log.get(&cursor).expect(\"must be present\");
    if *m == 0 { panic!(\"zero\"); }
    log.get(&(cursor + 1)).copied().unwrap()
}
";
    let v = check_source("crates/gcs/src/engine.rs", src);
    let p001: Vec<_> = v.iter().filter(|v| v.rule == "P001").collect();
    assert_eq!(p001.len(), 3, "{v:?}");
    // Same code outside the hot path is not P001's business.
    let elsewhere = check_source("crates/gcs/src/view.rs", src);
    assert!(elsewhere.iter().all(|v| v.rule != "P001"));
}

/// Justified pragmas suppress; on the same line or the line above.
#[test]
fn pragma_suppression_honoured() {
    let src = "\
// lint: allow(D001): bounded lookup table, never iterated
use std::collections::HashMap;

// lint: allow(D001): returns the allowed lookup table type
fn cache() -> HashMap<u8, u8> {
    HashMap::new() // lint: allow(D001): constructor of the allowed table
}
";
    assert!(check_source("crates/gcs/src/fixture.rs", src).is_empty());
}

/// Bare pragmas still suppress, but are themselves reported (SUPP), as
/// are pragmas naming rule codes that do not exist.
#[test]
fn bad_pragmas_reported() {
    let src = "\
use std::collections::HashMap; // lint: allow(D001)
// lint: allow(D999): not a real rule
fn f() {}
";
    let v = check_source("crates/gcs/src/fixture.rs", src);
    assert!(v.iter().all(|v| v.rule == "SUPP"), "{v:?}");
    assert_eq!(v.len(), 2, "{v:?}");
}

/// Rule patterns inside strings, comments, and trailing test modules
/// never fire; a well-formed replicated-state file is clean.
#[test]
fn clean_file_stays_clean() {
    let src = "\
//! Talks about HashMap and Instant::now in prose only.

use std::collections::BTreeMap;

/// `panic!` in docs is fine too.
pub struct State {
    pub applied: BTreeMap<u64, u64>,
    pub count: u64,
}

pub fn describe() -> &'static str {
    \"uses thread_rng and SystemTime::now\"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m: std::collections::HashMap<u8, u8> = Default::default();
        assert!(m.get(&1).is_none());
    }
}
";
    let v = check_source("crates/gcs/src/fixture.rs", src);
    assert!(v.is_empty(), "{v:?}");
}

/// Diagnostics render as `path:line: RULE: message` (what CI greps).
#[test]
fn diagnostic_format() {
    let v = check_source(
        "crates/gcs/src/fixture.rs",
        "use std::collections::HashMap;\n",
    );
    assert_eq!(v.len(), 1);
    let s = v[0].to_string();
    assert!(s.starts_with("crates/gcs/src/fixture.rs:1: D001: "), "{s}");
}

/// The `--json` report CI archives: valid shape, escaped strings.
#[test]
fn json_report_shape() {
    let files = [(
        "crates/gcs/src/fixture.rs",
        "use std::collections::HashMap;\n",
    )];
    let j = analyze(&Config::default(), &files, None).report.to_json();
    assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
    assert!(j.contains("\"files_scanned\":1"), "{j}");
    assert!(j.contains("\"rule\":\"D001\""), "{j}");
    assert!(!j.contains('\n'), "single-line JSON: {j}");
}
