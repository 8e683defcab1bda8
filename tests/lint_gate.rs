//! Workspace static-analysis gate.
//!
//! `cargo test` must fail if the workspace regresses on any `jrs-lint`
//! rule (see `crates/lint` and the static-analysis section of
//! DESIGN.md). The same check runs in CI as
//! `cargo run -p jrs-lint -- check`; these tests wire it into the
//! ordinary test loop so a violation never gets as far as a pull
//! request. One analysis is shared by three tests, one per pass family
//! plus the suppression audit, so a red run still names the family. The
//! construct bans (hash collections, clocks, floats, panics, catch-all
//! arms) are not here: they are clippy lints, and `cargo clippy` is
//! their gate.

use jrs_lint::{Config, Finding, Report};
use std::path::Path;
use std::sync::OnceLock;

fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        jrs_lint::analyze_workspace(&Config::workspace(), root)
            .expect("workspace scan must succeed")
            .report
    })
}

/// Fail with every finding whose rule code starts with `code`.
fn assert_clean(family: &str, code: char, advice: &str) {
    let hits: Vec<&Finding> = report()
        .findings
        .iter()
        .filter(|f| f.rule.starts_with(code))
        .collect();
    if !hits.is_empty() {
        let mut msg = format!(
            "jrs-lint found {} {family} finding(s) — {advice}:\n",
            hits.len()
        );
        for f in hits {
            msg.push_str(&format!("{f}\n"));
        }
        panic!("{msg}");
    }
}

/// The suppression audit (SUPP): pragmas and registry entries.
#[test]
fn workspace_suppressions_are_audited() {
    assert_clean(
        "suppression (SUPP)",
        'S',
        "give the pragma a known rule and a reason, or remove the stale pragma or registry entry",
    );
}

/// F001.
#[test]
fn workspace_is_call_graph_clean() {
    let r = report();
    assert!(
        r.files_scanned > 60 && r.fns > 500 && r.edges > 1000,
        "suspiciously small call graph ({} files, {} fns, {} edges) — walker or extractor broken?",
        r.files_scanned,
        r.fns,
        r.edges
    );
    assert_clean(
        "call-graph (F)",
        'F',
        "fix them or add a justified `// lint: allow(RULE): reason` pragma",
    );
}

/// W001–W004.
#[test]
fn workspace_is_wire_protocol_clean() {
    let r = report();
    assert!(
        r.codecs > 15 && r.use_sites > 50,
        "suspiciously small protocol model ({} codecs, {} use sites) — extractor broken?",
        r.codecs,
        r.use_sites
    );
    assert_clean(
        "wire-protocol (W)",
        'W',
        "fix them, regenerate proto.lock after a reviewed schema change, or add a justified \
         `// lint: allow(RULE): reason` pragma",
    );
}
