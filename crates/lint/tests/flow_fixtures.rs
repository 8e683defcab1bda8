//! Fixture corpus for the graph rule: known-good and known-bad source
//! trees for F001 plus its suppression, driven through
//! [`jrs_lint::analyze`] with a fixture-local registry. The bad
//! fixtures pin the finding *and* its witness chain; the good fixtures
//! pin silence.

use jrs_lint::flow::ReplicatedState;
use jrs_lint::{analyze, Config, Finding, FlowConfig, Report};

/// Fixture registry: crate `fix`, replicated type `Engine`, one gate
/// `Server::apply`; empty W registry.
fn cfg() -> Config {
    let flow = FlowConfig {
        replicated: vec![ReplicatedState {
            type_name: "Engine".into(),
            scope: vec!["fix".into()],
            why: "fixture replicated state".into(),
        }],
        gates: vec!["Server::apply".into()],
        exempt_roots: vec![],
    };
    Config {
        flow,
        ..Config::default()
    }
}

fn check_files(cfg: &Config, files: &[(&str, &str)]) -> Report {
    analyze(cfg, files, None).report
}

/// 1-based line of the first occurrence of `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap()
}

/// Split a witness line `Type::method (path:line)` into name and line.
fn hop(w: &str) -> (&str, usize) {
    let (name, at) = w.split_once(" (").unwrap();
    let line = at.trim_end_matches(')').rsplit(':').next().unwrap();
    (name, line.parse().unwrap())
}

fn chain_names(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|w| hop(w).0).collect()
}

// ---------------------------------------------------------------- F001

const F001_BAD: &str = r#"
pub struct Engine {
    pub n: u64,
}

impl Engine {
    pub fn bump(&mut self) {
        self.n += 1;
    }
}

pub struct Server {
    engine: Engine,
}

impl Server {
    pub fn apply(&mut self) {
        self.engine.bump();
    }

    fn sneak(&mut self) {
        self.engine.bump();
    }
}

impl Process for Server {
    fn on_message(&mut self) {
        self.sneak();
    }
}
"#;

#[test]
fn f001_flags_gate_avoiding_mutation_with_witness_chain() {
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", F001_BAD)]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "F001");
    assert_eq!(f.line, line_of(F001_BAD, "pub fn bump"));
    assert!(f.message.contains("`Engine`"), "{}", f.message);
    // The witness must be the gate-avoiding chain, root first — not the
    // legitimate path through Server::apply.
    assert_eq!(
        chain_names(f),
        vec!["Server::on_message", "Server::sneak", "Engine::bump"]
    );
    // Each hop's line is the call site into the next hop; the final
    // hop carries its own definition line.
    assert_eq!(hop(&f.chain[0]).1, line_of(F001_BAD, "self.sneak()"));
    assert_eq!(hop(&f.chain[2]).1, line_of(F001_BAD, "pub fn bump"));
    assert_eq!(
        f.chain[0],
        format!(
            "Server::on_message (crates/fix/src/lib.rs:{})",
            line_of(F001_BAD, "self.sneak()")
        )
    );
    assert_eq!(
        f.message,
        "replicated state `Engine` is written by `Engine::bump` on a path that avoids every \
         ordered-delivery gate: Server::on_message -> Server::sneak -> Engine::bump"
    );
}

#[test]
fn f001_accepts_mutation_through_the_gate() {
    // Same tree, but the callback routes through the registered gate.
    let good = F001_BAD.replace("self.sneak();", "self.apply();");
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &good)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

#[test]
fn f001_ignores_exempt_root_types() {
    let mut c = cfg();
    c.flow.exempt_roots = vec![(
        "Server".into(),
        "fixture baseline: intentionally unreplicated".into(),
    )];
    let report = check_files(&c, &[("crates/fix/src/lib.rs", F001_BAD)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

// ---------------------------------------------------------------- SUPP

/// [`F001_BAD`] with a justified waiver above the leaking mutator.
fn f001_waived() -> String {
    F001_BAD.replace(
        "    pub fn bump",
        "    // lint: allow(F001): fixture — sneak is only reachable during bootstrap\n    pub fn bump",
    )
}

#[test]
fn supp_pragma_waives_a_finding_and_counts_as_used() {
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &f001_waived())]);
    assert!(report.clean(), "{:#?}", report.findings);
}

#[test]
fn supp_flags_reasonless_unknown_and_dead_pragmas() {
    let src = r#"
// lint: allow(F001)
pub fn a() {}

// lint: allow(F999): no such rule
pub fn b() {}

// lint: allow(F001): suppresses nothing on this line
pub fn c() {}
"#;
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", src)]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["SUPP", "SUPP", "SUPP"],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("without a reason"));
    assert!(report.findings[1].message.contains("unknown rule"));
    assert!(report.findings[2].message.contains("suppresses nothing"));
}

#[test]
fn supp_audits_pragmas_for_staleness_without_a_re_lint() {
    // A load-bearing F001 pragma (waives the real leak) and a stale one
    // (waives nothing) in one file. The verdict comes from matching raw
    // findings to pragmas in the one suppression stage; nothing is
    // linted twice.
    let src = f001_waived()
        + "\npub fn stale() -> u64 {\n    \
           // lint: allow(W004): fixture — nothing on this line needs it\n    7\n}\n";
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &src)]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let stale = &report.findings[0];
    assert_eq!(
        (stale.rule, stale.line),
        ("SUPP", line_of(&src, "allow(W004)"))
    );
    assert_eq!(
        stale.message,
        "suppression allow(W004) suppresses nothing — remove it"
    );
}

// ------------------------------------------------------- whole corpus

#[test]
fn corpus_reports_graph_statistics_and_json() {
    let report = check_files(
        &cfg(),
        &[
            ("crates/fix/src/lib.rs", F001_BAD),
            ("crates/fix/src/util.rs", "pub fn helper() {}\n"),
        ],
    );
    assert_eq!(report.files_scanned, 2);
    assert!(report.fns >= 5, "fns extracted: {}", report.fns);
    assert!(report.edges >= 3, "edges resolved: {}", report.edges);
    // JSON rendering round-trips the essentials for CI diffing.
    let json = report.to_json();
    assert!(json.contains("\"rule\":\"F001\""));
    assert!(json.contains("Server::sneak"));
}
