//! Fixture corpus for the graph rules: known-good and known-bad source
//! trees for F001–F004 plus their suppression, driven through
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
        protocol_enums: vec![],
        match_scope: vec!["fix".into()],
        panic_scope: vec!["fix".into()],
        root_scope: vec!["fix".into()],
        nondet_scope: vec!["fix".into()],
    };
    Config {
        flow,
        ..Config::default()
    }
}

/// [`cfg`] plus the protocol enum `ProtoMsg`, for the trees that define
/// it: a registered name that resolves to nothing is a stale entry.
fn cfg_f004() -> Config {
    let mut c = cfg();
    c.flow.protocol_enums = vec!["ProtoMsg".into()];
    c
}

/// Run every pass, keep the F findings and the suppression audit: the
/// D/P line rules also fire on some of these trees (the F002 fixture
/// reads `Instant::now`), which is `det_fixtures.rs`' business.
fn check_files(cfg: &Config, files: &[(&str, &str)]) -> Report {
    let mut report = analyze(cfg, files, None).report;
    report
        .findings
        .retain(|f| f.rule.starts_with('F') || f.rule == "SUPP");
    report
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

// ---------------------------------------------------------------- F002

const F002_BAD: &str = r#"
pub struct Engine {
    pub n: u64,
}

impl Engine {
    pub fn bump(&mut self) {
        self.n = stamp();
    }
}

fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
"#;

#[test]
fn f002_flags_wall_clock_reachable_from_mutator() {
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", F002_BAD)]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "F002");
    assert_eq!(f.line, line_of(F002_BAD, "Instant::now"));
    assert!(f.message.contains("Instant::now"), "{}", f.message);
    assert_eq!(chain_names(f), vec!["Engine::bump", "stamp"]);
}

#[test]
fn f002_ignores_nondeterminism_outside_mutator_reach() {
    // Same clock use, but nothing links the mutator to it.
    let good = F002_BAD.replace("self.n = stamp();", "self.n += 1;");
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &good)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

// ---------------------------------------------------------------- F003

const F003_BAD: &str = r#"
pub struct Daemon {
    slot: Option<u64>,
}

impl Daemon {
    fn read_slot(&mut self) -> u64 {
        self.slot.take().unwrap()
    }
}

impl Process for Daemon {
    fn on_timer(&mut self) {
        let _v = self.read_slot();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_helpers_may_unwrap() {
        let v: Option<u64> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
"#;

#[test]
fn f003_flags_panic_reachable_from_callback_not_from_tests() {
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", F003_BAD)]);
    // Exactly one finding: the unwrap inside `mod tests` is exempt.
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "F003");
    assert_eq!(f.line, line_of(F003_BAD, "take().unwrap()"));
    assert_eq!(
        chain_names(f),
        vec!["Daemon::on_timer", "Daemon::read_slot"]
    );
}

#[test]
fn f003_accepts_fallible_degrade() {
    let good = F003_BAD.replace(
        "self.slot.take().unwrap()",
        "match self.slot.take() { Some(v) => v, None => 0 }",
    );
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &good)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

// ---------------------------------------------------------------- F004

const F004_BAD: &str = r#"
pub enum ProtoMsg {
    Ping,
    Pong,
    Data(u64),
}

pub fn handle(m: &ProtoMsg) -> u32 {
    match m {
        ProtoMsg::Ping => 1,
        _ => 0,
    }
}
"#;

#[test]
fn f004_flags_catch_all_over_protocol_enum_naming_swallowed_variants() {
    let report = check_files(&cfg_f004(), &[("crates/fix/src/lib.rs", F004_BAD)]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "F004");
    assert_eq!(f.line, line_of(F004_BAD, "_ => 0"));
    assert!(f.message.contains("Pong"), "{}", f.message);
    assert!(f.message.contains("Data"), "{}", f.message);
}

#[test]
fn f004_accepts_exhaustive_match_and_ignores_other_enums() {
    let good = r#"
pub enum ProtoMsg {
    Ping,
    Pong,
    Data(u64),
}

pub enum LocalChoice {
    Yes,
    No,
}

pub fn handle(m: &ProtoMsg) -> u32 {
    match m {
        ProtoMsg::Ping => 1,
        ProtoMsg::Pong => 2,
        ProtoMsg::Data(_) => 3,
    }
}

pub fn pick(c: &LocalChoice) -> u32 {
    match c {
        LocalChoice::Yes => 1,
        _ => 0,
    }
}
"#;
    let report = check_files(&cfg_f004(), &[("crates/fix/src/lib.rs", good)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

// ---------------------------------------------------------------- SUPP

#[test]
fn supp_pragma_waives_a_finding_and_counts_as_used() {
    let src = F003_BAD.replace(
        "        self.slot.take().unwrap()",
        "        // lint: allow(F003): fixture — slot is refilled before every timer\n        \
         self.slot.take().unwrap()",
    );
    let report = check_files(&cfg(), &[("crates/fix/src/lib.rs", &src)]);
    assert!(report.clean(), "{:#?}", report.findings);
}

#[test]
fn supp_flags_reasonless_unknown_and_dead_pragmas() {
    let src = r#"
// lint: allow(F001)
pub fn a() {}

// lint: allow(F999): no such rule
pub fn b() {}

// lint: allow(F003): suppresses nothing on this line
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
fn supp_audits_line_rule_pragmas_for_staleness_without_a_re_lint() {
    // A load-bearing D001 pragma (suppresses a real D001 in a
    // replicated-state crate) and a stale one (suppresses nothing). The
    // verdict comes from matching raw findings to pragmas in the one
    // suppression stage; nothing is linted twice.
    let src = r#"
use std::collections::HashMap;

pub fn live() -> usize {
    // lint: allow(D001): fixture — drained into a sorted Vec below
    let m: HashMap<u32, u32> = HashMap::new();
    m.len()
}

pub fn stale() -> u64 {
    // lint: allow(D002): fixture — nothing on this line needs it
    7
}
"#;
    let report = check_files(&cfg(), &[("crates/gcs/src/fixture_demo.rs", src)]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let stale = &report.findings[0];
    assert_eq!(
        (stale.rule, stale.line),
        ("SUPP", line_of(src, "allow(D002)"))
    );
    assert_eq!(
        stale.message,
        "suppression allow(D002) suppresses nothing — remove it"
    );
}

// ------------------------------------------------------- whole corpus

#[test]
fn corpus_reports_graph_statistics_and_json() {
    let report = check_files(
        &cfg_f004(),
        &[
            ("crates/fix/src/lib.rs", F001_BAD),
            ("crates/fix/src/proto.rs", F004_BAD),
        ],
    );
    assert_eq!((report.files_scanned, report.graph_files), (2, 2));
    assert!(report.fns >= 5, "fns extracted: {}", report.fns);
    assert!(report.edges >= 3, "edges resolved: {}", report.edges);
    // JSON rendering round-trips the essentials for CI diffing.
    let json = report.to_json();
    assert!(json.contains("\"rule\":\"F001\""));
    assert!(json.contains("\"rule\":\"F004\""));
    assert!(json.contains("Server::sneak"));
}
