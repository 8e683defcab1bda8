//! The one suppression stage: `// lint: allow(RULE[, RULE]): reason`
//! on the offending line or the line above waives findings of either
//! family, and every pragma is itself audited under `SUPP`.

use jrs_lint::flow::ReplicatedState;
use jrs_lint::{analyze, Config, Finding, FlowConfig};

/// F001 over replicated type `Engine` with roots in crate `gcs` and no
/// gate; empty W registry, so every hand-written `impl Codec` is W001.
fn cfg() -> Config {
    let flow = FlowConfig {
        replicated: vec![ReplicatedState {
            type_name: "Engine".into(),
            scope: vec!["gcs".into()],
            why: "fixture replicated state".into(),
        }],
        ..FlowConfig::default()
    };
    Config {
        flow,
        ..Config::default()
    }
}

fn lint(path: &str, src: &str) -> Vec<Finding> {
    analyze(&cfg(), &[(path, src)], None).report.findings
}

fn rules(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

/// A hand-written codec whose first method writes replicated state and
/// is reachable from a `Process` callback: W001 (wire rule) on the
/// `impl` line, F001 (graph rule) on the next.
const TWO_FAMILIES: &str = "\
pub struct Engine {
    n: u64,
}
pub struct Link {
    core: Engine,
}
impl Process for Link {
    fn on_timer(&mut self) {
        self.core.reload();
    }
}
impl Codec for Engine {
    fn reload(&mut self) {
        self.n = 0;
    }
}
";

/// A hand-written codec: W001 on the `impl` line.
const HAND: &str = "impl Codec for Grant {\n    fn encode(&self, out: &mut Vec<u8>) {}\n}\n";

#[test]
fn one_pragma_naming_rules_from_two_families_waives_both_and_counts_as_used() {
    let bare = lint("crates/gcs/src/link.rs", TWO_FAMILIES);
    assert_eq!(rules(&bare), vec![("W001", 12), ("F001", 13)], "{bare:#?}");

    let waived = TWO_FAMILIES.replace(
        "impl Codec for Engine {",
        "impl Codec for Engine { // lint: allow(W001, F001): fixture — reload only runs before the first view",
    );
    assert_eq!(lint("crates/gcs/src/link.rs", &waived), vec![]);

    // Naming one family only leaves the other standing.
    let half = waived.replace("allow(W001, F001)", "allow(W001)");
    assert_eq!(
        rules(&lint("crates/gcs/src/link.rs", &half)),
        vec![("F001", 13)]
    );
}

#[test]
fn pragma_applies_to_its_own_line_and_the_next_only() {
    let own = HAND.replace(" {\n", " { // lint: allow(W001): pinned by golden bytes\n");
    assert_eq!(lint("crates/gcs/src/x.rs", &own), vec![]);

    let above = format!("// lint: allow(W001): pinned by golden bytes\n{HAND}");
    assert_eq!(lint("crates/gcs/src/x.rs", &above), vec![]);

    // Two lines above: the W001 stands and the pragma is dead.
    let far = format!("// lint: allow(W001): pinned by golden bytes\n\n{HAND}");
    assert_eq!(
        rules(&lint("crates/gcs/src/x.rs", &far)),
        vec![("SUPP", 1), ("W001", 3)]
    );

    // A pragma for another rule does not waive this one.
    let other = HAND.replace(" {\n", " { // lint: allow(W004): wrong rule\n");
    assert_eq!(
        rules(&lint("crates/gcs/src/x.rs", &other)),
        vec![("SUPP", 1), ("W001", 1)]
    );

    // A comment in a retired dialect is an ordinary comment: it waives
    // nothing and is not audited.
    let dead = HAND.replace(" {\n", " { // proto: allow(W001): pinned by tests\n");
    assert_eq!(
        rules(&lint("crates/gcs/src/x.rs", &dead)),
        vec![("W001", 1)]
    );
}

#[test]
fn reasonless_pragma_still_waives_but_is_reported() {
    let src = HAND.replace(" {\n", " { // lint: allow(W001)\n");
    let v = lint("crates/gcs/src/x.rs", &src);
    assert_eq!(rules(&v), vec![("SUPP", 1)], "{v:#?}");
    assert!(
        v[0].message
            .contains("suppression of W001 without a reason"),
        "{}",
        v[0].message
    );
}

#[test]
fn stale_pragma_is_supp_without_any_re_lint() {
    // Nothing on or below the pragma line trips W004, so no raw finding
    // matches it; the audit needs no second lint of the file to say so.
    let src =
        "pub fn stale() -> u64 {\n    // lint: allow(W004): nothing here sizes an allocation\n    7\n}\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(rules(&v), vec![("SUPP", 2)], "{v:#?}");
    assert_eq!(
        v[0].message,
        "suppression allow(W004) suppresses nothing — remove it"
    );
}

#[test]
fn unknown_rule_is_reported() {
    // The codes that moved to clippy get no special case: a pragma
    // cannot waive a compiler lint, `#[expect(clippy::..)]` does.
    for (named, message) in [
        ("D999, Q1", "suppression names unknown rules D999, Q1"),
        ("D001, F003", "suppression names unknown rules D001, F003"),
    ] {
        let src = format!("// lint: allow({named}): not rules of this tool\nfn f() {{}}\n");
        let v = lint("crates/core/src/x.rs", &src);
        assert_eq!(rules(&v), vec![("SUPP", 1)], "{v:#?}");
        assert_eq!(v[0].message, message);
    }
}

#[test]
fn pragmas_in_the_trailing_test_module_are_out_of_scope() {
    let src =
        "fn real() {}\n#[cfg(test)]\nmod tests {\n    // lint: allow(W001)\n    fn t() {}\n}\n";
    assert_eq!(lint("crates/gcs/src/x.rs", src), vec![]);
}
