//! The one suppression stage: `// lint: allow(RULE[, RULE]): reason`
//! on the offending line or the line above waives findings of any
//! family, and every pragma is itself audited under `SUPP`.

use jrs_lint::{analyze, Config, Finding, FlowConfig};

/// F003 roots and panic atoms in crate `gcs`; empty W registry.
fn cfg() -> Config {
    let gcs = || vec!["gcs".to_string()];
    let flow = FlowConfig {
        panic_scope: gcs(),
        root_scope: gcs(),
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

/// An `unwrap` in the GCS hot-path file, reachable from a `Process`
/// callback: P001 (line rule) and F003 (graph rule) on the same line.
const TWO_FAMILIES: &str = "\
pub struct Link {
    slot: Option<u64>,
}
impl Process for Link {
    fn on_timer(&mut self) {
        let _v = self.slot.take().unwrap();
    }
}
";

#[test]
fn one_pragma_naming_rules_from_two_families_waives_both_and_counts_as_used() {
    let bare = lint("crates/gcs/src/link.rs", TWO_FAMILIES);
    assert_eq!(rules(&bare), vec![("F003", 6), ("P001", 6)], "{bare:#?}");

    let waived = TWO_FAMILIES.replace(
        "        let _v",
        "        // lint: allow(P001, F003): fixture — slot is refilled before every timer\n        let _v",
    );
    assert_eq!(lint("crates/gcs/src/link.rs", &waived), vec![]);

    // Naming one family only leaves the other standing.
    let half = waived.replace("allow(P001, F003)", "allow(P001)");
    assert_eq!(
        rules(&lint("crates/gcs/src/link.rs", &half)),
        vec![("F003", 7)]
    );
}

#[test]
fn pragma_applies_to_its_own_line_and_the_next_only() {
    let src = "use std::collections::HashMap; // lint: allow(D001): lookup-only cache\n";
    assert_eq!(lint("crates/gcs/src/x.rs", src), vec![]);

    let above = "// lint: allow(D001): lookup-only cache\nuse std::collections::HashMap;\n";
    assert_eq!(lint("crates/gcs/src/x.rs", above), vec![]);

    // Two lines above: the D001 stands and the pragma is dead.
    let far = "// lint: allow(D001): lookup-only cache\n\nuse std::collections::HashMap;\n";
    assert_eq!(
        rules(&lint("crates/gcs/src/x.rs", far)),
        vec![("SUPP", 1), ("D001", 3)]
    );

    // A pragma for another rule does not waive this one.
    let other = "use std::collections::HashMap; // lint: allow(D002): wrong rule\n";
    assert_eq!(
        rules(&lint("crates/gcs/src/x.rs", other)),
        vec![("D001", 1), ("SUPP", 1)]
    );
}

#[test]
fn reasonless_pragma_still_waives_but_is_reported() {
    let src = "use std::collections::HashMap; // lint: allow(D001)\n";
    let v = lint("crates/gcs/src/x.rs", src);
    assert_eq!(rules(&v), vec![("SUPP", 1)], "{v:#?}");
    assert!(
        v[0].message
            .contains("suppression of D001 without a reason"),
        "{}",
        v[0].message
    );
}

#[test]
fn stale_pragma_is_supp_without_any_re_lint() {
    // Nothing on or below the pragma line trips D002, so no raw finding
    // matches it; the audit needs no second lint of the file to say so.
    let src =
        "pub fn stale() -> u64 {\n    // lint: allow(D002): nothing here reads a clock\n    7\n}\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(rules(&v), vec![("SUPP", 2)], "{v:#?}");
    assert_eq!(
        v[0].message,
        "suppression allow(D002) suppresses nothing — remove it"
    );
}

#[test]
fn unknown_rule_is_reported() {
    let v = lint(
        "crates/core/src/x.rs",
        "// lint: allow(D999, Q1): not real rules\nfn f() {}\n",
    );
    assert_eq!(rules(&v), vec![("SUPP", 1)], "{v:#?}");
    assert_eq!(v[0].message, "suppression names unknown rules D999, Q1");
}

#[test]
fn old_dialect_pragmas_are_reported_not_silently_ignored() {
    for (dialect, rule, path, src) in [
        (
            "detlint",
            "D001",
            "crates/gcs/src/x.rs",
            "use std::collections::HashMap; // detlint: allow(D001): lookup-only\n",
        ),
        (
            "flow",
            "F003",
            "crates/gcs/src/link.rs",
            "// flow: allow(F003): bounded by construction\nfn f() {}\n",
        ),
        (
            "proto",
            "W001",
            "crates/core/src/x.rs",
            "// proto: allow(W001): pinned by tests\nfn f() {}\n",
        ),
    ] {
        let v = lint(path, src);
        let supp: Vec<_> = v.iter().filter(|f| f.rule == "SUPP").collect();
        assert_eq!(supp.len(), 1, "{dialect}: {v:#?}");
        assert_eq!(supp[0].line, 1);
        assert_eq!(
            supp[0].message,
            format!(
                "retired pragma dialect `// {dialect}: allow(..)` waives nothing — write \
                 `// lint: allow({rule}): <why this is safe>`"
            )
        );
    }
    // ... and it waives nothing: the D001 it used to hide is back.
    let v = lint(
        "crates/gcs/src/x.rs",
        "use std::collections::HashMap; // detlint: allow(D001): lookup-only\n",
    );
    assert_eq!(rules(&v), vec![("D001", 1), ("SUPP", 1)]);
}

#[test]
fn pragmas_in_the_trailing_test_module_are_out_of_scope() {
    let src =
        "fn real() {}\n#[cfg(test)]\nmod tests {\n    // lint: allow(D001)\n    fn t() {}\n}\n";
    assert_eq!(lint("crates/gcs/src/x.rs", src), vec![]);
}
