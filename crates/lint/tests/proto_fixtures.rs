//! Fixture corpus for the wire-protocol rules: known-good and
//! known-bad codec trees for W001–W004 plus their suppression and the
//! registry audit, driven through [`jrs_lint::analyze`] with the
//! workspace W registry (the matrix replaced per fixture, the
//! hand-written list cleared) and an empty F registry.

use jrs_lint::proto::MatrixEnum;
use jrs_lint::{analyze, Config, FlowConfig, ProtoConfig, Report};

fn cfg_with_matrix(enums: &[(&str, &[&str])]) -> Config {
    let matrix = enums
        .iter()
        .map(|(name, crates)| MatrixEnum {
            name: name.to_string(),
            handler_crates: crates.iter().map(|c| c.to_string()).collect(),
            why: "fixture".into(),
        })
        .collect();
    Config {
        flow: FlowConfig::default(),
        proto: ProtoConfig {
            matrix,
            hand_written: Vec::new(),
            ..ProtoConfig::workspace()
        },
    }
}

/// Run every pass, keep the W findings and the suppression audit.
fn check_files(cfg: &Config, files: &[(&str, &str)], lock: Option<&str>) -> Report {
    let mut report = analyze(cfg, files, lock).report;
    report
        .findings
        .retain(|f| f.rule.starts_with('W') || f.rule == "SUPP");
    report
}

const GOOD_ENUM: &str = "\
pub enum Msg {
    Ping { seq: u64 },
    Bye,
}
codec!(enum Msg { 0 => Ping { seq }, 1 => Bye });
fn send() -> Msg { Msg::Ping { seq: 1 } }
fn send2() -> Msg { Msg::Bye }
fn handle(m: &Msg) {
    match m {
        Msg::Ping { seq } => helper(*seq),
        Msg::Bye => {}
    }
}
";

#[test]
fn w001_good_tree_is_clean() {
    let cfg = cfg_with_matrix(&[("Msg", &["core"])]);
    let lock = "enum Msg {\n  Ping = 0\n  Bye = 1\n}\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", GOOD_ENUM)], Some(lock));
    assert!(r.clean(), "expected clean, got:\n{:?}", r.findings);
}

const HAND_WRITTEN: &str = "\
pub struct Grant { pub mom: u32, pub session: u64 }
impl Codec for Grant {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mom.encode(out);
        self.session.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Grant {
            mom: u32::decode(r)?,
            session: u64::decode(r)?,
        })
    }
}
";

#[test]
fn w001_hand_written_codec_must_be_on_the_audited_list() {
    let mut cfg = cfg_with_matrix(&[]);
    let files = [("crates/core/src/a.rs", HAND_WRITTEN)];
    let r = check_files(&cfg, &files, None);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "W001")
        .expect("W001 finding");
    assert!(
        f.message
            .contains("`Grant` has a hand-written `impl Codec`"),
        "{}",
        f.message
    );
    assert_eq!((f.path.as_str(), f.line), ("crates/core/src/a.rs", 2));

    // On the list it passes, is not pinned (no lock asked for), and the
    // entry is load-bearing.
    cfg.proto
        .hand_written
        .push(("Grant".into(), "fixture".into()));
    let r = check_files(&cfg, &files, None);
    assert!(r.clean(), "expected clean, got:\n{:?}", r.findings);

    // The foundation file is hand-written by design.
    let r = check_files(
        &cfg_with_matrix(&[]),
        &[("crates/store/src/codec.rs", HAND_WRITTEN)],
        None,
    );
    assert!(r.clean(), "expected clean, got:\n{:?}", r.findings);
}

#[test]
fn w001_unparseable_declaration_is_a_finding_never_a_silent_pass() {
    let src = "\
pub struct Grant { pub mom: u32, pub session: u64 }
codec!(struct Grant { mom, #[skip] session });
";
    let cfg = cfg_with_matrix(&[]);
    // The lock pins nothing for `Grant`: without W001 this tree would be
    // clean, its layout unpinned.
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], Some("# empty\n"));
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!((f.rule, f.line), ("W001", 2));
    assert!(
        f.message.contains("`codec!` declaration is not readable")
            && f.message.contains("`#[skip] session` is not a field name"),
        "{}",
        f.message
    );
}

#[test]
fn supp_stale_hand_written_entry() {
    let mut cfg = cfg_with_matrix(&[]);
    cfg.proto
        .hand_written
        .push(("Grant".into(), "fixture".into()));
    // `Grant` is declared with `codec!`: the entry waives nothing.
    let src = "\
pub struct Grant { pub mom: u32 }
codec!(struct Grant { mom });
";
    let lock = "struct Grant { mom }\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], Some(lock));
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert!(
        r.findings[0].rule == "SUPP"
            && r.findings[0]
                .message
                .contains("hand-written codec list entry `Grant` names no hand-written"),
        "{:?}",
        r.findings
    );
}

#[test]
fn w002_tag_drift_against_lock_fails() {
    let cfg = cfg_with_matrix(&[("Msg", &["core"])]);
    // The committed lock pins Bye = 2: the source (Bye = 1) drifted.
    let lock = "enum Msg {\n  Ping = 0\n  Bye = 2\n}\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", GOOD_ENUM)], Some(lock));
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W002" && f.message.contains("tag changed 2 -> 1")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w002_field_order_drift_against_lock_shows_both_orders() {
    let src = "\
pub struct Grant { pub mom: u32, pub session: u64 }
codec!(struct Grant { session, mom });
";
    let cfg = cfg_with_matrix(&[]);
    let lock = "struct Grant { mom, session }\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], Some(lock));
    assert!(
        r.findings.iter().any(|f| f.rule == "W002"
            && f.line == 2
            && f.message
                .contains("field order changed [mom, session] -> [session, mom]")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w002_missing_lock_and_duplicate_tags() {
    let src = "\
pub enum Msg {
    A,
    B,
}
codec!(enum Msg { 0 => A, 0 => B });
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W002" && f.message.contains("reuses discriminant 0")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W002" && f.message.contains("no proto.lock committed")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w002_non_dense_tags() {
    let src = "\
pub enum Msg {
    A,
    B,
}
codec!(enum Msg { 0 => A, 9 => B });
";
    let cfg = cfg_with_matrix(&[]);
    let lock = "enum Msg {\n  A = 0\n  B = 1\n}\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], Some(lock));
    assert!(
        r.findings.iter().any(|f| f.rule == "W002"
            && f.message
                .contains("discriminants are not dense: [0, 9] (expected 0..=1)")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W002" && f.message.contains("tag changed 1 -> 9")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w003_unhandled_and_dead_variants() {
    let src = "\
pub enum Msg {
    Used { x: u32 },
    Unhandled { y: u32 },
    Dead { z: u32 },
}
fn send_used() -> Msg { Msg::Used { x: 1 } }
fn send_unhandled() -> Msg { Msg::Unhandled { y: 2 } }
fn handle(m: &Msg) -> u32 {
    match m {
        Msg::Used { x } => *x,
        _ => 0,
    }
}
";
    let cfg = cfg_with_matrix(&[("Msg", &["core"])]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W003"
                && f.message.contains("`Msg::Unhandled` is constructed (sent)")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W003" && f.message.contains("`Msg::Dead` is never constructed")),
        "{:?}",
        r.findings
    );
    assert!(
        !r.findings
            .iter()
            .any(|f| f.rule == "W003" && f.message.contains("`Msg::Used`")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w004_unchecked_allocation_flagged_checked_helper_ok() {
    let bad = "\
fn replay(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    let len = u32::decode(r)? as usize;
    let out = Vec::with_capacity(len);
    Ok(out)
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/store/src/a.rs", bad)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W004" && f.message.contains("`with_capacity`")),
        "{:?}",
        r.findings
    );

    let good = "\
fn replay(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    let len = decode_len(r)?;
    let out = Vec::with_capacity(len);
    Ok(out)
}
";
    let r = check_files(&cfg, &[("crates/store/src/a.rs", good)], None);
    assert!(
        !r.findings.iter().any(|f| f.rule == "W004"),
        "{:?}",
        r.findings
    );
}

#[test]
fn w004_helper_without_limit_flagged() {
    let src = "\
fn decode_len(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let len = u32::decode(r)?;
    Ok(len as usize)
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/store/src/a.rs", src)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W004" && f.message.contains("length helper `decode_len`")),
        "{:?}",
        r.findings
    );
}

#[test]
fn supp_stale_and_unknown_pragmas() {
    let src = "\
// lint: allow(W001): nothing here violates W001
fn quiet() {}
// lint: allow(W999): no such rule
fn quiet2() {}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "SUPP" && f.message.contains("suppresses nothing")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "SUPP" && f.message.contains("unknown rule")),
        "{:?}",
        r.findings
    );
}

#[test]
fn pragma_waives_and_is_counted_used() {
    let src = HAND_WRITTEN.replace(
        "impl Codec for Grant {",
        "// lint: allow(W001): fixture — layout pinned by its own golden test\nimpl Codec for Grant {",
    );
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", &src)], None);
    assert!(r.clean(), "{:?}", r.findings);
}

/// A protocol enum declared with `codec!` in a file that sorts before
/// the one defining it: the declaration is input to the macro, not a
/// second (variant-less) definition that shadows the real one.
#[test]
fn codec_declaration_is_not_taken_for_an_enum_definition() {
    let codec = "\
use crate::server::Cmd;
codec!(enum Cmd {
    0 => Sub(spec),
    1 => Del(id),
    2 => Dead(id),
});
";
    let server = "\
pub enum Cmd {
    Sub(u32),
    Del(u64),
    Dead(u64),
}
fn send(a: bool) -> Cmd { if a { Cmd::Sub(1) } else { Cmd::Del(2) } }
fn apply(c: &Cmd) -> u64 {
    match c {
        Cmd::Sub(n) => u64::from(*n),
        Cmd::Del(id) | Cmd::Dead(id) => *id,
    }
}
";
    let cfg = cfg_with_matrix(&[("Cmd", &["pbs"])]);
    let lock = "enum Cmd {\n  Sub = 0\n  Del = 1\n  Dead = 2\n}\n";
    let a = analyze(
        &cfg,
        &[
            ("crates/pbs/src/codec.rs", codec),
            ("crates/pbs/src/server.rs", server),
        ],
        Some(lock),
    );
    let def = a.model.enum_def("Cmd").expect("Cmd resolves");
    assert_eq!(def.path, "crates/pbs/src/server.rs");
    assert_eq!(def.variants, ["Sub", "Del", "Dead"]);
    assert_eq!(a.report.use_sites, 5);
    // W003 still walks the variants: the dead one is found.
    let w: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule.starts_with('W') || f.rule == "SUPP")
        .collect();
    assert_eq!(w.len(), 1, "{w:?}");
    assert!(
        w[0].rule == "W003" && w[0].message.contains("`Cmd::Dead` is never constructed"),
        "{w:?}"
    );
}

/// A registered protocol enum that stops resolving is a stale registry
/// entry, not a rule that quietly checks nothing.
#[test]
fn supp_registered_enum_that_does_not_resolve() {
    let cfg = cfg_with_matrix(&[("Msg", &["core"]), ("Gone", &["core"])]);
    let lock = "enum Msg {\n  Ping = 0\n  Bye = 1\n}\n";
    let r = check_files(&cfg, &[("crates/core/src/a.rs", GOOD_ENUM)], Some(lock));
    let supp: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert!(r.findings.iter().all(|f| f.rule == "SUPP"));
    assert!(
        supp.iter()
            .any(|m| m.contains("send/handle matrix entry `Gone` resolves to no enum definition")),
        "{supp:?}"
    );

    // A definition the extractor reads no variants from is as stale.
    let empty = "pub enum Gone {}\n";
    let r = check_files(
        &cfg,
        &[
            ("crates/core/src/a.rs", GOOD_ENUM),
            ("crates/core/src/b.rs", empty),
        ],
        Some(lock),
    );
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert!(
        r.findings
            .iter()
            .all(|f| f.rule == "SUPP" && f.message.contains("a definition without variants")),
        "{:?}",
        r.findings
    );
}
