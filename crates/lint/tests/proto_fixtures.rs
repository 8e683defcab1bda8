//! Fixture corpus for the wire-protocol rules: known-good and
//! known-bad codec trees for W001–W004 plus their suppression, driven
//! through [`jrs_lint::analyze`] with the workspace registries (the
//! matrix replaced per fixture, the opaque allowlist cleared). The bad
//! fixtures pin the finding and its field-level diff witness.

use jrs_lint::proto::MatrixEnum;
use jrs_lint::{analyze, Config, Report};

fn cfg_with_matrix(enums: &[(&str, &[&str])]) -> Config {
    let mut cfg = Config::workspace();
    cfg.proto.matrix = enums
        .iter()
        .map(|(name, crates)| MatrixEnum {
            name: name.to_string(),
            handler_crates: crates.iter().map(|c| c.to_string()).collect(),
            why: "fixture".into(),
        })
        .collect();
    cfg.proto.opaque_allow.clear();
    cfg
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
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping { seq } => {
                0u8.encode(out);
                seq.encode(out);
            }
            Msg::Bye => {
                1u8.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::Ping { seq: u64::decode(r)? }),
            1 => Ok(Msg::Bye),
            _ => Err(DecodeError::Invalid(\"Msg tag\")),
        }
    }
}
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

#[test]
fn w001_field_order_divergence_has_diff_witness() {
    let src = "\
pub struct Grant { pub mom: u32, pub session: u64 }
impl Codec for Grant {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mom.encode(out);
        self.session.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Grant {
            session: u64::decode(r)?,
            mom: u32::decode(r)?,
        })
    }
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "W001")
        .expect("W001 finding");
    assert!(
        f.message.contains("field sequences diverge"),
        "{}",
        f.message
    );
    assert!(
        f.chain.iter().any(|w| w.contains("[mom, session]")),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain.iter().any(|w| w.contains("[session, mom]")),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain
            .iter()
            .any(|w| w.contains("position 0") && w.contains("`mom`") && w.contains("`session`")),
        "{:?}",
        f.chain
    );
}

#[test]
fn w001_missing_tag_and_missing_reject_flagged() {
    let src = "\
pub enum Msg {
    Ping { seq: u64 },
}
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping { seq } => {
                seq.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::Ping { seq: u64::decode(r)? }),
        }
    }
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W001" && f.message.contains("before (or without) its discriminant")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "W001" && f.message.contains("no `_ => Err(..)` arm")),
        "{:?}",
        r.findings
    );
}

#[test]
fn w001_type_mismatch_flagged() {
    let src = "\
pub struct Rec { pub idx: u64 }
impl Codec for Rec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.idx.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Rec { idx: u32::decode(r)? })
    }
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        r.findings.iter().any(|f| f.rule == "W001"
            && f.message.contains("decodes field `idx` as `u32`")
            && f.message.contains("declares `u64`")),
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
fn w002_missing_lock_and_duplicate_tags() {
    let src = "\
pub enum Msg {
    A,
    B,
}
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::A => {
                0u8.encode(out);
            }
            Msg::B => {
                0u8.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::A),
            1 => Ok(Msg::B),
            _ => Err(DecodeError::Invalid(\"Msg tag\")),
        }
    }
}
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
    let src = "\
pub struct Rec { pub idx: u64 }
impl Codec for Rec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.idx.encode(out);
    }
    // lint: allow(W001): fixture — intentional narrowing pinned by tests
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Rec { idx: u32::decode(r)? })
    }
}
";
    let cfg = cfg_with_matrix(&[]);
    let r = check_files(&cfg, &[("crates/core/src/a.rs", src)], None);
    assert!(
        !r.findings
            .iter()
            .any(|f| f.rule == "W001" || f.rule == "SUPP"),
        "{:?}",
        r.findings
    );
}

/// The same codec as rustfmt lays it out when the struct patterns are
/// short (one line each) and when they exceed its struct-literal width
/// (one field per line, the `=>` on the closing-brace line).
const LAYOUT_ONE_LINE: &str = "\
pub enum Msg {
    Ping { seq: u64, origin: u32, hops: u8 },
    Pong { seq: u64 },
    Bye,
}
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping { seq, origin, hops } => {
                0u8.encode(out);
                seq.encode(out);
                origin.encode(out);
                hops.encode(out);
            }
            Msg::Pong { seq } => {
                1u8.encode(out);
                seq.encode(out);
            }
            Msg::Bye => {
                2u8.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::Ping { seq: u64::decode(r)?, origin: u32::decode(r)?, hops: u8::decode(r)? }),
            1 => Ok(Msg::Pong { seq: u64::decode(r)? }),
            2 => Ok(Msg::Bye),
            _ => Err(DecodeError::Invalid(\"Msg tag\")),
        }
    }
}
";

const LAYOUT_SPREAD: &str = "\
pub enum Msg {
    Ping { seq: u64, origin: u32, hops: u8 },
    Pong { seq: u64 },
    Bye,
}
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping {
                seq,
                origin,
                hops,
            } => {
                0u8.encode(out);
                seq.encode(out);
                origin.encode(out);
                hops.encode(out);
            }
            Msg::Pong { seq } => {
                1u8.encode(out);
                seq.encode(out);
            }
            Msg::Bye => {
                2u8.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::Ping {
                seq: u64::decode(r)?,
                origin: u32::decode(r)?,
                hops: u8::decode(r)?,
            }),
            1 => Ok(Msg::Pong {
                seq: u64::decode(r)?,
            }),
            2 => Ok(Msg::Bye),
            _ => Err(DecodeError::Invalid(\"Msg tag\")),
        }
    }
}
";

#[test]
fn codec_shape_does_not_depend_on_arm_layout() {
    use jrs_lint::codec::{DecField, DecSide, EncOp, EncSide};
    type Enc = Vec<(String, Option<u64>, Option<u8>, Vec<EncOp>)>;
    type Dec = Vec<(String, u64, Vec<DecField>)>;
    let cfg = cfg_with_matrix(&[]);
    let lock = "enum Msg {\n  Ping = 0\n  Pong = 1\n  Bye = 2\n}\n";
    let shape = |src: &str| -> (Enc, Dec) {
        let a = analyze(&cfg, &[("crates/core/src/a.rs", src)], Some(lock));
        let w: Vec<_> = a
            .report
            .findings
            .iter()
            .filter(|f| f.rule.starts_with('W'))
            .collect();
        assert!(w.is_empty(), "expected no W finding, got:\n{w:?}");
        let c = a.proto.codec("Msg").expect("codec extracted");
        let EncSide::Enum { variants, .. } = &c.enc else {
            panic!("encode side: {:?}", c.enc)
        };
        let DecSide::Enum { arms, .. } = &c.dec else {
            panic!("decode side: {:?}", c.dec)
        };
        (
            variants
                .iter()
                .map(|v| (v.name.clone(), v.tag, v.tag_width, v.ops.clone()))
                .collect(),
            arms.iter()
                .map(|v| (v.name.clone(), v.tag, v.fields.clone()))
                .collect(),
        )
    };
    let one_line = shape(LAYOUT_ONE_LINE);
    assert_eq!(one_line.0.len(), 3, "every variant has an encode arm");
    assert_eq!(
        one_line.0[0].3,
        ["seq", "origin", "hops"].map(|f| EncOp::Val(f.into())),
        "Ping's arm owns exactly its own writes"
    );
    assert_eq!(one_line, shape(LAYOUT_SPREAD));
}
