//! The protocol-conformance rules (W001–W004), and the configuration
//! registry naming the workspace's foundation codecs, audited opaque
//! codecs, protocol-enum matrix, and checked length helpers.
//!
//! JOSHUA replicas agree because every head decodes exactly the bytes
//! its peers encode: the WAL a head replays at recovery, the snapshots
//! it installs, and the `Payload` stream the total-order engine
//! delivers are all hand-rolled `Codec` impls. The D/P rules check
//! determinism lexically, the F rules check state-mutation dataflow,
//! and jrs-mc checks interleavings dynamically — but none of them see
//! the *protocol*: a swapped field pair, a renumbered discriminant, or
//! a sent-but-unhandled message ships silently and corrupts recovery
//! or wedges a replica.
//!
//! * **W001** — codec symmetry: for every `impl Codec`, the ordered
//!   field writes in `encode` must mirror the field reads in `decode`
//!   (same names, same order, compatible primitive types), and enum
//!   codecs must write/read the discriminant before any field and
//!   reject unknown tags. Violations carry a field-level diff witness.
//! * **W002** — tag stability: enum discriminants must be unique and
//!   dense, and every codec's schema must match the committed
//!   `proto.lock` manifest — schema drift vs. on-disk WAL/snapshot
//!   data is a hard error, not a runtime quarantine.
//! * **W003** — send/handle matrix: every protocol-enum variant
//!   constructed (sent) somewhere must be matched by a handler arm in
//!   its receiving role's crates; never-constructed variants are dead
//!   protocol surface.
//! * **W004** — decode-side bounds: a decoded length may size an
//!   allocation only after passing a checked limit helper, and the
//!   helpers themselves must enforce an explicit maximum.
//!
//! A codec the scanner cannot classify does not pass silently — it
//! becomes a W001 opaque finding that must be restructured or
//! explicitly allowlisted with an audited reason
//! ([`ProtoConfig::opaque_allow`]), and the allowlist itself is audited
//! for staleness (`SUPP`). Generic container codecs in the foundation
//! layer are exempt from the structural mirror (their symmetry is
//! pinned by unit tests and the round-trip property tests) but still
//! subject to W004's bounds discipline.

use crate::codec::{
    CodecImpl, DecField, DecSide, EncOp, EncSide, ProtoModel, UseKind, VariantDec, VariantEnc,
};
use crate::lock::Schema;
use crate::model::{FnDef, Model};
use crate::report::{Finding, Rule};
use crate::text::{balanced, has_token, is_ident};
use std::collections::{BTreeMap, BTreeSet};

/// The W rule table.
pub const RULES: &[Rule] = &[
    Rule {
        code: "W001",
        summary: "codec symmetry: encode and decode read/write the same fields in the same order (field-level diff witness on divergence); enum codecs write/read the discriminant first and reject unknown tags",
        why: "persisted records decode positionally, so a swapped pair makes every replica reading an old record mis-assign fields",
    },
    Rule {
        code: "W002",
        summary: "tag stability: enum discriminants unique and dense, and the whole schema pinned against the committed proto.lock manifest",
        why: "the WAL and snapshot files on every head's disk were written by earlier builds; drift is a hard error, not a runtime quarantine",
    },
    Rule {
        code: "W003",
        summary: "send/handle matrix: every constructed protocol-enum variant is handled in its receiving role's crates; never-constructed variants are dead protocol surface",
        why: "a sent-but-unhandled message is silently dropped and wedges a replica",
    },
    Rule {
        code: "W004",
        summary: "decode-side bounds: decoded lengths pass a checked limit helper before sizing any allocation; the helpers themselves must enforce an explicit maximum and a remaining-bytes bound",
        why: "otherwise a corrupt record controls the allocation size",
    },
];

/// One protocol enum in the send/handle matrix.
#[derive(Clone, Debug, Default)]
pub struct MatrixEnum {
    /// Enum name.
    pub name: String,
    /// Crates acting as the receiving role: every constructed variant
    /// must be matched by a handler arm in one of these.
    pub handler_crates: Vec<String>,
    /// Why this enum is registered (shown by `rules`).
    pub why: String,
}

/// Analysis configuration: the registry the rules run against.
/// [`ProtoConfig::workspace`] is the audited production registry;
/// fixtures construct their own (the default registry is empty).
#[derive(Clone, Debug, Default)]
pub struct ProtoConfig {
    /// Files whose `impl Codec` blocks form the foundation layer
    /// (generic containers, primitives). They are exempt from W001's
    /// structural mirror — their symmetry is pinned by their own unit
    /// tests and the round-trip property tests — and are not pinned in
    /// `proto.lock` (no per-type field list).
    pub foundation_paths: Vec<String>,
    /// Codec types whose encode/decode are legitimately not
    /// structurally mirrorable, with audited reasons. Entries must be
    /// load-bearing: a stale entry is a `SUPP` finding.
    pub opaque_allow: Vec<(String, String)>,
    /// The send/handle matrix (W003).
    pub matrix: Vec<MatrixEnum>,
    /// Function names never counted as construct/handle sites (wire
    /// size estimators and similar metadata matches).
    pub ignore_fns: Vec<String>,
    /// Checked length-limit helpers (W004): a decoded length must pass
    /// through one of these before sizing an allocation.
    pub len_helpers: Vec<String>,
    /// Tokens marking an explicit maximum bound inside a helper.
    pub limit_tokens: Vec<String>,
    /// Qualified raw-sink primitives (`Type::method`) exempt from W004
    /// (the bounds-checked cursor primitive itself).
    pub sink_primitives: Vec<String>,
}

impl ProtoConfig {
    /// The audited registry for this workspace.
    pub fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let m = |name: &str, crates: &[&str], why: &str| MatrixEnum {
            name: name.into(),
            handler_crates: s(crates),
            why: why.into(),
        };
        ProtoConfig {
            foundation_paths: s(&["crates/store/src/codec.rs"]),
            opaque_allow: vec![(
                "NodePool".into(),
                "encode flattens the pool to its ordered node list and decode \
                 rebuilds the index; symmetry is pinned by round-trip tests"
                    .into(),
            )],
            // CmdReply is deliberately unregistered: its receiving role
            // is the submitting client, which lives in the test/driver
            // harness rather than a shipping crate, so a send/handle
            // obligation inside `crates/*` would be vacuous (its codec
            // symmetry and tags are still checked by W001/W002).
            matrix: vec![
                m(
                    "Wire",
                    &["gcs"],
                    "the sequenced transport frame between group members",
                ),
                m(
                    "GcsMsg",
                    &["gcs"],
                    "ring coordination: join/heartbeat/flush/install",
                ),
                m(
                    "EngineMsg",
                    &["gcs"],
                    "total-order engine traffic carried inside the ring",
                ),
                m(
                    "Payload",
                    &["core"],
                    "the replicated command stream every head applies",
                ),
                m(
                    "ServerCmd",
                    &["pbs"],
                    "intercepted PBS user commands applied by the server core",
                ),
                m(
                    "MomInbound",
                    &["pbs"],
                    "head-to-mom dispatch: launches, verdicts, cancels",
                ),
                m(
                    "MomReport",
                    &["core", "pbs"],
                    "mom-to-head obituaries lifted into the total order",
                ),
            ],
            ignore_fns: s(&["wire_size"]),
            len_helpers: s(&["decode_len"]),
            limit_tokens: s(&["MAX_"]),
            sink_primitives: s(&["Reader::take"]),
        }
    }

    /// Is this file part of the audited foundation layer?
    pub fn is_foundation(&self, path: &str) -> bool {
        self.foundation_paths.iter().any(|p| p == path)
    }
}

/// Run every W rule plus the opaque-allowlist audit; raw findings,
/// before suppression. `lock` is the committed `proto.lock` text.
pub fn check(
    cfg: &ProtoConfig,
    model: &Model,
    pm: &ProtoModel,
    lock: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    check_w001(cfg, model, pm, &mut out);
    check_w002(cfg, pm, lock, &mut out);
    check_w003(cfg, model, pm, &mut out);
    check_w004(cfg, model, &mut out);
    audit_opaque_allow(cfg, pm, &mut out);
    out
}

// ----------------------------------------------------------------------
// W001 — codec symmetry
// ----------------------------------------------------------------------

/// Codecs subject to structural checking.
fn checked_codecs<'m>(
    cfg: &'m ProtoConfig,
    pm: &'m ProtoModel,
) -> impl Iterator<Item = &'m CodecImpl> {
    pm.codecs.iter().filter(move |c| {
        !cfg.is_foundation(&c.path)
            && !c.type_name.contains('$')
            && !cfg.opaque_allow.iter().any(|(t, _)| t == &c.type_name)
    })
}

fn check_w001(cfg: &ProtoConfig, model: &Model, pm: &ProtoModel, out: &mut Vec<Finding>) {
    for c in checked_codecs(cfg, pm) {
        match (&c.enc, &c.dec) {
            (EncSide::Opaque(why), _) => out.push(Finding::new(
                "W001",
                &c.path,
                c.enc_line,
                format!(
                    "`{}` encode is not structurally checkable ({why}) — restructure \
                     it into plain field writes or add an audited opaque-allowlist \
                     entry",
                    c.type_name
                ),
                vec![],
            )),
            (_, DecSide::Opaque(why)) => out.push(Finding::new(
                "W001",
                &c.path,
                c.dec_line,
                format!(
                    "`{}` decode is not structurally checkable ({why}) — restructure \
                     it into a plain constructor or add an audited opaque-allowlist \
                     entry",
                    c.type_name
                ),
                vec![],
            )),
            (EncSide::Struct(ops), DecSide::Struct(fields)) => {
                check_struct_codec(model, c, ops, fields, out);
            }
            (EncSide::Struct(ops), DecSide::Tuple(arity)) => {
                if let Some(op) = ops.iter().find_map(opaque_op) {
                    out.push(opaque_op_finding(c, op));
                } else if ops.len() != *arity {
                    out.push(Finding::new(
                        "W001",
                        &c.path,
                        c.dec_line,
                        format!(
                            "`{}` encodes {} field(s) but decodes {} positionally",
                            c.type_name,
                            ops.len(),
                            arity
                        ),
                        seq_witness(&enc_names(ops), &vec!["_".to_string(); *arity]),
                    ));
                }
            }
            (
                EncSide::Enum { width, variants },
                DecSide::Enum {
                    width: dw,
                    arms,
                    rejects_unknown,
                },
            ) => {
                check_enum_codec(model, c, *width, variants, *dw, arms, *rejects_unknown, out);
            }
            (EncSide::Enum { .. }, _) => out.push(Finding::new(
                "W001",
                &c.path,
                c.dec_line,
                format!(
                    "`{}` encode matches over enum variants but decode does not read \
                     a discriminant",
                    c.type_name
                ),
                vec![],
            )),
            (EncSide::Struct(_), DecSide::Enum { .. }) => out.push(Finding::new(
                "W001",
                &c.path,
                c.enc_line,
                format!(
                    "`{}` decode reads a discriminant but encode writes plain fields",
                    c.type_name
                ),
                vec![],
            )),
        }
    }
}

fn opaque_op(op: &EncOp) -> Option<&str> {
    match op {
        EncOp::Opaque(t) => Some(t),
        _ => None,
    }
}

fn opaque_op_finding(c: &CodecImpl, op: &str) -> Finding {
    Finding::new(
        "W001",
        &c.path,
        c.enc_line,
        format!(
            "`{}` encode contains an unclassifiable write `{op}` — the field \
             sequence cannot be mirrored against decode",
            c.type_name
        ),
        vec![],
    )
}

fn enc_names(ops: &[EncOp]) -> Vec<String> {
    ops.iter()
        .map(|op| match op {
            EncOp::Tag { value, width } => format!("<tag {value}u{width}>"),
            EncOp::Val(n) => n.clone(),
            EncOp::Opaque(t) => format!("<? {t}>"),
        })
        .collect()
}

fn dec_names(fields: &[DecField]) -> Vec<String> {
    fields
        .iter()
        .enumerate()
        .map(|(i, f)| f.name.clone().unwrap_or_else(|| format!("#{i}")))
        .collect()
}

/// The two ordered sequences plus the first divergence, for the
/// witness block.
fn seq_witness(enc: &[String], dec: &[String]) -> Vec<String> {
    let mut w = vec![
        format!("encode writes : [{}]", enc.join(", ")),
        format!("decode reads  : [{}]", dec.join(", ")),
    ];
    for i in 0..enc.len().max(dec.len()) {
        let (e, d) = (enc.get(i), dec.get(i));
        if e != d {
            let show = |x: Option<&String>| x.map_or("<nothing>".to_string(), |v| format!("`{v}`"));
            w.push(format!(
                "first divergence at position {i}: encode writes {}, decode reads {}",
                show(e),
                show(d)
            ));
            break;
        }
    }
    w
}

fn check_struct_codec(
    model: &Model,
    c: &CodecImpl,
    ops: &[EncOp],
    fields: &[DecField],
    out: &mut Vec<Finding>,
) {
    if let Some(op) = ops.iter().find_map(opaque_op) {
        out.push(opaque_op_finding(c, op));
        return;
    }
    let e = enc_names(ops);
    let d = dec_names(fields);
    if e != d {
        out.push(Finding::new(
            "W001",
            &c.path,
            c.dec_line,
            format!(
                "`{}` encode/decode field sequences diverge — persisted records \
                 decode positionally, so every replica reading an old record \
                 mis-assigns fields",
                c.type_name
            ),
            seq_witness(&e, &d),
        ));
        return;
    }
    // Field-type cross-check: an explicit primitive decode must match
    // the declared field type (a u32/u64 width swap shifts every later
    // field).
    for f in fields {
        let (Some(name), Some(ty)) = (&f.name, &f.ty) else {
            continue;
        };
        if let Some(declared) = model.field_type(&c.type_name, name) {
            if declared != ty {
                out.push(Finding::new(
                    "W001",
                    &c.path,
                    c.dec_line,
                    format!(
                        "`{}` decodes field `{name}` as `{ty}` but the struct \
                         declares `{declared}` — width/type mismatch shifts every \
                         subsequent field",
                        c.type_name
                    ),
                    vec![],
                ));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_enum_codec(
    model: &Model,
    c: &CodecImpl,
    enc_width: Option<u8>,
    variants: &[VariantEnc],
    dec_width: u8,
    arms: &[VariantDec],
    rejects_unknown: bool,
    out: &mut Vec<Finding>,
) {
    if let Some(w) = enc_width {
        if w != dec_width {
            out.push(Finding::new(
                "W001",
                &c.path,
                c.dec_line,
                format!(
                    "`{}` writes a u{w} discriminant but reads u{dec_width}",
                    c.type_name
                ),
                vec![],
            ));
        }
    }
    if !rejects_unknown {
        out.push(Finding::new(
            "W001",
            &c.path,
            c.dec_line,
            format!(
                "`{}` decode has no `_ => Err(..)` arm — an unknown discriminant \
                 must be a decode error, never undefined behavior or a silent \
                 default",
                c.type_name
            ),
            vec![],
        ));
    }

    // The shipping enum definition is the source of truth for the
    // variant set; fall back to the union of both codec sides.
    let declared: Vec<String> = match model.enum_def(&c.type_name) {
        Some(def) => def.variants.clone(),
        None => {
            let mut names: Vec<String> = variants.iter().map(|v| v.name.clone()).collect();
            for a in arms {
                if !names.contains(&a.name) {
                    names.push(a.name.clone());
                }
            }
            names
        }
    };

    for name in &declared {
        let ve = variants.iter().find(|v| &v.name == name);
        let va = arms.iter().find(|a| &a.name == name);
        match (ve, va) {
            (None, _) => out.push(Finding::new(
                "W001",
                &c.path,
                c.enc_line,
                format!("`{}::{name}` has no encode arm", c.type_name),
                vec![],
            )),
            (_, None) => out.push(Finding::new(
                "W001",
                &c.path,
                c.dec_line,
                format!("`{}::{name}` has no decode arm", c.type_name),
                vec![],
            )),
            (Some(ve), Some(va)) => {
                check_variant_pair(c, ve, va, dec_width, out);
            }
        }
    }
    for v in variants {
        if !declared.contains(&v.name) {
            out.push(Finding::new(
                "W001",
                &c.path,
                v.line,
                format!(
                    "encode arm for `{}::{}` matches no declared variant (stale \
                     codec arm)",
                    c.type_name, v.name
                ),
                vec![],
            ));
        }
    }
    for a in arms {
        if !declared.contains(&a.name) {
            out.push(Finding::new(
                "W001",
                &c.path,
                a.line,
                format!(
                    "decode arm for `{}::{}` matches no declared variant (stale \
                     codec arm)",
                    c.type_name, a.name
                ),
                vec![],
            ));
        }
    }
}

fn check_variant_pair(
    c: &CodecImpl,
    ve: &VariantEnc,
    va: &VariantDec,
    dec_width: u8,
    out: &mut Vec<Finding>,
) {
    let qual = format!("{}::{}", c.type_name, ve.name);
    let Some(tag) = ve.tag else {
        out.push(Finding::new(
            "W001",
            &c.path,
            ve.line,
            format!(
                "`{qual}` writes fields before (or without) its discriminant — the \
                 tag must be the first bytes of every enum encoding"
            ),
            seq_witness(&enc_names(&ve.ops), &dec_names(&va.fields)),
        ));
        return;
    };
    if tag != va.tag {
        out.push(Finding::new(
            "W001",
            &c.path,
            va.line,
            format!("`{qual}` encodes tag {tag} but decodes tag {}", va.tag),
            vec![],
        ));
    }
    if let Some(w) = ve.tag_width {
        if w != dec_width {
            out.push(Finding::new(
                "W001",
                &c.path,
                va.line,
                format!("`{qual}` writes a u{w} tag but the decode match reads u{dec_width}"),
                vec![],
            ));
        }
    }
    if let Some(op) = ve.ops.iter().find_map(opaque_op) {
        out.push(opaque_op_finding(c, op));
        return;
    }
    let e = enc_names(&ve.ops);
    if let Some(arity) = va.tuple_arity {
        if ve.ops.len() != arity {
            out.push(Finding::new(
                "W001",
                &c.path,
                va.line,
                format!(
                    "`{qual}` encodes {} value(s) but decodes {arity} positionally",
                    ve.ops.len()
                ),
                seq_witness(&e, &vec!["_".to_string(); arity]),
            ));
        }
        return;
    }
    let d = dec_names(&va.fields);
    if e != d {
        out.push(Finding::new(
            "W001",
            &c.path,
            va.line,
            format!(
                "`{qual}` encode/decode field sequences diverge — both sides must \
                 read and write the same fields in the same order"
            ),
            seq_witness(&e, &d),
        ));
    }
}

// ----------------------------------------------------------------------
// W002 — tag stability
// ----------------------------------------------------------------------

fn check_w002(cfg: &ProtoConfig, pm: &ProtoModel, lock: Option<&str>, out: &mut Vec<Finding>) {
    // Uniqueness and density, straight from the source.
    for c in checked_codecs(cfg, pm) {
        let EncSide::Enum { variants, .. } = &c.enc else {
            continue;
        };
        let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for v in variants {
            if let Some(t) = v.tag {
                by_tag.entry(t).or_default().push(&v.name);
            }
        }
        for (t, names) in &by_tag {
            if names.len() > 1 {
                out.push(Finding::new(
                    "W002",
                    &c.path,
                    c.enc_line,
                    format!(
                        "`{}` reuses discriminant {t} for variants {} — decode \
                         cannot tell them apart",
                        c.type_name,
                        names.join(", ")
                    ),
                    vec![],
                ));
            }
        }
        let tags: Vec<u64> = by_tag.keys().copied().collect();
        let dense: Vec<u64> = (0..tags.len() as u64).collect();
        if !tags.is_empty() && tags != dense {
            out.push(Finding::new(
                "W002",
                &c.path,
                c.enc_line,
                format!(
                    "`{}` discriminants are not dense: [{}] (expected 0..={}) — \
                     holes invite accidental reuse by a future variant",
                    c.type_name,
                    tags.iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    tags.len().saturating_sub(1)
                ),
                vec![],
            ));
        }
    }

    // Drift against the committed manifest.
    let current = Schema::from_model(cfg, pm);
    let pinned = match lock {
        None => {
            if !current.enums.is_empty() || !current.structs.is_empty() {
                out.push(Finding::new(
                    "W002",
                    "proto.lock",
                    1,
                    "no proto.lock committed — pin the wire schema with \
                     `cargo run -p jrs-lint -- lock > proto.lock` and commit the manifest"
                        .to_string(),
                    vec![],
                ));
            }
            return;
        }
        Some(text) => match Schema::parse(text) {
            Ok(s) => s,
            Err(e) => {
                out.push(Finding::new(
                    "W002",
                    "proto.lock",
                    1,
                    format!("proto.lock is unparseable: {e}"),
                    vec![],
                ));
                return;
            }
        },
    };
    for (type_name, message) in Schema::diff(&pinned, &current) {
        let (path, line) = pm
            .codec(&type_name)
            .map(|c| (c.path.clone(), c.enc_line))
            .unwrap_or_else(|| ("proto.lock".to_string(), 1));
        out.push(Finding::new("W002", &path, line, message, vec![]));
    }
}

// ----------------------------------------------------------------------
// W003 — send/handle matrix
// ----------------------------------------------------------------------

fn check_w003(cfg: &ProtoConfig, model: &Model, pm: &ProtoModel, out: &mut Vec<Finding>) {
    for m in &cfg.matrix {
        let Some(def) = model.enum_def(&m.name) else {
            continue;
        };
        for variant in &def.variants {
            let uses: Vec<_> = pm
                .uses
                .iter()
                .filter(|u| u.enum_name == m.name && &u.variant == variant)
                .collect();
            let constructs: Vec<_> = uses
                .iter()
                .filter(|u| u.kind == UseKind::Construct)
                .collect();
            let handled_in_role = uses.iter().any(|u| {
                u.kind == UseKind::Handle && m.handler_crates.iter().any(|c| c == &u.crate_key)
            });
            if constructs.is_empty() {
                if !m.handler_crates.is_empty() {
                    out.push(Finding::new(
                        "W003",
                        &def.path,
                        def.line,
                        format!(
                            "`{}::{variant}` is never constructed outside its codec \
                             and tests — dead protocol surface (delete it, or the \
                             send site is hidden from the scanner)",
                            m.name
                        ),
                        vec![],
                    ));
                }
                continue;
            }
            if !handled_in_role {
                let mut witness: Vec<String> = constructs
                    .iter()
                    .take(5)
                    .map(|u| format!("constructed in {} ({}:{})", u.in_fn, u.path, u.line))
                    .collect();
                let other_crates: BTreeSet<&str> = uses
                    .iter()
                    .filter(|u| u.kind == UseKind::Handle)
                    .map(|u| u.crate_key.as_str())
                    .collect();
                if !other_crates.is_empty() {
                    witness.push(format!(
                        "handled only outside the receiving role: {}",
                        other_crates.into_iter().collect::<Vec<_>>().join(", ")
                    ));
                }
                let first = constructs[0];
                out.push(Finding::new(
                    "W003",
                    &first.path,
                    first.line,
                    format!(
                        "`{}::{variant}` is constructed (sent) but no handler arm in \
                         the receiving role [{}] matches it — the message would be \
                         silently unhandled",
                        m.name,
                        m.handler_crates.join(", ")
                    ),
                    witness,
                ));
            }
        }
    }
}

// ----------------------------------------------------------------------
// W004 — decode-side bounds
// ----------------------------------------------------------------------

/// Lines that introduce an unchecked decoded length.
const LEN_SOURCES: &[&str] = &["::decode(", "le_u32_at(", "le_u64_at("];

fn check_w004(cfg: &ProtoConfig, model: &Model, out: &mut Vec<Finding>) {
    for facts in &model.files {
        for f in &facts.fns {
            if f.is_test {
                continue;
            }
            if cfg.sink_primitives.iter().any(|s| s == &f.qualified) {
                continue;
            }
            let body = facts.span(f.line, f.end_line);
            if cfg.len_helpers.iter().any(|h| h == &f.name) {
                check_len_helper(cfg, &facts.path, f, &body, out);
                continue;
            }
            check_fn_sinks(cfg, &facts.path, &body, out);
        }
    }
}

/// A registered limit helper must enforce an explicit maximum and a
/// remaining-bytes bound itself — it is the single place corrupt
/// lengths are supposed to die.
fn check_len_helper(
    cfg: &ProtoConfig,
    path: &str,
    f: &FnDef,
    body: &[(usize, &str)],
    out: &mut Vec<Finding>,
) {
    let text: String = body.iter().map(|(_, l)| *l).collect::<Vec<_>>().join("\n");
    let has_limit = cfg.limit_tokens.iter().any(|t| text.contains(t.as_str()));
    let has_remaining = text.contains("remaining()");
    if !has_limit || !has_remaining {
        out.push(Finding::new(
            "W004",
            path,
            f.line,
            format!(
                "length helper `{}` must enforce an explicit maximum (a `{}` \
                 const) and a remaining-bytes bound before returning — it is the \
                 checked gate every decoded length flows through",
                f.name,
                cfg.limit_tokens.join("/"),
            ),
            vec![],
        ));
    }
}

fn check_fn_sinks(cfg: &ProtoConfig, path: &str, body: &[(usize, &str)], out: &mut Vec<Finding>) {
    // Single-assignment taint: names bound (directly or transitively)
    // to a decoded length that never passed a checked helper.
    let mut unchecked: BTreeSet<String> = BTreeSet::new();
    for (_, l) in body {
        let Some((name, rhs)) = parse_let(l) else {
            continue;
        };
        let via_helper = cfg
            .len_helpers
            .iter()
            .any(|h| rhs.contains(&format!("{h}(")));
        if via_helper {
            unchecked.remove(&name);
            continue;
        }
        let from_source = LEN_SOURCES.iter().any(|s| rhs.contains(s));
        let from_taint = unchecked.iter().any(|v| has_token(rhs, v));
        if from_source || from_taint {
            unchecked.insert(name);
        } else {
            unchecked.remove(&name);
        }
    }

    for (n, l) in body {
        for (pat, render) in [("with_capacity(", "with_capacity"), (".take(", "take")] {
            let mut start = 0;
            while let Some(rel) = l[start..].find(pat) {
                let pos = start + rel;
                let arg_start = pos + pat.len();
                start = arg_start;
                let Some(arg) = balanced(&l[arg_start - 1..], '(', ')') else {
                    continue;
                };
                check_sink_arg(cfg, path, *n, render, arg.trim(), &unchecked, out);
            }
        }
        if let Some(pos) = l.find("vec![") {
            if let Some(body_txt) = balanced(&l[pos + 4..], '[', ']') {
                if let Some((_, len)) = body_txt.rsplit_once(';') {
                    check_sink_arg(cfg, path, *n, "vec![..; len]", len.trim(), &unchecked, out);
                }
            }
        }
    }
}

/// `let [mut] name[: T] = rhs;` -> `(name, rhs)`.
fn parse_let(l: &str) -> Option<(String, &str)> {
    let t = l.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let eq = rest.find('=')?;
    let name_part = &rest[..eq];
    let name = name_part.split(':').next()?.trim();
    if name.is_empty() || !name.chars().all(is_ident) {
        return None;
    }
    Some((name.to_string(), &rest[eq + 1..]))
}

fn check_sink_arg(
    cfg: &ProtoConfig,
    path: &str,
    line: usize,
    sink: &str,
    arg: &str,
    unchecked: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let via_helper = cfg
        .len_helpers
        .iter()
        .any(|h| arg.contains(&format!("{h}(")));
    if via_helper {
        return;
    }
    let inline_source = LEN_SOURCES.iter().any(|s| arg.contains(s));
    let tainted_var = arg.chars().all(is_ident) && unchecked.contains(arg);
    if inline_source || tainted_var {
        out.push(Finding::new(
            "W004",
            path,
            line,
            format!(
                "allocation sink `{sink}` is sized by decoded length `{arg}` that \
                 never passed a checked limit helper ({}) — a corrupt record \
                 controls the allocation size",
                cfg.len_helpers.join(", ")
            ),
            vec![],
        ));
    }
}

// ----------------------------------------------------------------------
// opaque-allowlist staleness audit (SUPP)
// ----------------------------------------------------------------------

/// Opaque-allowlist entries must be load-bearing, like pragmas.
fn audit_opaque_allow(cfg: &ProtoConfig, pm: &ProtoModel, out: &mut Vec<Finding>) {
    for (type_name, _) in &cfg.opaque_allow {
        match pm.codec(type_name) {
            None => out.push(Finding::new(
                "SUPP",
                "crates/lint/src/proto.rs",
                1,
                format!(
                    "opaque-codec allowlist entry `{type_name}` names no codec in \
                     the workspace — remove it"
                ),
                vec![],
            )),
            Some(c) => {
                let enc_opaque = matches!(c.enc, EncSide::Opaque(_));
                let dec_opaque = matches!(c.dec, DecSide::Opaque(_));
                if !enc_opaque && !dec_opaque {
                    out.push(Finding::new(
                        "SUPP",
                        &c.path,
                        c.enc_line,
                        format!(
                            "opaque-codec allowlist entry `{type_name}` is stale: \
                             the codec is structurally checkable — remove the entry"
                        ),
                        vec![],
                    ));
                }
            }
        }
    }
}
