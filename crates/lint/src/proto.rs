//! The protocol-conformance rules (W001–W004), and the configuration
//! registry naming the workspace's foundation codecs, audited
//! hand-written codecs, protocol-enum matrix, and checked length helpers.
//!
//! JOSHUA replicas agree because every head decodes exactly the bytes
//! its peers encode: the WAL a head replays at recovery, the snapshots
//! it installs, and the `Payload` stream the total-order engine
//! delivers all travel through `Codec` impls. Clippy checks which
//! constructs a replica uses, F001 checks state-mutation dataflow, and
//! jrs-mc checks interleavings dynamically — but none of them see
//! the *protocol*: a reordered field list, a renumbered discriminant, or
//! a sent-but-unhandled message ships silently and corrupts recovery
//! or wedges a replica.
//!
//! * **W001** — codec provenance: every `impl Codec` outside the
//!   foundation file is produced by one `codec!` declaration, from which
//!   the macro emits both directions (so `encode` and `decode` cannot
//!   disagree), or is named in the audited hand-written list
//!   ([`ProtoConfig::hand_written`]). A `codec!` block the reader
//!   cannot parse is a finding, never a silent pass.
//! * **W002** — tag stability: enum discriminants must be unique and
//!   dense, and every declaration must match the committed
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
//! The registries are audited like pragmas (`SUPP`): a hand-written
//! entry that names no hand-written codec, and a matrix enum that
//! resolves to no definition or to one without variants, are stale.
//! Generic container codecs in the foundation layer are hand-written
//! (their symmetry is pinned by unit tests and the round-trip property
//! tests) and subject to W004's bounds discipline.

use crate::codec::{HandCodec, ProtoModel, Shape, UseKind};
use crate::lock::Schema;
use crate::model::{FnDef, Model};
use crate::report::{Finding, Rule};
use crate::text::{balanced, has_token, is_ident};
use std::collections::{BTreeMap, BTreeSet};

/// The W rule table.
pub const RULES: &[Rule] = &[
    Rule {
        code: "W001",
        summary: "codec provenance: every `impl Codec` outside the foundation file comes from one `codec!` declaration (encode and decode derived from the same field list) or is on the audited hand-written list; an unparseable `codec!` block is a finding",
        why: "persisted records decode positionally, so two hand-kept field lists that drift apart make every replica reading an old record mis-assign fields",
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
    /// (generic containers, primitives, the `codec!` macro itself).
    /// They are hand-written by design — their symmetry is pinned by
    /// their own unit tests and the round-trip property tests — and are
    /// not pinned in `proto.lock` (no per-type field list).
    pub foundation_paths: Vec<String>,
    /// Codec types outside the foundation layer that keep a hand-written
    /// `encode`/`decode` pair, with audited reasons. Entries must be
    /// load-bearing: a stale entry is a `SUPP` finding.
    pub hand_written: Vec<(String, String)>,
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
            hand_written: vec![(
                "NodePool".into(),
                "encode flattens the pool to its ordered node list and decode \
                 rebuilds the index; symmetry is pinned by round-trip tests"
                    .into(),
            )],
            // CmdReply is deliberately unregistered: its receiving role
            // is the submitting client, which lives in the test/driver
            // harness rather than a shipping crate, so a send/handle
            // obligation inside `crates/*` would be vacuous (its codec
            // provenance and tags are still checked by W001/W002).
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
    pub(crate) fn is_foundation(&self, path: &str) -> bool {
        self.foundation_paths.iter().any(|p| p == path)
    }
}

/// Run every W rule plus the registry audit; raw findings, before
/// suppression. `lock` is the committed `proto.lock` text.
pub(crate) fn check(
    cfg: &ProtoConfig,
    model: &Model,
    pm: &ProtoModel,
    lock: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    check_w001(cfg, pm, &mut out);
    check_w002(pm, lock, &mut out);
    check_w003(cfg, model, pm, &mut out);
    check_w004(cfg, model, &mut out);
    audit_registries(cfg, model, pm, &mut out);
    out
}

// ----------------------------------------------------------------------
// W001 — codec provenance
// ----------------------------------------------------------------------

/// Hand-written codecs outside the foundation layer: the ones W001
/// holds to the audited list.
fn product_hand_codecs<'m>(
    cfg: &'m ProtoConfig,
    pm: &'m ProtoModel,
) -> impl Iterator<Item = &'m HandCodec> {
    pm.hand.iter().filter(|h| !cfg.is_foundation(&h.path))
}

fn check_w001(cfg: &ProtoConfig, pm: &ProtoModel, out: &mut Vec<Finding>) {
    for d in &pm.decls {
        if let Err(why) = &d.parsed {
            out.push(Finding::new(
                "W001",
                &d.path,
                d.line,
                format!(
                    "`codec!` declaration is not readable ({why}) — its layout cannot \
                     be pinned against proto.lock; write it in one of the three \
                     documented forms"
                ),
                vec![],
            ));
        }
    }
    for h in product_hand_codecs(cfg, pm) {
        if !cfg.hand_written.iter().any(|(t, _)| t == &h.type_name) {
            out.push(Finding::new(
                "W001",
                &h.path,
                h.line,
                format!(
                    "`{}` has a hand-written `impl Codec` — two field lists kept \
                     aligned by hand; declare it with `codec!` (one list, both \
                     directions) or add an audited hand-written entry",
                    h.type_name
                ),
                vec![],
            ));
        }
    }
}

// ----------------------------------------------------------------------
// W002 — tag stability
// ----------------------------------------------------------------------

fn check_w002(pm: &ProtoModel, lock: Option<&str>, out: &mut Vec<Finding>) {
    // Uniqueness and density, straight from the declarations.
    for (d, type_name, shape) in pm.shapes() {
        let Shape::Enum(variants) = shape else {
            continue;
        };
        let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (name, tag) in variants {
            by_tag.entry(*tag).or_default().push(name);
        }
        for (t, names) in &by_tag {
            if names.len() > 1 {
                out.push(Finding::new(
                    "W002",
                    &d.path,
                    d.line,
                    format!(
                        "`{type_name}` reuses discriminant {t} for variants {} — decode \
                         cannot tell them apart",
                        names.join(", ")
                    ),
                    vec![],
                ));
            }
        }
        let tags: Vec<u64> = by_tag.keys().copied().collect();
        let dense: Vec<u64> = (0..tags.len() as u64).collect();
        if tags != dense {
            out.push(Finding::new(
                "W002",
                &d.path,
                d.line,
                format!(
                    "`{type_name}` discriminants are not dense: [{}] (expected 0..={}) — \
                     holes invite accidental reuse by a future variant",
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
    let current = Schema::from_model(pm);
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
            .shapes()
            .find(|(_, name, _)| *name == type_name)
            .map_or(("proto.lock", 1), |(d, ..)| (d.path.as_str(), d.line));
        out.push(Finding::new("W002", path, line, message, vec![]));
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
// registry staleness audit (SUPP)
// ----------------------------------------------------------------------

/// Registry entries must be load-bearing, like pragmas: a hand-written
/// entry names a hand-written codec outside the foundation layer, and a
/// matrix enum resolves to a definition with variants (a name that
/// stops resolving would otherwise drop out of W003 in silence).
fn audit_registries(cfg: &ProtoConfig, model: &Model, pm: &ProtoModel, out: &mut Vec<Finding>) {
    let mut stale = |message: String| {
        out.push(Finding::new(
            "SUPP",
            "crates/lint/src/proto.rs",
            1,
            message,
            vec![],
        ));
    };
    for (type_name, _) in &cfg.hand_written {
        if !product_hand_codecs(cfg, pm).any(|h| &h.type_name == type_name) {
            stale(format!(
                "hand-written codec list entry `{type_name}` names no hand-written \
                 `impl Codec` outside the foundation layer — remove it"
            ));
        }
    }
    for m in &cfg.matrix {
        if let Some(why) = model.stale_enum(&m.name) {
            stale(format!(
                "send/handle matrix entry `{}` {why} — W003 would skip it in \
                 silence; fix the name or remove the entry",
                m.name
            ));
        }
    }
}
