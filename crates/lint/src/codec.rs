//! The codec model the W-rules check: every `impl Codec` parsed into
//! ordered encode/decode shapes, and every registered protocol-enum
//! variant occurrence classified as a construct (send) or handle
//! (match/destructure) site.
//!
//! Built by [`build`] on top of the shared [`Model`] (function spans,
//! enum definitions, `match` sites, blanked lines) and consumed by
//! [`crate::proto`] (the W-rules) and [`crate::lock`] (the pinned
//! schema manifest). Like the extractor this is a line/token scanner
//! tuned to rustfmt-shaped code, not a parser. Anything it cannot
//! classify degrades to an `Opaque` shape, which the rules refuse to
//! pass silently: unparseable codecs must either be restructured or
//! carry an audited allowlist entry.

use crate::model::{FileFacts, FnDef, Model};
use crate::proto::ProtoConfig;
use crate::text::{balanced, brace_delta, find_token, is_ident, split_top_level, token_positions};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One recognized operation in an `encode` body, in source order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncOp {
    /// An integer-literal discriminant write (`3u8.encode(out)`) or a
    /// tag-table entry (`let tag: u8 = match self { V => 3, .. }`).
    Tag {
        /// Discriminant value.
        value: u64,
        /// Primitive width in bits (8/16/32/64).
        width: u8,
    },
    /// A named value write: `self.field.encode(out)`, a bound pattern
    /// name inside a match arm (`session.encode(out)`), or a tuple
    /// index (`self.0` yields `"0"`).
    Val(String),
    /// Anything the scanner cannot classify (method-call chains etc) —
    /// forces the codec into the audited opaque allowlist.
    Opaque(String),
}

/// One decoded field on the `decode` side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecField {
    /// Field name for struct / struct-variant literals; `None` for
    /// positional (tuple) decodes.
    pub name: Option<String>,
    /// Head of the type the value is decoded as (`u64`, `ProcId`,
    /// `ReplicaState` …) when written explicitly; `None` for inferred
    /// `Codec::decode` calls.
    pub ty: Option<String>,
}

/// One variant's encode arm.
#[derive(Clone, Debug)]
pub struct VariantEnc {
    /// Variant name.
    pub name: String,
    /// 1-based line of the arm pattern.
    pub line: usize,
    /// Discriminant written first (or the tag-table value); `None`
    /// when the arm writes fields before any tag — a W001 violation.
    pub tag: Option<u64>,
    /// Width of the discriminant write, when present.
    pub tag_width: Option<u8>,
    /// Field writes after the tag.
    pub ops: Vec<EncOp>,
}

/// One variant's decode arm.
#[derive(Clone, Debug)]
pub struct VariantDec {
    /// Variant name.
    pub name: String,
    /// 1-based line of the arm.
    pub line: usize,
    /// Discriminant matched.
    pub tag: u64,
    /// Named fields (struct variants), decode order; empty for unit
    /// and tuple variants.
    pub fields: Vec<DecField>,
    /// Positional arity for tuple variants.
    pub tuple_arity: Option<usize>,
}

/// Parsed shape of an `encode` body.
#[derive(Clone, Debug)]
pub enum EncSide {
    /// Plain op sequence (struct / tuple-struct codec).
    Struct(Vec<EncOp>),
    /// `match self { .. }` over the enum's variants.
    Enum {
        /// Discriminant width, when determinable.
        width: Option<u8>,
        /// Arms in source order.
        variants: Vec<VariantEnc>,
    },
    /// Unparseable — needs an audited allowlist entry.
    Opaque(String),
}

/// Parsed shape of a `decode` body.
#[derive(Clone, Debug)]
pub enum DecSide {
    /// Named-field struct literal, in decode order.
    Struct(Vec<DecField>),
    /// Positional construction `Ok(T(..))` — arity only.
    Tuple(usize),
    /// `match uN::decode(r)? { .. }`.
    Enum {
        /// Discriminant width read.
        width: u8,
        /// Tag arms in source order.
        arms: Vec<VariantDec>,
        /// Has a `_ => Err(..)` arm rejecting unknown tags.
        rejects_unknown: bool,
    },
    /// Unparseable — needs an audited allowlist entry.
    Opaque(String),
}

/// One `impl Codec for T` pair (encode + decode).
#[derive(Clone, Debug)]
pub struct CodecImpl {
    /// The implementing type.
    pub type_name: String,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line of `fn encode`.
    pub enc_line: usize,
    /// 1-based line of `fn decode`.
    pub dec_line: usize,
    /// Parsed encode side.
    pub enc: EncSide,
    /// Parsed decode side.
    pub dec: DecSide,
}

/// How a protocol-enum variant occurrence is used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UseKind {
    /// Pattern position — match arm, `if let`, `let .. else`,
    /// `matches!`: the variant is consumed here.
    Handle,
    /// Expression position: the variant is constructed (sent) here.
    Construct,
}

/// One protocol-enum variant occurrence outside its codec.
#[derive(Clone, Debug)]
pub struct VariantUse {
    /// The enum.
    pub enum_name: String,
    /// The variant.
    pub variant: String,
    /// Workspace-relative file.
    pub path: String,
    /// Crate key of the file.
    pub crate_key: String,
    /// 1-based line.
    pub line: usize,
    /// Construct or handle.
    pub kind: UseKind,
    /// Qualified name of the enclosing function (diagnostics).
    pub in_fn: String,
}

/// The whole-workspace codec model.
#[derive(Debug, Default)]
pub struct ProtoModel {
    /// Every parsed `impl Codec`.
    pub codecs: Vec<CodecImpl>,
    /// Every registered protocol-enum variant occurrence.
    pub uses: Vec<VariantUse>,
}

impl ProtoModel {
    /// The codec for `type_name`, if any.
    pub fn codec(&self, type_name: &str) -> Option<&CodecImpl> {
        self.codecs.iter().find(|c| c.type_name == type_name)
    }
}

/// Build the codec model from the shared source model.
pub fn build(cfg: &ProtoConfig, model: &Model) -> ProtoModel {
    let mut out = ProtoModel::default();

    // Enum name -> shipping variant list, for use-site scanning.
    let matrix_variants: Vec<(&str, &[String])> = cfg
        .matrix
        .iter()
        .filter_map(|m| {
            model
                .enum_def(&m.name)
                .map(|d| (m.name.as_str(), d.variants.as_slice()))
        })
        .collect();

    for facts in &model.files {
        collect_codecs(facts, &mut out.codecs);
        collect_uses(cfg, facts, &matrix_variants, &mut out.uses);
    }
    out
}

fn collect_codecs(facts: &FileFacts, out: &mut Vec<CodecImpl>) {
    // type -> (enc fn, dec fn)
    let mut halves: BTreeMap<&str, (Option<&FnDef>, Option<&FnDef>)> = BTreeMap::new();
    for f in &facts.fns {
        if f.is_test || f.impl_trait.as_deref() != Some("Codec") {
            continue;
        }
        let Some(ty) = f.impl_type.as_deref() else {
            continue;
        };
        let slot = halves.entry(ty).or_default();
        match f.name.as_str() {
            "encode" => slot.0 = Some(f),
            "decode" => slot.1 = Some(f),
            _ => {}
        }
    }
    for (ty, (enc_fn, dec_fn)) in halves {
        let (Some(e), Some(d)) = (enc_fn, dec_fn) else {
            continue;
        };
        out.push(CodecImpl {
            type_name: ty.to_string(),
            path: facts.path.clone(),
            enc_line: e.line,
            dec_line: d.line,
            enc: parse_encode(&facts.span(e.line, e.end_line)),
            dec: parse_decode(&facts.span(d.line, d.end_line)),
        });
    }
}

// ----------------------------------------------------------------------
// encode-side parsing
// ----------------------------------------------------------------------

fn parse_encode(body: &[(usize, &str)]) -> EncSide {
    // Enum codecs match over self; a tag table binds the discriminant
    // first: `let tag: u8 = match self { V => 0, .. }` then
    // `tag.encode(out)`.
    for (i, (_, l)) in body.iter().enumerate() {
        if let Some(pos) = find_token(l, "match") {
            let rest = l[pos + "match".len()..].trim_start();
            let rest = rest.trim_start_matches(['*', '&']);
            if let Some(after) = rest.strip_prefix("self") {
                // `match self` / `match *self`, but not `match self.kind`.
                let scrutinee_is_self = !after
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
                if scrutinee_is_self {
                    let table = parse_tag_table_let(l);
                    return parse_encode_match(body, i, table);
                }
            }
        }
    }
    let mut ops = Vec::new();
    for (_, l) in body {
        scan_encode_ops(l, &mut ops);
    }
    if ops.is_empty() {
        EncSide::Opaque("no field or tag writes recognized".to_string())
    } else {
        EncSide::Struct(ops)
    }
}

/// `let NAME: uN = match self {` -> `(NAME, N)`.
fn parse_tag_table_let(l: &str) -> Option<(String, u8)> {
    let t = l.trim_start();
    let rest = t.strip_prefix("let ")?;
    let (name, rest) = rest.split_once(':')?;
    let ty = rest.trim_start();
    let width = ["u8", "u16", "u32", "u64"]
        .iter()
        .find(|w| ty.starts_with(**w))
        .and_then(|w| w[1..].parse::<u8>().ok())?;
    Some((name.trim().to_string(), width))
}

/// One arm of the `match` opened on `body[match_idx]`.
struct Arm<'a> {
    /// 1-based line of the pattern.
    line: usize,
    /// Pattern text, up to the `=>` (joined when it spans lines).
    pat: Cow<'a, str>,
    /// Body text line by line, the rest of the `=>` line first.
    body: Vec<&'a str>,
}

/// The arms of the `match` whose block opens on `body[match_idx]`: an
/// arm starts directly inside the block, runs to the `=>` that closes
/// its pattern (on the same line or, for a pattern rustfmt spread over
/// several, a later one) and owns every deeper line up to the next arm.
fn match_arms<'a>(body: &[(usize, &'a str)], match_idx: usize) -> Vec<Arm<'a>> {
    let mut arms: Vec<Arm<'a>> = Vec::new();
    let mut lines = body.iter().skip(match_idx);
    // The `match .. {` line itself only opens the block.
    let mut depth = lines.next().map_or(0, |(_, l)| brace_delta(l));
    // A pattern opened directly inside the block, still waiting for the
    // `=>` that brings it back to the block's depth.
    let mut open: Option<(usize, String)> = None;
    for (n, l) in lines {
        if let Some((line, mut pat)) = open.take() {
            pat.push(' ');
            match l.find("=>").filter(|a| depth + brace_delta(&l[..*a]) == 1) {
                Some(arrow) => {
                    pat.push_str(&l[..arrow]);
                    arms.push(Arm {
                        line,
                        pat: Cow::Owned(pat),
                        body: vec![&l[arrow + 2..]],
                    });
                }
                None => {
                    pat.push_str(l);
                    open = Some((line, pat));
                }
            }
        } else if depth == 1 {
            if let Some(arrow) = l.find("=>") {
                arms.push(Arm {
                    line: *n,
                    pat: Cow::Borrowed(&l[..arrow]),
                    body: vec![&l[arrow + 2..]],
                });
            } else if !l.trim_start().is_empty() && !l.trim_start().starts_with('}') {
                open = Some((*n, l.to_string()));
            }
        } else if depth >= 2 {
            if let Some(arm) = arms.last_mut() {
                arm.body.push(l);
            }
        }
        depth += brace_delta(l);
        if depth <= 0 {
            break;
        }
    }
    arms
}

fn parse_encode_match(
    body: &[(usize, &str)],
    match_idx: usize,
    table: Option<(String, u8)>,
) -> EncSide {
    let mut variants: Vec<VariantEnc> = Vec::new();
    let mut width: Option<u8> = table.as_ref().map(|(_, w)| *w);
    for arm in match_arms(body, match_idx) {
        let Some((name, renamed)) = parse_arm_pattern(&arm.pat) else {
            return EncSide::Opaque(format!(
                "unrecognized encode arm pattern `{}`",
                arm.pat.trim()
            ));
        };
        let mut ops = Vec::new();
        for l in &arm.body {
            scan_encode_ops(l, &mut ops);
        }
        if renamed {
            ops.push(EncOp::Opaque("arm pattern renames fields".to_string()));
        }
        // A tag table maps the arm straight to its discriminant;
        // otherwise the arm must write an integer literal first.
        let table_val = table
            .as_ref()
            .and_then(|_| parse_int(arm.body[0].trim().trim_end_matches(',')));
        let (tag, tag_width) = if let Some(v) = table_val {
            (Some(v), width)
        } else if let Some(EncOp::Tag { value, width: w }) = ops.first().cloned() {
            ops.remove(0);
            width.get_or_insert(w);
            (Some(value), Some(w))
        } else {
            (None, None)
        };
        variants.push(VariantEnc {
            name,
            line: arm.line,
            tag,
            tag_width,
            ops,
        });
    }
    if variants.is_empty() {
        return EncSide::Opaque("match over self with no parseable arms".to_string());
    }
    EncSide::Enum { width, variants }
}

/// Split `Path::To::Variant { .. }` into the variant name and what
/// follows the path (`None` unless the last segment is capitalised).
fn variant_head(s: &str) -> Option<(&str, &str)> {
    let head_end = s
        .find(|c: char| !(is_ident(c) || c == ':'))
        .unwrap_or(s.len());
    let variant = s[..head_end].rsplit("::").next()?.trim();
    if !variant.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    Some((variant, s[head_end..].trim_start()))
}

/// `Payload::Client { client, req_id, cmd }` / `ServerCmd::Qsub(spec)`
/// / `JobState::Queued` -> `(variant, renamed?)`, where `renamed` means
/// some binding is written `field: name`, so the op names no longer
/// match the field names.
fn parse_arm_pattern(p: &str) -> Option<(String, bool)> {
    let p = p
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    let (variant, rest) = variant_head(p)?;
    let renamed = match rest.chars().next() {
        Some('{') => split_top_level(balanced(rest, '{', '}')?)
            .iter()
            .any(|b| b.contains(':')),
        Some('(') => split_top_level(balanced(rest, '(', ')')?)
            .iter()
            .any(|b| b.contains(':')),
        _ => false,
    };
    Some((variant.to_string(), renamed))
}

/// Append every `<recv>.encode(out)` op found on the line.
fn scan_encode_ops(l: &str, out: &mut Vec<EncOp>) {
    let needle = ".encode(out)";
    let mut start = 0;
    while let Some(rel) = l[start..].find(needle) {
        let idx = start + rel;
        out.push(classify_recv(&recv_before(l, idx)));
        start = idx + needle.len();
    }
}

/// Capture the receiver expression ending just before byte `idx`.
fn recv_before(l: &str, idx: usize) -> String {
    let mut start = idx;
    let mut depth = 0i32;
    for (i, c) in l[..idx].char_indices().rev() {
        let ok = if depth > 0 {
            if c == '(' {
                depth -= 1;
            } else if c == ')' {
                depth += 1;
            }
            true
        } else if c == ')' {
            depth += 1;
            true
        } else {
            c.is_alphanumeric() || c == '_' || c == '.' || c == ':' || c == '$'
        };
        if !ok {
            break;
        }
        start = i;
    }
    l[start..idx].to_string()
}

fn classify_recv(r: &str) -> EncOp {
    if let Some(tag) = parse_int_tag(r) {
        return tag;
    }
    if let Some(rest) = r.strip_prefix("self.") {
        if is_simple(rest) {
            return EncOp::Val(rest.to_string());
        }
        return EncOp::Opaque(r.to_string());
    }
    let r2 = r.strip_suffix(".as_ref()").unwrap_or(r);
    if is_simple(r2) && r2 != "self" {
        return EncOp::Val(r2.to_string());
    }
    EncOp::Opaque(r.to_string())
}

/// `"3u8"` -> `Tag { value: 3, width: 8 }`.
fn parse_int_tag(s: &str) -> Option<EncOp> {
    let u = s.find('u')?;
    let value = s[..u].parse::<u64>().ok()?;
    let width = s[u + 1..].parse::<u8>().ok()?;
    if matches!(width, 8 | 16 | 32 | 64) {
        Some(EncOp::Tag { value, width })
    } else {
        None
    }
}

fn parse_int(s: &str) -> Option<u64> {
    s.trim().parse().ok()
}

fn is_simple(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_ident)
}

// ----------------------------------------------------------------------
// decode-side parsing
// ----------------------------------------------------------------------

fn parse_decode(body: &[(usize, &str)]) -> DecSide {
    for (i, (_, l)) in body.iter().enumerate() {
        if let Some(pos) = find_token(l, "match") {
            let rest = &l[pos + "match".len()..];
            if rest.contains("::decode(") {
                let Some(width) = decode_width(rest) else {
                    return DecSide::Opaque(format!(
                        "cannot determine discriminant width from `{}`",
                        rest.trim()
                    ));
                };
                return parse_decode_match(body, i, width);
            }
        }
    }
    // Struct codec: a single constructor inside Ok(..).
    let joined: String = body.iter().map(|(_, l)| *l).collect::<Vec<_>>().join("\n");
    let Some(ok) = joined.find("Ok(") else {
        return DecSide::Opaque("no Ok(..) constructor found".to_string());
    };
    match parse_ctor(&joined[ok + 3..]) {
        Some((_, CtorBody::Named(fields))) => DecSide::Struct(fields),
        Some((_, CtorBody::Tuple(n))) => DecSide::Tuple(n),
        Some((_, CtorBody::Unit)) | None => {
            DecSide::Opaque("constructor is not a struct/tuple literal".to_string())
        }
    }
}

/// `" u8::decode(r)? {"` -> `8`.
fn decode_width(s: &str) -> Option<u8> {
    for w in [8u8, 16, 32, 64] {
        if s.contains(&format!("u{w}::decode(")) {
            return Some(w);
        }
    }
    None
}

fn parse_decode_match(body: &[(usize, &str)], match_idx: usize, width: u8) -> DecSide {
    let mut arms: Vec<VariantDec> = Vec::new();
    let mut rejects_unknown = false;
    let mut opaque: Option<String> = None;
    for arm in match_arms(body, match_idx) {
        let (pat, text) = (arm.pat.trim(), arm.body.join(" "));
        if pat == "_" {
            rejects_unknown |= text.contains("Err(");
            continue;
        }
        let Some(tag) = parse_int(pat) else {
            return DecSide::Opaque(format!("decode arm pattern `{pat}` is not an integer tag"));
        };
        let ctor = match text.find("Ok(") {
            Some(ok) => parse_ctor(&text[ok + 3..])
                .ok_or_else(|| format!("unparseable constructor in decode arm for tag {tag}")),
            None => Err(format!("decode arm for tag {tag} has no Ok(..)")),
        };
        match ctor {
            Ok((name, ctor)) => {
                let (fields, tuple_arity) = match ctor {
                    CtorBody::Named(fields) => (fields, None),
                    CtorBody::Tuple(n) => (Vec::new(), Some(n)),
                    CtorBody::Unit => (Vec::new(), None),
                };
                arms.push(VariantDec {
                    name,
                    line: arm.line,
                    tag,
                    fields,
                    tuple_arity,
                });
            }
            // The first unparseable arm names the reason.
            Err(why) => {
                opaque.get_or_insert(why);
            }
        }
    }
    if let Some(why) = opaque {
        return DecSide::Opaque(why);
    }
    DecSide::Enum {
        width,
        arms,
        rejects_unknown,
    }
}

enum CtorBody {
    Named(Vec<DecField>),
    Tuple(usize),
    Unit,
}

/// Parse `Payload::Client { client: ProcId::decode(r)?, .. }` (text
/// directly after `Ok(`).
fn parse_ctor(s: &str) -> Option<(String, CtorBody)> {
    let (variant, rest) = variant_head(s.trim_start())?;
    if rest.starts_with('{') {
        let inner = balanced(rest, '{', '}')?;
        let mut fields = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, expr) = part.split_once(':')?;
            fields.push(DecField {
                name: Some(name.trim().to_string()),
                ty: ty_head(expr),
            });
        }
        Some((variant.to_string(), CtorBody::Named(fields)))
    } else if rest.starts_with('(') {
        let inner = balanced(rest, '(', ')')?;
        let n = split_top_level(inner)
            .into_iter()
            .filter(|p| !p.trim().is_empty())
            .count();
        Some((variant.to_string(), CtorBody::Tuple(n)))
    } else {
        Some((variant.to_string(), CtorBody::Unit))
    }
}

/// The type a field expression decodes as: `ProcId::decode(r)?` ->
/// `ProcId`; `Box::new(ReplicaState::decode(r)?)` -> `ReplicaState`;
/// inferred `Codec::decode(r)?` -> `None`.
fn ty_head(expr: &str) -> Option<String> {
    let pos = expr.find("::decode(")?;
    let head: String = expr[..pos]
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if head.is_empty() || head == "Codec" {
        None
    } else {
        Some(head)
    }
}

// ----------------------------------------------------------------------
// protocol-enum use sites
// ----------------------------------------------------------------------

fn collect_uses(
    cfg: &ProtoConfig,
    facts: &FileFacts,
    matrix: &[(&str, &[String])],
    out: &mut Vec<VariantUse>,
) {
    for f in &facts.fns {
        if f.is_test
            || cfg.ignore_fns.iter().any(|n| n == &f.name)
            || (f.impl_trait.as_deref() == Some("Codec")
                && matches!(f.name.as_str(), "encode" | "decode"))
        {
            continue;
        }
        for (n, l) in facts.span(f.line, f.end_line) {
            for (enum_name, variants) in matrix {
                if !l.contains(&format!("{enum_name}::")) {
                    continue;
                }
                for v in *variants {
                    let token = format!("{enum_name}::{v}");
                    for pos in token_positions(l, &token) {
                        let kind =
                            classify_use(&l[..pos], &l[pos + token.len()..], facts, n, &token);
                        out.push(VariantUse {
                            enum_name: enum_name.to_string(),
                            variant: v.clone(),
                            path: facts.path.clone(),
                            crate_key: facts.crate_key.clone(),
                            line: n,
                            kind,
                            in_fn: f.qualified.clone(),
                        });
                    }
                }
            }
        }
    }
}

fn classify_use(before: &str, after: &str, facts: &FileFacts, line: usize, token: &str) -> UseKind {
    // `E::V { .. }` shorthand only exists in patterns.
    let a = after.trim_start();
    if a.starts_with("{ ..") || a.starts_with("{..") {
        return UseKind::Handle;
    }
    if before.contains("matches!") {
        return UseKind::Handle;
    }
    // Already past an arm's `=>`: this is arm-body (expression) position.
    if before.contains("=>") {
        return UseKind::Construct;
    }
    // The `=>` follows on the same line: pattern position.
    if after.contains("=>") {
        return UseKind::Handle;
    }
    // `if let` / `while let` / `let .. else` destructuring (no `=`
    // between the `let` and the variant).
    if let Some(lp) = before.rfind("let ") {
        if !before[lp..].contains('=') {
            return UseKind::Handle;
        }
    }
    // Wrapped arm patterns: the extractor joins multi-line patterns.
    if facts.matches.iter().any(|m| {
        m.arms
            .iter()
            .any(|arm| arm.pattern.contains(token) && line >= arm.line && line <= arm.line + 2)
    }) {
        return UseKind::Handle;
    }
    UseKind::Construct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> ProtoModel {
        build(&ProtoConfig::workspace(), &Model::build(files))
    }

    const STRUCT_CODEC: &str = "\
impl Codec for Grant {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mom.encode(out);
        self.session.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Grant {
            mom: ProcId::decode(r)?,
            session: u64::decode(r)?,
        })
    }
}
";

    #[test]
    fn struct_codec_shapes() {
        let m = model_of(&[("crates/core/src/a.rs", STRUCT_CODEC)]);
        let c = m.codec("Grant").expect("codec found");
        match &c.enc {
            EncSide::Struct(ops) => {
                assert_eq!(
                    ops,
                    &vec![EncOp::Val("mom".into()), EncOp::Val("session".into())]
                );
            }
            other => panic!("expected struct enc, got {other:?}"),
        }
        match &c.dec {
            DecSide::Struct(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].name.as_deref(), Some("mom"));
                assert_eq!(fields[0].ty.as_deref(), Some("ProcId"));
                assert_eq!(fields[1].ty.as_deref(), Some("u64"));
            }
            other => panic!("expected struct dec, got {other:?}"),
        }
    }

    const ENUM_CODEC: &str = "\
impl Codec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping { seq } => {
                0u8.encode(out);
                seq.encode(out);
            }
            Msg::Pong(id) => {
                1u8.encode(out);
                id.encode(out);
            }
            Msg::Bye => {
                2u8.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Msg::Ping { seq: u64::decode(r)? }),
            1 => Ok(Msg::Pong(JobId::decode(r)?)),
            2 => Ok(Msg::Bye),
            _ => Err(DecodeError::Invalid(\"Msg tag\")),
        }
    }
}
";

    #[test]
    fn enum_codec_shapes() {
        let m = model_of(&[("crates/core/src/a.rs", ENUM_CODEC)]);
        let c = m.codec("Msg").expect("codec found");
        let EncSide::Enum { width, variants } = &c.enc else {
            panic!("expected enum enc, got {:?}", c.enc);
        };
        assert_eq!(*width, Some(8));
        assert_eq!(variants.len(), 3);
        assert_eq!(variants[0].name, "Ping");
        assert_eq!(variants[0].tag, Some(0));
        assert_eq!(variants[0].ops, vec![EncOp::Val("seq".into())]);
        assert_eq!(variants[2].name, "Bye");
        assert_eq!(variants[2].tag, Some(2));
        assert!(variants[2].ops.is_empty());

        let DecSide::Enum {
            width,
            arms,
            rejects_unknown,
        } = &c.dec
        else {
            panic!("expected enum dec, got {:?}", c.dec);
        };
        assert_eq!(*width, 8);
        assert!(*rejects_unknown);
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].name, "Ping");
        assert_eq!(arms[0].tag, 0);
        assert_eq!(arms[0].fields[0].name.as_deref(), Some("seq"));
        assert_eq!(arms[1].tuple_arity, Some(1));
        assert_eq!(arms[2].name, "Bye");
    }

    const TAG_TABLE: &str = "\
impl Codec for JobState {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            JobState::Queued => 0,
            JobState::Running => 1,
        };
        tag.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(JobState::Queued),
            1 => Ok(JobState::Running),
            _ => Err(DecodeError::Invalid(\"JobState tag\")),
        }
    }
}
";

    #[test]
    fn tag_table_codec_shapes() {
        let m = model_of(&[("crates/pbs/src/a.rs", TAG_TABLE)]);
        let c = m.codec("JobState").expect("codec found");
        let EncSide::Enum { width, variants } = &c.enc else {
            panic!("expected enum enc, got {:?}", c.enc);
        };
        assert_eq!(*width, Some(8));
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0].tag, Some(0));
        assert_eq!(variants[1].tag, Some(1));
        assert!(variants[1].ops.is_empty());
    }

    #[test]
    fn boxed_and_as_ref_fields_resolve() {
        let src = "\
impl Codec for Snap {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Snap::Full { targets, state } => {
                0u8.encode(out);
                targets.encode(out);
                state.as_ref().encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Snap::Full {
                targets: Codec::decode(r)?,
                state: Box::new(ReplicaState::decode(r)?),
            }),
            _ => Err(DecodeError::Invalid(\"Snap tag\")),
        }
    }
}
";
        let m = model_of(&[("crates/core/src/a.rs", src)]);
        let c = m.codec("Snap").expect("codec found");
        let EncSide::Enum { variants, .. } = &c.enc else {
            panic!()
        };
        assert_eq!(
            variants[0].ops,
            vec![EncOp::Val("targets".into()), EncOp::Val("state".into())]
        );
        let DecSide::Enum { arms, .. } = &c.dec else {
            panic!()
        };
        assert_eq!(arms[0].fields[1].name.as_deref(), Some("state"));
        assert_eq!(arms[0].fields[1].ty.as_deref(), Some("ReplicaState"));
    }

    #[test]
    fn use_sites_classify_construct_and_handle() {
        let src = "\
pub enum Payload {
    Client { client: u32 },
    Output { client: u32 },
}
fn send(x: u32) -> Payload {
    Payload::Client { client: x }
}
fn apply(p: &Payload) {
    match p {
        Payload::Client { client } => helper(*client),
        Payload::Output { .. } => {}
    }
}
";
        let m = model_of(&[("crates/core/src/a.rs", src)]);
        let c: Vec<_> = m
            .uses
            .iter()
            .filter(|u| u.kind == UseKind::Construct)
            .map(|u| u.variant.as_str())
            .collect();
        assert_eq!(c, vec!["Client"]);
        let h: Vec<_> = m
            .uses
            .iter()
            .filter(|u| u.kind == UseKind::Handle)
            .map(|u| u.variant.as_str())
            .collect();
        assert_eq!(h, vec!["Client", "Output"]);
    }
}
