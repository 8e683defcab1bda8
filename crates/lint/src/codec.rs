//! The codec model the W-rules check: every `codec!` declaration read
//! into the layout it pins, every hand-written `impl Codec` located, and
//! every registered protocol-enum variant occurrence classified as a
//! construct (send) or handle (match/destructure) site.
//!
//! Built by `build` on top of the shared [`Model`] (function spans,
//! enum definitions, `match` sites, blanked lines) and consumed by
//! [`crate::proto`] (the W-rules) and [`crate::lock`] (the pinned
//! schema manifest). A product codec is one `codec!` invocation, from
//! which the macro emits both `encode` and `decode`, so there is one
//! field list to read and nothing to mirror. A declaration the reader
//! cannot parse is kept as an `Err`, which W001 refuses to pass
//! silently.

use crate::model::{FileFacts, Model};
use crate::proto::ProtoConfig;
use crate::text::{balanced, has_token, is_ident, split_top_level, token_positions};
use std::collections::BTreeMap;

/// The layout one `codec!` declaration pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `codec!(struct T { a, b })`: field names in wire order.
    Struct(Vec<String>),
    /// `codec!(struct T(0))`: positional arity.
    Tuple(usize),
    /// `codec!(enum T { 0 => A, 1 => B(x), 2 => C { y } })`:
    /// `(variant, tag)` in declaration order.
    Enum(Vec<(String, u64)>),
}

/// What the reader made of one declaration: `(type name, shape)`, or
/// why it could not be read.
pub type Parsed = Result<(String, Shape), String>;

/// One `codec!` invocation.
#[derive(Clone, Debug)]
pub struct CodecDecl {
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line of the invocation.
    pub line: usize,
    /// The declaration as read.
    pub parsed: Parsed,
}

/// One hand-written `impl Codec for T`.
#[derive(Clone, Debug)]
pub struct HandCodec {
    /// The implementing type.
    pub type_name: String,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line of the `impl`.
    pub line: usize,
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
    /// Every `codec!` declaration.
    pub decls: Vec<CodecDecl>,
    /// Every hand-written `impl Codec`, the foundation layer included.
    pub hand: Vec<HandCodec>,
    /// Every registered protocol-enum variant occurrence.
    pub uses: Vec<VariantUse>,
}

impl ProtoModel {
    /// Every readable declaration: `(declaration, type name, shape)`.
    pub(crate) fn shapes(&self) -> impl Iterator<Item = (&CodecDecl, &str, &Shape)> {
        self.decls.iter().filter_map(|d| {
            let (name, shape) = d.parsed.as_ref().ok()?;
            Some((d, name.as_str(), shape))
        })
    }
}

/// Build the codec model from the shared source model.
pub(crate) fn build(cfg: &ProtoConfig, model: &Model) -> ProtoModel {
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
        collect_decls(facts, &mut out.decls);
        collect_hand(facts, &mut out.hand);
        collect_uses(cfg, facts, &matrix_variants, &mut out.uses);
    }
    out
}

// ----------------------------------------------------------------------
// `codec!` declarations
// ----------------------------------------------------------------------

/// Every `codec!` invocation above the trailing test module. The text
/// is blanked, so one in a comment or a string (a doctest, a fixture)
/// is not seen; `macro_rules! codec` and `use ..::codec` are not
/// followed by `!` and are skipped.
fn collect_decls(facts: &FileFacts, out: &mut Vec<CodecDecl>) {
    let end = facts.test_start.saturating_sub(1).min(facts.lines.len());
    // One text, since an invocation may run over several lines.
    let text = facts.lines[..end].join("\n");
    for pos in token_positions(&text, "codec") {
        let Some(args) = text[pos + "codec".len()..].trim_start().strip_prefix('!') else {
            continue;
        };
        let args = args.trim_start();
        let parsed = if args.starts_with('(') {
            balanced(args, '(', ')')
                .ok_or_else(|| "unbalanced `codec!(`".to_string())
                .and_then(parse_decl)
        } else {
            Err("expected `codec!( .. )`".to_string())
        };
        out.push(CodecDecl {
            path: facts.path.clone(),
            line: text[..pos].matches('\n').count() + 1,
            parsed,
        });
    }
}

/// Leading identifier of `s` and the trimmed rest.
fn ident_prefix(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    let end = s.find(|c: char| !is_ident(c)).unwrap_or(s.len());
    (&s[..end], s[end..].trim_start())
}

/// The comma-separated entries of the `open..close` group that `s`
/// starts and ends with (a trailing comma allowed).
fn group(s: &str, open: char, close: char) -> Result<Vec<&str>, String> {
    let inner = balanced(s, open, close).ok_or(format!("unbalanced `{open}`"))?;
    let after = &s[open.len_utf8() + inner.len() + close.len_utf8()..];
    if !after.trim().is_empty() {
        return Err(format!("unexpected `{}` after `{close}`", after.trim()));
    }
    let mut parts: Vec<&str> = split_top_level(inner).into_iter().map(str::trim).collect();
    if parts.last().is_some_and(|p| p.is_empty()) {
        parts.pop();
    }
    Ok(parts)
}

/// Read the inside of one `codec!( .. )` in any of its three forms.
fn parse_decl(inner: &str) -> Parsed {
    let (kw, rest) = ident_prefix(inner);
    let (name, body) = ident_prefix(rest);
    if name.is_empty() {
        return Err(format!(
            "expected `struct <Type>` or `enum <Type>`, found `{kw}`"
        ));
    }
    let shape = match (kw, body.chars().next()) {
        ("struct", Some('{')) => {
            let fields = group(body, '{', '}')?;
            if let Some(bad) = fields
                .iter()
                .find(|f| f.is_empty() || !f.chars().all(is_ident))
            {
                return Err(format!("`{bad}` is not a field name"));
            }
            Shape::Struct(fields.iter().map(|f| f.to_string()).collect())
        }
        ("struct", Some('(')) => {
            let idx = group(body, '(', ')')?;
            if let Some((_, bad)) = idx.iter().enumerate().find(|(i, p)| p.parse() != Ok(*i)) {
                return Err(format!("`{bad}` is not the next tuple index"));
            }
            Shape::Tuple(idx.len())
        }
        ("enum", Some('{')) => Shape::Enum(
            group(body, '{', '}')?
                .into_iter()
                .map(|arm| {
                    let (tag, variant) = arm.split_once("=>").unwrap_or((arm, ""));
                    let variant = ident_prefix(variant).0;
                    match tag.trim().parse::<u64>() {
                        Ok(tag) if variant.starts_with(char::is_uppercase) => {
                            Ok((variant.to_string(), tag))
                        }
                        _ => Err(format!("`{arm}` is not `<tag> => <Variant> ..`")),
                    }
                })
                .collect::<Result<_, _>>()?,
        ),
        _ => {
            return Err(format!(
                "`{kw} {name}` is not followed by a field or variant list"
            ))
        }
    };
    Ok((name.to_string(), shape))
}

/// Every non-test `impl Codec for T` in the file, once per type.
fn collect_hand(facts: &FileFacts, out: &mut Vec<HandCodec>) {
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &facts.fns {
        if f.is_test || f.impl_trait.as_deref() != Some("Codec") {
            continue;
        }
        if let Some(ty) = f.impl_type.as_deref() {
            // The extractor keeps methods, not blocks: the `impl` line is
            // the nearest one above the block's first method.
            first.entry(ty).or_insert_with(|| {
                (1..f.line)
                    .rev()
                    .find(|n| has_token(&facts.lines[n - 1], "impl"))
                    .unwrap_or(f.line)
            });
        }
    }
    out.extend(first.into_iter().map(|(ty, line)| HandCodec {
        type_name: ty.to_string(),
        path: facts.path.clone(),
        line,
    }));
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

    fn shapes(src: &str) -> Vec<(usize, Parsed)> {
        model_of(&[("crates/core/src/a.rs", src)])
            .decls
            .into_iter()
            .map(|d| (d.line, d.parsed))
            .collect()
    }

    #[test]
    fn declarations_read_in_all_three_forms() {
        let src = "\
use jrs_store::{codec, Codec};
codec!(struct Grant { mom, session, granter });
codec!(struct JobId(0));
jrs_store::codec!(enum Msg {
    0 => Bye,
    1 => Pong(id),
    2 => Ping {
        seq,
        hops,
    },
});
";
        let s = |v: &[&str]| v.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(
            shapes(src),
            vec![
                (
                    2,
                    Ok((
                        "Grant".into(),
                        Shape::Struct(s(&["mom", "session", "granter"]))
                    ))
                ),
                (3, Ok(("JobId".into(), Shape::Tuple(1)))),
                (
                    4,
                    Ok((
                        "Msg".into(),
                        Shape::Enum(vec![
                            ("Bye".into(), 0),
                            ("Pong".into(), 1),
                            ("Ping".into(), 2)
                        ])
                    ))
                ),
            ]
        );
    }

    #[test]
    fn unreadable_declarations_are_kept_as_errors() {
        for (src, why) in [
            (
                "codec!(struct Grant { mom, self.session });",
                "not a field name",
            ),
            ("codec!(struct Pair(0, 2));", "not the next tuple index"),
            (
                "codec!(enum Msg { Bye, 1 => Pong });",
                "is not `<tag> => <Variant> ..`",
            ),
            (
                "codec!(enum Msg { 0 => bye });",
                "is not `<tag> => <Variant> ..`",
            ),
            (
                "codec!(union Msg { a });",
                "not followed by a field or variant list",
            ),
            ("codec!(struct Grant { mom } extra);", "unexpected `extra`"),
            ("codec!(struct Grant { mom, session );", "unbalanced"),
            ("codec! { struct Grant { mom } }", "expected `codec!( .. )`"),
        ] {
            let got = shapes(src);
            assert_eq!(got.len(), 1, "{src}: {got:?}");
            let err = got[0].1.as_ref().expect_err(src);
            assert!(err.contains(why), "{src}: {err}");
        }
    }

    #[test]
    fn the_macro_itself_comments_strings_and_tests_are_not_declarations() {
        let src = "\
/// codec!(struct InADocTest { a });
macro_rules! codec {
    (struct $T:ident { $($f:ident),+ }) => {};
}
use jrs_store::codec;
const FIXTURE: &str = \"codec!(struct InAString { a });\";
#[cfg(test)]
mod tests {
    codec!(struct InATest { a });
}
";
        assert_eq!(shapes(src), vec![]);
    }

    #[test]
    fn hand_written_impls_are_located_once_per_type() {
        let src = "\
impl Codec for NodePool {
    fn encode(&self, out: &mut Vec<u8>) {}
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {}
}
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {}
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {}
}
#[cfg(test)]
mod tests {
    impl Codec for Fake {
        fn encode(&self, out: &mut Vec<u8>) {}
    }
}
";
        let m = model_of(&[("crates/pbs/src/a.rs", src)]);
        let got: Vec<(&str, usize)> = m
            .hand
            .iter()
            .map(|h| (h.type_name.as_str(), h.line))
            .collect();
        assert_eq!(got, vec![("NodePool", 1), ("Vec", 5)]);
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
