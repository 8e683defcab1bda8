//! The one source model every pass reads: per file, the blanked lines
//! and pragmas (what W004 and the suppression stage scan), plus the
//! facts extracted from them — functions with their call sites,
//! bindings and field writes; struct field types; enum variants; and
//! `match` sites.
//!
//! `Model::build` blanks each file once (`crate::text::preprocess`)
//! and extracts it once (`crate::extract::items`); [`crate::graph`]
//! (call-graph construction), [`crate::flow`] (the F-rules) and
//! [`crate::codec`] / [`crate::proto`] (the W-rules) consume the
//! result. The extractor is a line/token scanner, not a full parser —
//! the model is therefore an over-approximation resolved with the
//! heuristics documented in [`crate::graph`].

use crate::text::{preprocess, Pragma};

/// Receiver shape of one call site, as written in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv {
    /// `self.method(..)`.
    SelfDot,
    /// `self.field.method(..)` — resolved through the field's type.
    Field(String),
    /// `var.method(..)` — resolved through params / `let` bindings.
    Var(String),
    /// `Type::method(..)` (`Self::..` maps to the impl type).
    Path(String),
    /// `free_fn(..)`.
    Bare,
    /// `expr.method(..)` where the receiver is not a simple name
    /// (chained calls, indexing, blanked string literals …).
    Chain,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// 1-based source line.
    pub line: usize,
    /// Callee name as written.
    pub name: String,
    /// Receiver shape.
    pub recv: Recv,
}

/// Where a `let` binding's type comes from.
#[derive(Clone, Debug)]
pub enum BindSrc {
    /// `let x: T = ..` or `let x = T::new(..)` — type named directly.
    Typed(String),
    /// `let Some(x) = &self.field ..` — the field's (peeled) type.
    FieldOf(String),
    /// `let x = self.method(..)` — the method's return type.
    SelfRet(String),
}

/// A `self.field = ..` assignment (field replacement counts as a state
/// write even when no `&mut self` method of the field's type is
/// called).
#[derive(Clone, Debug)]
pub struct FieldWrite {
    /// Field name.
    pub field: String,
}

/// One function (free or method) with everything the rules need.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Workspace-relative file path.
    pub path: String,
    /// Crate key (see `crate_key`).
    pub crate_key: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Last body line (used to attribute `match` sites).
    pub end_line: usize,
    /// Bare function name.
    pub name: String,
    /// Peeled impl target when inside an `impl` block.
    pub impl_type: Option<String>,
    /// Peeled trait name for `impl Trait for Type` blocks.
    pub impl_trait: Option<String>,
    /// `Type::name`, or `name` for free functions.
    pub qualified: String,
    /// Takes `&mut self` (or `mut self`).
    pub mut_self: bool,
    /// Non-self parameters: `(name, peeled type)`.
    pub params: Vec<(String, String)>,
    /// Peeled types taken by `&mut` reference (state-write capability).
    pub mut_param_types: Vec<String>,
    /// Peeled return type.
    pub ret: Option<String>,
    /// Inside `#[cfg(test)]` / `#[test]` scaffolding.
    pub is_test: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// `let` bindings (single-assignment approximation).
    pub bindings: Vec<(String, BindSrc)>,
    /// `self.field = ..` assignments.
    pub field_writes: Vec<FieldWrite>,
}

/// A struct definition: the field types drive `self.field.m()` call
/// resolution.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field, peeled type)`.
    pub fields: Vec<(String, String)>,
    /// Defined inside `#[cfg(test)]` / `#[test]` scaffolding. Test-only
    /// types never resolve lookups for shipping code: a fixture struct
    /// sharing a name with a production type must not shadow it.
    pub is_test: bool,
}

/// An enum definition: the variant list drives the W003 matrix.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// Crate key.
    pub crate_key: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Enum name.
    pub name: String,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Defined inside `#[cfg(test)]` / `#[test]` scaffolding. Fixture
    /// enums (e.g. a test module's own `Wire`) must never shadow the
    /// shipping protocol enum of the same name.
    pub is_test: bool,
}

/// One arm of a `match`, pattern text only (up to `=>`, guard kept).
#[derive(Clone, Debug)]
pub struct MatchArm {
    /// 1-based line the pattern starts on.
    pub line: usize,
    /// Pattern text (cleaned source, single-spaced).
    pub pattern: String,
}

/// One `match` expression.
#[derive(Clone, Debug)]
pub struct MatchSite {
    /// Arms in order.
    pub arms: Vec<MatchArm>,
    /// Inside test scaffolding.
    pub is_test: bool,
}

/// Crate key for a workspace-relative path: `crates/<key>/…` is
/// `<key>`, and everything else (the umbrella crate's `src/`, or an
/// unknown top-level directory) is `joshua-repro`.
pub(crate) fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "joshua-repro".to_string(),
    }
}

/// Everything known about one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Crate key.
    pub crate_key: String,
    /// One entry per input line, comment/string/char-literal contents
    /// blanked out (1-based line `n` is `lines[n - 1]`).
    pub lines: Vec<String>,
    /// `// lint: allow(..): reason` pragmas, in line order.
    pub pragmas: Vec<Pragma>,
    /// 1-based line of the trailing top-level `#[cfg(test)]` (everything
    /// from there on is test scaffolding, out of every rule's scope), or
    /// `usize::MAX`.
    pub test_start: usize,
    /// Functions, in source order.
    pub fns: Vec<FnDef>,
    /// Structs.
    pub structs: Vec<StructDef>,
    /// Enums.
    pub enums: Vec<EnumDef>,
    /// `match` sites.
    pub matches: Vec<MatchSite>,
}

impl FileFacts {
    /// Blank and extract one file.
    pub(crate) fn new(rel_path: &str, text: &str) -> FileFacts {
        let path = rel_path.replace('\\', "/");
        let clean = preprocess(text);
        let mut facts = FileFacts {
            crate_key: crate_key(&path),
            test_start: clean.test_module_start().unwrap_or(usize::MAX),
            path,
            lines: clean.code_lines,
            pragmas: clean.pragmas,
            fns: Vec::new(),
            structs: Vec::new(),
            enums: Vec::new(),
            matches: Vec::new(),
        };
        crate::extract::items(&mut facts);
        facts
    }

    /// `(line_no, clean text)` for the lines `first..=last`.
    pub(crate) fn span(&self, first: usize, last: usize) -> Vec<(usize, &str)> {
        (first..=last)
            .filter_map(|n| self.lines.get(n.checked_sub(1)?).map(|l| (n, l.as_str())))
            .collect()
    }
}

/// The whole-workspace model: per-file facts plus derived lookups.
#[derive(Debug, Default)]
pub struct Model {
    /// One entry per scanned file.
    pub files: Vec<FileFacts>,
}

impl Model {
    /// Build the model from `(workspace-relative path, source text)`
    /// pairs, in the given order.
    pub(crate) fn build<P: AsRef<str>, T: AsRef<str>>(files: &[(P, T)]) -> Model {
        Model {
            files: files
                .iter()
                .map(|(p, t)| FileFacts::new(p.as_ref(), t.as_ref()))
                .collect(),
        }
    }

    /// The file with this workspace-relative path.
    pub(crate) fn file(&self, path: &str) -> Option<&FileFacts> {
        self.files.iter().find(|f| f.path == path)
    }

    /// All functions across all files, in file then source order.
    pub(crate) fn fns(&self) -> impl Iterator<Item = &FnDef> {
        self.files.iter().flat_map(|f| &f.fns)
    }

    /// Field type of `type_name.field`, searched across all crates.
    /// Shipping definitions always win over `#[cfg(test)]` fixtures.
    pub(crate) fn field_type(&self, type_name: &str, field: &str) -> Option<&str> {
        let all = || self.files.iter().flat_map(|f| &f.structs);
        all()
            .find(|s| s.name == type_name && !s.is_test)
            .or_else(|| all().find(|s| s.name == type_name))
            .and_then(|s| {
                s.fields
                    .iter()
                    .find(|(n, _)| n == field)
                    .map(|(_, t)| t.as_str())
            })
    }

    /// Enum definition by name (protocol enum names are unique in this
    /// workspace; first match wins deterministically by file order).
    /// `#[cfg(test)]` fixture enums are excluded entirely: the rules
    /// must resolve protocol enums against shipping code only, never a
    /// test module's embedded copy.
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.files
            .iter()
            .flat_map(|f| &f.enums)
            .find(|e| e.name == name && !e.is_test)
    }

    /// Why a registry entry naming the protocol enum `name` is stale, if
    /// it is. A registered name that resolves to nothing (or to a
    /// definition the extractor read no variants from) makes the rule
    /// that walks its variants skip it in silence.
    pub(crate) fn stale_enum(&self, name: &str) -> Option<&'static str> {
        match self.enum_def(name) {
            None => Some("resolves to no enum definition"),
            Some(def) if def.variants.is_empty() => {
                Some("resolves to a definition without variants")
            }
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(crate_key("crates/gcs/src/engine.rs"), "gcs");
        assert_eq!(crate_key("src/lib.rs"), "joshua-repro");
        assert_eq!(crate_key("benchmark/src/main.rs"), "joshua-repro");
        let win = FileFacts::new("crates\\sim\\src\\lib.rs", "fn f() {}\n");
        assert_eq!(
            (win.path.as_str(), win.fns.len()),
            ("crates/sim/src/lib.rs", 1)
        );
    }
}
