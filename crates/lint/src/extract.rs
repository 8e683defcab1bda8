//! The extractor: one pass over a file's blanked lines that recovers
//! items (impl blocks, functions, structs, enums), call sites, `let`
//! bindings and field writes; plus a second char-level pass that
//! recovers `match` expressions with their arm patterns.
//!
//! This is deliberately *not* a Rust parser. It is a brace/token state
//! machine tuned to rustfmt-shaped code (which the whole workspace is),
//! and it over-approximates: unresolvable constructs degrade to
//! `Recv::Chain` (resolved only when the method name is unique
//! workspace-wide) or are dropped. The rules layer compensates with
//! audited suppression pragmas for the rare residual false positive.

use crate::model::{
    BindSrc, CallSite, EnumDef, FieldWrite, FileFacts, FnDef, MatchArm, MatchSite, Recv, StructDef,
};
use crate::text::{find_token, has_token, is_ident, split_top_level, token_positions};

/// Strip a type expression down to the identifying type name:
/// `&mut Option<Box<Outstanding>>` → `Outstanding`. Returns `None` for
/// types with no useful head (tuples, slices, `impl`/`dyn` bounds).
pub(crate) fn peel(raw: &str) -> Option<String> {
    let mut s = raw.trim();
    loop {
        let before = s;
        s = s.trim_start_matches('&').trim_start();
        if let Some(rest) = s.strip_prefix('\'') {
            // Lifetime: skip the ident.
            let end = rest
                .find(|c: char| !c.is_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            s = rest[end..].trim_start();
        }
        if let Some(rest) = s.strip_prefix("mut ") {
            s = rest.trim_start();
        }
        if s == before {
            break;
        }
    }
    for wrapper in ["Option<", "Box<", "Rc<", "Arc<"] {
        if let Some(rest) = s.strip_prefix(wrapper) {
            let inner = rest.strip_suffix('>').unwrap_or(rest);
            return peel(inner);
        }
    }
    if s.starts_with("impl ") || s.starts_with("dyn ") || s.starts_with('(') || s.starts_with('[') {
        return None;
    }
    let end = s
        .find(|c: char| !(is_ident(c) || c == ':'))
        .unwrap_or(s.len());
    let base = &s[..end];
    let name = base.rsplit("::").next().unwrap_or(base);
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return None;
    }
    Some(name.to_string())
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "fn", "impl", "let",
    "mut", "ref", "move", "pub", "use", "mod", "where", "unsafe", "async", "await", "dyn", "break",
    "continue", "struct", "enum", "trait", "type", "const", "static", "crate", "super", "box",
    "yield",
];

/// What kind of item signature is being accumulated across lines.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SigKind {
    Fn,
    Impl,
    Struct,
    Enum,
}

/// A block we track on the open-brace stack.
struct Block {
    /// Brace depth *before* the opening `{`.
    open_depth: i32,
    kind: BlockKind,
}

enum BlockKind {
    /// `impl` block: (peeled type, peeled trait).
    Impl(Option<String>, Option<String>),
    /// Function body: index into `fns`.
    Fn(usize),
    /// Struct body: index into `structs`.
    Struct(usize),
    /// Enum body: index into `enums`.
    Enum(usize),
}

/// Fill in `facts`' functions, structs, enums and `match` sites from
/// its blanked lines.
pub(crate) fn items(facts: &mut FileFacts) {
    let (rel_path, key, test_start) = (facts.path.as_str(), &facts.crate_key, facts.test_start);

    let mut fns: Vec<FnDef> = Vec::new();
    let mut structs: Vec<StructDef> = Vec::new();
    let mut enums: Vec<EnumDef> = Vec::new();

    let mut depth: i32 = 0;
    let mut blocks: Vec<Block> = Vec::new();
    let mut pending: Option<(SigKind, String, usize, i32)> = None; // (kind, text, line, paren depth)
    let mut pending_test_attr = false;
    // Open depth of the outermost #[cfg(test)] / #[test] block, if any.
    let mut test_region: Option<i32> = None;

    for (idx, line) in facts.lines.iter().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.starts_with("#[") {
            if trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[test]") {
                pending_test_attr = true;
            }
            continue;
        }

        let mut rest: &str = line;
        loop {
            // Phase 1: finish an in-flight item signature.
            if let Some((kind, sig, sig_line, mut pd)) = pending.take() {
                let mut sig = sig;
                let mut done = None;
                for (ci, ch) in rest.char_indices() {
                    match ch {
                        '(' => pd += 1,
                        ')' => pd -= 1,
                        '{' if pd == 0 => {
                            done = Some((ci, true));
                            break;
                        }
                        ';' if pd == 0 => {
                            done = Some((ci, false));
                            break;
                        }
                        _ => {}
                    }
                }
                if let Some((ci, opens)) = done {
                    sig.push(' ');
                    sig.push_str(&rest[..ci]);
                    let consumed = ci;
                    if opens {
                        let open_depth = depth;
                        let is_test =
                            test_region.is_some() || sig_line >= test_start || pending_test_attr;
                        match kind {
                            SigKind::Fn => {
                                let (impl_type, impl_trait) = blocks
                                    .iter()
                                    .rev()
                                    .find_map(|b| match &b.kind {
                                        BlockKind::Impl(t, tr) => Some((t.clone(), tr.clone())),
                                        _ => None,
                                    })
                                    .unwrap_or((None, None));
                                let def = parse_fn_sig(
                                    &sig, rel_path, key, sig_line, impl_type, impl_trait, is_test,
                                );
                                fns.push(def);
                                blocks.push(Block {
                                    open_depth,
                                    kind: BlockKind::Fn(fns.len() - 1),
                                });
                            }
                            SigKind::Impl => {
                                let (t, tr) = parse_impl_sig(&sig);
                                blocks.push(Block {
                                    open_depth,
                                    kind: BlockKind::Impl(t, tr),
                                });
                            }
                            SigKind::Struct => {
                                structs.push(StructDef {
                                    name: item_name(&sig),
                                    fields: Vec::new(),
                                    is_test,
                                });
                                blocks.push(Block {
                                    open_depth,
                                    kind: BlockKind::Struct(structs.len() - 1),
                                });
                            }
                            SigKind::Enum => {
                                enums.push(EnumDef {
                                    crate_key: key.clone(),
                                    path: rel_path.to_string(),
                                    line: sig_line,
                                    name: item_name(&sig),
                                    variants: Vec::new(),
                                    is_test,
                                });
                                blocks.push(Block {
                                    open_depth,
                                    kind: BlockKind::Enum(enums.len() - 1),
                                });
                            }
                        }
                        if pending_test_attr && test_region.is_none() {
                            test_region = Some(open_depth);
                        }
                        pending_test_attr = false;
                        depth += 1;
                        rest = &rest[consumed + 1..];
                        continue; // re-enter loop: more code may follow on this line
                    }
                    // `;` — declaration without a body (trait method,
                    // tuple struct, type alias …): drop it.
                    pending_test_attr = false;
                    rest = &rest[consumed + 1..];
                    continue;
                }
                sig.push(' ');
                sig.push_str(rest);
                pending = Some((kind, sig, sig_line, pd));
                break;
            }

            // Phase 2: look for a new item starter (only outside fn
            // bodies, except `fn` which also starts nested items).
            let in_fn = matches!(
                blocks.last(),
                Some(Block {
                    kind: BlockKind::Fn(_),
                    ..
                })
            );
            let starter = if in_fn {
                None
            } else {
                ["fn", "impl", "struct", "enum"]
                    .iter()
                    .filter_map(|kw| find_token(rest, kw).map(|p| (p, *kw)))
                    // `codec!(enum ServerCmd { 0 => Qsub(spec), .. })`: a
                    // keyword that opens a macro invocation's arguments is
                    // input to the macro, not an item. Taken as one it would
                    // be a definition without variants that shadows the real
                    // one in a file sorting later.
                    .filter(|(p, _)| !opens_macro_args(&rest[..*p]))
                    .min_by_key(|(p, _)| *p)
            };
            if let Some((pos, kw)) = starter {
                // Depth-count the prefix, then open the signature.
                scan_braces(&rest[..pos], &mut depth, &mut blocks, &mut fns, line_no);
                let kind = match kw {
                    "fn" => SigKind::Fn,
                    "impl" => SigKind::Impl,
                    "struct" => SigKind::Struct,
                    _ => SigKind::Enum,
                };
                pending = Some((kind, String::new(), line_no, 0));
                rest = &rest[pos + kw.len()..];
                continue;
            }

            // Phase 3: plain code line (or remainder).
            if !rest.is_empty() {
                // `#[cfg(test)] mod tests {` — an untracked block, but
                // the fns inside must count as test scaffolding.
                if pending_test_attr && has_token(rest, "mod") && rest.contains('{') {
                    if test_region.is_none() {
                        test_region = Some(depth);
                    }
                    pending_test_attr = false;
                }
                match blocks.last() {
                    Some(Block {
                        kind: BlockKind::Fn(fi),
                        ..
                    }) => {
                        let fi = *fi;
                        scan_body_line(rest, line_no, &mut fns[fi]);
                    }
                    Some(Block {
                        kind: BlockKind::Struct(si),
                        open_depth,
                    }) if depth == open_depth + 1 => {
                        let body = rest.split('}').next().unwrap_or(rest);
                        for part in split_top_level(body) {
                            if let Some((name, ty)) = parse_field(part) {
                                structs[*si].fields.push((name, ty));
                            }
                        }
                    }
                    Some(Block {
                        kind: BlockKind::Enum(ei),
                        open_depth,
                    }) if depth == open_depth + 1 => {
                        let body = rest.split('}').next().unwrap_or(rest);
                        for part in split_top_level(body) {
                            if let Some(v) = parse_variant(part) {
                                enums[*ei].variants.push(v);
                            }
                        }
                    }
                    _ => {}
                }
                scan_braces(rest, &mut depth, &mut blocks, &mut fns, line_no);
            }
            if let Some(td) = test_region {
                if depth <= td {
                    test_region = None;
                }
            }
            break;
        }
    }
    // Close any function left open at EOF.
    for b in &blocks {
        if let BlockKind::Fn(fi) = b.kind {
            fns[fi].end_line = facts.lines.len();
        }
    }

    facts.matches = extract_matches(&facts.lines, &fns, test_start);
    facts.fns = fns;
    facts.structs = structs;
    facts.enums = enums;
}

/// Does `before` end by opening a macro invocation's arguments
/// (`name!(`, `name!{`, `name![`)?
fn opens_macro_args(before: &str) -> bool {
    let t = before.trim_end();
    ["!(", "!{", "!["].iter().any(|open| t.ends_with(open))
}

/// Count braces in `s`, popping tracked blocks as they close.
fn scan_braces(
    s: &str,
    depth: &mut i32,
    blocks: &mut Vec<Block>,
    fns: &mut [FnDef],
    line_no: usize,
) {
    for ch in s.chars() {
        match ch {
            '{' => *depth += 1,
            '}' => {
                *depth -= 1;
                while blocks.last().is_some_and(|b| b.open_depth >= *depth) {
                    let b = blocks.pop().unwrap();
                    if let BlockKind::Fn(fi) = b.kind {
                        fns[fi].end_line = line_no;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Parse an accumulated `fn` signature (text between `fn` and `{`).
fn parse_fn_sig(
    sig: &str,
    path: &str,
    key: &str,
    line: usize,
    impl_type: Option<String>,
    impl_trait: Option<String>,
    is_test: bool,
) -> FnDef {
    let sig = sig.trim();
    let name_end = sig.find(|c: char| !is_ident(c)).unwrap_or(sig.len());
    let name = sig[..name_end].to_string();

    // Parameter list: first `(` .. matching `)`.
    let mut params = Vec::new();
    let mut mut_self = false;
    let mut mut_param_types = Vec::new();
    let mut after_params = "";
    // The parameter `(` is the first one outside the generics `<..>`
    // (which may themselves contain parens: `<F: Fn(u64) -> u64>`).
    let mut angle = 0i32;
    let mut param_open = None;
    for (ci, ch) in sig.char_indices() {
        match ch {
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            '(' if angle == 0 => {
                param_open = Some(ci);
                break;
            }
            _ => {}
        }
    }
    if let Some(open) = param_open {
        let mut pd = 0;
        let mut close = sig.len();
        for (ci, ch) in sig[open..].char_indices() {
            match ch {
                '(' | '[' => pd += 1,
                ')' | ']' => {
                    pd -= 1;
                    if pd == 0 {
                        close = open + ci;
                        break;
                    }
                }
                _ => {}
            }
        }
        let plist = &sig[open + 1..close.min(sig.len())];
        after_params = sig.get(close + 1..).unwrap_or("");
        for part in split_top_level(plist) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if has_token(part, "self") && !part.contains(':') {
                if part.contains("mut") {
                    mut_self = true;
                }
                continue;
            }
            if let Some(colon) = part.find(':') {
                let pname = part[..colon]
                    .trim()
                    .trim_start_matches("mut ")
                    .trim_start_matches("ref ")
                    .trim();
                let raw_ty = part[colon + 1..].trim();
                if let Some(ty) = peel(raw_ty) {
                    if raw_ty.starts_with("&mut ")
                        || (raw_ty.starts_with("&'") && raw_ty.contains(" mut "))
                    {
                        mut_param_types.push(ty.clone());
                    }
                    if pname.chars().all(is_ident) && !pname.is_empty() && pname != "_" {
                        params.push((pname.to_string(), ty));
                    }
                }
            }
        }
    }
    let ret = after_params
        .find("->")
        .map(|p| &after_params[p + 2..])
        .map(|r| match r.find(" where ") {
            Some(w) => &r[..w],
            None => r,
        })
        .and_then(peel);

    let qualified = match &impl_type {
        Some(t) => format!("{t}::{name}"),
        None => name.clone(),
    };
    FnDef {
        path: path.to_string(),
        crate_key: key.to_string(),
        line,
        end_line: line,
        name,
        impl_type,
        impl_trait,
        qualified,
        mut_self,
        params,
        mut_param_types,
        ret,
        is_test,
        calls: Vec::new(),
        bindings: Vec::new(),
        field_writes: Vec::new(),
    }
}

/// Parse an `impl` signature (text between `impl` and `{`) into
/// `(type, trait)`.
fn parse_impl_sig(sig: &str) -> (Option<String>, Option<String>) {
    let mut s = sig.trim();
    // Strip leading generics `<..>` (balanced).
    if s.starts_with('<') {
        let mut d = 0i32;
        for (i, ch) in s.char_indices() {
            match ch {
                '<' => d += 1,
                '>' => {
                    d -= 1;
                    if d == 0 {
                        s = s[i + 1..].trim();
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    // Drop a trailing `where` clause.
    if let Some(w) = find_token(s, "where") {
        s = s[..w].trim_end();
    }
    match find_token(s, "for") {
        Some(p) => {
            let tr = peel(&s[..p]);
            let ty = peel(&s[p + 3..]);
            (ty, tr)
        }
        None => (peel(s), None),
    }
}

/// Item name following `struct` / `enum` in an accumulated signature.
fn item_name(sig: &str) -> String {
    let sig = sig.trim();
    let end = sig.find(|c: char| !is_ident(c)).unwrap_or(sig.len());
    sig[..end].to_string()
}

/// Parse one struct-body line into `(field, peeled type)`.
fn parse_field(line: &str) -> Option<(String, String)> {
    let t = line
        .trim()
        .trim_start_matches("pub ")
        .trim_start_matches("(crate) ")
        .trim();
    let t = t.strip_prefix("pub(crate)").map(str::trim).unwrap_or(t);
    let colon = t.find(':')?;
    let name = t[..colon].trim();
    if name.is_empty() || !name.chars().all(is_ident) {
        return None;
    }
    let raw_ty = t[colon + 1..].trim().trim_end_matches(',');
    Some((name.to_string(), peel(raw_ty)?))
}

/// Parse one enum-body line into a variant name.
fn parse_variant(line: &str) -> Option<String> {
    let t = line.trim();
    let first = t.chars().next()?;
    if !(first.is_alphabetic() || first == '_') {
        return None;
    }
    let end = t.find(|c: char| !is_ident(c)).unwrap_or(t.len());
    let name = &t[..end];
    if KEYWORDS.contains(&name) || !first.is_uppercase() {
        return None;
    }
    Some(name.to_string())
}

/// Scan one body line for calls, bindings and field writes.
fn scan_body_line(line: &str, line_no: usize, f: &mut FnDef) {
    scan_bindings(line, f);
    scan_field_writes(line, f);
    scan_calls(line, line_no, f);
}

fn scan_bindings(line: &str, f: &mut FnDef) {
    let Some(let_pos) = find_token(line, "let") else {
        return;
    };
    let after = &line[let_pos + 3..];
    // `let Some(x) = [&[mut ]]self.field` / `let Ok(x) = ..`
    for ctor in ["Some(", "Ok("] {
        if let Some(p) = after.trim_start().strip_prefix(ctor) {
            if let Some(close) = p.find(')') {
                let name = p[..close]
                    .trim()
                    .trim_start_matches("ref ")
                    .trim_start_matches("mut ");
                if name.chars().all(is_ident) && !name.is_empty() {
                    if let Some(eq) = p.find('=') {
                        let rhs = p[eq + 1..]
                            .trim()
                            .trim_start_matches('&')
                            .trim_start_matches("mut ");
                        if let Some(field) = rhs.strip_prefix("self.") {
                            let fe = field.find(|c: char| !is_ident(c)).unwrap_or(field.len());
                            f.bindings.push((
                                name.to_string(),
                                BindSrc::FieldOf(field[..fe].to_string()),
                            ));
                        }
                    }
                }
            }
            return;
        }
    }
    // `let [mut] name[: Type] = rhs`
    let after = after
        .trim_start()
        .strip_prefix("mut ")
        .map(str::trim_start)
        .unwrap_or(after.trim_start());
    let name_end = after.find(|c: char| !is_ident(c)).unwrap_or(after.len());
    let name = &after[..name_end];
    if name.is_empty() || KEYWORDS.contains(&name) {
        return;
    }
    let tail = after[name_end..].trim_start();
    if let Some(ty_part) = tail.strip_prefix(':') {
        let ty_end = ty_part.find('=').unwrap_or(ty_part.len());
        if let Some(ty) = peel(&ty_part[..ty_end]) {
            f.bindings.push((name.to_string(), BindSrc::Typed(ty)));
        }
        return;
    }
    let Some(rhs) = tail.strip_prefix('=') else {
        return;
    };
    let rhs = rhs
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ");
    if let Some(sfield) = rhs.strip_prefix("self.") {
        let fe = sfield.find(|c: char| !is_ident(c)).unwrap_or(sfield.len());
        let fname = &sfield[..fe];
        match sfield[fe..].chars().next() {
            // `let x = self.method(..)`: bind to the return type.
            Some('(') => f
                .bindings
                .push((name.to_string(), BindSrc::SelfRet(fname.to_string()))),
            // `let x = self.field` / `self.field.clone()` / `self.field;`
            _ => f
                .bindings
                .push((name.to_string(), BindSrc::FieldOf(fname.to_string()))),
        }
        return;
    }
    // `let x = Type::new(..)` / `Type { .. }` / `Type(..)`
    let te = rhs.find(|c: char| !is_ident(c)).unwrap_or(rhs.len());
    let head = &rhs[..te];
    if head.chars().next().is_some_and(|c| c.is_uppercase()) {
        f.bindings
            .push((name.to_string(), BindSrc::Typed(head.to_string())));
    }
}

fn scan_field_writes(line: &str, f: &mut FnDef) {
    let mut from = 0;
    while let Some(rel) = line[from..].find("self.") {
        let at = from + rel + 5;
        from = at;
        let field_end = line[at..]
            .find(|c: char| !is_ident(c))
            .map(|e| at + e)
            .unwrap_or(line.len());
        let field = &line[at..field_end];
        if field.is_empty() {
            continue;
        }
        let tail = line[field_end..].trim_start();
        if tail.starts_with('=') && !tail.starts_with("==") && !tail.starts_with("=>") {
            f.field_writes.push(FieldWrite {
                field: field.to_string(),
            });
        }
    }
}

/// Start of the identifier that ends just before `end`.
fn ident_start(b: &[char], end: usize) -> usize {
    let mut s = end;
    while s > 0 && is_ident(b[s - 1]) {
        s -= 1;
    }
    s
}

fn scan_calls(line: &str, line_no: usize, f: &mut FnDef) {
    let b: Vec<char> = line.chars().collect();
    for i in 0..b.len() {
        if b[i] != '(' {
            continue;
        }
        // Identifier immediately before the `(`.
        let s = ident_start(&b, i);
        if s == i {
            continue;
        }
        let name: String = b[s..i].iter().collect();
        if name.chars().next().is_some_and(|c| c.is_numeric()) {
            continue;
        }
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // (A macro `name!(` has `!` before the `(`, so `name` is empty
        // and it was skipped above.)
        let before = if s > 0 { Some(b[s - 1]) } else { None };
        let recv = match before {
            Some('.') => {
                // Walk the receiver ident before the dot.
                let rs = ident_start(&b, s - 1);
                let rcv: String = b[rs..s - 1].iter().collect();
                let before_rcv = if rs > 0 { Some(b[rs - 1]) } else { None };
                if rcv == "self" && before_rcv != Some('.') {
                    Recv::SelfDot
                } else if rcv.is_empty() {
                    Recv::Chain
                } else if before_rcv == Some('.') {
                    // `x.y.name(` — receiver is `y` of `x`; only
                    // `self.field.m()` is resolvable.
                    let ss = ident_start(&b, rs - 1);
                    let outer: String = b[ss..rs - 1].iter().collect();
                    let before_outer = if ss > 0 { Some(b[ss - 1]) } else { None };
                    if outer == "self" && before_outer != Some('.') {
                        Recv::Field(rcv)
                    } else {
                        Recv::Chain
                    }
                } else if before_rcv.is_some_and(|c| c == ')' || c == ']' || c == '?') {
                    Recv::Chain
                } else if rcv.chars().next().is_some_and(char::is_uppercase) {
                    // `Epoch.cmp(` can't occur; uppercase receiver is a
                    // path-less unit struct value — treat as chain.
                    Recv::Chain
                } else {
                    Recv::Var(rcv)
                }
            }
            Some(':') if s >= 2 && b[s - 2] == ':' => {
                // `seg::name(` — walk the segment.
                let rs = ident_start(&b, s - 2);
                let seg: String = b[rs..s - 2].iter().collect();
                if seg.chars().next().is_some_and(char::is_uppercase) {
                    Recv::Path(seg)
                } else if seg.is_empty() {
                    Recv::Chain
                } else {
                    // `module::free_fn(` — resolve by bare name.
                    Recv::Bare
                }
            }
            _ => {
                // Bare call. Skip uppercase idents (tuple-struct/enum
                // constructors like `Some(`, `ProcId(`), and skip the
                // name of the fn being defined (`fn name(`).
                if name.chars().next().is_some_and(char::is_uppercase) {
                    continue;
                }
                let prefix: String = b[..s].iter().collect();
                let pt = prefix.trim_end();
                if pt.ends_with("fn") {
                    continue;
                }
                Recv::Bare
            }
        };
        f.calls.push(CallSite {
            line: line_no,
            name,
            recv,
        });
    }
}

/// Char-level pass recovering `match` expressions with arm patterns.
fn extract_matches(code_lines: &[String], fns: &[FnDef], test_start: usize) -> Vec<MatchSite> {
    let joined = code_lines.join("\n");
    let chars: Vec<char> = joined.chars().collect();
    // Map char offset -> 1-based line.
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    let mut ln = 1usize;
    for &c in &chars {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    line_of.push(ln);

    let mut sites = Vec::new();
    for at in token_positions(&joined, "match") {
        let match_line = line_of[at.min(line_of.len() - 1)];
        // Find the body-opening `{` at paren/bracket depth 0.
        let mut i = at + 5;
        let mut pd = 0i32;
        let mut body_open = None;
        while i < chars.len() {
            match chars[i] {
                '(' | '[' => pd += 1,
                ')' | ']' => pd -= 1,
                '{' if pd == 0 => {
                    body_open = Some(i);
                    break;
                }
                ';' if pd == 0 => break, // not a match expression after all
                _ => {}
            }
            i += 1;
        }
        let Some(open) = body_open else { continue };
        // Parse arms.
        let mut arms = Vec::new();
        let mut i = open + 1;
        'outer: while i < chars.len() {
            // Skip whitespace and commas between arms.
            while i < chars.len() && (chars[i].is_whitespace() || chars[i] == ',') {
                i += 1;
            }
            if i >= chars.len() || chars[i] == '}' {
                break;
            }
            // Pattern: until `=>` at local depth 0.
            let pat_start = i;
            let mut d = 0i32;
            let arrow;
            loop {
                if i + 1 >= chars.len() {
                    break 'outer;
                }
                match chars[i] {
                    '(' | '[' | '{' => d += 1,
                    ')' | ']' => d -= 1,
                    '}' => {
                        d -= 1;
                        if d < 0 {
                            break 'outer;
                        }
                    }
                    '=' if chars[i + 1] == '>' && d == 0 => {
                        arrow = i;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            let pattern: String = chars[pat_start..arrow]
                .iter()
                .collect::<String>()
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            arms.push(MatchArm {
                line: line_of[pat_start.min(line_of.len() - 1)],
                pattern,
            });
            // Body: balanced block or until `,`/`}` at depth 1.
            i = arrow + 2;
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            if i < chars.len() && chars[i] == '{' {
                let mut d2 = 0i32;
                while i < chars.len() {
                    match chars[i] {
                        '{' => d2 += 1,
                        '}' => {
                            d2 -= 1;
                            if d2 == 0 {
                                i += 1;
                                continue 'outer;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                break;
            }
            let mut d2 = 0i32;
            while i < chars.len() {
                match chars[i] {
                    '(' | '[' | '{' => d2 += 1,
                    ')' | ']' => d2 -= 1,
                    '}' => {
                        d2 -= 1;
                        if d2 < 0 {
                            break 'outer;
                        }
                    }
                    ',' if d2 == 0 => {
                        i += 1;
                        continue 'outer;
                    }
                    _ => {}
                }
                i += 1;
            }
            break;
        }
        let is_test = match_line >= test_start
            || fns
                .iter()
                .find(|f| f.line <= match_line && match_line <= f.end_line)
                .is_some_and(|f| f.is_test);
        sites.push(MatchSite { arms, is_test });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn extract(path: &str, src: &str) -> FileFacts {
        FileFacts::new(path, src)
    }

    #[test]
    fn peel_strips_refs_and_wrappers() {
        assert_eq!(
            peel("&mut Option<Box<Outstanding>>").as_deref(),
            Some("Outstanding")
        );
        assert_eq!(peel("&'a mut Ctx<'_>").as_deref(), Some("Ctx"));
        assert_eq!(
            peel("jrs_gcs::GroupMember<Payload>").as_deref(),
            Some("GroupMember")
        );
        assert_eq!(peel("Vec<ProcId>").as_deref(), Some("Vec"));
        assert_eq!(peel("(u64, u64)"), None);
        assert_eq!(peel("impl Iterator<Item = u8>"), None);
    }

    #[test]
    fn extracts_impl_methods_and_calls() {
        let src = "\
struct Server { core: Engine, n: u64 }
impl Server {
    fn handle(&mut self, ctx: &mut Ctx<'_>) {
        self.apply();
        self.core.tick();
        ctx.send(1);
        helper();
    }
    fn apply(&mut self) {}
}
fn helper() {}
";
        let facts = extract("crates/gcs/src/x.rs", src);
        assert_eq!(facts.structs.len(), 1);
        assert_eq!(
            facts.structs[0].fields,
            vec![
                ("core".to_string(), "Engine".to_string()),
                ("n".to_string(), "u64".to_string()),
            ]
        );
        let handle = facts.fns.iter().find(|f| f.name == "handle").unwrap();
        assert_eq!(handle.qualified, "Server::handle");
        assert!(handle.mut_self);
        assert_eq!(handle.params, vec![("ctx".to_string(), "Ctx".to_string())]);
        let kinds: Vec<(&str, &Recv)> = handle
            .calls
            .iter()
            .map(|c| (c.name.as_str(), &c.recv))
            .collect();
        assert!(kinds.contains(&("apply", &Recv::SelfDot)));
        assert!(kinds.contains(&("tick", &Recv::Field("core".to_string()))));
        assert!(kinds.contains(&("send", &Recv::Var("ctx".to_string()))));
        assert!(kinds.contains(&("helper", &Recv::Bare)));
        assert_eq!(facts.fns.iter().filter(|f| f.name == "helper").count(), 1);
    }

    #[test]
    fn multiline_signature_and_trait_impl() {
        let src = "\
impl Process for Head {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        msg: Box<Message>,
    ) {
        self.core.apply(1);
    }
}
";
        let facts = extract("crates/pbs/src/x.rs", src);
        let f = &facts.fns[0];
        assert_eq!(f.qualified, "Head::on_message");
        assert_eq!(f.impl_trait.as_deref(), Some("Process"));
        assert_eq!(f.params.len(), 3);
        assert!(f
            .calls
            .iter()
            .any(|c| c.name == "apply" && c.recv == Recv::Field("core".into())));
    }

    #[test]
    fn match_sites_with_wildcard() {
        let src = "\
fn route(m: &GcsMsg) -> u32 {
    match m {
        GcsMsg::Heartbeat { .. } => 1,
        GcsMsg::Leave => 2,
        _ => 0,
    }
}
";
        let facts = extract("crates/gcs/src/x.rs", src);
        assert_eq!(facts.matches.len(), 1);
        let m = &facts.matches[0];
        assert_eq!(m.arms.len(), 3);
        assert_eq!(m.arms[2].pattern, "_");
        assert!(m.arms[0].pattern.contains("GcsMsg::Heartbeat"));
    }

    #[test]
    fn enum_variants_extracted() {
        let src = "\
pub enum Wire<P> {
    Raw(GcsMsg<P>),
    Data {
        seq: u64,
        msg: GcsMsg<P>,
    },
    Ack {
        cum: u64,
    },
}
";
        let facts = extract("crates/gcs/src/x.rs", src);
        assert_eq!(facts.enums.len(), 1);
        assert_eq!(facts.enums[0].variants, vec!["Raw", "Data", "Ack"]);
    }

    #[test]
    fn test_module_items_never_shadow_shipping_definitions() {
        // A fixture module re-declares a protocol enum (extra variant)
        // and a struct; lookups must resolve to the shipping versions.
        // Regression for the F/W passes' shared index: the file
        // with the fixture sorts *before* the real definition.
        let fixture = "\
#[cfg(test)]
mod tests {
    pub enum Wire<P> {
        Raw(GcsMsg<P>),
        Bogus(u8),
    }
    struct Server { core: FakeEngine }
}
";
        let real = "\
pub enum Wire<P> {
    Raw(GcsMsg<P>),
    Data { seq: u64, msg: GcsMsg<P> },
    Ack { cum: u64 },
}
struct Server { core: Engine }
";
        let model = Model::build(&[
            ("crates/flow/src/a.rs", fixture),
            ("crates/gcs/src/msg.rs", real),
        ]);
        let wire = model.enum_def("Wire").expect("shipping Wire resolves");
        assert_eq!(wire.path, "crates/gcs/src/msg.rs");
        assert_eq!(wire.variants, vec!["Raw", "Data", "Ack"]);
        assert_eq!(model.field_type("Server", "core"), Some("Engine"));
        // The fixture items are still extracted, just flagged.
        let fx = &model.files[0];
        assert!(fx.enums.iter().all(|e| e.is_test));
        assert!(fx.structs.iter().all(|s| s.is_test));
    }

    #[test]
    fn bindings_resolve_fields_and_types() {
        let src = "\
struct S { store: Option<HeadStore> }
impl S {
    fn f(&mut self) {
        if let Some(store) = &self.store {
            store.log(1);
        }
        let out = EngineOut::default();
        out.merge(2);
    }
}
";
        let facts = extract("crates/core/src/x.rs", src);
        let f = facts.fns.iter().find(|f| f.name == "f").unwrap();
        assert!(f
            .bindings
            .iter()
            .any(|(n, s)| n == "store" && matches!(s, BindSrc::FieldOf(fl) if fl == "store")));
        assert!(f
            .bindings
            .iter()
            .any(|(n, s)| n == "out" && matches!(s, BindSrc::Typed(t) if t == "EngineOut")));
    }

    #[test]
    fn field_writes_detected() {
        let src = "\
impl S {
    fn eject(&mut self) {
        self.pbs = PbsServerCore::new();
        if self.n == 3 {}
        self.k += 1;
    }
}
";
        let facts = extract("crates/core/src/x.rs", src);
        let f = &facts.fns[0];
        assert_eq!(f.field_writes.len(), 1);
        assert_eq!(f.field_writes[0].field, "pbs");
    }
}
