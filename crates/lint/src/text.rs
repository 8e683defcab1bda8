//! Source preprocessing: comment/string stripping, suppression-pragma
//! extraction, and the token/bracket helpers every pass shares.
//!
//! The analysis is a line/token scanner, not a parser. Preprocessing
//! replaces the contents of comments, string literals, and char
//! literals with spaces (preserving line structure and column
//! positions), so rule patterns never fire inside documentation or
//! message text. Pragmas are read from the *original* text, since they
//! live in comments.

/// A `// lint: allow(RULE): reason` suppression found in a comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// Rule codes being suppressed, e.g. `["W001"]`.
    pub rules: Vec<String>,
    /// Justification text after the closing paren (may be empty —
    /// which is itself reported as a violation).
    pub reason: String,
}

/// Result of preprocessing one file.
#[derive(Debug)]
pub struct CleanSource {
    /// One entry per input line: the line with comment/string/char
    /// literal contents blanked out.
    pub code_lines: Vec<String>,
    /// All suppression pragmas, in line order.
    pub pragmas: Vec<Pragma>,
}

impl CleanSource {
    /// 1-based line (if any) of a top-level `#[cfg(test)]` attribute;
    /// everything from there to end of file is test scaffolding.
    /// Heuristic that matches this workspace's layout: unit-test
    /// modules sit at the end of each file.
    pub(crate) fn test_module_start(&self) -> Option<usize> {
        self.code_lines.iter().enumerate().find_map(|(i, l)| {
            let t = l.trim();
            if t.starts_with("#[cfg(test)]") && indent_of(l) == 0 {
                Some(i + 1)
            } else {
                None
            }
        })
    }
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// Lexer mode while sweeping a file.
enum Mode {
    Code,
    LineComment,
    BlockComment { depth: u32 },
    Str,
    RawStr { hashes: usize },
    Char,
}

/// Blank out comments, strings, and char literals; collect pragmas.
///
/// Pragmas are recognised only in genuine line comments whose text
/// (after the `//`/`///`/`//!` marker) *starts with* `lint:` —
/// mentions of the pragma syntax inside documentation prose or string
/// literals never count.
pub(crate) fn preprocess(text: &str) -> CleanSource {
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut pragmas = Vec::new();
    let mut line_no = 1usize;
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            line_no += 1;
        }
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    // Capture the whole comment up front for pragma
                    // parsing; blanking proceeds via LineComment mode.
                    let comment: String = bytes[i..].iter().take_while(|&&ch| ch != '\n').collect();
                    if let Some(p) = parse_pragma(&comment, line_no) {
                        pragmas.push(p);
                    }
                    mode = Mode::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment { depth: 1 };
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    mode = Mode::Str;
                    out.push(' ');
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) && !prev_is_ident(&out) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        mode = Mode::RawStr { hashes };
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                // Char literal vs lifetime. A char literal closes
                // within a few characters; a lifetime never closes.
                '\'' if is_char_literal(&bytes[i..]) => {
                    mode = Mode::Char;
                    out.push(' ');
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                if c == '\n' {
                    mode = Mode::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            Mode::BlockComment { depth } => {
                if c == '*' && next == Some('/') {
                    let d = depth - 1;
                    out.push_str("  ");
                    i += 2;
                    mode = if d == 0 {
                        Mode::Code
                    } else {
                        Mode::BlockComment { depth: d }
                    };
                } else if c == '/' && next == Some('*') {
                    out.push_str("  ");
                    i += 2;
                    mode = Mode::BlockComment { depth: depth + 1 };
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Str => match c {
                '\\' => {
                    // Keep line structure when the escape is a
                    // line-continuation backslash.
                    out.push(' ');
                    if next == Some('\n') {
                        out.push('\n');
                        line_no += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                }
                '"' => {
                    mode = Mode::Code;
                    out.push(' ');
                    i += 1;
                }
                _ => {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            },
            Mode::RawStr { hashes } => {
                if c == '"'
                    && bytes[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                    mode = Mode::Code;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Char => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                }
                '\'' => {
                    mode = Mode::Code;
                    out.push(' ');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
        }
    }

    let code_lines: Vec<String> = out.lines().map(str::to_string).collect();
    CleanSource {
        code_lines,
        pragmas,
    }
}

fn prev_is_ident(out: &str) -> bool {
    out.chars().next_back().is_some_and(is_ident)
}

/// Does `s` (starting at `'`) open a char literal rather than a
/// lifetime? `'a'` / `'\n'` / `'\u{1F600}'` are literals; `'static`
/// and `'a,` are lifetimes.
fn is_char_literal(s: &[char]) -> bool {
    debug_assert_eq!(s.first(), Some(&'\''));
    match s.get(1) {
        Some('\\') => true,
        Some(_) => s.get(2) == Some(&'\''),
        None => false,
    }
}

/// Parse one line comment (including its `//`/`///`/`//!` marker) into
/// a `lint: allow(R1[, R2...]): reason` pragma, if its text starts
/// with `lint:`.
fn parse_pragma(comment: &str, line: usize) -> Option<Pragma> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let rest = body.strip_prefix("lint")?.trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_uppercase())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_start();
    let reason = tail
        .strip_prefix(':')
        .map(str::trim)
        .unwrap_or("")
        .to_string();
    if rules.is_empty() {
        None
    } else {
        Some(Pragma {
            line,
            rules,
            reason,
        })
    }
}

/// Is `c` an identifier character?
pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of every standalone occurrence of `word` in `line`:
/// neither preceded nor followed by an identifier character (so `word`
/// may itself be a path like `Enum::Variant`).
pub(crate) fn token_positions<'a>(
    line: &'a str,
    word: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(rel) = line[from..].find(word) {
            let at = from + rel;
            from = at + word.len();
            let before = line[..at].chars().next_back();
            let after = line[from..].chars().next();
            if !before.is_some_and(is_ident) && !after.is_some_and(is_ident) {
                return Some(at);
            }
        }
        None
    })
}

/// Byte offset of the first standalone occurrence of `word` in `line`.
pub(crate) fn find_token(line: &str, word: &str) -> Option<usize> {
    token_positions(line, word).next()
}

/// Does `line` contain `word` as a standalone identifier token (not as
/// a substring of a longer identifier)?
pub(crate) fn has_token(line: &str, word: &str) -> bool {
    find_token(line, word).is_some()
}

/// Split `a: A, b: BTreeMap<K, V>` at top-level commas (outside any
/// `<>`, `()`, `[]`, `{}` nesting; the `>` of a `->` or `=>` is an
/// arrow, not a closer, and a stray closer never hides a later comma).
pub(crate) fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let mut prev = ' ';
    for (i, ch) in s.char_indices() {
        let arrow = ch == '>' && matches!(prev, '-' | '=');
        prev = ch;
        match ch {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' if arrow => {}
            '>' | ')' | ']' | '}' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Contents of the balanced `open..close` region `s` starts with.
pub(crate) fn balanced(s: &str, open: char, close: char) -> Option<&str> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(&s[open.len_utf8()..i]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"HashMap::new()\"; // HashMap here too\nlet m = HashMap::new();\n";
        let clean = preprocess(src);
        assert!(!has_token(&clean.code_lines[0], "HashMap"));
        assert!(has_token(&clean.code_lines[1], "HashMap"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let f = r#\"thread_rng() inside fixture\"#;\nthread_rng();\n";
        let clean = preprocess(src);
        assert!(!has_token(&clean.code_lines[0], "thread_rng"));
        assert!(has_token(&clean.code_lines[1], "thread_rng"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet q = '\\'';\nHashMap::new();\n";
        let clean = preprocess(src);
        assert!(has_token(&clean.code_lines[0], "str"));
        assert!(has_token(&clean.code_lines[3], "HashMap"));
    }

    #[test]
    fn pragma_parsing() {
        let src = "impl Codec for Grant { // lint: allow(W001): pinned by golden bytes\n";
        let clean = preprocess(src);
        assert_eq!(clean.pragmas.len(), 1);
        let p = &clean.pragmas[0];
        assert_eq!(p.line, 1);
        assert_eq!(p.rules, vec!["W001"]);
        assert_eq!(p.reason, "pinned by golden bytes");
    }

    #[test]
    fn pragma_may_name_several_rules_and_omit_the_reason() {
        let src = "// lint: allow(f001, W004)\nself.core.bump();\n";
        let clean = preprocess(src);
        assert_eq!(clean.pragmas[0].rules, vec!["F001", "W004"]);
        assert_eq!(clean.pragmas[0].reason, "");
    }

    #[test]
    fn only_a_comment_that_starts_with_the_keyword_is_a_pragma() {
        let src = "x.bump(); // flow: allow(F001): a retired dialect is an ordinary comment\n\
                   // write `// lint: allow(F001): why` to waive it\n\
                   let s = \"// lint: allow(F001): in a string\";\n\
                   // lint: allow(F001): the real thing\n";
        let clean = preprocess(src);
        assert_eq!(clean.pragmas.len(), 1, "{:?}", clean.pragmas);
        assert_eq!(clean.pragmas[0].line, 4);
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(has_token("let x: Instant = t;", "Instant"));
        assert!(!has_token("let y = as_secs_f64();", "f64"));
        assert!(!has_token("MyHashMapLike::new()", "HashMap"));
    }

    #[test]
    fn token_positions_sees_every_standalone_occurrence() {
        let l = "Msg::Ping => Msg::PingAck, xMsg::Ping, (Msg::Ping)";
        assert_eq!(
            token_positions(l, "Msg::Ping").collect::<Vec<_>>(),
            vec![0, 40]
        );
        assert_eq!(find_token("rematch match", "match"), Some(8));
    }

    #[test]
    fn bracket_helpers() {
        assert_eq!(
            split_top_level("a: A, b: Map<K, V>, f: fn(u8) -> u8, c"),
            vec!["a: A", " b: Map<K, V>", " f: fn(u8) -> u8", " c"]
        );
        assert_eq!(
            split_top_level("0 => A, 1 => B { x, y }, f: fn() -> Map<K, V>"),
            vec!["0 => A", " 1 => B { x, y }", " f: fn() -> Map<K, V>"]
        );
        assert_eq!(balanced("(a, (b)) tail", '(', ')'), Some("a, (b)"));
        assert_eq!(balanced("[0u8; n]", '[', ']'), Some("0u8; n"));
        assert_eq!(balanced("(open", '(', ')'), None);
    }

    #[test]
    fn cfg_test_module_found() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let clean = preprocess(src);
        assert_eq!(clean.test_module_start(), Some(2));
    }
}
