//! The one finding type, the whole-run report, and rendering (human
//! text and the `--json` form CI archives).

use std::fmt;

/// Static description of one rule (printed by `jrs-lint rules`).
pub struct Rule {
    /// Rule code, e.g. `F001`.
    pub code: &'static str,
    /// What the rule demands.
    pub summary: &'static str,
    /// Why breaking it breaks replication.
    pub why: &'static str,
}

/// One diagnostic, from any pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`F001`, `W001`..`W004`, `SUPP`).
    pub rule: &'static str,
    /// Workspace-relative file the finding anchors to.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of what tripped and how to fix it.
    pub message: String,
    /// Witness lines. F001: the shortest call chain, root first,
    /// one `Type::method (path:line)` per hop, where the line is the
    /// call site into the next hop (the function's own definition line
    /// for the final hop). W003: the construct sites of the unhandled
    /// variant. Empty otherwise.
    pub chain: Vec<String>,
}

impl Finding {
    /// Build a finding (`chain` is empty for rules without a witness).
    pub(crate) fn new(
        rule: &'static str,
        path: &str,
        line: usize,
        message: String,
        chain: Vec<String>,
    ) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            chain,
        }
    }
}

impl fmt::Display for Finding {
    /// `path:line: RULE: message` (what CI greps), then the witness
    /// lines, indented.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )?;
        for w in &self.chain {
            write!(f, "\n    {w}")?;
        }
        Ok(())
    }
}

/// Outcome of a whole-workspace analysis.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings that survived suppression, in path/line/rule order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of functions extracted.
    pub fns: usize,
    /// Number of resolved call edges.
    pub edges: usize,
    /// Number of codecs found: `codec!` declarations plus hand-written
    /// `impl Codec` blocks (the foundation layer included).
    pub codecs: usize,
    /// Number of protocol-enum variant use sites classified.
    pub use_sites: usize,
}

impl Report {
    /// Did the workspace pass?
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render as a single-line JSON object (hand-rolled: the analysis
    /// is zero-dependency by design).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let chain: Vec<String> = f.chain.iter().map(|w| json_str(w)).collect();
                format!(
                    "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"chain\":[{}]}}",
                    json_str(f.rule),
                    json_str(&f.path),
                    f.line,
                    json_str(&f.message),
                    chain.join(",")
                )
            })
            .collect();
        format!(
            "{{\"files_scanned\":{},\"fns\":{},\"edges\":{},\
             \"codecs\":{},\"use_sites\":{},\"findings\":[{}]}}",
            self.files_scanned,
            self.fns,
            self.edges,
            self.codecs,
            self.use_sites,
            findings.join(",")
        )
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let r = Report {
            findings: vec![Finding {
                rule: "F001",
                path: "crates/x/src/a.rs".into(),
                line: 7,
                message: "written \"here\"\nand there".into(),
                chain: vec![
                    "T::m (crates/x/src/a.rs:3)".into(),
                    "encode writes : [a, b]".into(),
                ],
            }],
            files_scanned: 2,
            fns: 2,
            edges: 1,
            codecs: 1,
            use_sites: 0,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(!j.contains('\n'), "single-line JSON: {j}");
        assert!(j.contains("\"files_scanned\":2,\"fns\":2,\"edges\":1"));
        assert!(j.contains("\"codecs\":1,\"use_sites\":0"));
        assert!(j.contains("\"rule\":\"F001\""));
        assert!(j.contains("\\\"here\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"chain\":[\"T::m (crates/x/src/a.rs:3)\",\"encode writes : [a, b]\"]"));
    }

    #[test]
    fn display_is_path_line_rule_message_then_witness() {
        let mut f = Finding::new("W004", "crates/gcs/src/x.rs", 4, "msg".into(), vec![]);
        assert_eq!(f.to_string(), "crates/gcs/src/x.rs:4: W004: msg");
        f.chain = vec!["A::a (p:1)".into(), "B::b (q:2)".into()];
        assert_eq!(
            f.to_string(),
            "crates/gcs/src/x.rs:4: W004: msg\n    A::a (p:1)\n    B::b (q:2)"
        );
    }
}
