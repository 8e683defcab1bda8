//! `jrs-lint` — the registry-backed static analysis of the JOSHUA
//! workspace.
//!
//! JOSHUA's correctness argument (PAPER.md §3) is that every head node
//! applies the same totally ordered command stream to a
//! **deterministic** state machine, so all replicas remain
//! byte-identical. Which *constructs* a replica may use — hash
//! collections, clocks, floats, narrowing casts, panics, catch-all
//! arms — is checked by clippy after name and type resolution: the
//! lists are in the root `clippy.toml`, the deny block in each
//! replicated crate's `lib.rs` (DESIGN.md §7.2). This crate keeps only
//! what needs a registry the compiler does not have, in two pass
//! families over **one** source model, with zero dependencies:
//!
//! * **F** ([`flow`]) — F001, gate interposition over the cross-crate
//!   call graph: replicated state is written only through
//!   ordered-delivery gates, reported with the shortest gate-avoiding
//!   call chain.
//! * **W** ([`proto`]) — wire-protocol conformance: every product codec
//!   comes from one `codec!` declaration (W001), tag and field-order
//!   stability against the committed `proto.lock` (W002), the
//!   send/handle matrix (W003) and decode-side bounds (W004).
//!
//! [`load()`] walks the tree once and reads each file once;
//! `model::Model::build` blanks and extracts each file once; every
//! pass returns raw [`Finding`]s; and one suppression stage
//! (`suppress`) then matches them against the one pragma syntax,
//!
//! ```text
//! // lint: allow(RULE[, RULE]): reason
//! ```
//!
//! on the offending line or the line above it, and audits the pragmas
//! themselves under the code `SUPP`. (A clippy lint is waived with
//! `#[expect(clippy::<lint>, reason = "...")]`, which rustc audits.)
//! The F and W registries live in [`Config`].
//!
//! Run it three ways:
//!
//! * `cargo run -p jrs-lint -- check [--json]` — CI/CLI entry,
//!   `path:line: RULE: message` diagnostics, exit 1 on findings;
//! * the root crate's `tests/lint_gate.rs` — `cargo test` enforces it;
//! * [`analyze_workspace`] / [`analyze`] — library API for both (and
//!   what the fixture tests drive).
//!
//! ## Scope and limitations
//!
//! The scanner strips comments, string literals, and char literals
//! before matching, treats a trailing top-level `#[cfg(test)]` module
//! as out of scope, and only visits `crates/*/src/**` and `src/**`.
//! It is a brace/token state machine tuned to rustfmt-shaped code, not
//! a type checker: call resolution is heuristic (see [`graph`]). That
//! is acceptable — the analysis exists to catch the accidental 2am
//! case; deliberate evasion is what code review is for, and jrs-mc
//! covers the dynamic flank.

pub mod codec;
pub mod extract;
pub mod flow;
pub mod graph;
pub mod load;
pub mod lock;
pub mod model;
pub mod proto;
pub mod report;
pub mod text;

pub use flow::FlowConfig;
pub use load::{find_workspace_root, load, Workspace};
pub use proto::ProtoConfig;
pub use report::{Finding, Report, Rule};

use codec::ProtoModel;
use model::Model;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// The audited registries the F and W passes run against. Fixtures
/// construct their own; the default is empty.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Replicated-state types, gates and exempt roots (F001).
    pub flow: FlowConfig,
    /// Foundation and hand-written codecs, the send/handle matrix and
    /// length helpers (W-rules).
    pub proto: ProtoConfig,
}

impl Config {
    /// The audited registries for this workspace.
    pub fn workspace() -> Self {
        Config {
            flow: FlowConfig::workspace(),
            proto: ProtoConfig::workspace(),
        }
    }
}

/// The suppression-audit rule, the one code no pass emits for source
/// constructs.
pub const SUPP: Rule = Rule {
    code: "SUPP",
    summary: "every `// lint: allow(...)` pragma must name known rules, carry a justification after a trailing colon, and suppress something; stale registry entries (a hand-written-codec entry naming no such codec, a protocol-enum name that resolves to no definition or to one without variants) are findings too",
    why: "an unexplained suppression is indistinguishable from a silenced bug, and a dead one hides the next real finding on its line; the justification is what reviewers audit",
};

/// Every rule, in family order.
pub fn rules() -> impl Iterator<Item = &'static Rule> {
    flow::RULES
        .iter()
        .chain(proto::RULES)
        .chain(std::iter::once(&SUPP))
}

/// Everything one run produces: the shared model, the codec model the
/// `lock` and `matrix` subcommands print, and the report.
#[derive(Debug)]
pub struct Analysis {
    /// The shared source model.
    pub model: Model,
    /// `codec!` declarations, hand-written codecs and protocol-enum use
    /// sites.
    pub proto: ProtoModel,
    /// Findings and statistics.
    pub report: Report,
}

/// Analyse a set of in-memory files, `(workspace-relative path, source
/// text)` (the unit the fixture tests drive). `lock` is the committed
/// `proto.lock` text, if any.
pub fn analyze<P: AsRef<str>, T: AsRef<str>>(
    cfg: &Config,
    files: &[(P, T)],
    lock: Option<&str>,
) -> Analysis {
    let model = Model::build(files);
    let graph = graph::build(&model);
    let proto = codec::build(&cfg.proto, &model);

    let mut raw = flow::check(&cfg.flow, &model, &graph);
    raw.extend(proto::check(&cfg.proto, &model, &proto, lock));

    let report = Report {
        findings: suppress(&model, raw),
        files_scanned: model.files.len(),
        fns: graph.fns.len(),
        edges: graph.edges.iter().map(Vec::len).sum(),
        codecs: proto.decls.len() + proto.hand.len(),
        use_sites: proto.uses.len(),
    };
    Analysis {
        model,
        proto,
        report,
    }
}

/// [`load()`] the workspace rooted at `root` and [`analyze`] it.
pub fn analyze_workspace(cfg: &Config, root: &Path) -> io::Result<Analysis> {
    let ws = load(root)?;
    Ok(analyze(cfg, &ws.files, ws.lock.as_deref()))
}

/// The one suppression stage. A raw finding is waived by a pragma
/// naming its rule on its line or the line above; then every pragma
/// outside a trailing test module is audited: an unknown rule (the
/// codes that moved to clippy included), a missing reason, or a pragma
/// that waived nothing is a `SUPP` finding (a reasonless pragma still
/// waives — it is just required to explain itself). Returns the
/// surviving findings in path/line/rule order.
pub(crate) fn suppress(model: &Model, raw: Vec<Finding>) -> Vec<Finding> {
    let mut used: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let waiver = model.file(&f.path).and_then(|facts| {
            facts
                .pragmas
                .iter()
                .find(|p| {
                    // The audit's own findings are not waivable.
                    f.rule != SUPP.code
                        && p.line < facts.test_start
                        && (p.line == f.line || p.line + 1 == f.line)
                        && p.rules.iter().any(|r| r == f.rule)
                })
                .map(|p| (facts.path.as_str(), p.line))
        });
        match waiver {
            Some(key) => {
                used.insert(key);
            }
            None => out.push(f),
        }
    }

    for facts in &model.files {
        for p in facts.pragmas.iter().filter(|p| p.line < facts.test_start) {
            let named = p.rules.join(", ");
            let unknown: Vec<&str> = p
                .rules
                .iter()
                .map(String::as_str)
                .filter(|r| !rules().any(|known| known.code == *r))
                .collect();
            let message = if !unknown.is_empty() {
                format!(
                    "suppression names unknown rule{} {}",
                    if unknown.len() > 1 { "s" } else { "" },
                    unknown.join(", ")
                )
            } else if p.reason.is_empty() {
                format!(
                    "suppression of {named} without a reason — write \
                     `// lint: allow({named}): <why this is safe>`"
                )
            } else if !used.contains(&(facts.path.as_str(), p.line)) {
                format!("suppression allow({named}) suppresses nothing — remove it")
            } else {
                continue;
            };
            out.push(Finding::new(
                SUPP.code,
                &facts.path,
                p.line,
                message,
                Vec::new(),
            ));
        }
    }

    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
