//! The D/P line rules: rule definitions, per-crate scoping, and the
//! exemption table.
//!
//! The rule set encodes the premise of symmetric active/active
//! replication (PAPER.md §3): every head node applies the same totally
//! ordered command stream to a **deterministic** state machine, so all
//! replicas stay byte-identical. Each rule bans one class of
//! nondeterminism (or fragility) that would silently break that
//! premise.

use crate::model::FileFacts;
use crate::report::{Finding, Rule};
use crate::text::{brace_delta, has_token, is_ident, token_positions};

/// Crates whose library code *is* the replicated state machine (or
/// feeds it): the strictest rules apply here.
pub const REPLICATED_CRATES: &[&str] = &["gcs", "pbs", "core", "store", "joshua-repro"];

/// Files forming the GCS delivery hot path: total-order engines and the
/// reliable link layer. A panic here kills a replica on the very code
/// path that must instead degrade and recover via a view change.
pub const HOT_PATH_FILES: &[&str] = &["crates/gcs/src/engine.rs", "crates/gcs/src/link.rs"];

/// Per-crate exemptions, with the justification the rule's docs demand.
/// Consulted after a rule's base scope: `(crate, rule, why)`.
pub const EXEMPTIONS: &[(&str, &str, &str)] = &[
    (
        "sim",
        "D002",
        "the simulator owns virtual time; it is the layer that keeps wall-clock out of everything else",
    ),
    (
        "bench",
        "D002",
        "the experiment harness measures real wall-clock by definition and never runs inside a replica",
    ),
    (
        "availability",
        "D004",
        "availability math (MTTF/MTTR, Monte Carlo) is floating-point by nature and is analysis output, not replicated state",
    ),
    (
        "mc",
        "D002",
        "the model checker's wall-clock budget bounds real CPU time of the search itself; the explored model runs on virtual SimTime and never reads the clock",
    ),
    (
        "shim-rand",
        "D003",
        "the vendored rand shim is the seeded RNG implementation itself",
    ),
    (
        "shim-proptest",
        "D003",
        "the vendored proptest shim derives seeds from test names; it is below the replicated layer",
    ),
];

/// The D/P rule table, in check order.
pub const RULES: &[Rule] = &[
    Rule {
        code: "D001",
        summary: "no HashMap/HashSet in replicated-state crates (gcs, pbs, core, store, root) — use BTreeMap/BTreeSet or an explicitly sorted snapshot",
        why: "std hash maps are seeded per-process (SipHash with random keys); iterating one inside the apply path gives every replica a different order, and any order-dependent effect (snapshot digests, tie-breaking, message emission order) silently diverges",
    },
    Rule {
        code: "D002",
        summary: "no SystemTime::now / Instant::now outside crates/sim and the bench harness — replicated code takes SimTime from the kernel",
        why: "wall-clock reads differ across replicas by definition; any branch or stored field derived from one makes state a function of *which machine* applied the command, not just the command stream",
    },
    Rule {
        code: "D003",
        summary: "no thread_rng / rand::random / OS entropy — randomness must flow from an explicit seed in the sim/cluster config",
        why: "ambient RNG draws a different stream in every process; a replicated decision made on one (backoff jitter, tie-breaking, sampling) forks the state machines",
    },
    Rule {
        code: "D004",
        summary: "no f32/f64 fields in replicated-state structs/enums (gcs, pbs, core, store, root; the availability crate is exempt)",
        why: "floating-point accumulation order and platform rounding are not bit-stable guarantees; integer nanoseconds / counts keep snapshot comparison exact (store floats only in analysis/metrics code)",
    },
    Rule {
        code: "D005",
        summary: "no `sort_by`/`sort_unstable_by` over `partial_cmp`, and no lossy `as` narrowing casts (to u8/u16/u32/i8/i16/i32), in replicated-state crates",
        why: "`partial_cmp(..).unwrap()` panics on NaN and a non-total comparator makes the sort order input-dependent, so replicas disagree on tie order; a narrowing `as` cast silently wraps on overflow, and two replicas that disagree only in a high bit would truncate to *agreeing* low bits (or vice versa) — use `Ord::cmp`/`total_cmp` and `try_from` with an explicit saturation policy",
    },
    Rule {
        code: "P001",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in the GCS delivery hot path (engine.rs, link.rs) — degrade and let the view change recover",
        why: "a panic on the delivery path turns a protocol hiccup into a replica death, which is exactly the failure JOSHUA exists to mask; debug_assert! is permitted (compiled out in release) for developer-time signal",
    },
];

fn exempt(crate_key: &str, rule: &str) -> bool {
    EXEMPTIONS
        .iter()
        .any(|(c, r, _)| *c == crate_key && *r == rule)
}

/// Run every applicable rule over one file's blanked lines; raw
/// findings, before suppression.
pub(crate) fn scan(facts: &FileFacts) -> Vec<Finding> {
    let mut out = Vec::new();
    let key = facts.crate_key.as_str();
    let mut push = |rule: &'static str, line: usize, message: String| {
        out.push(Finding::new(rule, &facts.path, line, message, Vec::new()));
    };

    let replicated = REPLICATED_CRATES.contains(&key);
    let d001 = replicated && !exempt(key, "D001");
    let d002 = !exempt(key, "D002");
    let d003 = !exempt(key, "D003");
    let d004 = replicated && !exempt(key, "D004");
    let d005 = replicated && !exempt(key, "D005");
    let p001 = HOT_PATH_FILES.contains(&facts.path.as_str()) && !exempt(key, "P001");

    // Brace-tracked struct/enum bodies for D004.
    let mut type_body_depth: Option<i32> = None;

    for (idx, line) in facts.lines.iter().enumerate() {
        let lineno = idx + 1;
        if lineno >= facts.test_start {
            break; // trailing #[cfg(test)] module: out of scope
        }

        if d001 {
            for word in ["HashMap", "HashSet"] {
                if has_token(line, word) {
                    let alt = if word == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    push(
                        "D001",
                        lineno,
                        format!(
                            "`{word}` in a replicated-state crate: iteration order is \
                         per-process; use `{alt}` (or sort before iterating)"
                        ),
                    );
                }
            }
        }

        if d002 {
            for call in ["SystemTime::now", "Instant::now"] {
                if has_token(line, call) {
                    push(
                        "D002",
                        lineno,
                        format!(
                            "`{call}` reads wall-clock: replicated code must take \
                         virtual `SimTime` from the simulation kernel"
                        ),
                    );
                }
            }
        }

        if d003 {
            for word in [
                "thread_rng",
                "from_entropy",
                "from_os_rng",
                "OsRng",
                "getrandom",
            ] {
                if has_token(line, word) {
                    push(
                        "D003",
                        lineno,
                        format!(
                            "`{word}` draws ambient entropy: seed an `StdRng` from the \
                         sim/cluster config instead"
                        ),
                    );
                }
            }
            if has_token(line, "rand::random") {
                push(
                    "D003",
                    lineno,
                    "`rand::random` uses the thread-local generator: seed an \
                     `StdRng` from the sim/cluster config instead"
                        .to_string(),
                );
            }
        }

        if d004 {
            let opens_type = (has_token(line, "struct") || has_token(line, "enum"))
                && !line.trim_start().starts_with("use ");
            // Single-line definitions (tuple structs) are checked on the
            // opening line; block definitions are tracked by depth.
            if (type_body_depth.is_some() || opens_type) && float_field(line) {
                push(
                    "D004",
                    lineno,
                    "floating-point field in replicated-state type: \
                     rounding and accumulation order are not replica-stable; store integer \
                     nanoseconds/counts (availability crate is exempt)"
                        .to_string(),
                );
            }
            if let Some(depth) = type_body_depth.as_mut() {
                *depth += brace_delta(line);
                if *depth <= 0 {
                    type_body_depth = None;
                }
            } else if opens_type && brace_delta(line) > 0 {
                type_body_depth = Some(brace_delta(line));
            }
        }

        if d005 {
            let sorts = has_token(line, "sort_by") || has_token(line, "sort_unstable_by");
            if sorts && has_token(line, "partial_cmp") {
                push(
                    "D005",
                    lineno,
                    "sort with `partial_cmp` in a replicated-state crate: the \
                     comparator is not total (NaN), so tie order — and any unwrap — depends \
                     on the data; use `Ord::cmp` or `total_cmp`"
                        .to_string(),
                );
            }
            if let Some(ty) = narrowing_cast(line) {
                push(
                    "D005",
                    lineno,
                    format!(
                        "lossy `as {ty}` narrowing cast in a replicated-state \
                     crate: silently wraps on overflow; use `{ty}::try_from` \
                     with an explicit saturation/error policy"
                    ),
                );
            }
        }

        if p001 {
            for (pat, what) in [
                (".unwrap()", "unwrap"),
                (".expect(", "expect"),
                ("panic!", "panic!"),
                ("unreachable!", "unreachable!"),
                ("todo!", "todo!"),
                ("unimplemented!", "unimplemented!"),
            ] {
                let hit = if pat.ends_with('!') {
                    has_token(line, what.trim_end_matches('!')) && line.contains(pat)
                } else {
                    line.contains(pat)
                };
                if hit {
                    push(
                        "P001",
                        lineno,
                        format!(
                            "`{what}` in the GCS delivery hot path: a replica must \
                         degrade (skip/buffer/rejoin), not die; use `let-else` \
                         with a graceful fallback (debug_assert! is fine)"
                        ),
                    );
                }
            }
        }
    }

    out
}

/// Does a (cleaned) line inside a type body mention a float type token?
fn float_field(line: &str) -> bool {
    has_token(line, "f32") || has_token(line, "f64")
}

/// If the line contains a lossy `as <narrow-int>` cast, return the
/// target type. Widening and platform-width targets (`u64`, `usize`,
/// …) are out of scope: they do not silently change values in this
/// codebase's ranges.
fn narrowing_cast(line: &str) -> Option<&'static str> {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    token_positions(line, "as").find_map(|at| {
        let rest = line[at + 2..].trim_start();
        NARROW.iter().copied().find(|ty| {
            rest.strip_prefix(ty)
                .is_some_and(|tail| !tail.chars().next().is_some_and(is_ident))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(path: &str, src: &str) -> Vec<Finding> {
        scan(&FileFacts::new(path, src))
    }

    #[test]
    fn d001_scoped_to_replicated_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan_str("crates/gcs/src/x.rs", src).len(), 1);
        assert_eq!(scan_str("crates/pbs/src/x.rs", src).len(), 1);
        assert!(scan_str("crates/sim/src/x.rs", src).is_empty());
        assert!(scan_str("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_exempts_sim_and_bench() {
        let src = "let t = Instant::now();\n";
        assert_eq!(scan_str("crates/core/src/x.rs", src).len(), 1);
        assert!(scan_str("crates/sim/src/x.rs", src).is_empty());
        assert!(scan_str("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d004_only_fires_inside_type_bodies() {
        let body = "struct Replica {\n    score: f64,\n}\nfn f(x: f64) -> f64 { x }\n";
        let v = scan_str("crates/pbs/src/x.rs", body);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(scan_str("crates/availability/src/x.rs", body).is_empty());
    }

    #[test]
    fn p001_limited_to_hot_path_files() {
        let src = "let x = m.get(&k).unwrap();\n";
        assert_eq!(scan_str("crates/gcs/src/engine.rs", src).len(), 1);
        assert!(scan_str("crates/gcs/src/view.rs", src).is_empty());
    }

    #[test]
    fn d005_partial_cmp_sorts_scoped_to_replicated_crates() {
        let src = "v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());\n";
        let v = scan_str("crates/gcs/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "D005").count(), 1, "{v:?}");
        let v = scan_str(
            "crates/pbs/src/x.rs",
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "D005").count(), 1, "{v:?}");
        assert!(scan_str("crates/availability/src/x.rs", src).is_empty());
        // Total comparators are fine.
        assert!(scan_str(
            "crates/gcs/src/x.rs",
            "v.sort_unstable_by(|a, b| a.cmp(b));\n"
        )
        .is_empty());
        assert!(scan_str(
            "crates/gcs/src/x.rs",
            "v.sort_unstable_by(f64::total_cmp);\n"
        )
        .is_empty());
    }

    #[test]
    fn d005_narrowing_casts_flagged_widening_allowed() {
        for bad in [
            "let x = n as u32;\n",
            "let x = n as i16;\n",
            "f(len as u8)\n",
        ] {
            let v = scan_str("crates/core/src/x.rs", bad);
            assert_eq!(
                v.iter().filter(|v| v.rule == "D005").count(),
                1,
                "{bad:?} {v:?}"
            );
        }
        for ok in [
            "let x = n as u64;\n",
            "let x = n as usize;\n",
            "let x = n as i64;\n",
            "let assign = 1;\n", // `as` must be a token, not a substring
            "let x = basis;\n",
        ] {
            assert!(scan_str("crates/core/src/x.rs", ok).is_empty(), "{ok:?}");
        }
        // Out of scope outside the replicated crates.
        assert!(scan_str("crates/bench/src/x.rs", "let x = n as u32;\n").is_empty());
    }

    #[test]
    fn instant_nowhere_is_not_a_call() {
        assert!(!has_token("let x = Instant::nowhere();", "Instant::now"));
        assert!(has_token("let x = Instant::now();", "Instant::now"));
        assert!(has_token("std::time::Instant::now()", "Instant::now"));
    }
}
