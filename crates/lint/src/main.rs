//! CLI for the workspace analysis: `cargo run -p jrs-lint -- check`.

use jrs_lint::lock::Schema;
use jrs_lint::{Analysis, Config, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "jrs-lint — replication-boundary (F001) and wire-protocol (W) analysis for the JOSHUA workspace

USAGE:
    jrs-lint check [--root <dir>] [--json]   analyse crates/*/src and src; exit 1 on findings
    jrs-lint lock [--root <dir>]             print the current wire schema as proto.lock text
    jrs-lint matrix [--root <dir>]           dump per-variant construct/handle sites
    jrs-lint rules                           print the rule set and audited registries

Waive a finding inline with `// lint: allow(RULE[, RULE]): <reason>` on the
offending line or the line above it. Reasons are mandatory; stale pragmas are
themselves findings (SUPP). Construct bans (hash collections, clocks, floats,
panics, catch-all arms) are clippy lints: see clippy.toml and `cargo clippy`.";

fn main() -> ExitCode {
    #[expect(clippy::disallowed_methods, reason = "CLI argv")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match args.split_first() {
        Some((cmd, opts)) => (cmd.as_str(), opts),
        None => ("", &[][..]),
    };
    if cmd == "rules" && opts.is_empty() {
        print_rules();
        return ExitCode::SUCCESS;
    }
    if !matches!(cmd, "check" | "lock" | "matrix") {
        return usage();
    }

    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = opts.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--json" if cmd == "check" => json = true,
            _ => return usage(),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match jrs_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "jrs-lint: no workspace root found above {} (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let cfg = Config::workspace();
    let a = match jrs_lint::analyze_workspace(&cfg, &root) {
        Ok(a) if a.report.files_scanned > 0 => a,
        // A scan that saw nothing is a wrong root, never a pass.
        Ok(_) => {
            eprintln!(
                "jrs-lint: no src/**/*.rs files under {} (pass --root)",
                root.display()
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("jrs-lint: I/O error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    match cmd {
        "check" => return check(&a.report, json),
        "lock" => print!("{}", Schema::from_model(&a.proto).render()),
        _ => matrix(&cfg, &a),
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn check(r: &Report, json: bool) -> ExitCode {
    if json {
        println!("{}", r.to_json());
    } else {
        for f in &r.findings {
            println!("{f}");
        }
        println!(
            "lint: {} — {} files, {} fns, {} call edges, {} codecs, {} use sites, \
             {} finding(s){}",
            if r.clean() { "OK" } else { "FAILED" },
            r.files_scanned,
            r.fns,
            r.edges,
            r.codecs,
            r.use_sites,
            r.findings.len(),
            if r.clean() {
                ""
            } else {
                " (run `cargo run -p jrs-lint -- rules` for rationale)"
            },
        );
    }
    if r.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Dump every registered protocol-enum variant's construct/handle
/// sites, grouped by crate — the evidence base for calibrating the
/// W003 handler registry.
fn matrix(cfg: &Config, a: &Analysis) {
    for m in &cfg.proto.matrix {
        println!(
            "== {} (handlers expected in: {}) ==",
            m.name,
            m.handler_crates.join(", ")
        );
        let Some(def) = a.model.enum_def(&m.name) else {
            println!("  (no enum definition found)");
            continue;
        };
        for variant in &def.variants {
            println!("  {}::{variant}", m.name);
            for u in a
                .proto
                .uses
                .iter()
                .filter(|u| u.enum_name == m.name && &u.variant == variant)
            {
                println!(
                    "    {:9} [{}] in {} ({}:{})",
                    format!("{:?}", u.kind),
                    u.crate_key,
                    u.in_fn,
                    u.path,
                    u.line
                );
            }
        }
    }
}

fn print_rules() {
    println!("jrs-lint rule set (replica-state-machine invariants)\n");
    for r in jrs_lint::rules() {
        println!("{}  {}", r.code, r.summary);
        println!("      why: {}\n", r.why);
    }
    let Config { flow, proto } = Config::workspace();
    println!("registered replicated state (F001):");
    for r in &flow.replicated {
        println!(
            "  {} (roots in: {}) — {}",
            r.type_name,
            r.scope.join(", "),
            r.why
        );
    }
    println!("\nordered-delivery / recovery gates:");
    for gate in &flow.gates {
        println!("  {gate}");
    }
    println!("\nexempt roots (audited):");
    for (t, why) in &flow.exempt_roots {
        println!("  {t} — {why}");
    }
    println!("\nfoundation codec layer (hand-written by design, outside W001; W004 applies):");
    for p in &proto.foundation_paths {
        println!("  {p}");
    }
    println!("\naudited hand-written codecs (everything else is a `codec!` declaration):");
    for (t, why) in &proto.hand_written {
        println!("  {t} — {why}");
    }
    println!("\nsend/handle matrix (W003):");
    for m in &proto.matrix {
        println!(
            "  {} -> [{}] — {}",
            m.name,
            m.handler_crates.join(", "),
            m.why
        );
    }
    println!(
        "\nchecked length helpers (W004): {}",
        proto.len_helpers.join(", ")
    );
    println!(
        "ignored fns (size estimators): {}",
        proto.ignore_fns.join(", ")
    );
}
