//! `jrs-mc` CLI: bounded model checking of the GCS / jmutex protocol.
//!
//! ```text
//! jrs-mc check  [--procs N] [--depth N] [--faults N] [--submits N]
//!               [--engine sequencer|token] [--mutate none|grant-on-forward|no-cover]
//!               [--mode naive|dpor] [--compare] [--budget-secs N]
//! jrs-mc replay --trace "submit,deliver:0-1,crash:0,tick" [config flags]
//! ```

use jrs_gcs::EngineKind;
use jrs_mc::{
    minimize, parse_trace, replay, trace_tokens, Budget, McConfig, Mode, Mutation, Outcome, Search,
    Stats, World,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let out = match cmd.as_str() {
        "check" => run_check(rest),
        "replay" => run_replay(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match out {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("jrs-mc: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  jrs-mc check  [--procs N] [--depth N] [--faults N] [--submits N]
                [--engine sequencer|token] [--mutate none|grant-on-forward|no-cover]
                [--mode naive|dpor] [--no-dedup] [--compare] [--budget-secs N] [--json]
  jrs-mc replay --trace TRACE [config flags as above]

exit codes: 0 clean, 1 violation found, 2 usage error";

struct Opts {
    cfg: McConfig,
    depth: u32,
    mode: Mode,
    dedup: bool,
    compare: bool,
    budget_secs: Option<u64>,
    trace: Option<String>,
    json: bool,
}

impl Opts {
    fn search(&self, mode: Mode) -> Search {
        let mut s = Search::new(mode).with_budget(match self.budget_secs {
            Some(secs) => Budget::seconds(secs),
            None => Budget::unlimited(),
        });
        if !self.dedup {
            s = s.no_dedup();
        }
        s
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        cfg: McConfig::default(),
        depth: 10,
        mode: Mode::Dpor,
        dedup: true,
        compare: false,
        budget_secs: None,
        trace: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--procs" => o.cfg.procs = num(val("--procs")?)?,
            "--depth" => o.depth = num(val("--depth")?)?,
            "--faults" => o.cfg.faults = num(val("--faults")?)?,
            "--submits" => o.cfg.submits = num(val("--submits")?)?,
            "--engine" => {
                o.cfg.engine = match val("--engine")?.as_str() {
                    "sequencer" => EngineKind::Sequencer,
                    "token" => EngineKind::Token,
                    other => return Err(format!("unknown engine {other:?}")),
                }
            }
            "--mutate" => {
                let v = val("--mutate")?;
                o.cfg.mutation =
                    Mutation::parse(v).ok_or_else(|| format!("unknown mutation {v:?}"))?;
            }
            "--mode" => {
                let v = val("--mode")?;
                o.mode = Mode::parse(v).ok_or_else(|| format!("unknown mode {v:?}"))?;
            }
            "--compare" => o.compare = true,
            "--json" => o.json = true,
            "--no-dedup" => o.dedup = false,
            "--budget-secs" => o.budget_secs = Some(num(val("--budget-secs")?)?),
            "--trace" => o.trace = Some(val("--trace")?.clone()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn print_stats(label: &str, s: Stats) {
    let trunc = if s.truncated {
        " (budget expired, bound not covered)"
    } else {
        ""
    };
    println!(
        "{label}: explored {} states, deduped {}, slept {}, settled {} terminals{trunc}",
        s.explored, s.deduped, s.slept, s.settled
    );
}

fn run_check(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args)?;
    if o.trace.is_some() {
        return Err("--trace belongs to the replay subcommand".into());
    }
    if o.json && o.compare {
        return Err("--json and --compare are mutually exclusive".into());
    }
    if !o.json {
        println!(
            "jrs-mc check: procs={} depth={} faults={} submits={} engine={:?} mutate={}",
            o.cfg.procs,
            o.depth,
            o.cfg.faults,
            o.cfg.submits,
            o.cfg.engine,
            o.cfg.mutation.name()
        );
    }
    let start = World::new(o.cfg.clone());
    if o.compare {
        // The reduction comparison runs stateless (no dedup): that is
        // where the sleep-set reduction's pruning is directly visible in
        // the state count. Run the naive baseline first so the ratio is
        // printed even when both modes find the same violation.
        let naive = o.search(Mode::Naive).no_dedup().run(&start, o.depth);
        let naive_stats = stats_of(&naive);
        print_stats("naive", naive_stats);
        let dpor = o.search(Mode::Dpor).no_dedup().run(&start, o.depth);
        let dpor_stats = stats_of(&dpor);
        print_stats("dpor ", dpor_stats);
        if dpor_stats.explored > 0 {
            #[allow(clippy::cast_precision_loss)]
            let ratio = naive_stats.explored as f64 / dpor_stats.explored as f64;
            println!("reduction: {ratio:.2}x fewer states with DPOR-lite (stateless)");
        }
        return report(&start, &o, dpor);
    }
    let out = o.search(o.mode).run(&start, o.depth);
    if o.json {
        return report_json(&start, &o, out);
    }
    print_stats("result", stats_of(&out));
    report(&start, &o, out)
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
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Machine-readable outcome, the form CI archives as an artifact.
fn report_json(start: &World, o: &Opts, out: Outcome) -> Result<ExitCode, String> {
    let s = stats_of(&out);
    let mut j = format!(
        "{{\"procs\":{},\"depth\":{},\"faults\":{},\"submits\":{},\"engine\":{},\"mutate\":{},\"explored\":{},\"deduped\":{},\"slept\":{},\"settled\":{},\"truncated\":{}",
        o.cfg.procs,
        o.depth,
        o.cfg.faults,
        o.cfg.submits,
        json_str(&format!("{:?}", o.cfg.engine)),
        json_str(o.cfg.mutation.name()),
        s.explored,
        s.deduped,
        s.slept,
        s.settled,
        s.truncated
    );
    let code = match out {
        Outcome::Clean(_) => {
            j.push_str(",\"outcome\":\"clean\"}");
            ExitCode::SUCCESS
        }
        Outcome::Violation {
            violation, trace, ..
        } => {
            let min = minimize(start, &trace);
            j.push_str(&format!(
                ",\"outcome\":\"violation\",\"violation\":{},\"trace\":{}}}",
                json_str(&format!("{violation:?}")),
                json_str(&trace_tokens(&min).join(","))
            ));
            ExitCode::FAILURE
        }
    };
    println!("{j}");
    Ok(code)
}

fn stats_of(out: &Outcome) -> Stats {
    match out {
        Outcome::Clean(s) => *s,
        Outcome::Violation { stats, .. } => *stats,
    }
}

fn report(start: &World, o: &Opts, out: Outcome) -> Result<ExitCode, String> {
    match out {
        Outcome::Clean(s) => {
            if s.truncated {
                println!("no violation found within the wall-clock budget");
            } else {
                println!("no violation found within the bound");
            }
            Ok(ExitCode::SUCCESS)
        }
        Outcome::Violation {
            violation, trace, ..
        } => {
            println!("VIOLATION: {violation:?}");
            let min = minimize(start, &trace);
            println!(
                "counterexample ({} steps, minimized from {}):",
                min.len(),
                trace.len()
            );
            for (i, token) in trace_tokens(&min).iter().enumerate() {
                println!("  {:>3}. {token}", i + 1);
            }
            println!(
                "replay: jrs-mc replay --procs {} --faults {} --submits {} --engine {} --mutate {} --trace \"{}\"",
                o.cfg.procs,
                o.cfg.faults,
                o.cfg.submits,
                format!("{:?}", o.cfg.engine).to_lowercase(),
                o.cfg.mutation.name(),
                trace_tokens(&min).join(",")
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_replay(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args)?;
    let line = o.trace.as_deref().ok_or("replay needs --trace")?;
    let mut start = World::new(o.cfg.clone());
    let trace = parse_trace(line)?;
    // Read once here; `check` never consults the environment.
    start.narrate = std::env::var_os("JRS_MC_TRACE_EVENTS").is_some();
    println!(
        "replaying {} steps on procs={} mutate={}",
        trace.len(),
        o.cfg.procs,
        o.cfg.mutation.name()
    );
    match replay(&start, &trace) {
        Some(v) => {
            println!("VIOLATION reproduced: {v:?}");
            Ok(ExitCode::FAILURE)
        }
        None => {
            println!("trace ran clean (no violation; possibly infeasible from this config)");
            Ok(ExitCode::SUCCESS)
        }
    }
}
