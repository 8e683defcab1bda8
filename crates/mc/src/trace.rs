//! Textual action traces: the counterexample format the checker prints
//! and the `replay` subcommand parses. One token per action, joined by
//! commas: `submit`, `deliver:F-T`, `drop:F-T`, `crash:P`, `tick`,
//! `complete:J`.

use crate::model::Action;
use jrs_pbs::JobId;
use jrs_sim::ProcId;
use std::fmt::Write as _;

/// Render one action as a trace token.
pub fn format_action(a: Action) -> String {
    match a {
        Action::Submit => "submit".to_string(),
        Action::Deliver { from, to } => format!("deliver:{}-{}", from.0, to.0),
        Action::Drop { from, to } => format!("drop:{}-{}", from.0, to.0),
        Action::Crash { who } => format!("crash:{}", who.0),
        Action::Tick => "tick".to_string(),
        Action::Complete { job } => format!("complete:{}", job.0),
    }
}

/// Render a whole trace as one comma-joined line.
pub fn format_trace(trace: &[Action]) -> String {
    let mut out = String::new();
    for (i, &a) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", format_action(a));
    }
    out
}

/// Parse one trace token.
pub(crate) fn parse_action(tok: &str) -> Result<Action, String> {
    let tok = tok.trim();
    if tok == "submit" {
        return Ok(Action::Submit);
    }
    if tok == "tick" {
        return Ok(Action::Tick);
    }
    if let Some(rest) = tok.strip_prefix("deliver:") {
        let (f, t) = parse_pair(rest)?;
        return Ok(Action::Deliver {
            from: ProcId(f),
            to: ProcId(t),
        });
    }
    if let Some(rest) = tok.strip_prefix("drop:") {
        let (f, t) = parse_pair(rest)?;
        return Ok(Action::Drop {
            from: ProcId(f),
            to: ProcId(t),
        });
    }
    if let Some(rest) = tok.strip_prefix("crash:") {
        let p = rest
            .parse::<u32>()
            .map_err(|e| format!("bad proc id {rest:?}: {e}"))?;
        return Ok(Action::Crash { who: ProcId(p) });
    }
    if let Some(rest) = tok.strip_prefix("complete:") {
        let j = rest
            .parse::<u64>()
            .map_err(|e| format!("bad job id {rest:?}: {e}"))?;
        return Ok(Action::Complete { job: JobId(j) });
    }
    Err(format!("unknown trace token {tok:?}"))
}

fn parse_pair(s: &str) -> Result<(u32, u32), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("expected F-T in {s:?}"))?;
    let f = a
        .parse::<u32>()
        .map_err(|e| format!("bad proc id {a:?}: {e}"))?;
    let t = b
        .parse::<u32>()
        .map_err(|e| format!("bad proc id {b:?}: {e}"))?;
    Ok((f, t))
}

/// Parse a comma-joined trace line.
pub fn parse_trace(s: &str) -> Result<Vec<Action>, String> {
    s.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(parse_action)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let trace = vec![
            Action::Submit,
            Action::Deliver {
                from: ProcId(0),
                to: ProcId(1),
            },
            Action::Drop {
                from: ProcId(2),
                to: ProcId(0),
            },
            Action::Crash { who: ProcId(1) },
            Action::Tick,
            Action::Complete { job: JobId(1) },
        ];
        let line = format_trace(&trace);
        assert_eq!(line, "submit,deliver:0-1,drop:2-0,crash:1,tick,complete:1");
        assert_eq!(parse_trace(&line).unwrap(), trace);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_action("explode").is_err());
        assert!(parse_action("deliver:0").is_err());
        assert!(parse_action("crash:x").is_err());
        assert!(parse_trace("").unwrap().is_empty());
    }
}
