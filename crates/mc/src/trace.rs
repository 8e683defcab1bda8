//! Textual action traces: the counterexample format the checker prints
//! and the `replay` subcommand parses. One token per action, joined by
//! commas: `submit`, `deliver:F-T`, `drop:F-T`, `crash:P`, `tick`,
//! `complete:J`.

use crate::model::Action;
use jrs_gcs::testkit::Step;
use jrs_pbs::JobId;
use jrs_sim::ProcId;

/// Render one action as a trace token.
fn format_action(a: Action) -> String {
    match a {
        Action::Submit => "submit".to_string(),
        Action::Step(Step::Deliver { from, to }) => format!("deliver:{}-{}", from.0, to.0),
        Action::Step(Step::Drop { from, to }) => format!("drop:{}-{}", from.0, to.0),
        Action::Crash { who } => format!("crash:{}", who.0),
        Action::Step(Step::Tick) => "tick".to_string(),
        // Steps the model does not enumerate print as they are written.
        Action::Step(other) => format!("{other:?}"),
        Action::Complete { job } => format!("complete:{}", job.0),
    }
}

/// Render a trace as one token per action (comma-joined, a line `replay`
/// reads).
pub fn trace_tokens(trace: &[Action]) -> Vec<String> {
    trace.iter().map(|&a| format_action(a)).collect()
}

/// Parse one trace token.
pub(crate) fn parse_action(tok: &str) -> Result<Action, String> {
    let tok = tok.trim();
    if tok == "submit" {
        return Ok(Action::Submit);
    }
    if tok == "tick" {
        return Ok(Action::Step(Step::Tick));
    }
    if let Some(rest) = tok.strip_prefix("deliver:") {
        let (from, to) = parse_pair(rest)?;
        return Ok(Action::Step(Step::Deliver { from, to }));
    }
    if let Some(rest) = tok.strip_prefix("drop:") {
        let (from, to) = parse_pair(rest)?;
        return Ok(Action::Step(Step::Drop { from, to }));
    }
    if let Some(rest) = tok.strip_prefix("crash:") {
        return Ok(Action::Crash {
            who: ProcId(num(rest)?),
        });
    }
    if let Some(rest) = tok.strip_prefix("complete:") {
        let j = rest
            .parse::<u64>()
            .map_err(|e| format!("bad job id {rest:?}: {e}"))?;
        return Ok(Action::Complete { job: JobId(j) });
    }
    Err(format!("unknown trace token {tok:?}"))
}

fn num(s: &str) -> Result<u32, String> {
    s.parse::<u32>()
        .map_err(|e| format!("bad proc id {s:?}: {e}"))
}

fn parse_pair(s: &str) -> Result<(ProcId, ProcId), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("expected F-T in {s:?}"))?;
    Ok((ProcId(num(a)?), ProcId(num(b)?)))
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
            Action::Step(Step::Deliver {
                from: ProcId(0),
                to: ProcId(1),
            }),
            Action::Step(Step::Drop {
                from: ProcId(2),
                to: ProcId(0),
            }),
            Action::Crash { who: ProcId(1) },
            Action::Step(Step::Tick),
            Action::Complete { job: JobId(1) },
        ];
        let line = trace_tokens(&trace).join(",");
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
