//! `--compare old new`: per workload x end-to-end metric, is the new
//! median worse than the old by more than the bound `BENCHMARK.json`
//! fixes? Both files are `--out` result files (one JSON object per run).

use crate::json::{self, Value};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// Direction and regression bound of one end-to-end metric.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
    /// A change of the median smaller than this, in the metric's own unit,
    /// is no change whatever share of the median it is.
    pub floor: f64,
}

/// Absolute floors, by metric name. `BENCHMARK.json` has no key for them.
/// `setup_s` is a millisecond or less on the single-cluster workloads, where
/// a 25 % share is scheduler noise: its bound is "25 % or 0.05 s".
const FLOORS: [(&str, f64); 1] = [("setup_s", 0.05)];

/// One run's reading of a metric, with the quartiles it measured inside
/// the run (equal to `value` for numbers that are not a median of samples).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Obs {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    /// The run-to-run spread is wider than the bound and the medians are
    /// no further apart than the spread, so a change cannot be told from
    /// noise.
    Unresolved,
}

/// Everything one results file says about one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRuns {
    pub seeds: Vec<u64>,
    pub failed: u64,
    pub metrics: BTreeMap<String, Vec<Obs>>,
}

pub type Results = BTreeMap<String, WorkloadRuns>;

/// The end-to-end metric specs of a `BENCHMARK.json`.
pub fn parse_specs(text: &str) -> Result<Vec<Spec>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Spec {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                    floor: FLOORS
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, f)| *f),
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Parse a results file: one run object per non-empty line. Only
/// `--trace 0` runs carry end-to-end metrics; traced runs are skipped.
pub fn parse_results(text: &str) -> Result<Results, String> {
    let mut results = Results::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| run.get(k).ok_or(format!("line {}: no \"{k}\"", i + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let entry = results.entry(workload.to_string()).or_default();
        entry
            .seeds
            .push(field("seed")?.as_f64().unwrap_or(0.0) as u64);
        entry.failed += field("failed")?.as_f64().unwrap_or(0.0) as u64;
        for (name, m) in field("metrics")?.as_object().unwrap_or(&[]) {
            let Some(value) = m.get("value").and_then(Value::as_f64) else {
                return Err(format!("line {}: metric {name} has no value", i + 1));
            };
            let part = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(value);
            entry.metrics.entry(name.clone()).or_default().push(Obs {
                value,
                q1: part("q1"),
                q3: part("q3"),
            });
        }
    }
    Ok(results)
}

/// Spread of one side as a share of its median: across runs when there
/// are several, else the quartiles measured inside the single run.
fn spread(side: &[Obs]) -> f64 {
    let values: Vec<f64> = side.iter().map(|o| o.value).collect();
    match side {
        [one] if one.value != 0.0 => (one.q3 - one.q1) / one.value.abs(),
        _ => iqr_share(&values),
    }
}

/// One row of the delta table.
#[derive(Clone, Copy, Debug)]
pub struct Judged {
    pub verdict: Verdict,
    pub old_median: f64,
    pub new_median: f64,
    /// Change of the median as a share of the old median; positive = worse.
    pub worse: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
}

/// Judge one metric on one workload.
pub fn judge(spec: &Spec, old: &[Obs], new: &[Obs]) -> Judged {
    let med = |side: &[Obs]| median(&side.iter().map(|o| o.value).collect::<Vec<_>>());
    let (old_median, new_median) = (med(old), med(new));
    let change = if old_median == 0.0 {
        0.0
    } else {
        (new_median - old_median) / old_median.abs()
    };
    let worse = if spec.lower_is_better {
        change
    } else {
        -change
    };
    let spread = spread(old).max(spread(new));
    // A shift past both the bound and the noise is a verdict however noisy
    // the metric is; only a shift the noise could explain is unresolved.
    let verdict = if (new_median - old_median).abs() < spec.floor {
        Verdict::Unchanged
    } else if worse.abs() > spec.bound && worse.abs() > spread {
        if worse > 0.0 {
            Verdict::Regression
        } else {
            Verdict::Improved
        }
    } else if spread > spec.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judged {
        verdict,
        old_median,
        new_median,
        worse,
        spread,
    }
}

/// The delta table, and whether anything regressed (a metric past its
/// bound, or more failed operations than before).
pub fn compare(specs: &[Spec], old: &Results, new: &Results) -> (String, bool) {
    let mut table = format!(
        "{:<26} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "old median", "new median", "worse by", "spread", "bound"
    );
    let mut regressed = false;
    for (workload, old_runs) in old {
        let Some(new_runs) = new.get(workload) else {
            table.push_str(&format!("{workload:<26} missing from the new results\n"));
            regressed = true;
            continue;
        };
        // Sim time is exact per seed, so with the same seeds on both sides
        // any difference at all is a change of simulated behaviour.
        let same_seeds = old_runs.seeds == new_runs.seeds;
        for spec in specs {
            let (Some(o), Some(n)) = (
                old_runs.metrics.get(&spec.name),
                new_runs.metrics.get(&spec.name),
            ) else {
                table.push_str(&format!("{workload:<26} {:<22} missing\n", spec.name));
                regressed = true;
                continue;
            };
            let row = judge(spec, o, n);
            regressed |= row.verdict == Verdict::Regression;
            let mut word = match row.verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
            .to_string();
            if spec.name.starts_with("sim_") && same_seeds && o != n {
                word.push_str("  SIM-TIME CHANGED");
            }
            table.push_str(&format!(
                "{workload:<26} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {word}\n",
                spec.name,
                row.old_median,
                row.new_median,
                row.worse * 100.0,
                row.spread * 100.0,
                spec.bound * 100.0,
            ));
        }
        if new_runs.failed > old_runs.failed {
            table.push_str(&format!(
                "{workload:<26} failed operations rose {} -> {}  REGRESSION\n",
                old_runs.failed, new_runs.failed
            ));
            regressed = true;
        }
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> Spec {
        Spec {
            name: "m".into(),
            lower_is_better: lower,
            bound,
            floor: 0.0,
        }
    }

    fn runs(values: &[f64]) -> Vec<Obs> {
        values
            .iter()
            .map(|&value| Obs {
                value,
                q1: value,
                q3: value,
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = spec(true, 0.10);
        assert_eq!(
            judge(&lower, &runs(&[100.0]), &runs(&[105.0])).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &runs(&[100.0]), &runs(&[111.0])).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&lower, &runs(&[100.0]), &runs(&[80.0])).verdict,
            Verdict::Improved
        );
        let higher = spec(false, 0.10);
        assert_eq!(
            judge(&higher, &runs(&[100.0]), &runs(&[80.0])).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&higher, &runs(&[100.0]), &runs(&[120.0])).verdict,
            Verdict::Improved
        );
        let worse = judge(&higher, &runs(&[100.0]), &runs(&[80.0])).worse;
        assert!(
            (worse - 0.2).abs() < 1e-12,
            "worse-by is direction-adjusted: {worse}"
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let s = spec(true, 0.05);
        // Across runs: IQR of [90, 100, 110, 120, 130] is 30 on a median of 110.
        let noisy = runs(&[90.0, 100.0, 110.0, 120.0, 130.0]);
        assert_eq!(judge(&s, &noisy, &noisy).verdict, Verdict::Unresolved);
        // Inside a single run: the quartiles the run recorded.
        let one = [Obs {
            value: 100.0,
            q1: 90.0,
            q3: 110.0,
        }];
        assert_eq!(judge(&s, &one, &one).verdict, Verdict::Unresolved);
        // A move inside that noise is unresolved; one past it is a verdict.
        assert_eq!(
            judge(&s, &noisy, &runs(&[125.0])).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&s, &noisy, &runs(&[200.0])).verdict,
            Verdict::Regression
        );
        assert_eq!(judge(&s, &noisy, &runs(&[50.0])).verdict, Verdict::Improved);
        let tight = runs(&[100.0, 100.5, 101.0]);
        assert_eq!(judge(&s, &tight, &tight).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_change_below_the_absolute_floor_is_unchanged() {
        let specs = parse_specs(
            r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "host_us_per_cmd", "unit": "us", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!((specs[0].floor, specs[1].floor), (0.05, 0.0));
        let setup = &specs[0];
        // Sub-millisecond set-up, 3x slower and noisy: still under 0.05 s.
        let noisy = runs(&[0.0002, 0.0003, 0.0005, 0.0006, 0.0009]);
        assert_eq!(judge(setup, &noisy, &noisy).verdict, Verdict::Unchanged);
        assert_eq!(
            judge(setup, &runs(&[0.0005]), &runs(&[0.0015])).verdict,
            Verdict::Unchanged
        );
        // The share applies once the change is past the floor.
        assert_eq!(
            judge(setup, &runs(&[0.2]), &runs(&[0.3])).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(setup, &runs(&[0.3]), &runs(&[0.33])).verdict,
            Verdict::Unchanged
        );
    }

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "host_us_per_cmd", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "sim_cmds_per_s", "unit": "1/s", "better": "higher", "bound": 0.02}]}"#;

    fn line(workload: &str, seed: u64, failed: u64, host: f64, sim: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "seed": {seed}, "trace": 0, "correct": true, "attempted": 100, "failed": {failed}, "metrics": {{"host_us_per_cmd": {{"value": {host}, "unit": "us", "q1": {host}, "q3": {host}, "n": 7}}, "sim_cmds_per_s": {{"value": {sim}, "unit": "1/s"}}}}}}"#
        )
    }

    #[test]
    fn compare_flags_regressions_failures_and_sim_changes() {
        let specs = parse_specs(BENCH).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs[0].lower_is_better && !specs[1].lower_is_better);

        let old = parse_results(&format!(
            "{}\n{}\n",
            line("a", 1, 0, 100.0, 3.0),
            line("b", 1, 0, 10.0, 7.0)
        ))
        .unwrap();
        let same = compare(&specs, &old, &old);
        assert!(!same.1, "{}", same.0);
        assert!(!same.0.contains("SIM-TIME"));

        // Host time 20% worse on `a`; sim throughput moves 0.1% on `b`.
        let new = parse_results(&format!(
            "{}\n{}\n",
            line("a", 1, 0, 120.0, 3.0),
            line("b", 1, 0, 10.0, 7.007)
        ))
        .unwrap();
        let (table, regressed) = compare(&specs, &old, &new);
        assert!(regressed);
        assert_eq!(table.matches("REGRESSION").count(), 1, "{table}");
        assert_eq!(table.matches("SIM-TIME CHANGED").count(), 1, "{table}");

        // A rise in failed operations alone is a regression.
        let failing = parse_results(&format!(
            "{}\n{}\n",
            line("a", 1, 2, 100.0, 3.0),
            line("b", 1, 0, 10.0, 7.0)
        ))
        .unwrap();
        let (table, regressed) = compare(&specs, &old, &failing);
        assert!(
            regressed && table.contains("failed operations rose 0 -> 2"),
            "{table}"
        );

        // A workload that vanished is a regression too.
        let partial = parse_results(&line("a", 1, 0, 100.0, 3.0)).unwrap();
        assert!(compare(&specs, &old, &partial).1);
    }

    #[test]
    fn traced_runs_and_bad_input_are_handled() {
        let traced = line("a", 1, 0, 1.0, 1.0).replace("\"trace\": 0", "\"trace\": 1");
        assert!(parse_results(&traced).unwrap().is_empty());
        assert!(parse_results("{\"workload\": \"a\"}").is_err());
        assert!(parse_specs("{}").is_err());
        assert!(parse_specs(
            r#"{"end_to_end": [{"name": "x", "better": "sideways", "bound": 0.1}]}"#
        )
        .is_err());
    }
}
