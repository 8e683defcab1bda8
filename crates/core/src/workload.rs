//! Workload generators: the command scripts the experiments replay.

use jrs_pbs::{JobId, JobSpec, ServerCmd};
use jrs_sim::SimDuration;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write;
use std::rc::Rc;

/// The paper's measurement workload: `n` back-to-back submissions of a
/// trivial job (Figures 10 and 11 use 10/50/100 of these).
pub fn burst(n: usize) -> Vec<ServerCmd> {
    qsubs(n, &JobSpec::trivial(""))
}

/// Submissions of jobs with a fixed simulated runtime (failure tests use
/// longer-running jobs so crashes land mid-execution).
pub fn burst_with_runtime(n: usize, runtime: SimDuration) -> Vec<ServerCmd> {
    qsubs(n, &JobSpec::with_runtime("", runtime))
}

/// `n` submissions of `base` named `job-0`, `job-1`, ...
fn qsubs(n: usize, base: &JobSpec) -> Vec<ServerCmd> {
    let mut buf = String::new();
    (0..n).map(|i| qsub(base, &mut buf, "job-", i)).collect()
}

/// `base` named `{prefix}{i}`: the jobs of a script share the template's
/// `user`, and `buf` saves the second allocation of `format!(..).into()`.
fn qsub(base: &JobSpec, buf: &mut String, prefix: &str, i: usize) -> ServerCmd {
    buf.clear();
    let _ = write!(buf, "{prefix}{i}");
    ServerCmd::Qsub(JobSpec {
        name: Rc::from(buf.as_str()),
        ..base.clone()
    })
}

/// A mixed interactive session: submissions interleaved with status
/// queries, holds/releases and deletions — exercises every PBS verb
/// through the replicated path.
pub fn mixed(n: usize, seed: u64) -> Vec<ServerCmd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cmds = Vec::with_capacity(n);
    let mut submitted = 0u64;
    let (base, mut buf) = (JobSpec::trivial(""), String::new());
    for i in 0..n {
        let dice = rng.random_range(0..10u32);
        let cmd = if submitted == 0 || dice < 5 {
            submitted += 1;
            qsub(&base, &mut buf, "mix-", i)
        } else if dice < 7 {
            ServerCmd::Qstat(None)
        } else if dice < 8 {
            ServerCmd::Qdel(JobId(rng.random_range(1..=submitted)))
        } else if dice < 9 {
            ServerCmd::Qhold(JobId(rng.random_range(1..=submitted)))
        } else {
            ServerCmd::Qrls(JobId(rng.random_range(1..=submitted)))
        };
        cmds.push(cmd);
    }
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_all_submissions() {
        let w = burst(10);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|c| matches!(c, ServerCmd::Qsub(_))));
    }

    #[test]
    fn mixed_is_deterministic_and_starts_with_qsub() {
        let a = mixed(50, 7);
        let b = mixed(50, 7);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        assert!(matches!(a[0], ServerCmd::Qsub(_)));
        let c = mixed(50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn runtime_burst_carries_runtime() {
        let w = burst_with_runtime(3, SimDuration::from_secs(30));
        for cmd in &w {
            let ServerCmd::Qsub(spec) = cmd else { panic!() };
            assert_eq!(spec.runtime, SimDuration::from_secs(30));
        }
    }
}
