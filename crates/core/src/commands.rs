//! The JOSHUA control commands, by their paper names.
//!
//! The paper's `jsub`, `jdel` and `jstat` "reflect PBS compliant behavior
//! to the user" and "may even replace the original PBS commands in the
//! user context using a shell alias (e.g. `alias qsub=jsub`)". In this
//! library the equivalence is literal: a JOSHUA control command *is* the
//! PBS command, routed to the head-node group instead of a single server.
//! These constructors exist so user code reads like the paper.
//!
//! `jsig` (signal a running job) is deliberately absent, as in the paper:
//! signalling does not change the job/resource management state, so the
//! original PBS command may be executed out-of-band.

use jrs_pbs::{JobId, JobSpec, ServerCmd};

/// `jsub` — submit a job (qsub equivalent).
pub fn jsub(spec: JobSpec) -> ServerCmd {
    ServerCmd::Qsub(spec)
}

/// `jdel` — delete a job (qdel equivalent).
pub fn jdel(job: JobId) -> ServerCmd {
    ServerCmd::Qdel(job)
}

/// `jstat` — query all jobs (qstat equivalent).
pub fn jstat() -> ServerCmd {
    ServerCmd::Qstat(None)
}

/// `jstat` for a single job.
pub fn jstat_job(job: JobId) -> ServerCmd {
    ServerCmd::Qstat(Some(job))
}

/// `jhold` — hold a queued job (qhold equivalent). The paper's prototype
/// could not support this on joining replicas; this reproduction can (see
/// DESIGN.md §6).
pub fn jhold(job: JobId) -> ServerCmd {
    ServerCmd::Qhold(job)
}

/// `jrls` — release a held job (qrls equivalent).
pub fn jrls(job: JobId) -> ServerCmd {
    ServerCmd::Qrls(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_commands_are_pbs_commands() {
        assert_eq!(
            jsub(JobSpec::trivial("x")),
            ServerCmd::Qsub(JobSpec::trivial("x"))
        );
        assert_eq!(jdel(JobId(3)), ServerCmd::Qdel(JobId(3)));
        assert_eq!(jstat(), ServerCmd::Qstat(None));
        assert_eq!(jstat_job(JobId(9)), ServerCmd::Qstat(Some(JobId(9))));
        assert_eq!(jhold(JobId(1)), ServerCmd::Qhold(JobId(1)));
        assert_eq!(jrls(JobId(1)), ServerCmd::Qrls(JobId(1)));
    }
}
