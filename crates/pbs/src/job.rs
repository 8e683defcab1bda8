//! Jobs: identifiers, specifications and lifecycle states.

use jrs_sim::SimDuration;
use std::fmt;
use std::rc::Rc;

/// Server-assigned job identifier.
///
/// PBS job ids look like `123.headnode`; under symmetric active/active
/// replication every replica must assign the *same* id to the same
/// submission, so ids are plain counters assigned in total delivery order
/// (the JOSHUA layer guarantees all replicas see submissions in the same
/// order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What the user submits (`qsub`).
///
/// `name` and `user` are shared: every copy of a job holds the same
/// allocation (DESIGN.md 3.3).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Human-readable job name.
    pub name: Rc<str>,
    /// Submitting user.
    pub user: Rc<str>,
    /// Requested node count.
    pub nodes: u32,
    /// Requested maximum runtime; the mom kills the job when exceeded.
    pub walltime: SimDuration,
    /// Actual simulated execution time of the job "script". Stands in for
    /// the payload the paper's test jobs executed.
    pub runtime: SimDuration,
}

impl JobSpec {
    /// A trivial single-node job, as used by the paper's latency and
    /// throughput measurements (`echo`-style scripts).
    pub fn trivial(name: impl Into<Rc<str>>) -> Self {
        JobSpec {
            name: name.into(),
            user: "user".into(),
            nodes: 1,
            walltime: SimDuration::from_secs(3600),
            runtime: SimDuration::from_secs(1),
        }
    }

    /// A job with an explicit runtime.
    pub fn with_runtime(name: impl Into<Rc<str>>, runtime: SimDuration) -> Self {
        JobSpec {
            runtime,
            ..JobSpec::trivial(name)
        }
    }
}

/// PBS job lifecycle states (the classic Q/R/E/C/H letters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobState {
    /// `Q` — waiting in the queue.
    Queued,
    /// `R` — dispatched to compute nodes and running.
    Running,
    /// `E` — exiting (cancellation or completion in progress).
    Exiting,
    /// `C` — finished (see `exit_status`).
    Complete,
    /// `H` — held by the user (`qhold`), excluded from scheduling.
    Held,
}

impl JobState {
    /// The classic single-letter PBS state code.
    pub fn letter(self) -> char {
        match self {
            JobState::Queued => 'Q',
            JobState::Running => 'R',
            JobState::Exiting => 'E',
            JobState::Complete => 'C',
            JobState::Held => 'H',
        }
    }
}

/// Exit status conventions for completed jobs.
pub mod exit {
    /// Normal completion.
    pub const OK: i32 = 0;
    /// Killed because it exceeded its walltime.
    pub const WALLTIME: i32 = -11;
    /// Deleted by `qdel` while running.
    pub const CANCELLED: i32 = -2;
}

/// A job as tracked by the server.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Submitted specification.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Exit status once `Complete`.
    pub exit_status: Option<i32>,
    /// Node names allocated while running, shared with the node pool.
    pub allocated: Vec<Rc<str>>,
}

impl Job {
    /// A freshly queued job.
    pub fn queued(id: JobId, spec: JobSpec) -> Self {
        Job {
            id,
            spec,
            state: JobState::Queued,
            exit_status: None,
            allocated: Vec::new(),
        }
    }
}

/// One row of `qstat` output.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobStatus {
    /// Identifier.
    pub id: JobId,
    /// Job name.
    pub name: Rc<str>,
    /// Owner.
    pub user: Rc<str>,
    /// State letter (Q/R/E/C/H).
    pub state: char,
    /// Exit status for completed jobs.
    pub exit_status: Option<i32>,
}

impl From<&Job> for JobStatus {
    fn from(j: &Job) -> Self {
        JobStatus {
            id: j.id,
            name: j.spec.name.clone(),
            user: j.spec.user.clone(),
            state: j.state.letter(),
            exit_status: j.exit_status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_letters() {
        assert_eq!(JobState::Queued.letter(), 'Q');
        assert_eq!(JobState::Running.letter(), 'R');
        assert_eq!(JobState::Exiting.letter(), 'E');
        assert_eq!(JobState::Complete.letter(), 'C');
        assert_eq!(JobState::Held.letter(), 'H');
    }

    #[test]
    fn trivial_spec_defaults() {
        let s = JobSpec::trivial("t");
        assert_eq!(s.nodes, 1);
        assert!(s.runtime < s.walltime);
    }

    #[test]
    fn status_row_reflects_the_job() {
        let mut j = Job::queued(JobId(1), JobSpec::trivial("hello"));
        let st: JobStatus = (&j).into();
        assert_eq!((st.state, st.exit_status), ('Q', None));
        j.state = JobState::Complete;
        j.exit_status = Some(0);
        let st: JobStatus = (&j).into();
        assert_eq!((st.state, st.exit_status), ('C', Some(0)));
        assert_eq!(st.id, JobId(1));
        assert_eq!(&*st.name, "hello");
    }
}
