//! Durable log-record encoding of PBS commands, reports and snapshots.
//!
//! The JOSHUA write-ahead log persists every delivered command; the
//! snapshot store persists full replica state. Both use the deterministic
//! [`Codec`](jrs_store::Codec) from `jrs-store` (fixed-width little-endian, ordered
//! containers). Each type is declared once with [`codec!`], which derives
//! `encode` and `decode` from the same field list: struct fields in wire
//! order, enums tagged with a leading `u8`, an unknown tag a decode error
//! (in a CRC-valid record that can only mean a code bug, never disk
//! damage). The order of a list and the value of a tag are the on-disk
//! format: each declaration also emits its `proto.lock` lines as
//! [`Codec::SCHEMA`](jrs_store::Codec::SCHEMA), and the root `schema_lock` test compares them with
//! the committed file.

use crate::job::{Job, JobId, JobSpec, JobState, JobStatus};
use crate::resources::{ComputeNode, NodeState};
use crate::server::{CmdReply, MomReport, ServerCmd, ServerSnapshot};
use jrs_store::codec;

codec!(struct JobId(0));
codec!(struct JobSpec { name, user, nodes, walltime, runtime });
codec!(enum JobState { 0 => Queued, 1 => Running, 2 => Exiting, 3 => Complete, 4 => Held });
codec!(struct Job { id, spec, state, exit_status, allocated });
codec!(struct JobStatus { id, name, user, state, exit_status });
codec!(enum ServerCmd {
    0 => Qsub(spec),
    1 => Qdel(id),
    2 => Qstat(filter),
    3 => Qhold(id),
    4 => Qrls(id),
});
codec!(enum CmdReply {
    0 => Submitted(id),
    1 => Deleted(id),
    2 => Held(id),
    3 => Released(id),
    4 => Status(rows),
    5 => Error(msg),
});
codec!(enum MomReport { 0 => Started { job }, 1 => Finished { job, exit } });
codec!(enum NodeState { 0 => Free, 1 => Busy, 2 => Offline });
codec!(struct ComputeNode { name, mom, state });
codec!(struct ServerSnapshot { jobs, next_id, pool, running_since });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoExclusive;
    use crate::server::PbsServerCore;
    use jrs_sim::{ProcId, SimTime};
    use jrs_store::Codec;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn commands_round_trip() {
        round_trip(ServerCmd::Qsub(JobSpec::trivial("job-0")));
        round_trip(ServerCmd::Qdel(JobId(3)));
        round_trip(ServerCmd::Qstat(None));
        round_trip(ServerCmd::Qstat(Some(JobId(1))));
        round_trip(ServerCmd::Qhold(JobId(2)));
        round_trip(ServerCmd::Qrls(JobId(2)));
    }

    #[test]
    fn replies_and_reports_round_trip() {
        round_trip(CmdReply::Submitted(JobId(1)));
        round_trip(CmdReply::Error("nope".into()));
        let j = Job::queued(JobId(1), JobSpec::trivial("x"));
        round_trip(CmdReply::Status(vec![JobStatus::from(&j)]));
        round_trip(MomReport::Started { job: JobId(1) });
        round_trip(MomReport::Finished {
            job: JobId(2),
            exit: -11,
        });
    }

    #[test]
    fn live_server_snapshot_round_trips_exactly() {
        let mut s = PbsServerCore::new(
            "head",
            (0..3).map(|i| format!("c{i:02}")),
            Box::new(FifoExclusive),
        );
        s.register_mom("c00", ProcId(9));
        let now = SimTime::ZERO;
        let _ = s.apply(now, &ServerCmd::Qsub(JobSpec::trivial("a")));
        let _ = s.apply(now, &ServerCmd::Qsub(JobSpec::trivial("b")));
        let _ = s.apply(now, &ServerCmd::Qhold(JobId(2)));
        let snap = s.snapshot();
        let decoded = ServerSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        // Full equality, not just `consistent_with`: the durable encoding
        // must lose nothing, including mom wiring and start times.
        assert_eq!(decoded, snap);
    }
}
