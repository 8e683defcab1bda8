//! Golden pin of the bytes the product codecs put in the WAL, in
//! snapshot files and in state transfers. Round-trip tests cannot see a
//! format change made to `encode` and `decode` at once, and records on
//! a head's disk were written by an earlier build; a refactor of how
//! the codecs are written must leave every byte here untouched. Do not
//! regenerate the constants to make such a refactor pass.

use joshua_core::payload::{Grant, JMutexState, Payload, ReplicaState};
use jrs_pbs::job::{Job, JobId, JobSpec, JobState, JobStatus};
use jrs_pbs::resources::{ComputeNode, NodeState};
use jrs_pbs::server::{CmdReply, MomReport, ServerCmd, ServerSnapshot};
use jrs_sim::{ProcId, SimDuration};
use jrs_store::{Codec, DecodeError};

const HEAD1: ProcId = ProcId(1);
const HEAD2: ProcId = ProcId(2);
const CLIENT: ProcId = ProcId(20);
const MOM: ProcId = ProcId(50);

/// The encodings under pin, in order, each with a label for the
/// failure message.
#[derive(Default)]
struct Pinned(Vec<(&'static str, Vec<u8>)>);

impl Pinned {
    /// Encode `v`, require that the bytes decode and re-encode to
    /// themselves, and keep them.
    fn pin<T: Codec>(&mut self, label: &'static str, v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{label}: re-encode differs");
        self.0.push((label, bytes));
    }
}

fn spec(name: &str, nodes: u32) -> JobSpec {
    JobSpec {
        name: name.into(),
        user: "alice".into(),
        nodes,
        walltime: SimDuration::from_secs(3600),
        runtime: SimDuration::from_millis(1500),
    }
}

fn job(id: u64, state: JobState, exit_status: Option<i32>, allocated: &[&str]) -> Job {
    Job {
        id: JobId(id),
        spec: spec(&format!("job-{id}"), 1),
        state,
        exit_status,
        allocated: allocated.iter().map(|n| n.to_string()).collect(),
    }
}

fn node(name: &str, mom: Option<ProcId>, state: NodeState) -> ComputeNode {
    ComputeNode {
        name: name.into(),
        mom,
        state,
    }
}

fn pool() -> Vec<ComputeNode> {
    vec![
        node("c00", Some(MOM), NodeState::Busy),
        node("c01", Some(ProcId(51)), NodeState::Free),
        node("c02", None, NodeState::Offline),
    ]
}

fn status(id: u64, state: char, exit_status: Option<i32>) -> JobStatus {
    JobStatus {
        id: JobId(id),
        name: format!("job-{id}").into(),
        user: "alice".into(),
        state,
        exit_status,
    }
}

/// A grant (job 2) and a release (job 1).
fn jmutex() -> JMutexState {
    let mut t = JMutexState::new();
    let _ = t.acquire(JobId(1), MOM, 7, HEAD1, false);
    t.release(JobId(1));
    let _ = t.acquire(JobId(2), MOM, 9, HEAD2, false);
    t
}

/// Jobs in three states, a grant and a release, two cached replies, one
/// joiner awaiting a snapshot and one hello.
fn replica_state() -> ReplicaState {
    ReplicaState {
        pbs: ServerSnapshot {
            jobs: vec![
                job(1, JobState::Complete, Some(0), &[]),
                job(2, JobState::Running, None, &["c00"]),
                job(3, JobState::Queued, None, &[]),
            ],
            next_id: 4,
            pool: pool(),
            running_since: vec![(JobId(2), 2_500_000_000)],
        },
        jmutex: jmutex(),
        applied: vec![
            (CLIENT, 3, CmdReply::Submitted(JobId(3))),
            (ProcId(21), 1, CmdReply::Error("unknown job 9".into())),
        ],
        needs_snapshot: vec![ProcId(3)],
        applied_index: 17,
        hellos: vec![(ProcId(3), 11, 0xfeed_beef)],
    }
}

/// Every `Payload` variant but `CatchUp`, in tag order.
fn flat_payloads() -> Vec<Payload> {
    vec![
        Payload::Client {
            client: CLIENT,
            req_id: 3,
            cmd: ServerCmd::Qsub(spec("job-3", 2)),
        },
        Payload::Output {
            client: CLIENT,
            req_id: 3,
        },
        Payload::MomFinished {
            job: JobId(1),
            exit: -2,
            mom: MOM,
        },
        Payload::JMutexAcquire {
            job: JobId(2),
            mom: MOM,
            session: 9,
            granter: HEAD2,
            reclaim: true,
        },
        Payload::JMutexRelease { job: JobId(1) },
        Payload::Snapshot {
            targets: vec![ProcId(3)],
            as_of_seq: 40,
            state: Box::new(replica_state()),
        },
        Payload::Hello {
            member: ProcId(3),
            applied_index: 11,
            fingerprint: 0xfeed_beef,
        },
    ]
}

fn pinned() -> Pinned {
    let mut p = Pinned::default();
    p.pin("JobId", &JobId(0x0102_0304_0506_0708));
    p.pin("JobSpec", &spec("sim", 4));
    for (label, s) in [
        ("JobState::Queued", JobState::Queued),
        ("JobState::Running", JobState::Running),
        ("JobState::Exiting", JobState::Exiting),
        ("JobState::Complete", JobState::Complete),
        ("JobState::Held", JobState::Held),
    ] {
        p.pin(label, &s);
    }
    p.pin("Job", &job(5, JobState::Exiting, Some(-3), &["c00", "c01"]));
    p.pin("JobStatus", &status(5, 'E', Some(-3)));
    p.pin("ServerCmd::Qsub", &ServerCmd::Qsub(spec("sub", 1)));
    p.pin("ServerCmd::Qdel", &ServerCmd::Qdel(JobId(6)));
    p.pin("ServerCmd::Qstat(None)", &ServerCmd::Qstat(None));
    p.pin("ServerCmd::Qstat(Some)", &ServerCmd::Qstat(Some(JobId(7))));
    p.pin("ServerCmd::Qhold", &ServerCmd::Qhold(JobId(8)));
    p.pin("ServerCmd::Qrls", &ServerCmd::Qrls(JobId(9)));
    p.pin("CmdReply::Submitted", &CmdReply::Submitted(JobId(10)));
    p.pin("CmdReply::Deleted", &CmdReply::Deleted(JobId(11)));
    p.pin("CmdReply::Held", &CmdReply::Held(JobId(12)));
    p.pin("CmdReply::Released", &CmdReply::Released(JobId(13)));
    p.pin(
        "CmdReply::Status",
        &CmdReply::Status(vec![status(1, 'C', Some(0)), status(2, 'R', None)]),
    );
    p.pin("CmdReply::Error", &CmdReply::Error("nope".into()));
    p.pin("MomReport::Started", &MomReport::Started { job: JobId(14) });
    p.pin(
        "MomReport::Finished",
        &MomReport::Finished {
            job: JobId(15),
            exit: -11,
        },
    );
    p.pin("NodeState::Free", &NodeState::Free);
    p.pin("NodeState::Busy", &NodeState::Busy);
    p.pin("NodeState::Offline", &NodeState::Offline);
    p.pin(
        "ComputeNode",
        &node("c07", Some(ProcId(57)), NodeState::Busy),
    );
    p.pin("NodePool", &pool());
    p.pin("ServerSnapshot", &replica_state().pbs);
    p.pin(
        "Grant",
        &Grant {
            mom: MOM,
            session: 4,
            granter: HEAD1,
        },
    );
    p.pin("JMutexState", &jmutex());
    p.pin("ReplicaState", &replica_state());
    for (label, payload) in [
        "Payload::Client",
        "Payload::Output",
        "Payload::MomFinished",
        "Payload::JMutexAcquire",
        "Payload::JMutexRelease",
        "Payload::Snapshot",
        "Payload::Hello",
    ]
    .into_iter()
    .zip(flat_payloads())
    {
        p.pin(label, &payload);
    }
    p.pin(
        "Payload::CatchUp",
        &Payload::CatchUp {
            targets: vec![ProcId(3), ProcId(4)],
            as_of_seq: 41,
            entries: (18u64..).zip(flat_payloads()).collect(),
        },
    );
    p
}

/// `(label, encoded length, fingerprint of the bytes)` per pinned value.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("JobId", 8, 0x7409a9ce0411a46d),
    ("JobSpec", 36, 0xcf31e73c2f1f3e1d),
    ("JobState::Queued", 1, 0x529a2cdc8ff533ac),
    ("JobState::Running", 1, 0x529a2ddc8ff5355f),
    ("JobState::Exiting", 1, 0x529a2edc8ff53712),
    ("JobState::Complete", 1, 0x529a2fdc8ff538c5),
    ("JobState::Held", 1, 0x529a28dc8ff52ce0),
    ("Job", 70, 0x319a40706c087c21),
    ("JobStatus", 35, 0xa5c407619a3f89a0),
    ("ServerCmd::Qsub", 37, 0x64f51e87d0eced86),
    ("ServerCmd::Qdel", 9, 0x4f66d3f21ee04e11),
    ("ServerCmd::Qstat(None)", 2, 0x9b167dd327916dcd),
    ("ServerCmd::Qstat(Some)", 10, 0x3019a8b1cf367d05),
    ("ServerCmd::Qhold", 9, 0x3845f09b3237a5f5),
    ("ServerCmd::Qrls", 9, 0x4f5862152cea3591),
    ("CmdReply::Submitted", 9, 0xaba8ef253939fa0e),
    ("CmdReply::Deleted", 9, 0xa42d615597287d7c),
    ("CmdReply::Held", 9, 0x20c6b761c959d866),
    ("CmdReply::Released", 9, 0x9d600d6dfb8b3350),
    ("CmdReply::Status", 71, 0xccf6edd22d4da810),
    ("CmdReply::Error", 9, 0x04d4cf83db6f359b),
    ("MomReport::Started", 9, 0x2fbdd3010d7cd18a),
    ("MomReport::Finished", 13, 0x6ce254de2e1f476a),
    ("NodeState::Free", 1, 0x529a2cdc8ff533ac),
    ("NodeState::Busy", 1, 0x529a2ddc8ff5355f),
    ("NodeState::Offline", 1, 0x529a2edc8ff53712),
    ("ComputeNode", 13, 0xfd1eca8eafc6da84),
    ("NodePool", 39, 0x375176d7e26c0562),
    ("ServerSnapshot", 238, 0x03339ed951b38a81),
    ("Grant", 16, 0x0521a11a6ce7de52),
    ("JMutexState", 40, 0x7864bdeaec5184a7),
    ("ReplicaState", 373, 0x7d81a7245c513af9),
    ("Payload::Client", 52, 0xaed6e22573bf7658),
    ("Payload::Output", 13, 0x916e3606d5006aac),
    ("Payload::MomFinished", 17, 0x9d37ca228c8801ec),
    ("Payload::JMutexAcquire", 26, 0x2ef045bc9492f5da),
    ("Payload::JMutexRelease", 9, 0x472e9a5d84648699),
    ("Payload::Snapshot", 390, 0x4328f6e47b14115b),
    ("Payload::Hello", 21, 0xcd0cde8be554dd3c),
    ("Payload::CatchUp", 609, 0xcc3063f648341ead),
];

/// Length and fingerprint of all pinned encodings concatenated.
const GOLDEN_TOTAL: (usize, u64) = (2227, 0x1e8f844da3804753);

#[test]
fn every_product_codec_encodes_to_the_pinned_bytes() {
    let pinned = pinned().0;
    let got: Vec<(&str, usize, u64)> = pinned
        .iter()
        .map(|(l, b)| (*l, b.len(), jrs_sim::fingerprint(b)))
        .collect();
    for (g, w) in got.iter().zip(GOLDEN) {
        assert_eq!(g, w, "got fingerprint {:#018x}, want {:#018x}", g.2, w.2);
    }
    assert_eq!(got.len(), GOLDEN.len(), "one golden row per pinned value");
    let all: Vec<u8> = pinned.into_iter().flat_map(|(_, b)| b).collect();
    assert_eq!((all.len(), jrs_sim::fingerprint(&all)), GOLDEN_TOTAL);
}

/// The layout itself, spelled out for the small values: a `u8` tag
/// first, fixed-width little-endian integers, `u32` length prefixes,
/// fields in declaration order.
#[test]
fn small_values_byte_for_byte() {
    assert_eq!(
        JobId(0x0102_0304_0506_0708).to_bytes(),
        [8, 7, 6, 5, 4, 3, 2, 1]
    );
    assert_eq!(JobState::Held.to_bytes(), [4]);
    assert_eq!(NodeState::Offline.to_bytes(), [2]);
    assert_eq!(
        Grant {
            mom: MOM,
            session: 4,
            granter: HEAD1
        }
        .to_bytes(),
        [50, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    );
    assert_eq!(
        MomReport::Finished {
            job: JobId(15),
            exit: -11
        }
        .to_bytes(),
        [1, 15, 0, 0, 0, 0, 0, 0, 0, 0xf5, 0xff, 0xff, 0xff]
    );
    assert_eq!(
        ServerCmd::Qstat(Some(JobId(7))).to_bytes(),
        [2, 1, 7, 0, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(
        CmdReply::Error("nope".into()).to_bytes(),
        [5, 4, 0, 0, 0, b'n', b'o', b'p', b'e']
    );
    assert_eq!(
        node("c07", Some(ProcId(57)), NodeState::Busy).to_bytes(),
        [3, 0, 0, 0, b'c', b'0', b'7', 1, 57, 0, 0, 0, 1]
    );
    assert_eq!(
        Payload::JMutexAcquire {
            job: JobId(2),
            mom: MOM,
            session: 9,
            granter: HEAD2,
            reclaim: true
        }
        .to_bytes(),
        [3, 2, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1]
    );
}

#[test]
fn unknown_tags_name_their_enum() {
    fn rejects<T: Codec>(what: &'static str) {
        assert_eq!(
            T::from_bytes(&[0xff]).err(),
            Some(DecodeError::Invalid(what))
        );
    }
    rejects::<Payload>("Payload tag");
    rejects::<ServerCmd>("ServerCmd tag");
    rejects::<CmdReply>("CmdReply tag");
    rejects::<MomReport>("MomReport tag");
    rejects::<JobState>("JobState tag");
    rejects::<NodeState>("NodeState tag");
}
