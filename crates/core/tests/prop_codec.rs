//! Round-trip property test for every `Codec` impl that ships bytes
//! between replicas or onto disk: `decode(encode(x)) == x` for arbitrary
//! values of the store containers, the PBS wire types, and the
//! replicated `Payload` stream (including full `ReplicaState`
//! snapshots).
//!
//! The product codecs are `jrs_store::codec!` declarations, so their two
//! directions cannot disagree, and the root `schema_lock` test pins their
//! field orders and tags against `proto.lock`. This test is the dynamic
//! side: the hand-written foundation containers get their symmetry from
//! here, and whatever layout a declaration
//! produces, a value actually travelling through the bytes must survive
//! unchanged. `codec_golden.rs` pins the bytes themselves.
//!
//! Types without `PartialEq` (`Payload`, `ReplicaState`) are compared
//! by re-encoded bytes plus `jrs_sim::fingerprint`, the same structural
//! hash replicas use for cross-head agreement checks.

use joshua_core::payload::{Grant, JMutexState, Payload, ReplicaState};
use jrs_pbs::job::{Job, JobId, JobSpec, JobState, JobStatus};
use jrs_pbs::resources::{ComputeNode, NodeState};
use jrs_pbs::server::{CmdReply, MomReport, ServerCmd, ServerSnapshot};
use jrs_sim::{ProcId, SimDuration};
use jrs_store::codec::Codec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hash::Hash;

/// The round-trip property: decode inverts encode, the re-encoded bytes
/// are identical (no tolerated drift), and the structural fingerprint —
/// what replicas actually compare — is preserved.
fn round_trips<T: Codec + Hash>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    let back = match T::from_bytes(&bytes) {
        Ok(b) => b,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
    };
    prop_assert_eq!(back.to_bytes(), bytes, "re-encode must reproduce the bytes");
    prop_assert_eq!(
        jrs_sim::fingerprint(&back),
        jrs_sim::fingerprint(v),
        "fingerprint must survive the round trip"
    );
    Ok(())
}

// ---- generators (seed-driven; the proptest shim draws the seed) ----

fn proc_id(rng: &mut StdRng) -> ProcId {
    ProcId(rng.random_range(0u32..64))
}

fn small_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..12);
    (0..len)
        .map(|_| char::from(b'a' + rng.random_range(0u8..26)))
        .collect()
}

fn job_spec(rng: &mut StdRng) -> JobSpec {
    JobSpec {
        name: small_string(rng).into(),
        user: small_string(rng).into(),
        nodes: rng.random_range(1u32..32),
        walltime: SimDuration::from_millis(rng.random_range(1u64..100_000)),
        runtime: SimDuration::from_nanos(rng.random_range(0u64..u64::MAX / 2)),
    }
}

fn job_state(rng: &mut StdRng) -> JobState {
    [
        JobState::Queued,
        JobState::Running,
        JobState::Exiting,
        JobState::Complete,
        JobState::Held,
    ][rng.random_range(0usize..5)]
}

fn job(rng: &mut StdRng) -> Job {
    Job {
        id: JobId(rng.random_range(0u64..1_000_000)),
        spec: job_spec(rng),
        state: job_state(rng),
        exit_status: if rng.random_range(0u8..2) == 0 {
            None
        } else {
            Some(rng.random_range(-20i32..20))
        },
        allocated: (0..rng.random_range(0usize..4))
            .map(|_| small_string(rng))
            .collect(),
    }
}

fn job_status(rng: &mut StdRng) -> JobStatus {
    let j = job(rng);
    JobStatus::from(&j)
}

/// A snapshot's node pool: nodes in name order.
fn node_pool(rng: &mut StdRng) -> Vec<ComputeNode> {
    let n = rng.random_range(0usize..6);
    (0..n)
        .map(|i| ComputeNode {
            name: format!("n{i}-{}", small_string(rng)),
            mom: if rng.random_range(0u8..2) == 0 {
                None
            } else {
                Some(proc_id(rng))
            },
            state: [NodeState::Free, NodeState::Busy, NodeState::Offline]
                [rng.random_range(0usize..3)],
        })
        .collect()
}

fn server_cmd(rng: &mut StdRng) -> ServerCmd {
    match rng.random_range(0u8..5) {
        0 => ServerCmd::Qsub(job_spec(rng)),
        1 => ServerCmd::Qdel(JobId(rng.random_range(0u64..100))),
        2 => ServerCmd::Qstat(if rng.random_range(0u8..2) == 0 {
            None
        } else {
            Some(JobId(rng.random_range(0u64..100)))
        }),
        3 => ServerCmd::Qhold(JobId(rng.random_range(0u64..100))),
        _ => ServerCmd::Qrls(JobId(rng.random_range(0u64..100))),
    }
}

fn cmd_reply(rng: &mut StdRng) -> CmdReply {
    match rng.random_range(0u8..6) {
        0 => CmdReply::Submitted(JobId(rng.random_range(0u64..100))),
        1 => CmdReply::Deleted(JobId(rng.random_range(0u64..100))),
        2 => CmdReply::Held(JobId(rng.random_range(0u64..100))),
        3 => CmdReply::Released(JobId(rng.random_range(0u64..100))),
        4 => CmdReply::Status(
            (0..rng.random_range(0usize..3))
                .map(|_| job_status(rng))
                .collect(),
        ),
        _ => CmdReply::Error(small_string(rng)),
    }
}

fn mom_report(rng: &mut StdRng) -> MomReport {
    if rng.random_range(0u8..2) == 0 {
        MomReport::Started {
            job: JobId(rng.random_range(0u64..100)),
        }
    } else {
        MomReport::Finished {
            job: JobId(rng.random_range(0u64..100)),
            exit: rng.random_range(-20i32..20),
        }
    }
}

fn server_snapshot(rng: &mut StdRng) -> ServerSnapshot {
    ServerSnapshot {
        jobs: (0..rng.random_range(0usize..5)).map(|_| job(rng)).collect(),
        next_id: rng.random_range(0u64..1_000_000),
        pool: node_pool(rng),
        running_since: (0..rng.random_range(0usize..4))
            .map(|_| {
                (
                    JobId(rng.random_range(0u64..100)),
                    rng.random_range(0u64..u64::MAX),
                )
            })
            .collect(),
    }
}

/// Random jmutex table built through its public transition API (its
/// fields are private by design).
fn jmutex_state(rng: &mut StdRng) -> JMutexState {
    let mut jm = JMutexState::new();
    for _ in 0..rng.random_range(0usize..8) {
        let job = JobId(rng.random_range(0u64..12));
        if rng.random_range(0u8..3) == 0 {
            jm.release(job);
        } else {
            jm.acquire(
                job,
                proc_id(rng),
                rng.random_range(0u64..1000),
                proc_id(rng),
                rng.random_range(0u8..2) == 0,
            );
        }
    }
    jm
}

fn replica_state(rng: &mut StdRng) -> ReplicaState {
    ReplicaState {
        pbs: server_snapshot(rng),
        jmutex: jmutex_state(rng),
        applied: (0..rng.random_range(0usize..4))
            .map(|_| (proc_id(rng), rng.random_range(0u64..100), cmd_reply(rng)))
            .collect(),
        needs_snapshot: (0..rng.random_range(0usize..3))
            .map(|_| proc_id(rng))
            .collect(),
        applied_index: rng.random_range(0u64..u64::MAX),
        hellos: (0..rng.random_range(0usize..3))
            .map(|_| {
                (
                    proc_id(rng),
                    rng.random_range(0u64..100),
                    rng.random_range(0u64..u64::MAX),
                )
            })
            .collect(),
    }
}

fn payload(rng: &mut StdRng, depth: u8) -> Payload {
    match rng.random_range(0u8..if depth == 0 { 7 } else { 8 }) {
        0 => Payload::Client {
            client: proc_id(rng),
            req_id: rng.random_range(0u64..1000),
            cmd: server_cmd(rng),
        },
        1 => Payload::Output {
            client: proc_id(rng),
            req_id: rng.random_range(0u64..1000),
        },
        2 => Payload::MomFinished {
            job: JobId(rng.random_range(0u64..100)),
            exit: rng.random_range(-20i32..20),
            mom: proc_id(rng),
        },
        3 => Payload::JMutexAcquire {
            job: JobId(rng.random_range(0u64..100)),
            mom: proc_id(rng),
            session: rng.random_range(0u64..1000),
            granter: proc_id(rng),
            reclaim: rng.random_range(0u8..2) == 0,
        },
        4 => Payload::JMutexRelease {
            job: JobId(rng.random_range(0u64..100)),
        },
        5 => Payload::Snapshot {
            targets: (0..rng.random_range(0usize..3))
                .map(|_| proc_id(rng))
                .collect(),
            as_of_seq: rng.random_range(0u64..1000),
            state: Box::new(replica_state(rng)),
        },
        6 => Payload::Hello {
            member: proc_id(rng),
            applied_index: rng.random_range(0u64..1000),
            fingerprint: rng.random_range(0u64..u64::MAX),
        },
        _ => Payload::CatchUp {
            targets: (0..rng.random_range(0usize..3))
                .map(|_| proc_id(rng))
                .collect(),
            as_of_seq: rng.random_range(0u64..1000),
            entries: (0..rng.random_range(0usize..3))
                .map(|_| (rng.random_range(0u64..1000), payload(rng, 0)))
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Store foundation containers over arbitrary scalar contents.
    #[test]
    fn store_containers_round_trip(seed in 0u64..1_000_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        round_trips(&rng.random::<u64>())?;
        round_trips(&(rng.random::<i64>() as i32))?;
        round_trips(&small_string(rng))?;
        round_trips(&(0..rng.random_range(0usize..8))
            .map(|_| rng.random::<u64>())
            .collect::<Vec<_>>())?;
        round_trips(&(0..rng.random_range(0usize..8))
            .map(|_| (small_string(rng), rng.random::<u32>()))
            .collect::<std::collections::BTreeMap<_, _>>())?;
        round_trips(&(0..rng.random_range(0usize..8))
            .map(|_| rng.random::<u16>())
            .collect::<std::collections::BTreeSet<_>>())?;
        round_trips(&if rng.random_range(0u8..2) == 0 { None } else { Some(rng.random::<u64>()) })?;
        round_trips(&(rng.random::<u8>(), small_string(rng), rng.random::<u64>()))?;
    }

    /// PBS wire and persistence types.
    #[test]
    fn pbs_types_round_trip(seed in 0u64..1_000_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        round_trips(&JobId(rng.random::<u64>()))?;
        round_trips(&job_spec(rng))?;
        round_trips(&job_state(rng))?;
        round_trips(&job(rng))?;
        round_trips(&job_status(rng))?;
        round_trips(&node_pool(rng))?;
        round_trips(&server_cmd(rng))?;
        round_trips(&cmd_reply(rng))?;
        round_trips(&mom_report(rng))?;
        round_trips(&server_snapshot(rng))?;
    }

    /// The replicated command stream, including full snapshots and
    /// nested catch-up entries, plus the jmutex table and grants.
    #[test]
    fn payload_round_trips(seed in 0u64..1_000_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        round_trips(&Grant {
            mom: proc_id(rng),
            session: rng.random_range(0u64..1000),
            granter: proc_id(rng),
        })?;
        round_trips(&jmutex_state(rng))?;
        round_trips(&replica_state(rng))?;
        round_trips(&payload(rng, 1))?;
    }
}
