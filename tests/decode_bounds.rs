//! A corrupt record cannot make a decode allocate much more than the
//! record itself. Every length prefix the foundation codecs read passes
//! `decode_len`, which rejects a length above the bytes left, and a
//! container reserves capacity only from its record's budget of one item
//! per input byte. This test checks the consequence from outside: it
//! feeds every truncation of a valid encoding, and every encoding with
//! one 4-byte window overwritten by a hostile length, to `from_bytes` of
//! each shipping type, plus one hand-built record of nested `CatchUp`s,
//! and holds each decode's peak heap use to `K` bytes per input byte.
//!
//! `K` is set by `size_of` of the largest item a shipping decode reserves
//! room for: `Job`, 104 bytes on x86-64 (`(u64, Payload)` is 88). The
//! measured worst case is 103 heap bytes per input byte, a `ReplicaState`
//! whose job count claims every byte left; `K` = 128 leaves room for the
//! values decoded before the claim.
//!
//! An integration test is its own binary, so the allocator below counts
//! nothing but this file's test.

use joshua_core::payload::{JMutexState, Payload, ReplicaState};
use jrs_pbs::job::{Job, JobId, JobSpec, JobState, JobStatus};
use jrs_pbs::resources::{ComputeNode, NodeState};
use jrs_pbs::server::{CmdReply, MomReport, ServerCmd, ServerSnapshot};
use jrs_sim::{ProcId, SimDuration};
use jrs_store::Codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Peak;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics and allocate nothing themselves.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Peak = Peak;

/// Peak heap bytes per input byte that any decode below may reach.
const K: usize = 128;

/// Length prefixes a corrupt record might carry: the largest `u32`, the
/// decoder's ceiling (which only the remaining-bytes bound then stops),
/// and one item per byte left (the most `decode_len` admits).
fn hostile_lengths(bytes_left: usize) -> [u32; 3] {
    [
        u32::MAX,
        u32::try_from(jrs_store::codec::MAX_LEN).unwrap_or(u32::MAX),
        u32::try_from(bytes_left).unwrap_or(u32::MAX),
    ]
}

/// Peak heap bytes above the current level while `T::from_bytes(input)`
/// runs and drops its result.
fn peak_of<T: Codec>(input: &[u8]) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    drop(T::from_bytes(input));
    PEAK.load(Relaxed) - base
}

/// Worst `(peak, input length)` ratio over every truncation of `valid`
/// and every 4-byte window of it overwritten with a hostile length; fails
/// on the first input above `K`.
fn worst<T: Codec>(label: &str, valid: &[u8]) -> (usize, usize) {
    let mut inputs: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for at in 0..valid.len().saturating_sub(3) {
        for len in hostile_lengths(valid.len() - at - 4) {
            let mut bad = valid.to_vec();
            bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
            inputs.push(bad);
        }
    }
    let mut worst = (0, 1);
    for input in &inputs {
        let peak = peak_of::<T>(input);
        assert!(
            peak <= K * input.len(),
            "{label}: decoding {} bytes peaked at {peak} heap bytes (K = {K}): {input:?}",
            input.len(),
        );
        if peak * worst.1 > worst.0 * input.len().max(1) {
            worst = (peak, input.len().max(1));
        }
    }
    worst
}

fn spec(name: &str) -> JobSpec {
    JobSpec {
        name: name.into(),
        user: "alice".into(),
        nodes: 2,
        walltime: SimDuration::from_secs(3600),
        runtime: SimDuration::from_millis(1500),
    }
}

fn status(id: u64) -> JobStatus {
    JobStatus {
        id: JobId(id),
        name: format!("job-{id}").into(),
        user: "alice".into(),
        state: 'R',
        exit_status: None,
    }
}

fn snapshot() -> ServerSnapshot {
    ServerSnapshot {
        jobs: vec![
            Job {
                id: JobId(1),
                spec: spec("a"),
                state: JobState::Running,
                exit_status: None,
                allocated: vec!["c00".into(), "c01".into()],
            },
            Job {
                id: JobId(2),
                spec: spec("b"),
                state: JobState::Complete,
                exit_status: Some(0),
                allocated: Vec::new(),
            },
        ],
        next_id: 3,
        pool: vec![
            ComputeNode {
                name: "c00".into(),
                mom: Some(ProcId(50)),
                state: NodeState::Busy,
            },
            ComputeNode {
                name: "c01".into(),
                mom: None,
                state: NodeState::Free,
            },
        ],
        running_since: vec![(JobId(1), 2_500_000_000)],
    }
}

fn replica_state() -> ReplicaState {
    let mut jmutex = JMutexState::new();
    let _ = jmutex.acquire(JobId(1), ProcId(50), 7, ProcId(1), false);
    ReplicaState {
        pbs: snapshot(),
        jmutex,
        applied: vec![
            (
                ProcId(20),
                3,
                CmdReply::Status(vec![status(1), status(2)].into()),
            ),
            (ProcId(21), 1, CmdReply::Error("unknown job 9".into())),
        ],
        needs_snapshot: vec![ProcId(3)],
        applied_index: 17,
        hellos: vec![(ProcId(3), 11, 0xfeed_beef)],
    }
}

fn client(req_id: u64, cmd: ServerCmd) -> Payload {
    Payload::Client {
        client: ProcId(20),
        req_id,
        cmd,
    }
}

/// A corrupt record that opens one `Payload::CatchUp` inside another,
/// `LEVELS` deep, each claiming as many entries as there are bytes left,
/// then ends. Before the foundation granted preallocation from one
/// budget per record, every level reserved its own claim: 10 960 400
/// heap bytes from these 2 500 input bytes, 4 384 per byte, growing with
/// the square of the record.
fn nested_catch_ups() -> Vec<u8> {
    const LEVELS: usize = 100;
    // Tag, empty `targets`, `as_of_seq`, `entries` length, entry index.
    const LEVEL_BYTES: usize = 1 + 4 + 8 + 4 + 8;
    let total = LEVELS * LEVEL_BYTES;
    let mut input = Vec::with_capacity(total);
    for level in 0..LEVELS {
        let claim = total - (level * LEVEL_BYTES + 17);
        input.push(7);
        input.extend_from_slice(&0u32.to_le_bytes());
        input.extend_from_slice(&0u64.to_le_bytes());
        input.extend_from_slice(&u32::try_from(claim).unwrap_or(u32::MAX).to_le_bytes());
        input.extend_from_slice(&0u64.to_le_bytes());
    }
    input
}

/// One test, not several: the counters are process-wide, and a second
/// test thread's allocations would land in this one's peaks.
#[test]
fn corrupt_input_allocates_at_most_k_bytes_per_input_byte() {
    let nested = nested_catch_ups();
    let nested_peak = peak_of::<Payload>(&nested);
    assert!(
        nested_peak <= K * nested.len(),
        "nested CatchUps peaked at {nested_peak} heap bytes from {} input bytes (K = {K})",
        nested.len(),
    );
    let mut rows = vec![("nested CatchUp", (nested_peak, nested.len()))];
    for p in [
        client(1, ServerCmd::Qsub(spec("job"))),
        Payload::Snapshot {
            targets: vec![ProcId(3), ProcId(4)],
            as_of_seq: 40,
            state: Box::new(replica_state()),
        },
        Payload::CatchUp {
            targets: vec![ProcId(3)],
            as_of_seq: 41,
            entries: vec![
                (18, client(2, ServerCmd::Qstat(None))),
                (19, Payload::JMutexRelease { job: JobId(1) }),
            ],
        },
    ] {
        rows.push(("Payload", worst::<Payload>("Payload", &p.to_bytes())));
    }
    rows.push((
        "ReplicaState",
        worst::<ReplicaState>("ReplicaState", &replica_state().to_bytes()),
    ));
    rows.push((
        "ServerCmd",
        worst::<ServerCmd>("ServerCmd", &ServerCmd::Qsub(spec("job")).to_bytes()),
    ));
    let status_reply = CmdReply::Status(vec![status(1), status(2), status(3)].into());
    rows.push((
        "CmdReply",
        worst::<CmdReply>("CmdReply", &status_reply.to_bytes()),
    ));
    let finished = MomReport::Finished {
        job: JobId(1),
        exit: -2,
    };
    rows.push((
        "MomReport",
        worst::<MomReport>("MomReport", &finished.to_bytes()),
    ));
    rows.push((
        "ServerSnapshot",
        worst::<ServerSnapshot>("ServerSnapshot", &snapshot().to_bytes()),
    ));
    println!(
        "size_of: Job = {}, (u64, Payload) = {}, JobStatus = {}, (ProcId, u64, CmdReply) = {}",
        std::mem::size_of::<Job>(),
        std::mem::size_of::<(u64, Payload)>(),
        std::mem::size_of::<JobStatus>(),
        std::mem::size_of::<(ProcId, u64, CmdReply)>(),
    );
    for (label, (peak, len)) in rows {
        println!(
            "{label:>14}: worst {peak} heap bytes from {len} input bytes ({} per byte)",
            peak / len
        );
    }
}
