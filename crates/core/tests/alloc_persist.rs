//! What a durable head allocates to write: one WAL record
//! (`HeadStore::log_command`), one snapshot, through the path
//! `JoshuaServer` takes (`Replica::encode_state` into
//! `HeadStore::save_snapshot_with`) and through the by-value
//! `HeadStore::save_snapshot(&ReplicaState)`, and one compaction of the
//! log behind a snapshot (`HeadStore::compact_wal`).
//!
//! A record is framed in place in the WAL file's tail, and a snapshot is
//! encoded from the live state straight into the buffer of the snapshot
//! file it replaces (`SimDisk::replace_with`). So a record allocates
//! nothing, and a snapshot allocates at most one growth of that buffer,
//! at any history; one no larger than the buffer already holds
//! allocates nothing. Where each path stood before:
//!
//! | path | record in a `Vec`, cloned state | temp file + rename | file's own buffer |
//! |---|---|---|---|
//! | `log_command`, per record | 8 | 0 | 0 |
//! | server's snapshot write at 100 / 1 000 jobs | 25 / 28 | 3 / 3 | 0 / 0 |
//! | `save_snapshot(&ReplicaState)` at 100 / 1 000 jobs | 19 / 22 | 3 / 3 | 0 / 0 |
//! | a snapshot no larger than the one it replaces | | | 0 |
//!
//! In the first column a record was encoded into a `Vec` and framed into
//! two more, the disk copied its path twice, and the server's snapshot
//! was `Replica::state` (a cloned replica state) then `save_snapshot`,
//! its buffer grown from empty once per doubling of the history. In the
//! second each snapshot was written into a fresh temp file, reserved to
//! the previous snapshot's size: the temp file's name, its buffer and a
//! growth when the new snapshot was larger. The growth the ceiling
//! below allows is paid only when a snapshot outgrows every buffer
//! before it. A head writes its snapshots into two slots in turn, so
//! each replaces the one 64 commands before it; once the history is
//! long, that fits in the slack of the doubling that made room for the
//! one it replaces.
//!
//! A compaction walks the frame headers in place and drops the log's
//! front inside the platter's own buffer, so it allocates nothing, and a
//! log kept to a window by it never grows the platter again. The record
//! test rewinds the log to its first record after warm-up and measures a
//! window the platter already holds; the compaction test logs and
//! compacts the way a durable head does.
//!
//! An integration test is its own binary, and the counting allocator
//! below counts per thread, so each count is one test's own.

use joshua_core::persist::HeadStore;
use joshua_core::replica::Replica;
use joshua_core::Payload;
use jrs_pbs::server::PbsServerCore;
use jrs_pbs::{JobId, JobSpec, ServerCmd};
use jrs_sim::{ProcId, SimDisk, SimTime};
use jrs_store::Codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

struct Counting;

thread_local! {
    /// Allocations made by this thread: the harness's own threads run
    /// beside a test and are not counted against it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local cell and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WAL: &str = "joshua.wal";
const MOM: ProcId = ProcId(9);
const CLIENT: ProcId = ProcId(100);
/// Allocations one snapshot write may make at any history: one growth
/// of the snapshot file's buffer.
const SNAPSHOT_MAX: u64 = 1;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn qsub(req_id: u64) -> Payload {
    Payload::Client {
        client: CLIENT,
        req_id,
        cmd: ServerCmd::Qsub(JobSpec::trivial("job")),
    }
}

#[test]
fn a_wal_record_allocates_nothing() {
    let (store, mut disk, now) = (HeadStore::new(), SimDisk::new(), SimTime::ZERO);
    let records: Vec<Payload> = (1..=1_000).map(qsub).collect();
    assert!(store.log_command(&mut disk, now, 1, &records[0]));
    let first = disk.durable_len(WAL);
    for (i, p) in (2..).zip(&records[1..]) {
        assert!(store.log_command(&mut disk, now, i, p));
    }
    // Keep the platter's capacity, drop all but the first record.
    disk.truncate(WAL, first);
    let (allocs, landed) = counted(|| {
        let mut landed = 0;
        for (i, p) in (2..).zip(&records[1..]) {
            landed += u64::from(store.log_command(&mut disk, now, i, p));
        }
        landed
    });
    assert_eq!(landed, 999);
    println!("log_command: {allocs} allocations in 999 records");
    assert_eq!(allocs, 0, "a WAL record allocated");
}

/// A replica with `history` submitted and finished jobs, and the reply
/// to the last submission cached.
fn replica(history: u64) -> Replica {
    let mut r = Replica::new(PbsServerCore::with_moms(&[("c00".to_string(), MOM)]));
    let now = SimTime::ZERO;
    for i in 1..=history {
        let _ = r.apply(now, &qsub(i));
        let finished = Payload::MomFinished {
            job: JobId(i),
            exit: 0,
            mom: MOM,
        };
        let _ = r.apply(now, &finished);
    }
    r
}

/// Allocations of a snapshot write of a `history`-job replica, through
/// the server's path and the by-value one, each over a snapshot of a
/// `previous`-job one: the first two snapshots fill both slots, and the
/// third is written over the first.
fn snapshot_allocs(previous: u64, history: u64) -> (u64, u64) {
    let (store, now) = (HeadStore::new(), SimTime::ZERO);
    let (needs, hellos) = (
        BTreeSet::from([ProcId(3)]),
        BTreeMap::from([(ProcId(3), (7, 8))]),
    );
    let older = replica(previous);
    let r = replica(history);
    let mut disk = SimDisk::new();
    let encode_older = |out: &mut Vec<u8>| older.encode_state(&needs, &hellos, out);
    assert!(store.save_snapshot_with(&mut disk, now, 1, encode_older));
    assert!(store.save_snapshot_with(&mut disk, now, 2, encode_older));
    let (borrowed, landed) = counted(|| {
        store.save_snapshot_with(&mut disk, now, 3, |out| {
            r.encode_state(&needs, &hellos, out)
        })
    });
    assert!(landed);

    // The by-value wrapper, over the same state decoded back.
    let state = store
        .recover(&mut disk)
        .state
        .expect("the snapshot just written");
    let mut disk = SimDisk::new();
    let mut older_bytes = Vec::new();
    older.encode_state(&needs, &hellos, &mut older_bytes);
    let older_state = joshua_core::ReplicaState::from_bytes(&older_bytes).expect("decodes");
    assert!(store.save_snapshot(&mut disk, now, 1, &older_state));
    assert!(store.save_snapshot(&mut disk, now, 2, &older_state));
    let (by_value, landed) = counted(|| store.save_snapshot(&mut disk, now, 3, &state));
    assert!(landed);
    (borrowed, by_value)
}

#[test]
fn a_snapshot_write_costs_the_same_at_any_history() {
    // Over a snapshot 32 commands (16 jobs) shorter. A head writes over
    // the one 64 commands back, which at a short history can take the
    // growth the ceiling allows (1 at 100 jobs over 68).
    let (small, small_by_value) = snapshot_allocs(84, 100);
    let (large, large_by_value) = snapshot_allocs(984, 1_000);
    println!(
        "snapshot write: {small} / {large} allocations at 100 / 1000 jobs \
         (by value: {small_by_value} / {large_by_value})"
    );
    assert_eq!(
        small, large,
        "the server's snapshot write allocates per job"
    );
    assert_eq!(
        small_by_value, large_by_value,
        "save_snapshot allocates per job"
    );
    assert!(
        large <= SNAPSHOT_MAX,
        "{large} allocations, budget {SNAPSHOT_MAX}"
    );
    assert!(
        large_by_value <= SNAPSHOT_MAX,
        "{large_by_value} allocations, budget {SNAPSHOT_MAX}"
    );
}

#[test]
fn a_snapshot_no_larger_than_the_last_allocates_nothing() {
    let (borrowed, by_value) = snapshot_allocs(1_000, 984);
    println!("snapshot write over a larger one: {borrowed} allocations (by value: {by_value})");
    assert_eq!(borrowed, 0, "the server's snapshot write allocated");
    assert_eq!(by_value, 0, "save_snapshot allocated");
}

#[test]
fn a_compaction_allocates_nothing() {
    const RING: usize = joshua_core::persist::RING_CAPACITY;
    let (store, mut disk, now) = (HeadStore::new(), SimDisk::new(), SimTime::ZERO);
    let records: Vec<Payload> = (1..=1_000).map(qsub).collect();
    for (i, p) in (1..).zip(&records) {
        assert!(store.log_command(&mut disk, now, i, p));
    }
    // Compaction reads no snapshot, so an empty state will do; the first
    // two create both slots' files, outside the count.
    assert!(store.save_snapshot_with(&mut disk, now, 999, |_| {}));
    assert!(store.save_snapshot_with(&mut disk, now, 1_000, |_| {}));
    let (allocs, dropped) = counted(|| {
        // The first compaction, then rounds of a snapshot interval of
        // records, a snapshot and a compaction, as a head logs.
        let mut dropped = store.compact_wal(&mut disk, 1_000);
        for round in 0..20 {
            let last = 1_032 + 32 * round;
            for (i, p) in (last - 31..).zip(&records[..32]) {
                assert!(store.log_command(&mut disk, now, i, p));
            }
            assert!(store.save_snapshot_with(&mut disk, now, last, |_| {}));
            dropped += store.compact_wal(&mut disk, last);
        }
        dropped
    });
    println!("compact_wal: {allocs} allocations in 21 compactions ({dropped} records dropped)");
    assert_eq!(dropped, 1_000 - RING + 20 * 32);
    assert_eq!(allocs, 0, "a compaction allocated");
    let kept = jrs_store::Wal::new("joshua.wal").replay(&disk);
    let indices: Vec<u64> = kept
        .expect("an undamaged log")
        .entries
        .iter()
        .map(|(i, _)| *i)
        .collect();
    let first = 1_641 - u64::try_from(RING).expect("fits");
    assert_eq!(
        indices,
        (first..1_641).collect::<Vec<u64>>(),
        "the last RING_CAPACITY records"
    );
}
