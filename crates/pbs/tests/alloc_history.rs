//! What a full-history read of the PBS server allocates: one `Qstat(None)`,
//! a copy of its reply, one `snapshot()` and one `restore` at a 1 000-job
//! `FifoExclusive` history. JOSHUA applies every jstat on every head, and
//! a durable head snapshots its whole job table every 32 commands, so a
//! cost per job here is paid per job, per head, per query.
//!
//! Allocations per call:
//!
//! | commit | `Qstat(None)` | reply clone | `snapshot()` | `restore` |
//! |---|---|---|---|---|
//! | parent `b98e79d` (`String` name and user, copied per row and job) | 2 001 | | 2 006 | 2 099 |
//! | shared `Rc<str>` name and user | 1 | | 6 | 99 |
//! | `ca85d68`, node names shared too (listing in a `Vec`) | 1 | 1 | 2 | 96 |
//! | listing shared as `Rc<[JobStatus]>` | 1 | 0 | 2 | 96 |
//! | dense job table, a `Vec` indexed by id | 1 | 0 | 2 | 3 |
//!
//! A listing is one allocation, collected straight into the shared slice
//! (through a `Vec` it would be two), and every copy of the reply (the
//! reply cache, the released reply, the client's record) shares it. A
//! snapshot copies the job `Vec` and the node pool; a restore copies the
//! job `Vec` into the joiner's (a B-tree of jobs was one node per few
//! jobs) and rebuilds the node pool. The ceilings below fail each earlier
//! row and any per-job copy that creeps back in.
//!
//! What a job costs to keep: a server with 2 000 submitted jobs, one
//! running and the rest queued, holds each job's row in the job table
//! and its id in the queue index. With a `BTreeMap<JobId, Job>` table
//! that was 230 B per job; the dense table holds 126 B, the 104 B row,
//! the slack of the table's last doubling (2 048 rows for 2 000 jobs) and
//! about 20 B per id in the queue's B-tree. The ceiling is 126 B plus
//! 10 %. Every head pays it for every job it ever saw.
//!
//! An integration test is its own binary, and the counting allocator
//! below counts per thread, so each count is one test's own.

use jrs_pbs::job::exit;
use jrs_pbs::{CmdReply, FifoExclusive, JobId, JobSpec, MomReport, PbsServerCore, ServerCmd};
use jrs_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

struct Counting;

thread_local! {
    /// Allocations made by this thread: the harness's own threads run
    /// beside a test and are not counted against it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and freed, as requested.
    static BYTES: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation (if `count`) of `grown` bytes that freed `freed`.
fn note(count: bool, grown: usize, freed: usize) {
    // `try_with`: a thread being torn down still allocates.
    if count {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = BYTES.try_with(|b| {
        let (a, f) = b.get();
        b.set((a + grown, f + freed));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread-local cells and allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HISTORY: u64 = 1_000;
const QSTAT_MAX: u64 = 1;
const SNAPSHOT_MAX: u64 = 16;
const RESTORE_MAX: u64 = 3;
/// Jobs the footprint test submits: `sustained_concurrent_4h`'s history.
const SUBMITTED: usize = 2_000;
/// Live heap bytes per submitted job: the measured figure plus 10 %.
const LIVE_BYTES_PER_JOB_MAX: usize = 138;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes `f` leaves allocated, and its result.
fn live<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let (a0, f0) = BYTES.with(Cell::get);
    let out = f();
    let (a1, f1) = BYTES.with(Cell::get);
    ((a1 - a0) - (f1 - f0), out)
}

fn server() -> PbsServerCore {
    PbsServerCore::new("head", (0..2).map(|i| format!("c{i:02}")), FifoExclusive)
}

#[test]
fn full_history_reads_do_not_allocate_per_job() {
    let now = SimTime::ZERO;
    let mut pbs = server();
    for i in 1..=HISTORY {
        let _ = pbs.apply(now, &ServerCmd::Qsub(JobSpec::trivial(format!("job-{i}"))));
        let _ = pbs.on_report(
            now,
            &MomReport::Finished {
                job: JobId(i),
                exit: exit::OK,
            },
        );
    }
    let mut joiner = server();

    let (qstat, (reply, _)) = counted(|| pbs.apply(now, &ServerCmd::Qstat(None)));
    let (clone, copy) = counted(|| reply.clone());
    let rows = match (&reply, &copy) {
        (CmdReply::Status(rows), CmdReply::Status(shared)) => {
            assert!(
                Rc::ptr_eq(rows, shared),
                "a cloned reply copied the listing"
            );
            rows.len()
        }
        other => panic!("{other:?}"),
    };
    let (snapshot, snap) = counted(|| pbs.snapshot());
    let (restore, ()) = counted(|| joiner.restore(&snap));
    assert_eq!(rows, 1_000);
    assert!(joiner.snapshot().consistent_with(&snap));

    println!(
        "alloc_history: h{HISTORY}: Qstat(None) {qstat}, reply clone {clone}, snapshot() {snapshot}, restore {restore} allocations"
    );
    assert!(
        qstat <= QSTAT_MAX,
        "Qstat(None): {qstat} allocations, budget {QSTAT_MAX}"
    );
    assert_eq!(clone, 0, "cloning the Status reply allocated");
    assert!(
        snapshot <= SNAPSHOT_MAX,
        "snapshot(): {snapshot} allocations, budget {SNAPSHOT_MAX}"
    );
    assert!(
        restore <= RESTORE_MAX,
        "restore: {restore} allocations, budget {RESTORE_MAX}"
    );
}

#[test]
fn a_submitted_job_costs_its_row_and_its_queue_entry() {
    let now = SimTime::ZERO;
    // The specs are built first: their strings are the client's, shared
    // by the job, not part of what the server adds per job.
    let cmds: Vec<ServerCmd> = (1..=SUBMITTED)
        .map(|i| ServerCmd::Qsub(JobSpec::trivial(format!("job-{i}"))))
        .collect();
    let (bytes, pbs) = live(|| {
        let mut pbs = server();
        for cmd in &cmds {
            let _ = pbs.apply(now, cmd);
        }
        pbs
    });
    assert_eq!(pbs.queued_ids().count(), SUBMITTED - 1);
    let per_job = bytes / SUBMITTED;
    println!("alloc_history: {SUBMITTED} submitted jobs: {bytes} live bytes, {per_job} per job");
    assert!(
        per_job <= LIVE_BYTES_PER_JOB_MAX,
        "{per_job} live bytes per submitted job, ceiling {LIVE_BYTES_PER_JOB_MAX}"
    );
}
