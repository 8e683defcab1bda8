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
//!
//! A listing is one allocation, collected straight into the shared slice
//! (through a `Vec` it would be two), and every copy of the reply (the
//! reply cache, the released reply, the client's record) shares it. A
//! snapshot copies the job `Vec` and the node pool; a restore builds the
//! job and queue trees. The ceilings below fail each earlier row and any
//! per-job copy that creeps back in.
//!
//! An integration test is its own binary, so the counting allocator below
//! counts nothing but this file's one test.

use jrs_pbs::job::exit;
use jrs_pbs::{CmdReply, FifoExclusive, JobId, JobSpec, MomReport, PbsServerCore, ServerCmd};
use jrs_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is an
// atomic and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HISTORY: u64 = 1_000;
const QSTAT_MAX: u64 = 1;
const SNAPSHOT_MAX: u64 = 16;
const RESTORE_MAX: u64 = 300;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (ALLOCS.load(Relaxed) - before, out)
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
            assert!(Rc::ptr_eq(rows, shared), "a cloned reply copied the listing");
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
