//! How many qstat listings a jstat costs a replicated cluster: one, built
//! by the head that releases the reply, not one per head.
//!
//! Every head applies the jstat in the total order, but what it caches is
//! the read (`CmdReply::Read`), not its rows; the responder builds the
//! listing when the agreed `Output` arrives, from its state at that point
//! of the order. Before, every head built the full-history listing at
//! apply time and kept it in its reply cache (and so in every snapshot),
//! so N jstats on three heads made 3N listings. Three diskless heads, one
//! client, `HISTORY` submissions and then `READS` jstats of every job:
//!
//! | commit | listings per jstat |
//! |---|---|
//! | every head builds the listing at apply time | 3 |
//! | the responder builds it at release | 1 |
//!
//! A listing of `HISTORY` jobs is one `Rc<[JobStatus]>` allocation of a
//! size nothing else in the run asks for, so the allocator below counts
//! exactly the allocations of that size. An integration test is its own
//! binary, and the count is per thread, so the harness's own threads are
//! not counted.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use jrs_pbs::{CmdReply, JobStatus, ServerCmd};
use jrs_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// The allocation size being counted (0: none).
    static SIZE: Cell<usize> = const { Cell::new(0) };
    /// Allocations of that size made by this thread.
    static HITS: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = SIZE.try_with(|s| {
        if s.get() == size {
            let _ = HITS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread-local cells and allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Submissions before the first jstat: the rows of every listing.
const HISTORY: usize = 60;
/// jstats of every job, back to back.
const READS: usize = 20;
const HEADS: usize = 3;

/// Bytes of one `Rc<[JobStatus]>` of `rows` rows: the strong and weak
/// counts, then the rows.
fn listing_bytes(rows: usize) -> usize {
    let counts = Layout::new::<[usize; 2]>();
    let rows = Layout::array::<JobStatus>(rows).expect("small layout");
    counts
        .extend(rows)
        .expect("small layout")
        .0
        .pad_to_align()
        .size()
}

#[test]
fn a_jstat_builds_one_listing_per_cluster() {
    let mut script = workload::burst(HISTORY);
    script.extend((0..READS).map(|_| ServerCmd::Qstat(None)));
    let mut c = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: HEADS }));
    c.spawn_client(script);

    SIZE.with(|s| s.set(listing_bytes(HISTORY)));
    while c.take_dones().is_empty() {
        assert!(
            c.world.now().as_nanos() < 300_000_000_000,
            "the script did not finish in 300 s"
        );
        c.run_for(SimDuration::from_secs(1));
    }
    SIZE.with(|s| s.set(0));
    let listings = HITS.with(Cell::get);

    let records = c.take_records();
    assert_eq!(records.len(), HISTORY + READS);
    for r in &records[HISTORY..] {
        let CmdReply::Status(rows) = &r.reply else {
            panic!("a jstat answered {:?}", r.reply)
        };
        assert_eq!(rows.len(), HISTORY, "a jstat listed {} jobs", rows.len());
    }
    println!(
        "{READS} jstats of {HISTORY} jobs on {HEADS} heads: {listings} listings \
         of {} B ({HEADS} per jstat when every head built its own)",
        listing_bytes(HISTORY)
    );
    assert_eq!(
        listings, READS as u64,
        "a jstat must build one listing across the cluster"
    );
}
