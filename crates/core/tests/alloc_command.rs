//! The allocation budget of one client command through a replicated
//! cluster: the default four-head JOSHUA cluster (`ClusterConfig::new`, so
//! every frame is charged `FrameCost::TRANSIS`) and one client submitting
//! `workload::burst(200)`, heap allocations counted over the second
//! hundred commands. The first hundred fills every reused buffer and
//! every host's list of frame boxes.
//!
//! This is the whole command path of every head: interception, the
//! ordering round, the PBS server and scheduler, the mom's launch
//! arbitration and the client. What a command still allocates is what
//! the replicas keep (a job, the job table's growth, its cached reply), the
//! kernel's boxed messages, the start-action `Vec` and frame boxes warming
//! up at a new high-water mark. Per command, seed 42:
//!
//! | commit | allocations |
//! |---|---|
//! | before (fresh node-name `String`s per start, a `Vec` per mom call, per retry tick and per `take_emitted`) | 25.13 |
//! | node names shared, actions into reused buffers, frames read in their box | 13.39 |
//! | dense job table, `take_emitted` sized to its matches | 12.79 |
//! | emitted values queued unboxed, no donation ring on a diskless head | 11.76 |
//!
//! The ceiling sits 10 % above the last row, so the first two rows fail
//! it and a per-command copy that creeps back in does too.
//!
//! An integration test is its own binary, and the counting allocator
//! below counts per thread, so the harness's own threads are not counted.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::workload;
use jrs_pbs::SubmitRecord;
use jrs_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread.
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

/// Budget for the hundred counted commands together (an integer: the
/// workspace bans floats outside the bench crate).
const ALLOCS_PER_HUNDRED_MAX: u64 = 1_294;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_replicated_command_stays_inside_its_allocation_budget() {
    let mut cluster = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 4 }));
    cluster.spawn_client(workload::burst(200));

    // Allocations counted when the 100th and the 200th reply arrive. The
    // world runs in 1 ms slices; draining the replies after each slice is
    // the harness's own work and is left out of the count.
    let (mut answered, mut harness) = (0, 0);
    let mut at = [0; 2];
    while answered < 200 {
        cluster.run_for(SimDuration::from_millis(1));
        let before = allocs();
        let records = cluster.world.take_emitted::<SubmitRecord>();
        harness += allocs() - before;
        for (_, _, record) in &records {
            assert!(
                record.attempts == 1,
                "command {} was retried: the count is no longer one try each",
                record.index
            );
            answered += 1;
            if answered % 100 == 0 {
                at[answered / 100 - 1] = allocs() - harness;
            }
        }
        assert!(
            cluster.world.now().as_nanos() < 300_000_000_000,
            "only {answered} of 200 commands answered in 300 s"
        );
    }
    let per_hundred = at[1] - at[0];
    println!(
        "alloc_command: {}.{:02} allocations per command (4 heads, TRANSIS, commands 101-200)",
        per_hundred / 100,
        per_hundred % 100
    );
    assert!(
        per_hundred <= ALLOCS_PER_HUNDRED_MAX,
        "{per_hundred} allocations per 100 commands, budget {ALLOCS_PER_HUNDRED_MAX}"
    );
}
