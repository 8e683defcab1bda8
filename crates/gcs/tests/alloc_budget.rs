//! The allocation budget of one ordered broadcast through the group layer
//! under `jrs-sim`: four [`GcsProcess`]es on the default hub network, 200
//! broadcasts round-robin 20 ms apart, heap allocations counted over the
//! second hundred (the first hundred fills every reused buffer).
//!
//! Per broadcast, seed 23, release or debug alike:
//!
//! | commit | allocations | bytes |
//! |---|---|---|
//! | parent `01e364a` (an `Output` and its `Vec`s per call) | 80.2 | 24 650 |
//! | caller-owned buffers (`GroupHost` owns the one `Output`) | 31.8 | 5 748 |
//!
//! What is left is the simulator's: a `Box<Wire>` per frame sent, a boxed
//! event per upcall published through `Ctx::emit`, the event queue. The
//! ceilings below sit 10 % above the measured values, so the parent fails
//! them and any per-call `Vec` that creeps back in does too.
//!
//! An integration test is its own binary, so the counting allocator below
//! counts nothing but this file's one test.

use jrs_gcs::config::GroupConfig;
use jrs_gcs::simharness::{GcsCommand, GcsProcess};
use jrs_gcs::GcsEvent;
use jrs_sim::{NetworkConfig, ProcId, SimDuration, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics and allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Budgets for the hundred counted broadcasts together (integers: the
/// workspace bans floats outside the bench crate).
const ALLOCS_PER_HUNDRED_MAX: u64 = 3_500;
const BYTES_PER_HUNDRED_MAX: u64 = 632_300;

#[test]
fn ordered_broadcast_stays_inside_its_allocation_budget() {
    let mut world = World::with_network(23, NetworkConfig::default());
    let ids: Vec<ProcId> = (0..4).map(ProcId).collect();
    for id in &ids {
        let node = world.add_node(format!("head-{id}"));
        let member = GcsProcess::<u32>::new(*id, GroupConfig::default(), ids.clone());
        assert_eq!(world.add_process(node, member), *id);
    }
    world.run_for(SimDuration::from_millis(500));

    let mut delivered = 0;
    let mut round = |world: &mut World, first: u32| {
        for i in first..first + 100 {
            world.inject(ids[(i % 4) as usize], GcsCommand::Broadcast(i));
            world.run_for(SimDuration::from_millis(20));
        }
        world.run_for(SimDuration::from_millis(500));
        let events = world.take_emitted::<GcsEvent<u32>>();
        delivered += events
            .iter()
            .filter(|(_, _, ev)| matches!(ev, GcsEvent::Deliver { .. }))
            .count();
        assert!(
            events
                .iter()
                .all(|(_, _, ev)| matches!(ev, GcsEvent::Deliver { .. })),
            "a fault-free run installs no view and ejects nobody"
        );
    };
    round(&mut world, 0);
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    round(&mut world, 100);
    let allocs = ALLOCS.load(Relaxed) - allocs;
    let bytes = BYTES.load(Relaxed) - bytes;
    assert_eq!(delivered, 4 * 200, "every member delivers every broadcast");

    println!(
        "alloc_budget: {}.{} allocations, {} B per ordered broadcast (n4, second hundred)",
        allocs / 100,
        allocs % 100 / 10,
        bytes / 100
    );
    assert!(
        allocs <= ALLOCS_PER_HUNDRED_MAX,
        "{allocs} allocations per 100 broadcasts, budget {ALLOCS_PER_HUNDRED_MAX}"
    );
    assert!(
        bytes <= BYTES_PER_HUNDRED_MAX,
        "{bytes} B per 100 broadcasts, budget {BYTES_PER_HUNDRED_MAX}"
    );
}
