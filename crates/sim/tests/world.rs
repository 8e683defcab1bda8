//! Integration coverage for network counters and world inspection
//! utilities.

use jrs_sim::{Ctx, Msg, NetworkConfig, ProcId, Process, SimDuration, SimTime, World};

struct Chatter {
    peer: Option<ProcId>,
    count: u32,
}

impl Process for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(p) = self.peer {
            for i in 0..self.count {
                ctx.send(p, i);
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, _msg: Msg) {}
}

#[test]
fn network_counters_reflect_traffic() {
    let mut w = World::with_network(3, NetworkConfig::default());
    let a = w.add_node("a");
    let b = w.add_node("b");
    let rx = w.add_process(
        b,
        Chatter {
            peer: None,
            count: 0,
        },
    );
    let _tx = w.add_process(
        a,
        Chatter {
            peer: Some(rx),
            count: 10,
        },
    );
    w.run_until_idle();
    assert_eq!(w.network().sent, 10);
    assert!(w.network().bytes_sent >= 10 * 512);
    assert_eq!(w.network().dropped_partition, 0);
}

#[test]
fn procs_on_lists_only_live_processes() {
    let mut w = World::with_network(0, NetworkConfig::ideal());
    let n = w.add_node("x");
    let p1 = w.add_process(
        n,
        Chatter {
            peer: None,
            count: 0,
        },
    );
    let p2 = w.add_process(
        n,
        Chatter {
            peer: None,
            count: 0,
        },
    );
    assert_eq!(w.procs_on(n), vec![p1, p2]);
    w.kill_proc(p1);
    assert_eq!(w.procs_on(n), vec![p2]);
    assert_eq!(w.node_of(p2), n);
    assert_eq!(w.node_count(), 1);
}

#[test]
fn run_for_advances_relative_time() {
    let mut w = World::new(0);
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.now(), SimTime::ZERO + SimDuration::from_secs(5));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.now(), SimTime::ZERO + SimDuration::from_secs(10));
}

/// Emits `0..6` interleaved as two types: even values as `u32`, odd ones
/// as `u64`.
struct Interleaved;

impl Process for Interleaved {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..6_u32 {
            if i % 2 == 0 {
                ctx.emit(i);
            } else {
                ctx.emit(u64::from(i));
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, _msg: Msg) {}
}

#[test]
fn take_emitted_takes_one_type_and_keeps_the_rest_in_order() {
    let mut w = World::new(0);
    let n = w.add_node("x");
    let p = w.add_process(n, Interleaved);
    w.run_until_idle();

    let values = |taken: &[(SimTime, ProcId, u64)]| -> Vec<u64> {
        assert!(taken
            .iter()
            .all(|&(at, from, _)| at == SimTime::ZERO && from == p));
        taken.iter().map(|&(_, _, v)| v).collect()
    };
    let evens = w.take_emitted::<u32>();
    assert_eq!(
        evens.capacity(),
        evens.len(),
        "a take is sized to its matches"
    );
    let evens: Vec<(SimTime, ProcId, u64)> = evens
        .into_iter()
        .map(|(at, from, v)| (at, from, u64::from(v)))
        .collect();
    assert_eq!(values(&evens), [0, 2, 4]);

    let none = w.take_emitted::<u32>();
    assert!(none.is_empty());
    assert_eq!(
        none.capacity(),
        0,
        "a take that matches nothing allocates nothing"
    );
    assert_eq!(w.take_emitted::<&str>().capacity(), 0);

    let odds = w.take_emitted::<u64>();
    assert_eq!(
        values(&odds),
        [1, 3, 5],
        "the other type, later, in emission order"
    );
    assert_eq!(
        odds.capacity(),
        odds.len(),
        "a take is sized to its matches"
    );
    assert!(w.take_emitted::<u64>().is_empty());
}
