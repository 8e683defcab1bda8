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
