//! Property-based tests of the simulation kernel: deterministic replay,
//! event-order integrity, network-model bounds and histogram correctness.

use jrs_sim::metrics::DurationHistogram;
use jrs_sim::network::{Latency, Network, NetworkConfig, Outcome};
use jrs_sim::{
    Ctx, Msg, NetworkConfig as NC, NodeId, ProcId, Process, SimDuration, SimTime, World,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A process that relays each received number to a random-ish peer, with
/// bounded hop count, recording what it saw.
struct Relay {
    peers: Vec<ProcId>,
    seen: Vec<u32>,
}

impl Process for Relay {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        let v = *msg.downcast::<u32>().unwrap();
        self.seen.push(v);
        if v > 0 && !self.peers.is_empty() {
            let next = self.peers[v as usize % self.peers.len()];
            ctx.send(next, v - 1);
        }
    }
}

fn run_world(seed: u64, nodes: u32, injections: &[(u32, u32)]) -> (u64, Vec<Vec<u32>>) {
    let mut w = World::with_network(seed, NC::default());
    let mut procs = Vec::new();
    for i in 0..nodes {
        let n = w.add_node(format!("n{i}"));
        procs.push((n, i));
    }
    let ids: Vec<ProcId> = (0..nodes).map(ProcId).collect();
    for (n, _) in &procs {
        let _ = w.add_process(
            *n,
            Relay {
                peers: ids.clone(),
                seen: vec![],
            },
        );
    }
    for &(to, v) in injections {
        w.inject(ProcId(to % nodes), v % 64);
    }
    w.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let seen: Vec<Vec<u32>> = ids
        .iter()
        .map(|p| w.proc_ref::<Relay>(*p).unwrap().seen.clone())
        .collect();
    (w.events_processed(), seen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Same seed + same inputs ⇒ identical event counts and identical
    /// per-process observation sequences, regardless of workload shape.
    #[test]
    fn deterministic_replay(
        seed in any::<u64>(),
        nodes in 1u32..6,
        injections in prop::collection::vec((any::<u32>(), any::<u32>()), 0..20),
    ) {
        let a = run_world(seed, nodes, &injections);
        let b = run_world(seed, nodes, &injections);
        prop_assert_eq!(a, b);
    }

    /// Message conservation: each injected message with value v produces a
    /// chain of exactly v+1 observations (relays decrement to zero); the
    /// default network drops nothing.
    #[test]
    fn message_conservation(
        seed in any::<u64>(),
        injections in prop::collection::vec((any::<u32>(), 0u32..32), 1..12),
    ) {
        let (_, seen) = run_world(seed, 3, &injections);
        let total: usize = seen.iter().map(|s| s.len()).sum();
        let expected: usize = injections.iter().map(|&(_, v)| (v % 64) as usize + 1).sum();
        prop_assert_eq!(total, expected);
    }

    /// Latency distributions respect their declared bounds.
    #[test]
    fn uniform_latency_bounds(
        seed in any::<u64>(),
        lo_us in 1u64..500,
        width_us in 0u64..500,
    ) {
        let min = SimDuration::from_micros(lo_us);
        let max = SimDuration::from_micros(lo_us + width_us);
        let lat = Latency::Uniform { min, max };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = lat.sample(&mut rng);
            prop_assert!(s >= min && s <= max);
        }
    }

    /// The network model never *delays* into the past and delivers iff no
    /// loss/partition applies.
    #[test]
    fn route_outcomes_sane(
        seed in any::<u64>(),
        bytes in 1u32..9000,
        drop_prob in 0u32..=1000,
    ) {
        let mut cfg = NetworkConfig::ideal();
        cfg.lan.drop_prob = drop_prob;
        let mut net = Network::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut delivered = 0u32;
        for _ in 0..100 {
            match net.route(&mut rng, SimTime::ZERO, NodeId(0), NodeId(1), bytes) {
                Outcome::Deliver(d) => {
                    delivered += 1;
                    prop_assert!(d >= SimDuration::ZERO);
                }
                Outcome::Drop(_) => {}
            }
        }
        if drop_prob == 0 {
            prop_assert_eq!(delivered, 100);
        }
        prop_assert_eq!(net.sent, 100);
        prop_assert_eq!(net.dropped_loss as u32 + delivered, 100);
    }

    /// Histogram quantiles agree with a naive sorted-vector oracle.
    #[test]
    fn histogram_matches_oracle(
        samples in prop::collection::vec(0u64..10_000_000, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut h = DurationHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        prop_assert_eq!(
            h.quantile(q),
            Some(SimDuration::from_nanos(sorted[idx]))
        );
        let mean: u128 = samples.iter().map(|&s| s as u128).sum::<u128>()
            / samples.len() as u128;
        prop_assert_eq!(h.mean(), Some(SimDuration::from_nanos(mean as u64)));
    }

    /// Timers fire exactly once, in order, at the requested times.
    #[test]
    fn timers_fire_in_order(
        delays in prop::collection::vec(1u64..10_000, 1..30),
    ) {
        struct T { delays: Vec<u64>, fired: Vec<(u64, u64)> }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for (i, &d) in self.delays.iter().enumerate() {
                    ctx.set_timer(SimDuration::from_micros(d), i as u64);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: jrs_sim::TimerId, tag: u64) {
                self.fired.push((ctx.now().as_nanos(), tag));
            }
        }
        let mut w = World::with_network(1, NC::ideal());
        let n = w.add_node("x");
        let p = w.add_process(n, T { delays: delays.clone(), fired: vec![] });
        w.run_until_idle();
        let t = w.proc_ref::<T>(p).unwrap();
        prop_assert_eq!(t.fired.len(), delays.len());
        // Fire times are sorted and match the requested delays multiset.
        for w2 in t.fired.windows(2) {
            prop_assert!(w2[0].0 <= w2[1].0);
        }
        let mut want: Vec<u64> = delays.iter().map(|d| d * 1000).collect();
        let mut got: Vec<u64> = t.fired.iter().map(|(at, _)| *at).collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
