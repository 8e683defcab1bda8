//! Golden pin of how `JoshuaServer` embeds the group member in a sim
//! process: frames on the wire, bytes, kernel events and the exact
//! per-command latencies of three small clusters. Fig 10 sees these only
//! through rounded milliseconds; a refactor of the send / charge / tick
//! path must leave every number here untouched. Do not regenerate the
//! constants to make such a refactor pass.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::workload;
use jrs_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn cluster(heads: usize, persist: PersistConfig) -> Cluster {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.seed = 2006;
    cfg.persist = persist;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(12));
    c
}

/// Run 120 s further, then compare `(now, events, frames, bytes,
/// latency fingerprint)` with the pinned tuple.
fn finish(mut c: Cluster, want: (u64, u64, u64, u64, u64)) {
    c.run_for(SimDuration::from_secs(120));
    let lat_ns: Vec<u64> = c
        .take_records()
        .iter()
        .map(|r| r.latency.as_nanos())
        .collect();
    assert_eq!(lat_ns.len(), 12, "every command answered");
    let net = c.world.network();
    let got = (
        c.world.now().as_nanos(),
        c.world.events_processed(),
        net.sent,
        net.bytes_sent,
        jrs_sim::fingerprint(&lat_ns),
    );
    assert_eq!(
        got, want,
        "got fingerprint {:016x}, want {:016x}",
        got.4, want.4
    );
}

#[test]
fn one_head_diskless() {
    finish(
        cluster(1, PersistConfig::default()),
        (120_000_000_000, 24150, 98, 50176, 0x3cde_e769_7ced_fa5b),
    );
}

#[test]
fn four_heads_diskless() {
    finish(
        cluster(4, PersistConfig::default()),
        (
            120_000_000_000,
            133_633,
            37554,
            3_429_616,
            0xe480_874b_57c0_c439,
        ),
    );
}

#[test]
fn three_heads_durable_crash_and_restart() {
    let mut c = cluster(3, PersistConfig::durable());
    c.run_until(secs(2));
    c.crash_head(1);
    c.run_until(secs(5));
    c.restart_joshua_head(1);
    finish(
        c,
        (
            125_000_000_000,
            92696,
            18218,
            1_637_808,
            0x3b20_ca72_5981_4b9b,
        ),
    );
}
