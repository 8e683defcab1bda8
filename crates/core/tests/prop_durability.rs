//! Property test for the durability tentpole: for an arbitrary command
//! sequence and an arbitrary crash point, recovery from the local
//! snapshot + WAL reproduces the crashed replica's state fingerprint
//! exactly — also once the WAL has been compacted behind a snapshot, when
//! it holds only the last `RING_CAPACITY` records and those logged since, and
//! when a torn write then cuts the snapshot that just landed.
//!
//! A single-head cluster makes the property airtight: there is no peer
//! to donate a snapshot or delta, so everything the recovered replica
//! knows came off its own disk. The crashed process instance stays
//! readable in the harness after `crash_node`, which is what lets the
//! test capture the pre-crash fingerprint to compare against.

use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::persist::RING_CAPACITY;
use joshua_core::workload;
use jrs_sim::{SimDuration, SimTime};
use jrs_store::Wal;
use proptest::prelude::*;

/// The indices of the records in head 0's WAL.
fn wal_indices(c: &Cluster) -> Vec<u64> {
    let replay = Wal::new("joshua.wal").replay(c.world.disk(c.head_nodes[0]));
    let entries = replay.expect("an undamaged log").entries;
    entries.iter().map(|(idx, _)| *idx).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recovery_reproduces_precrash_fingerprint(
        n in 5usize..30,
        seed in 0u64..1000,
        crash_ms in 500u64..8000,
        snapshot_every in 4u64..48,
    ) {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 1 });
        cfg.persist = PersistConfig::durable();
        cfg.persist.snapshot_every = snapshot_every;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::mixed(n, seed));
        c.run_until(SimTime::ZERO + SimDuration::from_millis(crash_ms));

        // The dead instance stays readable until the restart replaces it.
        c.crash_head(0);
        let pre_index = c.joshua(0).applied_index();
        let pre_fingerprint = c.joshua(0).state_fingerprint();

        c.restart_joshua_head(0);
        c.run_until(SimTime::ZERO + SimDuration::from_millis(crash_ms) + SimDuration::from_secs(60));

        let h = c.joshua(0);
        let rec = h.recovery_report().expect("restart went through recovery");
        prop_assert_eq!(rec.recovered_index, pre_index, "index recovered exactly");
        prop_assert_eq!(
            rec.recovered_fingerprint, pre_fingerprint,
            "snapshot + WAL replay reproduced the crashed replica bit-exactly"
        );
        prop_assert!(rec.corruption_offset.is_none());
        prop_assert!(h.is_established(), "sole member re-established after recovery");
    }

    #[test]
    fn recovery_from_a_compacted_log_reproduces_precrash_fingerprint(
        seed in 0u64..1000,
        snapshot_every in 4u64..48,
        past in 0u64..64,
        torn in any::<bool>(),
    ) {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 1 });
        cfg.persist = PersistConfig::durable();
        cfg.persist.snapshot_every = snapshot_every;
        let mut c = Cluster::build(cfg);
        c.spawn_client(workload::mixed(400, seed));
        // Crash after the first compaction: a snapshot interval past
        // `RING_CAPACITY` records, then `past` records more. With `torn`, run on
        // to the next snapshot and crash as it lands, with a torn write
        // armed: it falls on that snapshot.
        let ring = u64::try_from(RING_CAPACITY).expect("fits");
        let mut crash_at = ring + snapshot_every + 1 + past;
        if torn {
            crash_at = crash_at.next_multiple_of(snapshot_every);
        }
        while c.joshua(0).applied_index() < crash_at {
            prop_assert!(c.take_dones().is_empty(), "the script ended before record {}", crash_at);
            let near = c.joshua(0).applied_index() + 2 >= crash_at;
            c.run_for(SimDuration::from_micros(if near { 10 } else { 5_000 }));
        }
        let held = wal_indices(&c);
        let last = c.joshua(0).applied_index();
        prop_assert_eq!(last, crash_at, "stepped past the crash point");
        prop_assert!(held[0] > 1, "the log was never compacted");
        prop_assert_eq!(
            held.clone(),
            (held[0]..=last).collect::<Vec<u64>>(),
            "the log holds a contiguous window ending at the applied index"
        );
        prop_assert!(
            held.len() <= RING_CAPACITY + usize::try_from(snapshot_every).expect("fits"),
            "the log holds {} records", held.len()
        );

        if torn {
            c.world.disk_mut(c.head_nodes[0]).arm_torn_write(16);
        }
        c.crash_head(0);
        let pre_index = c.joshua(0).applied_index();
        let pre_fingerprint = c.joshua(0).state_fingerprint();
        let crashed = c.world.now();
        c.restart_joshua_head(0);
        c.run_until(crashed + SimDuration::from_secs(5));

        let h = c.joshua(0);
        let rec = h.recovery_report().expect("restart went through recovery");
        prop_assert_eq!(rec.recovered_index, pre_index, "index recovered exactly");
        prop_assert_eq!(
            rec.recovered_fingerprint, pre_fingerprint,
            "snapshot + the log's window reproduced the crashed replica bit-exactly"
        );
        if torn {
            prop_assert_eq!(
                rec.wal_replayed,
                usize::try_from(snapshot_every).expect("fits"),
                "recovery fell back to the older snapshot"
            );
        }
        prop_assert!(rec.corruption_offset.is_none());
        prop_assert!(h.is_established(), "sole member re-established after recovery");
    }
}
