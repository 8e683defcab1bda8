//! Durable head-node storage: the glue between a [`JoshuaServer`] and the
//! `jrs-store` WAL/snapshot machinery on the head's local simulated disk.
//!
//! Three files per head:
//!
//! * `joshua.wal` — checksummed record-framed log of every applied
//!   command, keyed by the monotonic applied-command index (full history;
//!   compaction is a ROADMAP item).
//! * `joshua.snap` — periodic full [`ReplicaState`] snapshot with the
//!   index it covers; bounds WAL replay time and rescues recovery when
//!   the log is damaged beyond the snapshot point.
//! * `joshua.inc` — the group-membership incarnation last announced, so a
//!   restarted process rejoins with a strictly greater one (peers ignore
//!   stale join requests).
//!
//! Recovery tolerates exactly the damage the fault layer injects: a torn
//! tail (crash mid-write, or an armed [`jrs_sim::SimDisk`] torn-write
//! fault) is truncated to the last valid record; a CRC failure *before*
//! the tail is mid-log corruption — the log is quarantined with the
//! failing record's byte offset reported, and recovery falls back to the
//! snapshot alone, leaving the head to fetch the rest from its peers.
//!
//! [`JoshuaServer`]: crate::server::JoshuaServer

use crate::payload::{Payload, ReplicaState};
use jrs_sim::{SimDisk, SimTime};
use jrs_store::{Codec, SnapshotStore, Wal, WalError};

/// What recovery found on the local disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Snapshot state, if a valid snapshot file existed.
    pub state: Option<ReplicaState>,
    /// All decodable WAL entries `(applied_index, payload)` in log order —
    /// including those at or below the snapshot index (the caller uses the
    /// tail to rebuild its donation ring).
    pub entries: Vec<(u64, Payload)>,
    /// A torn tail was detected and truncated to the last valid record.
    pub torn_tail_truncated: bool,
    /// Mid-log corruption: the byte offset of the first bad record. The
    /// log was quarantined and only the snapshot (if any) was used.
    pub corruption_offset: Option<u64>,
    /// Persisted group incarnation (0 when never persisted).
    pub incarnation: u64,
}

/// Durable storage handle for one head. Stateless besides the file names;
/// all data lives on the per-node [`SimDisk`].
pub struct HeadStore {
    wal: Wal,
    snap: SnapshotStore,
    inc_path: String,
}

impl HeadStore {
    /// Store rooted at the conventional per-head file names.
    pub fn new() -> Self {
        HeadStore {
            wal: Wal::new("joshua.wal"),
            snap: SnapshotStore::new("joshua.snap"),
            inc_path: "joshua.inc".to_string(),
        }
    }

    /// Append one applied command to the WAL and fsync it durable.
    /// Returns false if the fsync did not land (disk stall fault): the
    /// record survives only until the next crash.
    pub fn log_command(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        payload: &Payload,
    ) -> bool {
        self.wal.append(disk, applied_index, &payload.to_bytes());
        disk.fsync(self.wal.path(), now)
    }

    /// Write a full-state snapshot covering `applied_index`. Publication
    /// is atomic (tmp + fsync + rename); on a stalled fsync the previous
    /// snapshot stays intact and this returns false.
    pub fn save_snapshot(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        state: &ReplicaState,
    ) -> bool {
        self.snap.save(disk, now, applied_index, &state.to_bytes())
    }

    /// Persist the group incarnation (overwrites; fsyncs).
    pub(crate) fn save_incarnation(&self, disk: &mut SimDisk, now: SimTime, incarnation: u64) {
        disk.truncate(&self.inc_path, 0);
        disk.append(&self.inc_path, &incarnation.to_bytes());
        disk.fsync(&self.inc_path, now);
    }

    /// Recover everything the disk still vouches for. Never fails: any
    /// damage degrades to less recovered state, with the damage reported
    /// in the returned [`Recovered`].
    pub fn recover(&self, disk: &mut SimDisk) -> Recovered {
        let mut rec = Recovered::default();

        if let Some(bytes) = disk.read(&self.inc_path) {
            if let Ok(inc) = u64::from_bytes(&bytes) {
                rec.incarnation = inc;
            }
        }

        let mut snap_index = 0;
        if let Some((index, state_bytes)) = self.snap.load(disk) {
            if let Ok(state) = ReplicaState::from_bytes(&state_bytes) {
                snap_index = index;
                rec.state = Some(state);
            }
        }

        match self.wal.replay(disk) {
            Ok(replay) => {
                if replay.torn {
                    self.wal.truncate_to(disk, replay.valid_len);
                    rec.torn_tail_truncated = true;
                }
                for (index, blob) in replay.entries {
                    match Payload::from_bytes(&blob) {
                        Ok(p) => rec.entries.push((index, p)),
                        // CRC-valid but undecodable can only be a code
                        // bug; treat like corruption at an unknown spot
                        // rather than silently skipping a command.
                        Err(_) => {
                            rec.corruption_offset = Some(u64::MAX);
                            rec.entries.retain(|(i, _)| *i <= snap_index);
                            self.wal.quarantine(disk);
                            break;
                        }
                    }
                }
            }
            Err(WalError::Corruption { offset }) => {
                // Mid-log damage: hard error with the record offset. The
                // snapshot (if any) is the only trustworthy local state.
                rec.corruption_offset = Some(offset);
                self.wal.quarantine(disk);
            }
        }
        rec
    }
}

impl Default for HeadStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_pbs::server::ServerSnapshot;
    use jrs_sim::ProcId;

    fn state(applied_index: u64) -> ReplicaState {
        ReplicaState {
            pbs: ServerSnapshot {
                jobs: vec![],
                next_id: 1,
                pool: Default::default(),
                running_since: vec![],
            },
            jmutex: crate::payload::JMutexState::new(),
            applied: vec![],
            needs_snapshot: vec![],
            applied_index,
            hellos: vec![],
        }
    }

    fn cmd(i: u64) -> Payload {
        Payload::JMutexRelease {
            job: jrs_pbs::JobId(i),
        }
    }

    #[test]
    fn snapshot_plus_wal_round_trip() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        assert!(store.save_snapshot(&mut disk, now, 2, &state(2)));
        for i in 1..=5 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
        }
        store.save_incarnation(&mut disk, now, 3);
        disk.on_crash();

        let rec = store.recover(&mut disk);
        assert_eq!(rec.incarnation, 3);
        assert_eq!(rec.state.as_ref().unwrap().applied_index, 2);
        assert_eq!(rec.entries.len(), 5, "full history kept");
        assert!(!rec.torn_tail_truncated);
        assert_eq!(rec.corruption_offset, None);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        for i in 1..=3 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
        }
        disk.arm_torn_write(4);
        assert!(store.log_command(&mut disk, now, 4, &cmd(4)));
        disk.on_crash(); // tears record 4 down to 4 bytes

        let rec = store.recover(&mut disk);
        assert!(rec.torn_tail_truncated);
        assert_eq!(rec.corruption_offset, None);
        let ids: Vec<u64> = rec.entries.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // The truncation is durable: a second recovery sees a clean log.
        let rec2 = store.recover(&mut disk);
        assert!(!rec2.torn_tail_truncated);
        assert_eq!(rec2.entries.len(), 3);
    }

    #[test]
    fn midlog_corruption_quarantines_with_offset() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        assert!(store.save_snapshot(&mut disk, now, 1, &state(1)));
        let mut first_len = 0;
        for i in 1..=3 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
            if i == 1 {
                first_len = u64::try_from(disk.durable_len("joshua.wal")).expect("fits");
            }
        }
        // Flip a byte inside record 2 (mid-log, not the tail).
        assert!(disk.corrupt_byte("joshua.wal", first_len + 9));
        let rec = store.recover(&mut disk);
        assert_eq!(
            rec.corruption_offset,
            Some(first_len),
            "offset of the bad record"
        );
        assert!(rec.entries.is_empty(), "snapshot-only recovery");
        assert_eq!(rec.state.as_ref().unwrap().applied_index, 1);
        assert!(disk.read("joshua.wal").is_none(), "log quarantined");
        assert!(disk.read("joshua.wal.corrupt").is_some());
        let _ = ProcId(0);
    }

    #[test]
    fn empty_disk_recovers_to_nothing() {
        let mut disk = SimDisk::new();
        let rec = HeadStore::new().recover(&mut disk);
        assert!(rec.state.is_none());
        assert!(rec.entries.is_empty());
        assert_eq!(rec.incarnation, 0);
    }
}
