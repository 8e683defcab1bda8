//! Durable head-node storage: the glue between a [`JoshuaServer`] and the
//! `jrs-store` WAL/snapshot machinery on the head's local simulated disk.
//!
//! Three files per head:
//!
//! * `joshua.wal` — checksummed record-framed log of applied commands,
//!   keyed by the monotonic applied-command index. It is a window, not
//!   the full history: the records the head's donation ring holds, every
//!   record after the older of the two snapshots, and those logged
//!   since. Each time a snapshot lands the server drops the records in
//!   front of those ([`HeadStore::compact_wal`]), so with a snapshot
//!   interval no longer than the ring the log holds at most the ring's
//!   capacity plus one snapshot interval of records.
//! * `joshua.snap.0`, `joshua.snap.1` — two slots of periodic full
//!   [`ReplicaState`] snapshots with the index each covers, written in
//!   turn: each snapshot replaces the older one. The newest valid one is
//!   the base the log's window is replayed on and what rescues recovery
//!   when the log is damaged beyond it; should it be torn as it lands or
//!   corrupted later, recovery falls back to the other one and the
//!   records after it, which the log still holds.
//! * `joshua.inc` — the group-membership incarnation, so a restarted
//!   process rejoins with a strictly greater one (peers ignore stale join
//!   requests). It is replaced atomically ([`SimDisk::replace_with`]),
//!   and a restarted head joins only once it landed, so a stalled disk
//!   cannot leave it behind what the head announced.
//!
//! Every write is encoded once, straight into the file's buffer on the
//! [`SimDisk`]: a command into its framed WAL record
//! ([`jrs_store::Wal::append_with`]), a snapshot from the live replica
//! (`Replica::encode_state`) into the buffer of the snapshot file it
//! replaces ([`HeadStore::save_snapshot_with`]), so a snapshot allocates
//! only when it outgrows the last one. [`HeadStore::save_snapshot`],
//! which takes a built [`ReplicaState`], is a thin wrapper over the
//! latter.
//!
//! Recovery tolerates exactly the damage the fault layer injects: a torn
//! tail (crash mid-write, or an armed [`jrs_sim::SimDisk`] torn-write
//! fault) is truncated to the last valid record; a CRC failure *before*
//! the tail is mid-log corruption — the log is quarantined with the
//! failing record's byte offset reported, and recovery falls back to the
//! snapshot alone, leaving the head to fetch the rest from its peers. A
//! snapshot that fails its checksum is ignored and the other slot's is
//! used. With neither valid, the log alone rebuilds the state while it
//! still starts at the first command; once it has been compacted the
//! head has no local base and rejoins by a full snapshot from a peer.
//!
//! [`JoshuaServer`]: crate::server::JoshuaServer

use crate::payload::{Payload, ReplicaState};
use jrs_sim::{SimDisk, SimTime};
use jrs_store::{Codec, SnapshotStore, Wal, WalError};
use std::cell::Cell;

/// What recovery found on the local disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The newest valid snapshot's state, if either slot held one.
    pub state: Option<ReplicaState>,
    /// Every decodable record of the WAL's window `(applied_index,
    /// payload)` in log order — the donation ring's, some at or below the
    /// snapshot index (the caller rebuilds its ring from them), then
    /// those logged since.
    pub entries: Vec<(u64, Payload)>,
    /// A torn tail was detected and truncated to the last valid record.
    pub torn_tail_truncated: bool,
    /// Mid-log corruption: the byte offset of the first bad record. The
    /// log was quarantined and only the snapshot (if any) was used.
    pub corruption_offset: Option<u64>,
    /// Persisted group incarnation (0 when never persisted).
    pub incarnation: u64,
}

/// Durable storage handle for one head. All data lives on the per-node
/// [`SimDisk`]; the handle remembers only which snapshot slot to write
/// next and what the other one holds.
pub struct HeadStore {
    wal: Wal,
    slots: Cell<Slots>,
}

/// What a [`HeadStore`] knows of its two snapshot slots ([`SNAPS`]),
/// from recovery and from the snapshots it has written since.
#[derive(Clone, Copy, Default)]
struct Slots {
    /// The slot the next snapshot is written over (`true` for the
    /// second): never the one holding the newest valid snapshot.
    next: bool,
    /// The other slot holds a valid snapshot, the newest.
    newest: bool,
    /// The index of the valid snapshot slot `next` holds, older than the
    /// newest: what recovery falls back to should the newest be torn, so
    /// the log keeps every record after it.
    older: Option<u64>,
}

/// The snapshot slots, written in turn.
const SNAPS: [SnapshotStore; 2] = [
    SnapshotStore::new("joshua.snap.0"),
    SnapshotStore::new("joshua.snap.1"),
];

/// The incarnation file.
const INC: &str = "joshua.inc";

impl HeadStore {
    /// Store rooted at the conventional per-head file names.
    pub fn new() -> Self {
        HeadStore {
            wal: Wal::new("joshua.wal"),
            slots: Cell::default(),
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
        self.wal
            .append_with(disk, applied_index, |out| payload.encode(out));
        disk.fsync(self.wal.path(), now)
    }

    /// Drop all but the WAL's last `keep` records, in place and without
    /// allocating ([`Wal::keep_last`]), where `last` is the index of the
    /// last record logged. Every record after the older of the two
    /// snapshots stays, however many there are, so a torn or corrupted
    /// newest snapshot still falls back to the older one and those
    /// records; with no older snapshot nothing is dropped. Returns the
    /// number of records dropped.
    pub fn compact_wal(&self, disk: &mut SimDisk, last: u64, keep: usize) -> usize {
        let Some(older) = self.slots.get().older else {
            return 0;
        };
        let since = usize::try_from(last.saturating_sub(older)).unwrap_or(usize::MAX);
        self.wal.keep_last(disk, keep.max(since))
    }

    /// Write a full-state snapshot covering `applied_index` over the
    /// older of the two slots. The file is replaced atomically; on a
    /// stalled fsync the old one stays intact and this returns false.
    pub fn save_snapshot(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        state: &ReplicaState,
    ) -> bool {
        self.save_snapshot_with(disk, now, applied_index, |out| state.encode(out))
    }

    /// [`Self::save_snapshot`] with the [`ReplicaState`] bytes written by
    /// `encode` straight into the snapshot file.
    pub fn save_snapshot_with(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let slots = self.slots.get();
        let next = usize::from(slots.next);
        if !SNAPS[next].save_with(disk, now, applied_index, encode) {
            return false;
        }
        let other = SNAPS[1 - next];
        let other_index = other.index_on_disk(disk);
        // Recovery takes the highest valid index, and an installed state
        // can move the index back: a snapshot at or past this one's is of
        // a discarded state.
        if other_index.is_some_and(|i| i >= applied_index) {
            other.discard(disk);
        }
        self.slots.set(Slots {
            next: !slots.next,
            newest: true,
            older: other_index.filter(|i| slots.newest && *i < applied_index),
        });
        true
    }

    /// The newest valid snapshot, `(applied_index, state_bytes)`, from
    /// whichever slot holds it; the next snapshot is written over the
    /// other slot.
    pub fn load_snapshot(&self, disk: &SimDisk) -> Option<(u64, Vec<u8>)> {
        let valid = SNAPS.map(|slot| slot.valid_index(disk));
        // `None` orders below any index.
        let newest = usize::from(valid[1] > valid[0]);
        self.slots.set(Slots {
            next: newest == 0,
            newest: valid[newest].is_some(),
            older: valid[1 - newest],
        });
        valid[newest]?;
        SNAPS[newest].load(disk)
    }

    /// Persist the group incarnation, replacing the old value atomically.
    /// Returns false when the fsync did not land: the file still holds
    /// the previous value, and the caller retries.
    pub(crate) fn save_incarnation(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        incarnation: u64,
    ) -> bool {
        disk.replace_with(INC, now, |out| incarnation.encode(out))
    }

    /// Recover everything the disk still vouches for. Never fails: any
    /// damage degrades to less recovered state, with the damage reported
    /// in the returned [`Recovered`].
    pub fn recover(&self, disk: &mut SimDisk) -> Recovered {
        let mut rec = Recovered::default();

        if let Some(bytes) = disk.read(INC) {
            if let Ok(inc) = u64::from_bytes(&bytes) {
                rec.incarnation = inc;
            }
        }

        let mut snap_index = 0;
        if let Some((index, state_bytes)) = self.load_snapshot(disk) {
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
        assert!(store.save_incarnation(&mut disk, now, 3));
        disk.on_crash();

        let rec = store.recover(&mut disk);
        assert_eq!(rec.incarnation, 3);
        assert_eq!(rec.state.as_ref().unwrap().applied_index, 2);
        assert_eq!(rec.entries.len(), 5, "the store compacts only when asked");
        assert!(!rec.torn_tail_truncated);
        assert_eq!(rec.corruption_offset, None);
    }

    /// The indices of the records recovery finds in the log.
    fn logged(store: &HeadStore, disk: &mut SimDisk) -> Vec<u64> {
        let rec = store.recover(disk);
        rec.entries.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn compaction_keeps_every_record_after_the_older_snapshot() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        for i in 1..=10 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
        }
        assert_eq!(store.compact_wal(&mut disk, 10, 2), 0, "no snapshot");
        assert!(store.save_snapshot(&mut disk, now, 4, &state(4)));
        assert_eq!(
            store.compact_wal(&mut disk, 10, 2),
            0,
            "no older snapshot: the whole log is the fallback"
        );
        assert!(store.save_snapshot(&mut disk, now, 6, &state(6)));
        // Six records follow the older snapshot, more than the two asked for.
        assert_eq!(store.compact_wal(&mut disk, 10, 2), 4);
        assert!(store.save_snapshot(&mut disk, now, 9, &state(9)));
        assert_eq!(store.compact_wal(&mut disk, 10, 2), 2);
        assert_eq!(logged(&store, &mut disk), vec![7, 8, 9, 10]);
    }

    #[test]
    fn a_torn_newest_snapshot_falls_back_to_the_older_one() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        for i in 1..=10 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
        }
        assert!(store.save_snapshot(&mut disk, now, 4, &state(4)));
        assert!(store.save_snapshot(&mut disk, now, 8, &state(8)));
        assert_eq!(store.compact_wal(&mut disk, 10, 1), 4);
        // The snapshot at 8 was the last fsync: a torn write cuts it.
        disk.arm_torn_write(16);
        disk.on_crash();

        let store = HeadStore::new();
        let rec = store.recover(&mut disk);
        assert_eq!(rec.state.as_ref().map(|s| s.applied_index), Some(4));
        let ids: Vec<u64> = rec.entries.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (5..=10).collect::<Vec<u64>>(), "the log after it");
        // The next snapshot is written over the torn one, not the base.
        assert!(store.save_snapshot(&mut disk, now, 10, &state(10)));
        assert_eq!(store.compact_wal(&mut disk, 10, 1), 0, "all after 4 stay");
        disk.arm_torn_write(16);
        disk.on_crash();
        let rec = HeadStore::new().recover(&mut disk);
        assert_eq!(rec.state.map(|s| s.applied_index), Some(4));
    }

    #[test]
    fn recovery_takes_the_newest_valid_snapshot() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        for i in [3, 5, 7] {
            assert!(store.save_snapshot(&mut disk, now, i, &state(i)));
        }
        let newest = |disk: &SimDisk| HeadStore::new().load_snapshot(disk).map(|(i, _)| i);
        assert_eq!(newest(&disk), Some(7));
        // Corrupt it: the other slot's, at 5, is next.
        assert!(disk.corrupt_byte("joshua.snap.0", 20));
        assert_eq!(newest(&disk), Some(5));
        assert!(disk.corrupt_byte("joshua.snap.1", 20));
        assert_eq!(newest(&disk), None);
    }

    #[test]
    fn a_snapshot_at_or_past_the_new_index_is_discarded() {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        for i in 1..=10 {
            assert!(store.log_command(&mut disk, now, i, &cmd(i)));
        }
        assert!(store.save_snapshot(&mut disk, now, 9, &state(9)));
        // An installed state moves the index back.
        assert!(store.save_snapshot(&mut disk, now, 5, &state(5)));
        assert_eq!(
            HeadStore::new().load_snapshot(&disk).map(|(i, _)| i),
            Some(5),
            "the snapshot of the discarded state no longer loads"
        );
        assert_eq!(store.compact_wal(&mut disk, 10, 1), 0, "no older snapshot");
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
