//! Durable head-node storage: the glue between a [`JoshuaServer`] and the
//! `jrs-store` WAL/snapshot machinery on the head's local simulated disk.
//!
//! Three files per head:
//!
//! * `joshua.wal` — checksummed record-framed log of applied commands,
//!   keyed by the monotonic applied-command index. It is a window, not
//!   the full history: the last [`RING_CAPACITY`] records, which a delta
//!   is read from ([`HeadStore::delta`]), every record after the
//!   older of the two snapshots, and those logged since. Each time a
//!   snapshot lands the server drops the records in front of those
//!   ([`HeadStore::compact_wal`]), so with a snapshot interval no longer
//!   than [`RING_CAPACITY`] the log holds at most that many plus one
//!   snapshot interval of records.
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

/// The most commands a delta carries; a joiner further behind gets a snapshot.
pub const RING_CAPACITY: usize = 256;

/// What recovery found on the local disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The newest valid snapshot's state, if either slot held one.
    pub state: Option<ReplicaState>,
    /// The WAL's run of records `(applied_index, payload)` that follows
    /// the snapshot's index (0 without one): what the caller replays on
    /// top. Older records are not decoded.
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
    /// The index of the newest valid snapshot, which the other slot holds.
    newest: Option<u64>,
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

    /// The commands logged after index `after` up to `last`, the applied
    /// index: the delta for a target at `after`, read in place from the
    /// log as [`SimDisk::read`] shows it (volatile tail included), only
    /// its records decoded. `None` unless they are the log's last records,
    /// at most [`RING_CAPACITY`], with consecutive indices, and decode.
    pub fn delta(&self, disk: &SimDisk, after: u64, last: u64) -> Option<Vec<(u64, Payload)>> {
        let missing = usize::try_from(last.checked_sub(after)?).ok()?;
        if missing > RING_CAPACITY {
            return None;
        }
        let skip = self.wal.records(disk).count().checked_sub(missing)?;
        let mut entries = Vec::with_capacity(missing);
        for ((idx, blob), want) in self.wal.records(disk).skip(skip).zip(after + 1..) {
            if idx != want {
                return None;
            }
            entries.push((idx, Payload::from_bytes(blob).ok()?));
        }
        Some(entries)
    }

    /// Drop the WAL's records in front of the last [`RING_CAPACITY`] and
    /// of every record after the older snapshot, which a torn or corrupted
    /// newest one falls back to, in place and without allocating
    /// ([`Wal::keep_last`]); `last` is the index of the last record
    /// logged. With no older snapshot nothing is dropped. Returns the
    /// number of records dropped.
    pub fn compact_wal(&self, disk: &mut SimDisk, last: u64) -> usize {
        let Some(older) = self.slots.get().older else {
            return 0;
        };
        let since = usize::try_from(last.saturating_sub(older)).unwrap_or(usize::MAX);
        self.wal.keep_last(disk, RING_CAPACITY.max(since))
    }

    /// Forget the replicated state on disk, as an ejection or an install
    /// discards it: truncate the WAL and discard both snapshot slots
    /// (durable metadata operations). The incarnation stays.
    pub(crate) fn reset(&self, disk: &mut SimDisk) {
        self.wal.truncate_to(disk, 0);
        for slot in SNAPS {
            slot.discard(disk);
        }
        self.slots.set(Slots::default());
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
        self.slots.set(Slots {
            next: !slots.next,
            newest: Some(applied_index),
            older: slots.newest,
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
            newest: valid[newest],
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
                // Decode only the run of records after the snapshot.
                let run = replay
                    .entries
                    .into_iter()
                    .skip_while(|(i, _)| *i <= snap_index);
                for ((index, blob), next) in run.zip(snap_index + 1..) {
                    if index != next {
                        break;
                    }
                    match Payload::from_bytes(&blob) {
                        Ok(p) => rec.entries.push((index, p)),
                        // CRC-valid but undecodable can only be a code
                        // bug; treat like corruption at an unknown spot
                        // rather than silently skipping a command.
                        Err(_) => {
                            rec.corruption_offset = Some(u64::MAX);
                            rec.entries.clear();
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
        let ids: Vec<u64> = rec.entries.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![3, 4, 5], "the records after the snapshot");
        assert_eq!(
            logged(&store, &disk).len(),
            5,
            "the store compacts only when asked"
        );
        assert!(!rec.torn_tail_truncated);
        assert_eq!(rec.corruption_offset, None);
    }

    /// The indices of the records in the log.
    fn logged(store: &HeadStore, disk: &SimDisk) -> Vec<u64> {
        store.wal.records(disk).map(|(i, _)| i).collect()
    }

    /// A store whose log holds commands `1..=n`, fsynced.
    fn log_of(n: u64) -> (HeadStore, SimDisk) {
        let mut disk = SimDisk::new();
        let store = HeadStore::new();
        for i in 1..=n {
            assert!(store.log_command(&mut disk, SimTime::ZERO, i, &cmd(i)));
        }
        (store, disk)
    }

    #[test]
    fn compaction_keeps_every_record_after_the_older_snapshot() {
        let (store, mut disk) = log_of(300);
        let now = SimTime::ZERO;
        assert_eq!(store.compact_wal(&mut disk, 300), 0, "no snapshot");
        assert!(store.save_snapshot(&mut disk, now, 4, &state(4)));
        assert_eq!(
            store.compact_wal(&mut disk, 300),
            0,
            "no older snapshot: the whole log is the fallback"
        );
        assert!(store.save_snapshot(&mut disk, now, 6, &state(6)));
        // 296 records follow the older snapshot, more than RING_CAPACITY.
        assert_eq!(store.compact_wal(&mut disk, 300), 4);
        assert!(store.save_snapshot(&mut disk, now, 290, &state(290)));
        assert_eq!(store.compact_wal(&mut disk, 300), 2);
        assert!(store.save_snapshot(&mut disk, now, 299, &state(299)));
        assert_eq!(store.compact_wal(&mut disk, 300), 294 - 256);
        assert_eq!(logged(&store, &disk), (45..=300).collect::<Vec<u64>>());
    }

    #[test]
    fn a_torn_newest_snapshot_falls_back_to_the_older_one() {
        let (store, mut disk) = log_of(300);
        let now = SimTime::ZERO;
        assert!(store.save_snapshot(&mut disk, now, 40, &state(40)));
        assert!(store.save_snapshot(&mut disk, now, 290, &state(290)));
        assert_eq!(store.compact_wal(&mut disk, 300), 40);
        // The snapshot at 290 was the last fsync: a torn write cuts it.
        disk.arm_torn_write(16);
        disk.on_crash();

        let store = HeadStore::new();
        let rec = store.recover(&mut disk);
        assert_eq!(rec.state.as_ref().map(|s| s.applied_index), Some(40));
        let ids: Vec<u64> = rec.entries.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (41..=300).collect::<Vec<u64>>(), "the log after it");
        // The next snapshot is written over the torn one, not the base.
        assert!(store.save_snapshot(&mut disk, now, 300, &state(300)));
        assert_eq!(store.compact_wal(&mut disk, 300), 0, "all after 40 stay");
        disk.arm_torn_write(16);
        disk.on_crash();
        let rec = HeadStore::new().recover(&mut disk);
        assert_eq!(rec.state.map(|s| s.applied_index), Some(40));
    }

    #[test]
    fn a_delta_is_the_last_contiguous_run_of_the_log() {
        let (store, mut disk) = log_of(300);
        let delta = |disk: &SimDisk, after, last| {
            let entries = store.delta(disk, after, last)?;
            let ids: Vec<u64> = entries.iter().map(|(i, _)| *i).collect();
            let same = entries
                .iter()
                .all(|(i, p)| p.to_bytes() == cmd(*i).to_bytes());
            assert!(same, "a delta decodes the logged commands");
            Some(ids)
        };
        assert_eq!(delta(&disk, 300, 300), Some(vec![]), "nothing missing");
        assert_eq!(delta(&disk, 290, 300), Some((291..=300).collect()));
        assert_eq!(delta(&disk, 44, 300).map(|ids| ids.len()), Some(256));
        assert_eq!(delta(&disk, 43, 300), None, "past RING_CAPACITY");
        assert_eq!(delta(&disk, 290, 299), None, "the log must end at 299");
        // Records a stalled disk holds in the volatile tail are donated.
        disk.stall_until(SimTime::ZERO + jrs_sim::SimDuration::from_secs(1));
        for i in 301..=302 {
            assert!(!store.log_command(&mut disk, SimTime::ZERO, i, &cmd(i)));
        }
        assert_eq!(delta(&disk, 299, 302), Some(vec![300, 301, 302]));
        // A run starts after a gap in the indices.
        assert!(!store.log_command(&mut disk, SimTime::ZERO, 900, &cmd(900)));
        assert_eq!(delta(&disk, 899, 900), Some(vec![900]));
        assert_eq!(delta(&disk, 898, 900), None, "898 is not logged");
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
    fn a_reset_keeps_only_the_incarnation() {
        let (store, mut disk) = log_of(10);
        let now = SimTime::ZERO;
        assert!(store.save_snapshot(&mut disk, now, 4, &state(4)));
        assert!(store.save_snapshot(&mut disk, now, 9, &state(9)));
        assert!(store.save_incarnation(&mut disk, now, 3));
        store.reset(&mut disk);
        disk.on_crash();
        let rec = HeadStore::new().recover(&mut disk);
        assert!(rec.state.is_none(), "no snapshot survives");
        assert!(rec.entries.is_empty(), "no record survives");
        assert_eq!(rec.incarnation, 3);
        // The next life starts afresh, at a lower index.
        assert!(store.log_command(&mut disk, now, 6, &cmd(6)));
        assert!(store.save_snapshot(&mut disk, now, 6, &state(6)));
        assert_eq!(store.compact_wal(&mut disk, 6), 0, "no older snapshot");
        let rec = HeadStore::new().recover(&mut disk);
        assert_eq!(rec.state.map(|s| s.applied_index), Some(6));
        assert_eq!(logged(&store, &disk), vec![6]);
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
