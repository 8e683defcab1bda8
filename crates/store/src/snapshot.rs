//! Durable snapshot publication: the file is replaced atomically.
//!
//! A snapshot captures the full replica state at one applied index so
//! recovery does not have to replay the WAL from the beginning of time,
//! and so the WAL can be compacted behind it. The file is CRC-framed
//! like a WAL record; a snapshot that fails its checksum is ignored, so
//! a half-written or corrupted snapshot can never poison a replica.
//! A caller that compacts its log behind snapshots keeps two stores and
//! writes them in turn, so a bad newest snapshot falls back to the older
//! one and the log records after it.
//!
//! A snapshot is published with [`SimDisk::replace_with`], the
//! write-temp / fsync / rename idiom as one disk operation: the state is
//! encoded ([`SnapshotStore::save_with`]) straight into the buffer of the
//! file it replaces, so publishing one allocates only when it outgrows
//! every snapshot before it, however long the job history it carries.

use crate::crc::crc32;
use jrs_sim::{SimDisk, SimTime};

/// A snapshot slot bound to one file path on a node's disk.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStore {
    path: &'static str,
}

impl SnapshotStore {
    /// A snapshot store living at `path`.
    pub const fn new(path: &'static str) -> Self {
        SnapshotStore { path }
    }

    /// Durably publish a snapshot of `state` taken at `applied_index`.
    ///
    /// The file is replaced atomically; if the disk is stalled the fsync
    /// is swallowed and `false` is returned (the previous snapshot, if
    /// any, stays intact — the caller simply retries at the next
    /// interval).
    pub fn save(&self, disk: &mut SimDisk, now: SimTime, applied_index: u64, state: &[u8]) -> bool {
        self.save_with(disk, now, applied_index, |out| out.extend_from_slice(state))
    }

    /// [`Self::save`] with the state encoded by `encode` straight into the
    /// snapshot file's own buffer, `[crc][applied_index][state]`: the CRC,
    /// which covers what follows it, is patched in last.
    pub fn save_with(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        disk.replace_with(self.path, now, |file| {
            file.extend_from_slice(&[0; 4]);
            file.extend_from_slice(&applied_index.to_le_bytes());
            encode(file);
            let crc = crc32(&file[4..]);
            file[..4].copy_from_slice(&crc.to_le_bytes());
        })
    }

    /// Empty the file in place, keeping its buffer for the next save: no
    /// snapshot loads from it any more. A durable metadata operation.
    pub fn discard(&self, disk: &mut SimDisk) {
        disk.truncate(self.path, 0);
    }

    /// The applied index of the snapshot on disk if it passes its CRC,
    /// checked in place: no copy. `None` when the file is missing, too
    /// short, or fails its CRC.
    pub fn valid_index(&self, disk: &SimDisk) -> Option<u64> {
        let data = disk.durable(self.path);
        // The length check bounds both header reads; the helpers cannot
        // panic regardless (recovery must degrade, not die: the no-panic
        // lints).
        let valid = data.len() >= 12 && crc32(&data[4..]) == crate::codec::le_u32_at(data, 0);
        valid.then(|| crate::codec::le_u64_at(data, 4))
    }

    /// Load the snapshot if it is valid: `(applied_index, state_bytes)`.
    /// Returns `None` when the file is missing, too short, or fails its
    /// CRC. The state bytes are the one copy read off the disk.
    pub fn load(&self, disk: &SimDisk) -> Option<(u64, Vec<u8>)> {
        let applied_index = self.valid_index(disk)?;
        let state = disk.durable(self.path).get(12..)?;
        Some((applied_index, state.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_sim::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn save_load_round_trip_survives_crash() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 42, b"state-bytes"));
        disk.on_crash();
        assert_eq!(store.load(&disk), Some((42, b"state-bytes".to_vec())));
        assert_eq!(store.valid_index(&disk), Some(42));
        assert_eq!(disk.paths(), vec!["joshua/snap".to_string()]);
    }

    #[test]
    fn newer_save_replaces_older() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 1, b"old"));
        assert!(store.save(&mut disk, T0, 2, b"new"));
        assert_eq!(store.load(&disk), Some((2, b"new".to_vec())));
    }

    #[test]
    fn stalled_disk_keeps_previous_snapshot() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 1, b"old"));
        disk.stall_until(T0 + SimDuration::from_secs(10));
        assert!(!store.save(&mut disk, T0, 2, b"new"));
        assert_eq!(store.load(&disk), Some((1, b"old".to_vec())));
    }

    #[test]
    fn corrupt_snapshot_is_ignored() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 7, b"payload"));
        assert!(disk.corrupt_byte("joshua/snap", 6));
        assert_eq!(store.load(&disk), None);
    }

    #[test]
    fn valid_index_checks_the_crc_in_place() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 7, b"payload"));
        assert_eq!(store.valid_index(&disk), Some(7));
        assert!(disk.corrupt_byte("joshua/snap", 14));
        assert_eq!(store.valid_index(&disk), None);
    }

    #[test]
    fn a_discarded_snapshot_no_longer_loads_and_keeps_its_buffer() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert!(store.save(&mut disk, T0, 7, b"payload"));
        store.discard(&mut disk);
        assert_eq!(store.load(&disk), None);
        assert_eq!(store.valid_index(&disk), None);
        assert!(store.save(&mut disk, T0, 8, b"next"));
        assert_eq!(store.load(&disk), Some((8, b"next".to_vec())));
    }

    #[test]
    fn missing_or_short_snapshot_is_none() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert_eq!(store.load(&disk), None);
        assert_eq!(store.valid_index(&disk), None);
        disk.append("joshua/snap", &[1, 2, 3]);
        assert!(disk.fsync("joshua/snap", T0));
        assert_eq!(store.load(&disk), None);
        assert_eq!(store.valid_index(&disk), None);
    }
}
