//! Durable snapshot publication: write-temp, fsync, atomic rename.
//!
//! A snapshot captures the full replica state at one applied index so
//! recovery does not have to replay the WAL from the beginning of time.
//! The file is CRC-framed like a WAL record; a snapshot that fails its
//! checksum is ignored (recovery falls back to a full WAL replay), so a
//! half-written or corrupted snapshot can never poison a replica.

use crate::crc::crc32;
use jrs_sim::{SimDisk, SimTime};

/// A snapshot slot bound to one file path on a node's disk.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    path: String,
}

impl SnapshotStore {
    /// A snapshot store living at `path`.
    pub fn new(path: impl Into<String>) -> Self {
        SnapshotStore { path: path.into() }
    }

    fn tmp_path(&self) -> String {
        format!("{}.tmp", self.path)
    }

    /// Durably publish a snapshot of `state` taken at `applied_index`.
    ///
    /// Uses the write-temp / fsync / rename idiom; if the disk is stalled
    /// the fsync is swallowed, the temp file is discarded and `false` is
    /// returned (the previous snapshot, if any, stays intact — the caller
    /// simply retries at the next interval).
    pub fn save(&self, disk: &mut SimDisk, now: SimTime, applied_index: u64, state: &[u8]) -> bool {
        // `[crc][applied_index][state]`, framed in one buffer: the CRC
        // covers what follows it and is filled in last.
        let mut file = Vec::with_capacity(4 + 8 + state.len());
        file.extend_from_slice(&[0; 4]);
        file.extend_from_slice(&applied_index.to_le_bytes());
        file.extend_from_slice(state);
        let crc = crc32(&file[4..]);
        file[..4].copy_from_slice(&crc.to_le_bytes());

        let tmp = self.tmp_path();
        disk.remove(&tmp);
        disk.append(&tmp, &file);
        if !disk.fsync(&tmp, now) {
            disk.remove(&tmp);
            return false;
        }
        disk.rename(&tmp, &self.path);
        true
    }

    /// Load the newest valid snapshot: `(applied_index, state_bytes)`.
    /// Returns `None` when the file is missing, too short, or fails its
    /// CRC — callers then recover from the WAL alone.
    pub fn load(&self, disk: &SimDisk) -> Option<(u64, Vec<u8>)> {
        let data = disk.read(&self.path)?;
        if data.len() < 12 {
            return None;
        }
        // The `len < 12` check above bounds both reads; the helpers
        // cannot panic regardless (recovery must degrade, not die: the no-panic lints).
        let want_crc = crate::codec::le_u32_at(&data, 0);
        let payload = &data[4..];
        if crc32(payload) != want_crc {
            return None;
        }
        Some((crate::codec::le_u64_at(payload, 0), payload[8..].to_vec()))
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
        assert!(!disk.exists("joshua/snap.tmp"));
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
    fn missing_or_short_snapshot_is_none() {
        let mut disk = SimDisk::new();
        let store = SnapshotStore::new("joshua/snap");
        assert_eq!(store.load(&disk), None);
        disk.append("joshua/snap", &[1, 2, 3]);
        assert_eq!(store.load(&disk), None);
    }
}
