//! Durable snapshot publication: write-temp, fsync, atomic rename.
//!
//! A snapshot captures the full replica state at one applied index so
//! recovery does not have to replay the WAL from the beginning of time.
//! The file is CRC-framed like a WAL record; a snapshot that fails its
//! checksum is ignored (recovery falls back to a full WAL replay), so a
//! half-written or corrupted snapshot can never poison a replica.
//!
//! The state is encoded straight into the temp file's buffer
//! ([`SnapshotStore::save_with`]), reserved to the size of the snapshot
//! it replaces, so publishing one costs a constant number of allocations
//! however long the job history it carries.

use crate::crc::crc32;
use jrs_sim::{SimDisk, SimTime};

/// Replace the file at `path` atomically with what `write` writes:
/// write it into a fresh `tmp`, fsync, rename over `path`. Returns
/// `false`, with `path` untouched and `tmp` gone, when the fsync did not
/// land (a stalled disk).
pub fn publish(
    disk: &mut SimDisk,
    now: SimTime,
    tmp: &str,
    path: &str,
    write: impl FnOnce(&mut Vec<u8>),
) -> bool {
    disk.remove(tmp);
    disk.append_with(tmp, write);
    if !disk.fsync(tmp, now) {
        disk.remove(tmp);
        return false;
    }
    disk.rename(tmp, path)
}

/// A snapshot slot bound to one file path on a node's disk.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    path: String,
    /// `<path>.tmp`, where a snapshot is written before it is published.
    tmp: String,
}

impl SnapshotStore {
    /// A snapshot store living at `path`.
    pub fn new(path: impl Into<String>) -> Self {
        let path = path.into();
        let tmp = format!("{path}.tmp");
        SnapshotStore { path, tmp }
    }

    /// Durably publish a snapshot of `state` taken at `applied_index`.
    ///
    /// Uses the write-temp / fsync / rename idiom; if the disk is stalled
    /// the fsync is swallowed, the temp file is discarded and `false` is
    /// returned (the previous snapshot, if any, stays intact — the caller
    /// simply retries at the next interval).
    pub fn save(&self, disk: &mut SimDisk, now: SimTime, applied_index: u64, state: &[u8]) -> bool {
        self.save_with(disk, now, applied_index, |out| out.extend_from_slice(state))
    }

    /// [`Self::save`] with the state encoded by `encode` straight into the
    /// temp file, `[crc][applied_index][state]`: the buffer is reserved
    /// to the previous snapshot's size, and the CRC, which covers what
    /// follows it, is patched in last.
    pub fn save_with(
        &self,
        disk: &mut SimDisk,
        now: SimTime,
        applied_index: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let reserve = disk.durable_len(&self.path);
        publish(disk, now, &self.tmp, &self.path, |file| {
            file.reserve(reserve);
            file.extend_from_slice(&[0; 4]);
            file.extend_from_slice(&applied_index.to_le_bytes());
            encode(file);
            let crc = crc32(&file[4..]);
            file[..4].copy_from_slice(&crc.to_le_bytes());
        })
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
