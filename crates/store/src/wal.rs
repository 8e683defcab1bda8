//! Checksummed, record-framed write-ahead log over a [`SimDisk`].
//!
//! Every delivered command is appended as one framed record before its
//! effects are considered durable:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload = [idx: u64 LE][blob…]]
//! ```
//!
//! `len` is the payload length, `crc` is the CRC-32 of the payload, and
//! `idx` is the replica's monotonically increasing applied index. Recovery
//! ([`Wal::replay`]) scans from the front and classifies damage:
//!
//! * an incomplete header or payload at end-of-file is a **torn tail**
//!   (the crash interrupted the last write) — recoverable by truncating
//!   back to the last valid record;
//! * a CRC mismatch whose record ends exactly at end-of-file is likewise
//!   a torn tail (the tail bytes never finished reaching the platter);
//! * a CRC mismatch **mid-log** is silent media corruption — a hard error
//!   carrying the record's byte offset, because everything after it is of
//!   unknowable validity. The caller quarantines the file and falls back
//!   to snapshot-only recovery plus peer state transfer.

use crate::crc::crc32;
use jrs_sim::SimDisk;

/// Frame header size: `len` + `crc`.
const HEADER: usize = 8;
/// Payload prefix: the applied index.
const IDX: usize = 8;

/// A WAL replay failure that truncation cannot repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A CRC-invalid record strictly before end-of-file: media corruption
    /// at this byte offset.
    Corruption {
        /// Byte offset of the damaged record's frame header.
        offset: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Corruption { offset } => {
                write!(
                    f,
                    "WAL corruption: CRC mismatch in record at byte offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for WalError {}

/// The result of scanning a WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Every valid `(applied_index, payload_blob)` record, in log order.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// Byte length of the valid prefix (where a torn tail, if any, starts).
    pub valid_len: usize,
    /// Whether a torn tail was found after the valid prefix.
    pub torn: bool,
}

/// A write-ahead log bound to one file path on a node's disk.
#[derive(Debug, Clone)]
pub struct Wal {
    path: String,
}

impl Wal {
    /// A WAL living at `path`.
    pub fn new(path: impl Into<String>) -> Self {
        Wal { path: path.into() }
    }

    /// The file path this WAL writes.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Frame one record (without writing it anywhere).
    pub(crate) fn frame(idx: u64, blob: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(IDX + blob.len());
        payload.extend_from_slice(&idx.to_le_bytes());
        payload.extend_from_slice(blob);
        #[expect(
            clippy::expect_used,
            reason = "a >4 GiB record is unrepresentable in the u32 frame format; failing loudly at the writer beats silently truncating the length and corrupting every later record"
        )]
        let len = u32::try_from(payload.len()).expect("WAL record exceeds u32 length");
        let mut rec = Vec::with_capacity(HEADER + payload.len());
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec
    }

    /// Append one record to the volatile tail of the log file. The record
    /// is durable only after a subsequent successful fsync of the path.
    pub fn append(&self, disk: &mut SimDisk, idx: u64, blob: &[u8]) {
        let rec = Self::frame(idx, blob);
        disk.append(&self.path, &rec);
    }

    /// Scan the log, returning every valid record and classifying any
    /// damage. A missing file replays as empty.
    pub fn replay(&self, disk: &SimDisk) -> Result<Replay, WalError> {
        let data = disk.read(&self.path).unwrap_or_default();
        let mut entries = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let remaining = data.len() - pos;
            if remaining < HEADER {
                // Partial frame header: torn tail.
                return Ok(Replay {
                    entries,
                    valid_len: pos,
                    torn: true,
                });
            }
            // `remaining >= HEADER` bounds both reads; the helpers cannot
            // panic regardless, and u32 → usize is a widening cast here.
            let len = crate::codec::le_u32_at(&data, pos) as usize;
            let want_crc = crate::codec::le_u32_at(&data, pos + 4);
            let end = pos + HEADER + len;
            if len < IDX || end > data.len() {
                // Payload runs past end-of-file (or is impossibly short,
                // which only a half-written length can produce): torn tail.
                return Ok(Replay {
                    entries,
                    valid_len: pos,
                    torn: true,
                });
            }
            let payload = &data[pos + HEADER..end];
            if crc32(payload) != want_crc {
                if end == data.len() {
                    // Damaged record is the very last: a torn write.
                    return Ok(Replay {
                        entries,
                        valid_len: pos,
                        torn: true,
                    });
                }
                // Damage strictly mid-log: corruption, not a torn write.
                // (usize → u64 is widening on every supported platform.)
                return Err(WalError::Corruption { offset: pos as u64 });
            }
            // `len >= IDX` was checked above; the helper tolerates short
            // input anyway.
            entries.push((crate::codec::le_u64_at(payload, 0), payload[IDX..].to_vec()));
            pos = end;
        }
        Ok(Replay {
            entries,
            valid_len: pos,
            torn: false,
        })
    }

    /// Truncate a torn tail back to the last valid record boundary.
    pub fn truncate_to(&self, disk: &mut SimDisk, valid_len: usize) {
        disk.truncate(&self.path, valid_len);
    }

    /// Move a damaged log aside (to `<path>.corrupt`) so recovery can
    /// proceed from snapshot + peer state transfer while preserving the
    /// evidence. Returns the quarantine path.
    pub fn quarantine(&self, disk: &mut SimDisk) -> String {
        let aside = format!("{}.corrupt", self.path);
        disk.remove(&aside);
        disk.rename(&self.path, &aside);
        aside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_sim::SimTime;

    const T0: SimTime = SimTime::ZERO;

    fn wal_with(entries: &[(u64, &[u8])]) -> (SimDisk, Wal) {
        let mut disk = SimDisk::new();
        let wal = Wal::new("joshua/wal");
        for &(idx, blob) in entries {
            wal.append(&mut disk, idx, blob);
            assert!(disk.fsync("joshua/wal", T0));
        }
        (disk, wal)
    }

    #[test]
    fn empty_and_missing_replay_clean() {
        let disk = SimDisk::new();
        let wal = Wal::new("joshua/wal");
        let r = wal.replay(&disk).unwrap();
        assert!(r.entries.is_empty() && !r.torn && r.valid_len == 0);
    }

    #[test]
    fn records_round_trip_in_order() {
        let (disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b"")]);
        let r = wal.replay(&disk).unwrap();
        assert_eq!(
            r.entries,
            vec![
                (1, b"alpha".to_vec()),
                (2, b"beta".to_vec()),
                (3, Vec::new())
            ]
        );
        assert!(!r.torn);
        assert_eq!(r.valid_len, disk.read("joshua/wal").unwrap().len());
    }

    #[test]
    fn torn_header_detected_and_truncated() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha")]);
        let good_len = disk.read("joshua/wal").unwrap().len();
        // A crash left 3 bytes of the next frame header.
        disk.append("joshua/wal", &[9, 9, 9]);
        assert!(disk.fsync("joshua/wal", T0));
        let r = wal.replay(&disk).unwrap();
        assert!(r.torn);
        assert_eq!(r.valid_len, good_len);
        assert_eq!(r.entries.len(), 1);
        wal.truncate_to(&mut disk, r.valid_len);
        let r2 = wal.replay(&disk).unwrap();
        assert!(!r2.torn);
        assert_eq!(r2.entries.len(), 1);
    }

    #[test]
    fn torn_payload_detected() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha")]);
        let good_len = disk.read("joshua/wal").unwrap().len();
        // Full header of a record whose payload never finished writing.
        let rec = Wal::frame(2, b"beta-unfinished");
        disk.append("joshua/wal", &rec[..rec.len() - 4]);
        assert!(disk.fsync("joshua/wal", T0));
        let r = wal.replay(&disk).unwrap();
        assert!(r.torn);
        assert_eq!(r.valid_len, good_len);
    }

    #[test]
    fn crc_bad_tail_is_torn_but_mid_log_is_corruption() {
        // Damage in the LAST record → torn.
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta")]);
        let all = disk.read("joshua/wal").unwrap();
        let first_len = Wal::frame(1, b"alpha").len();
        disk.corrupt_byte("joshua/wal", u64::try_from(all.len() - 1).unwrap());
        let r = wal.replay(&disk).unwrap();
        assert!(r.torn);
        assert_eq!(r.valid_len, first_len);
        assert_eq!(r.entries.len(), 1);

        // Same damage NOT at the tail → hard corruption with the offset.
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta")]);
        disk.corrupt_byte("joshua/wal", 9); // inside record 1's payload
        assert_eq!(wal.replay(&disk), Err(WalError::Corruption { offset: 0 }));
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b"gamma")]);
        let off = u64::try_from(first_len).unwrap();
        disk.corrupt_byte("joshua/wal", off + 9);
        assert_eq!(wal.replay(&disk), Err(WalError::Corruption { offset: off }));
    }

    #[test]
    fn quarantine_moves_log_aside() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha")]);
        let aside = wal.quarantine(&mut disk);
        assert_eq!(aside, "joshua/wal.corrupt");
        assert!(!disk.exists("joshua/wal"));
        assert!(disk.exists(&aside));
        // A fresh log can start at the old path.
        let r = wal.replay(&disk).unwrap();
        assert!(r.entries.is_empty());
    }

    #[test]
    fn unsynced_tail_lost_on_crash_replays_clean() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha")]);
        wal.append(&mut disk, 2, b"beta"); // never fsynced
        disk.on_crash();
        let r = wal.replay(&disk).unwrap();
        assert!(!r.torn);
        assert_eq!(r.entries.len(), 1);
    }
}
