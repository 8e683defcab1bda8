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
//! `idx` is the replica's monotonically increasing applied index. A
//! record is framed in place, in the log file's volatile tail
//! ([`SimDisk::append_with`]): the writer reserves the header, writes
//! `idx`, lets the caller encode the blob after it, then patches `len`
//! and the CRC. Appending a record allocates nothing once the tail has
//! grown to a record's size. Recovery
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
//!
//! The log is compacted from the front ([`Wal::keep_last`]): once a
//! snapshot covers the older records, all but the last `k` are dropped
//! in place, found by walking the frame headers.

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

    /// Append one record to the volatile tail of the log file. The record
    /// is durable only after a subsequent successful fsync of the path.
    pub fn append(&self, disk: &mut SimDisk, idx: u64, blob: &[u8]) {
        self.append_with(disk, idx, |out| out.extend_from_slice(blob));
    }

    /// Append one record whose blob `encode` writes, framed in place in
    /// the file's tail: reserve `[len][crc]`, write `idx`, let `encode`
    /// append the blob, then patch `len` and the CRC over what followed.
    pub fn append_with(&self, disk: &mut SimDisk, idx: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        disk.append_with(&self.path, |out| {
            let start = out.len();
            out.extend_from_slice(&[0; HEADER]);
            out.extend_from_slice(&idx.to_le_bytes());
            encode(out);
            let payload = &out[start + HEADER..];
            #[expect(
                clippy::expect_used,
                reason = "a >4 GiB record is unrepresentable in the u32 frame format; failing loudly at the writer beats silently truncating the length and corrupting every later record"
            )]
            let len = u32::try_from(payload.len()).expect("WAL record exceeds u32 length");
            let crc = crc32(payload);
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
        });
    }

    /// Scan the log, returning every valid record and classifying any
    /// damage. A missing file replays as empty.
    pub fn replay(&self, disk: &SimDisk) -> Result<Replay, WalError> {
        let data = disk.read(&self.path).unwrap_or_default();
        let mut entries = Vec::new();
        let mut valid_len = 0;
        for (pos, end) in frames(&data) {
            let Some((idx, blob)) = checked(&data, pos, end) else {
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
            };
            entries.push((idx, blob.to_vec()));
            valid_len = end;
        }
        // Bytes after the last whole frame are a torn tail: a partial
        // header, or a payload that runs past end-of-file.
        Ok(Replay {
            entries,
            valid_len,
            torn: valid_len < data.len(),
        })
    }

    /// The log's records as [`SimDisk::read`] shows them, durable bytes
    /// then the volatile tail, borrowed in place: `(applied_index, blob)`,
    /// each part up to its first partial or CRC-failing frame.
    pub fn records<'a>(&self, disk: &'a SimDisk) -> impl Iterator<Item = (u64, &'a [u8])> + 'a {
        let valid = |data: &'a [u8]| frames(data).map_while(|(pos, end)| checked(data, pos, end));
        valid(disk.durable(&self.path)).chain(valid(disk.volatile(&self.path)))
    }

    /// Drop all but the last `keep` durable records, in place: walk the
    /// frame headers with a second walk `keep` frames ahead, so the first
    /// ends at the last record dropped when the second runs out, and drop
    /// the bytes in front of the first one kept ([`SimDisk::drop_front`]).
    /// Reads no copy and allocates nothing; the volatile tail is
    /// untouched. Returns the number of records dropped.
    pub fn keep_last(&self, disk: &mut SimDisk, keep: usize) -> usize {
        let data = disk.durable(&self.path);
        let (drop, cut) = frames(data)
            .zip(frames(data).skip(keep))
            .fold((0, 0), |(n, _), ((_, end), _)| (n + 1, end));
        if drop > 0 {
            disk.drop_front(&self.path, cut);
        }
        drop
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

/// The record `data[pos..end]` frames, `(applied_index, blob)`, if it
/// passes its CRC. `frames` checked `len >= IDX`; the helper tolerates
/// short input anyway.
fn checked(data: &[u8], pos: usize, end: usize) -> Option<(u64, &[u8])> {
    let payload = &data[pos + HEADER..end];
    (crc32(payload) == crate::codec::le_u32_at(data, pos + 4))
        .then(|| (crate::codec::le_u64_at(payload, 0), &payload[IDX..]))
}

/// The whole frames at the front of `data`, as `(start, end)` byte
/// offsets, read from their headers alone (no CRC check). The walk stops
/// at a partial header, at a payload that runs past the end of `data`,
/// and at one too short to hold its index, which only a half-written
/// length can produce: what follows is a torn tail.
fn frames(data: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if data.len() - pos < HEADER {
            return None;
        }
        // `data.len() - pos >= HEADER` bounds the read; the helper cannot
        // panic regardless, and u32 → usize is a widening cast here.
        let len = crate::codec::le_u32_at(data, pos) as usize;
        let end = pos + HEADER + len;
        if len < IDX || end > data.len() {
            return None;
        }
        let start = pos;
        pos = end;
        Some((start, end))
    })
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
        wal.append(&mut disk, 2, b"beta-unfinished");
        assert!(disk.fsync("joshua/wal", T0));
        let full = disk.durable_len("joshua/wal");
        disk.truncate("joshua/wal", full - 4);
        let r = wal.replay(&disk).unwrap();
        assert!(r.torn);
        assert_eq!(r.valid_len, good_len);
    }

    #[test]
    fn crc_bad_tail_is_torn_but_mid_log_is_corruption() {
        // Damage in the LAST record → torn.
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta")]);
        let all = disk.read("joshua/wal").unwrap();
        let first_len = wal_with(&[(1, b"alpha")]).0.durable_len("joshua/wal");
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
    fn keep_last_drops_the_oldest_records() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b""), (4, b"delta")]);
        assert_eq!(wal.keep_last(&mut disk, 2), 2);
        let r = wal.replay(&disk).unwrap();
        assert_eq!(r.entries, vec![(3, Vec::new()), (4, b"delta".to_vec())]);
        assert!(!r.torn);
        // Keeping as many as the log holds, or more, drops nothing.
        assert_eq!(wal.keep_last(&mut disk, 2), 0);
        assert_eq!(wal.keep_last(&mut disk, 9), 0);
        assert_eq!(wal.replay(&disk).unwrap().entries.len(), 2);
        // Later records frame after the kept ones.
        wal.append(&mut disk, 5, b"eps");
        assert!(disk.fsync("joshua/wal", T0));
        let ids: Vec<u64> = wal
            .replay(&disk)
            .unwrap()
            .entries
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(wal.keep_last(&mut disk, 0), 3);
        assert_eq!(disk.durable_len("joshua/wal"), 0);
    }

    #[test]
    fn keep_last_counts_whole_durable_frames_only() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta")]);
        // A torn frame header at the end, and a record not yet fsynced.
        disk.append("joshua/wal", &[9, 9, 9]);
        assert!(disk.fsync("joshua/wal", T0));
        wal.append(&mut disk, 3, b"gamma");
        assert_eq!(wal.keep_last(&mut disk, 1), 1);
        let r = wal.replay(&disk).unwrap();
        assert_eq!(
            r.entries,
            vec![(2, b"beta".to_vec())],
            "the torn header ends the scan"
        );
        assert!(r.torn);
        let missing = Wal::new("nope");
        assert_eq!(missing.keep_last(&mut disk, 0), 0);
    }

    #[test]
    fn records_read_the_volatile_tail_in_place() {
        let (mut disk, wal) = wal_with(&[(1, b"alpha"), (2, b"beta")]);
        wal.append(&mut disk, 3, b"gamma"); // not yet fsynced
        let held: Vec<(u64, &[u8])> = wal.records(&disk).collect();
        assert_eq!(
            held,
            vec![(1, &b"alpha"[..]), (2, &b"beta"[..]), (3, &b"gamma"[..])]
        );
        assert!(disk.corrupt_byte("joshua/wal", 9)); // inside record 1
        let ids: Vec<u64> = wal.records(&disk).map(|(idx, _)| idx).collect();
        assert_eq!(ids, vec![3], "a damaged frame ends the durable part");
        assert_eq!(Wal::new("nope").records(&disk).count(), 0);
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
