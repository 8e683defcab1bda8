//! Deterministic per-node simulated disk.
//!
//! Each node owns one [`SimDisk`] that **survives `World::crash_node` / `revive_node`**:
//! crashing a node loses only the volatile (page-cache) portion of every
//! file, exactly like pulling the power cord on a real machine. Durability
//! is modelled explicitly:
//!
//! * [`SimDisk::append`] writes into a volatile tail (the OS page cache);
//! * [`SimDisk::fsync`] moves the volatile tail onto the durable platter;
//! * [`SimDisk::on_crash`] (called by `World::crash_node`) discards
//!   every volatile tail and applies any armed torn-write damage.
//!
//! Fault hooks ([`SimDisk::arm_torn_write`], [`SimDisk::corrupt_byte`],
//! [`SimDisk::stall_until`]) give a scripted fault byte-precise control over
//! the failure modes a write-ahead log must survive: torn tails, silent
//! media corruption, and a device that stops acknowledging flushes.
//!
//! The disk consumes no randomness and no virtual time of its own (stalls
//! compare against a caller-supplied `now`), so it adds nothing to the
//! deterministic schedule.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// One file's on-disk state: a durable prefix plus a volatile tail.
#[derive(Debug, Default, Clone)]
struct FileState {
    /// Bytes that survive a power loss.
    durable: Vec<u8>,
    /// Durable length *before* the most recent fsync batch landed. A torn
    /// write may roll the file back to this floor plus a partial tail.
    synced_floor: usize,
    /// Appended but not yet fsynced bytes (lost on crash).
    volatile: Vec<u8>,
}

impl FileState {
    /// Move the volatile tail onto the platter as one fsync batch; a file
    /// with nothing durable yet (a snapshot's temp file) takes its buffer.
    fn land_tail(&mut self) {
        self.synced_floor = self.durable.len();
        if self.durable.is_empty() {
            self.durable = std::mem::take(&mut self.volatile);
        } else {
            self.durable.append(&mut self.volatile);
        }
    }
}

/// A deterministic simulated disk with explicit write/fsync semantics.
///
/// Files are named by flat string paths. All operations are infallible in
/// the absence of injected faults; the only observable failures are the
/// ones the harness scripts through the fault hooks.
#[derive(Debug, Default)]
pub struct SimDisk {
    files: BTreeMap<String, FileState>,
    /// Armed torn-write damage: on the next crash, the most recently
    /// fsynced batch keeps only this many bytes.
    armed_torn: Option<u32>,
    /// Path of the file that most recently completed an fsync (torn-write
    /// damage lands there).
    last_fsynced: Option<String>,
    /// While `now < stalled_until`, fsync is a silent no-op.
    stalled_until: Option<SimTime>,
    /// Number of `append` calls.
    pub appends: u64,
    /// Number of effective (non-stalled) `fsync` calls.
    pub fsyncs: u64,
    /// Number of fsyncs swallowed by an injected stall.
    pub stalled_fsyncs: u64,
    /// Number of crashes that applied torn-write damage.
    pub torn_truncations: u64,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes to a file's volatile tail, creating the file if needed.
    pub fn append(&mut self, path: &str, bytes: &[u8]) {
        self.appends += 1;
        self.files
            .entry(path.to_string())
            .or_default()
            .volatile
            .extend_from_slice(bytes);
    }

    /// Flush a file's volatile tail to durable storage.
    ///
    /// Returns `true` when the data is durable, `false` when an injected
    /// stall swallowed the flush (the data stays volatile and is lost on
    /// crash). Syncing a missing or already-clean file is a successful
    /// no-op.
    pub fn fsync(&mut self, path: &str, now: SimTime) -> bool {
        if let Some(until) = self.stalled_until {
            if now < until {
                self.stalled_fsyncs += 1;
                return false;
            }
            self.stalled_until = None;
        }
        if let Some(f) = self.files.get_mut(path) {
            if !f.volatile.is_empty() {
                f.land_tail();
                self.last_fsynced = Some(path.to_string());
                self.fsyncs += 1;
            }
        }
        true
    }

    /// Read a file as the OS would see it: durable prefix plus volatile
    /// tail. `None` if the file does not exist.
    pub fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.files.get(path).map(|f| {
            let mut out = f.durable.clone();
            out.extend_from_slice(&f.volatile);
            out
        })
    }

    /// Length of the durable prefix (what a post-crash read would return).
    pub fn durable_len(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |f| f.durable.len())
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Paths of every file on the disk, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Truncate a file (durable and volatile views) to `len` bytes total.
    /// Truncation is treated as a durable metadata operation.
    pub fn truncate(&mut self, path: &str, len: usize) {
        if let Some(f) = self.files.get_mut(path) {
            if len <= f.durable.len() {
                f.durable.truncate(len);
                f.volatile.clear();
            } else {
                f.volatile.truncate(len - f.durable.len());
            }
            f.synced_floor = f.synced_floor.min(f.durable.len());
        }
    }

    /// Remove a file. Removal is a durable metadata operation.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Atomically rename a file, fsyncing its content first (the classic
    /// write-temp / fsync / rename durable-publish idiom collapses to one
    /// call here). Overwrites any existing destination.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        let Some(mut f) = self.files.remove(from) else {
            return false;
        };
        if !f.volatile.is_empty() {
            f.land_tail();
        }
        if self.last_fsynced.as_deref() == Some(from) {
            self.last_fsynced = Some(to.to_string());
        }
        self.files.insert(to.to_string(), f);
        true
    }

    // ------------------------------------------------------------------
    // Fault hooks (called from a `World::schedule_at` closure)
    // ------------------------------------------------------------------

    /// Arm torn-write damage: on the next crash, the most recently fsynced
    /// batch of the most recently fsynced file keeps only `keep_bytes`
    /// bytes (the rest of that batch never reached the platter).
    pub fn arm_torn_write(&mut self, keep_bytes: u32) {
        self.armed_torn = Some(keep_bytes);
    }

    /// Flip every bit of one durable byte (silent media corruption).
    /// Returns `false` when the file is missing or `offset` is past its
    /// durable length.
    pub fn corrupt_byte(&mut self, path: &str, offset: u64) -> bool {
        let Some(f) = self.files.get_mut(path) else {
            return false;
        };
        let Ok(idx) = usize::try_from(offset) else {
            return false;
        };
        match f.durable.get_mut(idx) {
            Some(b) => {
                *b ^= 0xFF;
                true
            }
            None => false,
        }
    }

    /// Stall the device: until virtual time `until`, every fsync is a
    /// silent no-op (data stays volatile).
    pub fn stall_until(&mut self, until: SimTime) {
        self.stalled_until = Some(until);
    }

    /// Power loss: every volatile tail vanishes, and any armed torn write
    /// rolls the last fsynced batch back to a partial prefix. Called by the
    /// world in `crash_node`; the durable content survives for the next
    /// incarnation to recover from.
    pub fn on_crash(&mut self) {
        for f in self.files.values_mut() {
            f.volatile.clear();
        }
        if let Some(keep) = self.armed_torn.take() {
            if let Some(path) = self.last_fsynced.take() {
                if let Some(f) = self.files.get_mut(&path) {
                    let batch = f.durable.len() - f.synced_floor;
                    let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(batch);
                    f.durable.truncate(f.synced_floor + keep);
                    self.torn_truncations += 1;
                }
            }
        }
        self.stalled_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn append_without_fsync_is_lost_on_crash() {
        let mut d = SimDisk::new();
        d.append("wal", b"hello");
        assert_eq!(d.read("wal").unwrap(), b"hello");
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"");
    }

    #[test]
    fn fsynced_data_survives_crash() {
        let mut d = SimDisk::new();
        d.append("wal", b"hello");
        assert!(d.fsync("wal", T0));
        d.append("wal", b" world");
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"hello");
        assert_eq!(d.durable_len("wal"), 5);
    }

    #[test]
    fn torn_write_keeps_partial_last_batch() {
        let mut d = SimDisk::new();
        d.append("wal", b"aaaa");
        assert!(d.fsync("wal", T0));
        d.append("wal", b"bbbb");
        assert!(d.fsync("wal", T0));
        d.arm_torn_write(2);
        d.on_crash();
        // First batch intact, second batch torn to 2 bytes.
        assert_eq!(d.read("wal").unwrap(), b"aaaabb");
        assert_eq!(d.torn_truncations, 1);
        // Damage fires once.
        d.append("wal", b"cc");
        assert!(d.fsync("wal", T0));
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"aaaabbcc");
    }

    #[test]
    fn stall_swallows_fsync_until_expiry() {
        let mut d = SimDisk::new();
        let later = T0 + SimDuration::from_secs(5);
        d.stall_until(later);
        d.append("wal", b"xx");
        assert!(!d.fsync("wal", T0));
        assert_eq!(d.stalled_fsyncs, 1);
        // After the stall expires the same call succeeds.
        assert!(d.fsync("wal", later));
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"xx");
    }

    #[test]
    fn corrupt_byte_flips_durable_bits() {
        let mut d = SimDisk::new();
        d.append("f", &[0x00, 0x0F]);
        assert!(d.fsync("f", T0));
        assert!(d.corrupt_byte("f", 1));
        assert_eq!(d.read("f").unwrap(), vec![0x00, 0xF0]);
        // Out of durable range / missing file are reported.
        assert!(!d.corrupt_byte("f", 2));
        assert!(!d.corrupt_byte("nope", 0));
    }

    #[test]
    fn rename_publishes_durably() {
        let mut d = SimDisk::new();
        d.append("snap.tmp", b"state");
        assert!(d.rename("snap.tmp", "snap"));
        assert!(!d.exists("snap.tmp"));
        d.on_crash();
        assert_eq!(d.read("snap").unwrap(), b"state");
    }

    #[test]
    fn truncate_is_durable_metadata() {
        let mut d = SimDisk::new();
        d.append("wal", b"abcdef");
        assert!(d.fsync("wal", T0));
        d.truncate("wal", 3);
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"abc");
    }

    #[test]
    fn paths_and_remove() {
        let mut d = SimDisk::new();
        d.append("b", b"1");
        d.append("a", b"2");
        assert_eq!(d.paths(), vec!["a".to_string(), "b".to_string()]);
        assert!(d.remove("a"));
        assert!(!d.remove("a"));
        d.on_crash();
        assert!(!d.exists("a"));
    }
}
