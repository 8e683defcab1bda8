//! Deterministic per-node simulated disk.
//!
//! Each node owns one [`SimDisk`] that **survives `World::crash_node` / `revive_node`**:
//! crashing a node loses only the volatile (page-cache) portion of every
//! file, exactly like pulling the power cord on a real machine. Durability
//! is modelled explicitly:
//!
//! * [`SimDisk::append`] writes into a volatile tail (the OS page cache);
//! * [`SimDisk::fsync`] moves the volatile tail onto the durable platter;
//! * [`SimDisk::replace_with`] replaces a whole file durably and
//!   atomically (write-temp / fsync / rename as one operation), writing
//!   into the file's own buffer, so a file rewritten at about the same
//!   size (a snapshot) costs no allocation;
//! * [`SimDisk::drop_front`] drops a file's oldest durable bytes in place
//!   (a log compacted behind a snapshot);
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
    /// with nothing durable yet takes its buffer.
    fn land_tail(&mut self) {
        self.synced_floor = self.durable.len();
        if self.durable.is_empty() {
            self.durable = std::mem::take(&mut self.volatile);
        } else {
            self.durable.append(&mut self.volatile);
        }
    }
}

/// Point `slot` at `path`, reusing its buffer: the disk's bookkeeping
/// allocates only when a path is longer than any it held before.
fn set_path(slot: &mut Option<String>, path: &str) {
    match slot {
        Some(held) if held == path => {}
        Some(held) => {
            held.clear();
            held.push_str(path);
        }
        None => *slot = Some(path.to_string()),
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
        self.append_with(path, |tail| tail.extend_from_slice(bytes));
    }

    /// Let `write` append to a file's volatile tail in place, creating the
    /// file if needed: a record is encoded straight into the page cache,
    /// with no buffer of its own. `write` must only append; the bytes
    /// already in the tail are the file's.
    pub fn append_with(&mut self, path: &str, write: impl FnOnce(&mut Vec<u8>)) {
        self.appends += 1;
        // Look the file up first: its key is allocated only on creation.
        if !self.files.contains_key(path) {
            self.files.insert(path.to_string(), FileState::default());
        }
        if let Some(f) = self.files.get_mut(path) {
            write(&mut f.volatile);
        }
    }

    /// Flush a file's volatile tail to durable storage.
    ///
    /// Returns `true` when the data is durable, `false` when an injected
    /// stall swallowed the flush (the data stays volatile and is lost on
    /// crash). Syncing a missing or already-clean file is a successful
    /// no-op.
    pub fn fsync(&mut self, path: &str, now: SimTime) -> bool {
        if self.stalled(now) {
            return false;
        }
        if let Some(f) = self.files.get_mut(path) {
            if !f.volatile.is_empty() {
                f.land_tail();
                set_path(&mut self.last_fsynced, path);
                self.fsyncs += 1;
            }
        }
        true
    }

    /// Whether an injected stall swallows an fsync at `now`, counting it
    /// when it does; a stall that has run out is cleared.
    fn stalled(&mut self, now: SimTime) -> bool {
        if let Some(until) = self.stalled_until {
            if now < until {
                self.stalled_fsyncs += 1;
                return true;
            }
            self.stalled_until = None;
        }
        false
    }

    /// Replace a file's whole content with what `write` writes, durably
    /// and atomically: the write-temp / fsync / rename idiom as one
    /// operation, which no crash can fall inside. The file (created if
    /// needed) is cleared and `write` fills its own buffer, so a rewrite
    /// no larger than the capacity the file already holds allocates
    /// nothing. The new content lands as one fsync batch, so armed
    /// torn-write damage falls on it as it would on a renamed temp file.
    ///
    /// Returns `false`, with the old content untouched and `write` not
    /// called, when an injected stall swallows the fsync.
    pub fn replace_with(
        &mut self,
        path: &str,
        now: SimTime,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        if self.stalled(now) {
            return false;
        }
        if !self.files.contains_key(path) {
            self.files.insert(path.to_string(), FileState::default());
        }
        if let Some(f) = self.files.get_mut(path) {
            f.durable.clear();
            f.volatile.clear();
            f.synced_floor = 0;
            write(&mut f.durable);
            if !f.durable.is_empty() {
                set_path(&mut self.last_fsynced, path);
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

    /// A file's durable bytes, borrowed: what a post-crash read would
    /// return, without the copy [`Self::read`] makes. Empty when the file
    /// is missing.
    pub fn durable(&self, path: &str) -> &[u8] {
        self.files.get(path).map_or(&[], |f| f.durable.as_slice())
    }

    /// A file's volatile tail, borrowed: what [`Self::read`] returns after
    /// the [`Self::durable`] bytes. Empty when the file is missing or clean.
    pub fn volatile(&self, path: &str) -> &[u8] {
        self.files.get(path).map_or(&[], |f| f.volatile.as_slice())
    }

    /// Drop a file's first `n` durable bytes, in place: the volatile tail
    /// and the bytes after `n` keep their order, and armed torn-write
    /// damage still falls on the same bytes of the last fsynced batch.
    /// Like [`Self::truncate`], a durable metadata operation; it allocates
    /// nothing. Dropping more than the durable length is a no-op.
    pub fn drop_front(&mut self, path: &str, n: usize) {
        if let Some(f) = self.files.get_mut(path) {
            if n <= f.durable.len() {
                f.durable.drain(..n);
                f.synced_floor = f.synced_floor.saturating_sub(n);
            }
        }
    }

    /// Remove a file. Removal is a durable metadata operation.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Atomically rename a file, fsyncing its content first. Overwrites
    /// any existing destination.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        let Some(mut f) = self.files.remove(from) else {
            return false;
        };
        if !f.volatile.is_empty() {
            f.land_tail();
        }
        if self.last_fsynced.as_deref() == Some(from) {
            set_path(&mut self.last_fsynced, to);
        }
        match self.files.get_mut(to) {
            Some(dest) => *dest = f,
            None => {
                self.files.insert(to.to_string(), f);
            }
        }
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
        assert_eq!(
            (d.durable("wal"), d.volatile("wal")),
            (&b"hello"[..], &b" world"[..])
        );
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"hello");
        assert!(d.volatile("wal").is_empty());
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
    fn torn_write_lands_on_the_file_fsynced_last_across_paths_and_renames() {
        // A WAL and a snapshot temp file take turns: the torn write must
        // follow the last fsync, through a rename and back.
        let snapshot = |d: &mut SimDisk, bytes: &[u8]| {
            d.append_with("snap.tmp", |tail| tail.extend_from_slice(bytes));
            assert!(d.fsync("snap.tmp", T0));
            assert!(d.rename("snap.tmp", "snap"));
        };
        let mut d = SimDisk::new();
        d.append("wal", b"aaaa");
        assert!(d.fsync("wal", T0));
        snapshot(&mut d, b"ssss");
        d.append("wal", b"bbbb");
        assert!(d.fsync("wal", T0));
        snapshot(&mut d, b"tttttt");
        d.arm_torn_write(2);
        d.on_crash();
        assert_eq!(
            d.read("snap").unwrap(),
            b"tt",
            "the renamed snapshot was fsynced last"
        );
        assert_eq!(d.read("wal").unwrap(), b"aaaabbbb");

        // Now the WAL after the snapshot: the snapshot stays whole.
        snapshot(&mut d, b"uuuu");
        d.append("wal", b"cccc");
        assert!(d.fsync("wal", T0));
        d.arm_torn_write(1);
        d.on_crash();
        assert_eq!(d.read("snap").unwrap(), b"uuuu");
        assert_eq!(d.read("wal").unwrap(), b"aaaabbbbc");
        assert_eq!(d.torn_truncations, 2);
    }

    #[test]
    fn append_with_writes_the_tail_in_place() {
        let mut d = SimDisk::new();
        d.append_with("wal", |tail| tail.extend_from_slice(b"ab"));
        d.append_with("wal", |tail| {
            assert_eq!(tail, b"ab", "the tail so far");
            tail.push(b'c');
        });
        assert!(d.fsync("wal", T0));
        d.append_with("wal", |tail| {
            assert!(tail.is_empty(), "fsynced bytes left the tail");
            tail.push(b'd');
        });
        assert_eq!(d.read("wal").unwrap(), b"abcd");
        assert_eq!(d.appends, 3);
        assert_eq!(d.durable_len("wal"), 3);
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

    fn replace(d: &mut SimDisk, path: &str, now: SimTime, bytes: &[u8]) -> bool {
        d.replace_with(path, now, |file| file.extend_from_slice(bytes))
    }

    #[test]
    fn a_stalled_replace_keeps_the_old_bytes() {
        let mut d = SimDisk::new();
        assert!(replace(&mut d, "snap", T0, b"old"));
        let later = T0 + SimDuration::from_secs(5);
        d.stall_until(later);
        let mut called = false;
        assert!(!d.replace_with("snap", T0, |_| called = true));
        assert!(!called, "a stalled replace writes nothing");
        assert_eq!(d.stalled_fsyncs, 1);
        assert!(!replace(&mut d, "other", T0, b"x"));
        assert!(!d.exists("other"), "a stalled replace creates no file");
        d.on_crash();
        assert_eq!(d.read("snap").unwrap(), b"old");
        assert!(replace(&mut d, "snap", later, b"new"));
        assert_eq!(d.read("snap").unwrap(), b"new");
    }

    #[test]
    fn a_replace_survives_a_crash() {
        let mut d = SimDisk::new();
        assert!(replace(&mut d, "snap", T0, b"first"));
        assert!(replace(&mut d, "snap", T0, b"second, longer"));
        d.on_crash();
        assert_eq!(d.read("snap").unwrap(), b"second, longer");
        assert_eq!(d.durable_len("snap"), 14);
        assert_eq!(d.paths(), vec!["snap".to_string()], "no temp file");
    }

    #[test]
    fn a_torn_write_after_a_replace_cuts_that_file() {
        let mut d = SimDisk::new();
        d.append("wal", b"aaaa");
        assert!(d.fsync("wal", T0));
        assert!(replace(&mut d, "snap", T0, b"ssss"));
        d.append("wal", b"bbbb");
        assert!(d.fsync("wal", T0));
        assert!(replace(&mut d, "snap", T0, b"tttttt"));
        d.arm_torn_write(2);
        d.on_crash();
        assert_eq!(d.read("snap").unwrap(), b"tt", "the replace landed last");
        assert_eq!(d.read("wal").unwrap(), b"aaaabbbb");
        assert_eq!(d.torn_truncations, 1);
    }

    #[test]
    fn a_replace_no_larger_than_the_last_keeps_the_buffer() {
        let mut d = SimDisk::new();
        assert!(replace(&mut d, "snap", T0, &[7; 64]));
        let buffer = |d: &SimDisk| {
            let f = &d.files["snap"];
            (f.durable.as_ptr(), f.durable.capacity())
        };
        let before = buffer(&d);
        assert!(replace(&mut d, "snap", T0, &[8; 40]));
        assert_eq!(buffer(&d), before);
        assert_eq!(d.read("snap").unwrap(), [8; 40]);
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
    fn a_dropped_prefix_stays_gone_after_a_crash() {
        let mut d = SimDisk::new();
        d.append("wal", b"abcdef");
        assert!(d.fsync("wal", T0));
        d.append("wal", b"gh");
        d.drop_front("wal", 4);
        assert_eq!(d.durable("wal"), b"ef");
        assert_eq!(d.read("wal").unwrap(), b"efgh", "the tail keeps its place");
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"ef");
        assert_eq!(d.durable_len("wal"), 2);
    }

    #[test]
    fn a_torn_write_after_a_drop_tears_only_the_last_batch() {
        let mut d = SimDisk::new();
        d.append("wal", b"aaaa");
        assert!(d.fsync("wal", T0));
        d.append("wal", b"bbbb");
        assert!(d.fsync("wal", T0));
        d.drop_front("wal", 2);
        d.arm_torn_write(1);
        d.on_crash();
        assert_eq!(d.read("wal").unwrap(), b"aab");
        assert_eq!(d.torn_truncations, 1);
    }

    #[test]
    fn dropping_past_the_durable_length_is_a_no_op() {
        let mut d = SimDisk::new();
        d.append("wal", b"abc");
        assert!(d.fsync("wal", T0));
        d.append("wal", b"d");
        d.drop_front("wal", 4);
        assert_eq!(d.read("wal").unwrap(), b"abcd");
        d.drop_front("missing", 1);
        assert!(!d.exists("missing"));
        assert_eq!(d.durable("missing"), b"");
    }

    #[test]
    fn dropping_a_prefix_keeps_the_buffer() {
        let mut d = SimDisk::new();
        d.append("wal", &[7; 64]);
        assert!(d.fsync("wal", T0));
        let buffer = |d: &SimDisk| {
            let f = &d.files["wal"];
            (f.durable.as_ptr(), f.durable.capacity())
        };
        let before = buffer(&d);
        d.drop_front("wal", 40);
        assert_eq!(buffer(&d), before, "the drop allocated");
        assert_eq!(d.durable("wal"), [7; 24]);
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
