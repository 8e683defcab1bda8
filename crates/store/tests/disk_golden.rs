//! Golden pin of the bytes a snapshot file and a WAL file hold on disk
//! for fixed inputs. The framing, the CRC and the simulated disk's
//! append/fsync/rename may be rewritten for speed; a head must still read
//! the files an earlier build wrote, so every byte here stays. Do not
//! regenerate the constants to make such a rewrite pass.

use jrs_sim::{fingerprint, SimDisk, SimTime};
use jrs_store::{SnapshotStore, Wal};

const T0: SimTime = SimTime::ZERO;

/// `n` deterministic bytes (xorshift64), so the CRC sees every byte value
/// at every alignment.
fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[3]
        })
        .collect()
}

/// `(length, fingerprint)` of a file's full contents.
fn pin(disk: &SimDisk, path: &str) -> (usize, u64) {
    let data = disk.read(path).unwrap_or_else(|| panic!("{path} missing"));
    (data.len(), fingerprint(&data))
}

#[test]
fn snapshot_file_bytes_are_pinned() {
    let mut disk = SimDisk::new();
    let store = SnapshotStore::new("joshua/snap");
    assert!(store.save(&mut disk, T0, 3, &bytes(1000, 7)));
    // The second save replaces the first through the temp file.
    let state = bytes(65_541, 0x9e37_79b9_7f4a_7c15);
    assert!(store.save(&mut disk, T0, 0x0123_4567_89ab_cdef, &state));
    assert!(!disk.exists("joshua/snap.tmp"));
    assert_eq!(pin(&disk, "joshua/snap"), SNAPSHOT);
    disk.on_crash();
    assert_eq!(disk.durable_len("joshua/snap"), SNAPSHOT.0);
    assert_eq!(store.load(&disk), Some((0x0123_4567_89ab_cdef, state)));
}

#[test]
fn wal_file_bytes_are_pinned() {
    let mut disk = SimDisk::new();
    let wal = Wal::new("joshua/wal");
    let lens = [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4099];
    for (i, &n) in lens.iter().enumerate() {
        let idx = u64::try_from(i).unwrap() + 1;
        wal.append(&mut disk, idx, &bytes(n, idx));
        // Fsync every other record, so batches of one and of two land.
        if i % 2 == 1 {
            assert!(disk.fsync("joshua/wal", T0));
        }
    }
    assert_eq!(pin(&disk, "joshua/wal"), WAL);
    let replay = wal.replay(&disk).unwrap();
    assert_eq!(replay.entries.len(), lens.len());
    assert_eq!((replay.valid_len, replay.torn), (WAL.0, false));

    // A torn last batch keeps exactly `keep` bytes past the synced floor.
    wal.append(&mut disk, 11, &bytes(300, 11));
    assert!(disk.fsync("joshua/wal", T0));
    disk.arm_torn_write(100);
    disk.on_crash();
    assert_eq!(pin(&disk, "joshua/wal"), WAL_TORN);
    let replay = wal.replay(&disk).unwrap();
    assert_eq!(
        (replay.entries.len(), replay.valid_len, replay.torn),
        (lens.len(), WAL.0, true)
    );
}

/// `(length, fingerprint)` of the published snapshot file.
const SNAPSHOT: (usize, u64) = (65_553, 0x8392_7b5e_af63_5572);
/// `(length, fingerprint)` of the WAL after ten records.
const WAL: (usize, u64) = (5_476, 0x1de5_b05b_0e59_53e1);
/// The same WAL after an eleventh record whose batch was torn to 100 bytes.
const WAL_TORN: (usize, u64) = (5_576, 0x9ddc_3c11_cc60_14e3);
