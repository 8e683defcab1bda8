//! CRC-32 (IEEE 802.3 polynomial), table-driven and dependency-free.
//!
//! Every durable artefact (WAL records, snapshot files) carries a CRC so
//! recovery can tell a torn tail or flipped bit from valid data, and pays
//! for it on write and again on recovery; hence slice-by-8, eight bytes
//! per step, checked against the byte-at-a-time loop in the tests.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes (eight more bit steps each).
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i: u32 = 0;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 64 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i as usize] = crc;
            }
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// One byte through the classic table.
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][usize::from(crc.to_le_bytes()[0] ^ b)]
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let at = |k: usize, b: u8| TABLES[k][usize::from(b)];
    let (blocks, tail) = data.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let [a0, a1, a2, a3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = at(7, a0)
            ^ at(6, a1)
            ^ at(5, a2)
            ^ at(4, a3)
            ^ at(3, b4)
            ^ at(2, b5)
            ^ at(1, b6)
            ^ at(0, b7);
    }
    tail.iter().fold(crc, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_bytewise() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let buf: Vec<u8> = (0..65_536 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[5]
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf[..65_536]), crc32_bytewise(&buf[..65_536]));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
