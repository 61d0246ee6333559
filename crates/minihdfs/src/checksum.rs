//! Block checksums — the HDFS `DataChecksum` analogue.
//!
//! Real HDFS writes a CRC per 512-byte chunk into `.meta` sidecar
//! files and verifies on every read, failing over to another replica
//! on a mismatch. This module provides the same guarantee one level
//! coarser: one IEEE CRC-32 per block, computed by `write_lines` and
//! re-verified by every block read. Verification runs on *every* read
//! of every block, so this kernel's speed sits on every query's
//! blocking path; it is therefore table-driven slicing-by-16, which
//! folds sixteen input bytes per step instead of one.

/// The reflected IEEE polynomial, as used by HDFS, zlib and ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so one
/// lookup per byte of a 16-byte chunk advances the register 16 bytes.
const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = make_tables();

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let (chunks, tail) = bytes.as_chunks::<SLICE>();
    // tidy:alloc-free:start
    for b in chunks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    // tidy:alloc-free:end
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference the sliced kernel must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        // Deterministic, non-periodic bytes (an LCG's high byte).
        let mut s = 0x2545_F491u32;
        let buf: Vec<u8> = (0..SLICE + 80)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 24) as u8
            })
            .collect();
        for start in 0..SLICE {
            for len in 0..=80 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        // 3 full 16-byte chunks plus an 8-byte tail, so flips land in
        // every table of the sliced step and in the byte-wise tail.
        let clean = b"some block payload\nPOINT (-73.97 40.75)\n42\tPOLYGON ((0 0".to_vec();
        assert_eq!(clean.len(), 3 * SLICE + 8);
        let base = crc32(&clean);
        for i in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
