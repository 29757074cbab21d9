//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum every chunk
//! payload carries.
//!
//! Implemented locally because the build environment has no crates
//! registry.  Every payload byte is hashed once on write and once on read,
//! and with chunks decoding straight into records the checksum is a visible
//! share of ingest — so this is the slice-by-8 form: eight table lookups
//! fold eight input bytes per step, where the byte-at-a-time loop carries a
//! dependent shift-and-lookup through every byte.  Same polynomial, same
//! values; the tables are computed at compile time.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // lint:allow(indexing) -- const evaluation: i < 256 by the loop bound
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(indexing) -- const evaluation: 1 <= k < 8 and i < 256 by the loop bounds
            let prev = tables[k - 1][i];
            // lint:allow(indexing) -- const evaluation: the second index is masked to 0..=255
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[inline]
fn at(table: &[u32; 256], byte: u8) -> u32 {
    // lint:allow(indexing) -- a u8 indexes a 256-entry table
    table[usize::from(byte)]
}

/// Computes the IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = !0u32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in words {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = at(t7, a ^ c0)
            ^ at(t6, b ^ c1)
            ^ at(t5, c ^ c2)
            ^ at(t4, d ^ c3)
            ^ at(t3, e)
            ^ at(t2, f)
            ^ at(t1, g)
            ^ at(t0, h);
    }
    for &byte in tail {
        let [c0, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ at(t0, byte ^ c0);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop_at_every_length_and_offset() {
        // Lengths 0..=64 cover no word, one word, several words and every
        // tail length; start offsets 0..8 every alignment of the buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..80)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
        for vector in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32(vector), crc32_bytewise(vector));
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"chunk payload bytes".to_vec();
        let baseline = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), baseline, "flip at byte {i} bit {bit}");
            }
        }
    }
}
