//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! framing every page, WAL record, shipped message and protocol frame,
//! hand-rolled so the crate stays dependency-free.
//!
//! It is computed slice-by-16. `TABLES[0]` is the classic bytewise table;
//! `TABLES[k][b]` is what the register holds after byte `b` followed by
//! `k` zero bytes, starting from zero. A block of 16 input bytes, the
//! running CRC xored into its first four, is then folded by xoring 16
//! independent lookups — byte `j` of the block in `TABLES[15 - j]` —
//! instead of a chain of 16 dependent ones. A tail of fewer than 16 bytes
//! goes through the bytewise loop. Every input gets the value the
//! bytewise algorithm gives (the hardware CRC32C instructions use another
//! polynomial, so they cannot produce it), which is what keeps files and
//! streams written by earlier builds readable.

/// All 16 tables, each entry shifted through the polynomial one bit at a
/// time: 8 shifts for byte `b`, 8 more per trailing zero byte.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 16 * 256 {
        let mut c = (i % 256) as u32;
        let mut k = 0;
        while k < 8 * (i / 256 + 1) {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[i / 256][i % 256] = c;
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `data` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_seeded(0, data)
}

/// Continues a CRC computed by [`crc32`] — `crc32_seeded(crc32(a), b)`
/// equals `crc32(a ++ b)`, which lets page checksums cover a header and a
/// payload without concatenating them.
pub fn crc32_seeded(seed: u32, data: &[u8]) -> u32 {
    let mut c = !seed;
    let (blocks, tail) = data.as_chunks::<16>();
    for &block in blocks {
        let mut b = block;
        for (byte, crc) in b.iter_mut().zip(c.to_le_bytes()) {
            *byte ^= crc;
        }
        c = b.iter().zip(TABLES.iter().rev()).fold(0, |acc, (&x, t)| acc ^ t[x as usize]);
    }
    for &x in tail {
        c = TABLES[0][((c ^ x as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-lookup loop the sliced kernel must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic, irregular bytes (an xorshift stream).
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_loop_at_every_length_and_offset() {
        let data = noise(300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn seeding_composes_at_every_split() {
        assert_eq!(crc32(b"hello world"), crc32_seeded(crc32(b"hello "), b"world"));
        let data = noise(200);
        let whole = crc32(&data);
        for at in 0..=data.len() {
            let (a, b) = data.split_at(at);
            assert_eq!(crc32_seeded(crc32(a), b), whole, "split at {at}");
        }
    }

    #[test]
    fn pins_the_value_over_a_4_kib_input() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        // the value zlib's `crc32` gives for the same bytes
        assert_eq!(crc32(&data), 0x5D1C_4EE3);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"some page payload".to_vec();
        let good = crc32(&data);
        data[3] ^= 1;
        assert_ne!(crc32(&data), good);
    }
}
