//! CRC32C (Castagnoli): the content checksum of the storage formats.
//!
//! A CRC detects every single-bit error, every burst of up to 32 bits
//! and every odd number of flipped bits; the Castagnoli polynomial keeps
//! its guarantees over longer messages than the IEEE one. Computed here
//! with slicing-by-8 — eight 256-entry tables, one input word per step —
//! so no dependency is needed and a 4 MB buffer costs about a
//! millisecond.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::crc32c;

    /// Bit-at-a-time reference: the definition the tables unroll.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ super::POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) B.4: 32 bytes of zeros, and of ones.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn slicing_matches_the_bitwise_definition_at_every_length_and_offset() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7919 % 251) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32c(&data[start..end]), reference(&data[start..end]));
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let data: Vec<u8> = (0..64u8).collect();
        let good = crc32c(&data);
        for bit in 0..data.len() * 8 {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&bad), good, "bit {bit}");
        }
    }
}
