//! Table-driven CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), std-only.
//!
//! The `jsn serve` wire protocol checksums every frame with this CRC so
//! that byte corruption on the wire — a flipped bit in a record payload,
//! a duplicated or sheared write from a broken middlebox — is *detected*
//! rather than silently mis-decoded into plausible-looking trace
//! records. The tables live here, next to the record codec, because the
//! trace encoding is the unit the checksum protects: a `Records` frame
//! is this crate's fixed-width records behind a checksummed header.
//!
//! The implementation is slicing-by-16 (Kounavis & Berry, ISCC 2005):
//! sixteen 256-entry reflected tables, built at compile time, fold
//! sixteen bytes into the state per step, and a byte-at-a-time loop
//! over table 0 finishes the tail. Table `k` advances a byte's
//! contribution past `k` further zero bytes, so the sixteen lookups of
//! one step XOR to exactly what sixteen single-byte steps compute.
//!
//! One slicing step depends on the one before it, so a single state
//! leaves most of the core's load ports idle. An input of at least
//! `MIN_LANED` bytes is therefore cut into three equal runs of whole
//! 16-byte blocks, each folded into its own state in one loop — the
//! "braided" construction of zlib 1.2.12 — with the second and third
//! lanes starting from state 0. The CRC register is linear over GF(2),
//! so the lanes join exactly: advancing a state past `n` bytes is a
//! carry-less multiply by x^(8n) mod P (`shift`), built from a table
//! of x^(8·2^k), one 32-step multiply per set bit of `n`. What is left
//! after the lanes, and every shorter input, takes the single-lane
//! path. Portable code only: no SIMD or carry-less-multiply intrinsics.

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// Independent states a long input is folded into at once.
const LANES: usize = 3;

/// The shortest input cut into lanes: below it the lanes would be a few
/// blocks each, and the two joining shifts cost more than they save.
const MIN_LANED: usize = 768;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic reflected byte table for `0xEDB88320`;
/// `TABLES[k][b]` is the CRC state of byte `b` followed by `k` zero
/// bytes.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `X8N[k]` is x^(8·2^k) mod P in the reflected representation (bit 31
/// is x^0): multiplying a state by it advances the state past 2^k zero
/// bytes.
const X8N: [u32; 64] = build_x8n();

const fn build_x8n() -> [u32; 64] {
    let mut table = [0u32; 64];
    table[0] = 1 << (31 - 8); // x^8
    let mut k = 1;
    while k < 64 {
        table[k] = mul(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

/// `a · b mod P` over GF(2), both reflected: 32 steps, each adding `b`
/// when `a`'s bit for x^i is set and then multiplying `b` by x.
const fn mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        // All ones when `a` holds x^i (bit 31 - i), else zero.
        product ^= b & ((a << i) as i32 >> 31) as u32;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// The state `crc` advanced past `n` zero bytes: `crc · x^(8n) mod P`.
fn shift(mut crc: u32, n: usize) -> u32 {
    let mut rest = n as u64;
    for &x8n in &X8N {
        if rest == 0 {
            break;
        }
        if rest & 1 != 0 {
            crc = mul(x8n, crc);
        }
        rest >>= 1;
    }
    crc
}

/// Fold one 16-byte block into `crc`.
#[inline(always)]
fn step(crc: u32, b: &[u8; SLICE]) -> u32 {
    let t = &TABLES;
    // The state folds into the first four bytes. Byte `i` of the block
    // has `15 - i` bytes after it, so table `15 - i`.
    let c = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    t[15][(c & 0xFF) as usize]
        ^ t[14][((c >> 8) & 0xFF) as usize]
        ^ t[13][((c >> 16) & 0xFF) as usize]
        ^ t[12][(c >> 24) as usize]
        ^ t[11][b[4] as usize]
        ^ t[10][b[5] as usize]
        ^ t[9][b[6] as usize]
        ^ t[8][b[7] as usize]
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// An incremental CRC-32 over a byte stream.
///
/// Use [`crc32`] for one-shot slices; use this when a frame is hashed
/// in pieces (header bytes, then payload) without concatenating.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum (state `0xFFFFFFFF`).
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let (mut blocks, tail) = bytes.as_chunks::<SLICE>();
        let mut crc = self.state;
        if bytes.len() >= MIN_LANED {
            let n = blocks.len() / LANES;
            let (laned, rest) = blocks.split_at(n * LANES);
            let lanes: [&[[u8; SLICE]]; LANES] = std::array::from_fn(|l| &laned[l * n..][..n]);
            let mut states = [0; LANES];
            states[0] = crc;
            for i in 0..n {
                for (state, lane) in states.iter_mut().zip(lanes) {
                    *state = step(*state, &lane[i]);
                }
            }
            // Each lane's bytes follow the lanes before it.
            crc = states[1..].iter().fold(states[0], |acc, &lane| shift(acc, n * SLICE) ^ lane);
            blocks = rest;
        }
        for block in blocks {
            crc = step(crc, block);
        }
        for &b in tail {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The finalized (bit-inverted) CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Known-answer vectors for the IEEE CRC-32 — the same values every
    /// zlib/PNG/Ethernet implementation produces.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0x00]), 0xD202_EF8D);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    /// The CRC straight from its definition: shift the reflected
    /// polynomial through one bit at a time, no tables.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Every length across the 16-byte block boundary and the tail, at
    /// every alignment of the start within a block.
    #[test]
    fn sliced_crc_matches_the_bitwise_definition() {
        let buf: Vec<u8> = (0..316u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bitwise_crc32(bytes), "start {start}, len {len}");
            }
        }
    }

    /// Every split of a 64-byte buffer puts the boundary at each
    /// alignment within a 16-byte block; the long buffer crosses many.
    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let cases = [(64, (0..=64).collect()), (4096, vec![0, 1, 7, 100, 4095, 4096])];
        for (len, splits) in cases {
            let whole = crc32(&data[..len]);
            for split in splits {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), whole, "{len} bytes split at {split}");
            }
        }
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Every length up to 4096 crosses the laned cut-off, every lane
    /// length and every tail; the 64 KiB buffers are frame-sized.
    #[test]
    fn laned_crc_matches_the_bitwise_definition() {
        let mut rng = SplitMix64::new(0xC3C3_0001);
        let buf = random_bytes(&mut rng, 4096);
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), bitwise_crc32(&buf[..len]), "len {len}");
        }
        for _ in 0..4 {
            let buf = random_bytes(&mut rng, 64 * 1024);
            assert_eq!(crc32(&buf), bitwise_crc32(&buf));
        }
    }

    /// Seeded cuts put laned and single-lane pieces on either side of
    /// every boundary.
    #[test]
    fn updates_at_random_cut_points_match_one_shot() {
        let mut rng = SplitMix64::new(0xC3C3_0002);
        for _ in 0..64 {
            let len = 1 + (rng.next_u64() % (64 * 1024)) as usize;
            let buf = random_bytes(&mut rng, len);
            let mut cuts: Vec<usize> =
                (0..rng.next_u64() % 8).map(|_| (rng.next_u64() % len as u64) as usize).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.update(&buf[from..cut]);
                from = cut;
            }
            assert_eq!(c.finish(), crc32(&buf), "{len} bytes");
        }
    }

    /// The state folded through `n` zero bytes one lane at a time.
    fn zero_bytes(crc: u32, n: usize) -> u32 {
        let mut c = Crc32 { state: crc };
        for _ in 0..n {
            c.update(&[0]);
        }
        c.state
    }

    #[test]
    fn shift_equals_folding_zero_bytes() {
        let mut rng = SplitMix64::new(0xC3C3_0003);
        for n in (0..=300).chain([1024, 4096, 20_480, 65_535]) {
            let crc = rng.next_u64() as u32;
            assert_eq!(shift(crc, n), zero_bytes(crc, n), "{n} zero bytes");
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = [0x5Au8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data;
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {byte}:{bit} went undetected");
            }
        }
    }
}
