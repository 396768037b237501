//! A lightweight 256-bit hash built as a Davies–Meyer compression function
//! over SPECK128/128 in Merkle–Damgård chaining — the construction the NIST
//! lightweight-cryptography report (cited by the paper) describes for
//! building hashes from lightweight block ciphers.
//!
//! This is an original composition for the reproduction (documented as
//! such), not a published standard hash. It is collision-resistant to the
//! extent SPECK is ideal; XLF uses it for firmware fingerprints and token
//! binding inside the simulation only.

use crate::ciphers::{join_words, split_words, Speck128};

/// Output size of [`LightHash`] in bytes.
pub const DIGEST_SIZE: usize = 32;

/// Streaming lightweight hash (Davies–Meyer over SPECK128/128).
///
/// # Example
///
/// ```
/// use xlf_lwcrypto::hash::LightHash;
///
/// let d1 = LightHash::digest(b"firmware image v1");
/// let d2 = LightHash::digest(b"firmware image v2");
/// assert_ne!(d1, d2);
/// assert_eq!(d1, LightHash::digest(b"firmware image v1"));
/// ```
#[derive(Debug, Clone)]
pub struct LightHash {
    /// Two chaining halves of 16 bytes each.
    state: [[u8; 16]; 2],
    buffer: Vec<u8>,
    total_len: u64,
}

impl Default for LightHash {
    fn default() -> Self {
        Self::new()
    }
}

impl LightHash {
    /// Creates a fresh hasher with the fixed IV.
    pub fn new() -> Self {
        LightHash {
            state: [*b"XLF light hash A", *b"XLF light hash B"],
            buffer: Vec::new(),
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        self.buffer.extend_from_slice(data);
        let (blocks, _) = self.buffer.as_chunks::<16>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        let absorbed = blocks.len() * 16;
        self.buffer.drain(..absorbed);
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        // Pad: 0x80, zeros, 8-byte big-endian length.
        let mut tail = std::mem::take(&mut self.buffer);
        tail.push(0x80);
        while tail.len() % 16 != 8 {
            tail.push(0);
        }
        tail.extend_from_slice(&self.total_len.to_be_bytes());
        // The padding makes `tail` a whole number of blocks.
        for block in tail.as_chunks::<16>().0 {
            compress(&mut self.state, block);
        }
        let mut out = [0u8; DIGEST_SIZE];
        out[..16].copy_from_slice(&self.state[0]);
        out[16..].copy_from_slice(&self.state[1]);
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = LightHash::new();
        h.update(data);
        h.finalize()
    }
}

/// Davies–Meyer: H_i = E_{m}(H_{i-1}) ⊕ H_{i-1}, applied to both halves
/// with domain-separating tweaks.
fn compress(state: &mut [[u8; 16]; 2], block: &[u8; 16]) {
    let (l, k) = split_words(*block);
    let cipher = Speck128::from_key_words(l, k);
    for (i, half) in state.iter_mut().enumerate() {
        let (x, y) = split_words(*half);
        // Domain-separate the two halves (XOR into the first byte) so
        // they do not stay equal.
        let (ex, ey) = cipher.encrypt_words(x ^ ((i as u64 + 1) << 56), y);
        *half = join_words(x ^ ex, y ^ ey);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(LightHash::digest(b"abc"), LightHash::digest(b"abc"));
    }

    #[test]
    fn digests_are_pinned() {
        let hex =
            |d: [u8; DIGEST_SIZE]| -> String { d.iter().map(|b| format!("{b:02x}")).collect() };
        assert_eq!(
            hex(LightHash::digest(b"")),
            "7c84869c9d4a36e498b90f1f7d7fa95a9d64326a3205f879f549345091714379"
        );
        assert_eq!(
            hex(LightHash::digest(b"abc")),
            "f7c184ffcecc989610f9490bbefeed49caa74fe4332e3e7a21a42ce7506e1f41"
        );
        assert_eq!(
            hex(LightHash::digest(
                b"a longer message spanning multiple compression blocks!!"
            )),
            "18f08c9a63044e490d5de820eb2a5eab678b5ec0f5d9dc1cbe82daa3f67baf79"
        );
    }

    #[test]
    fn input_sensitive() {
        assert_ne!(LightHash::digest(b"abc"), LightHash::digest(b"abd"));
        assert_ne!(LightHash::digest(b""), LightHash::digest(b"\0"));
    }

    #[test]
    fn length_extension_padding_separates_prefixes() {
        // "a" and "a\0..0" (a full padded block) must hash differently.
        assert_ne!(
            LightHash::digest(b"a"),
            LightHash::digest(&[b'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"a longer message spanning multiple compression blocks!!";
        let mut h = LightHash::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), LightHash::digest(data));
    }

    #[test]
    fn no_trivial_collisions_over_small_corpus() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..2000u32 {
            let digest = LightHash::digest(&i.to_be_bytes());
            assert!(seen.insert(digest), "collision at {i}");
        }
    }

    #[test]
    fn digest_bits_look_balanced() {
        // Population count over many digests should be near half the bits.
        let mut ones = 0u64;
        let trials = 256u32;
        for i in 0..trials {
            let d = LightHash::digest(&i.to_le_bytes());
            ones += d.iter().map(|b| b.count_ones() as u64).sum::<u64>();
        }
        let total_bits = trials as u64 * DIGEST_SIZE as u64 * 8;
        let fraction = ones as f64 / total_bits as f64;
        assert!((0.45..0.55).contains(&fraction), "bias: {fraction}");
    }
}
