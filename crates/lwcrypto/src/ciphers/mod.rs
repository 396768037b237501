//! Block-cipher implementations covering every algorithm in the paper's
//! Table III (plus SPECK/SIMON, which the NIST lightweight-cryptography
//! report the paper cites also recommends).
//!
//! Each cipher documents its [`SpecFidelity`](crate::SpecFidelity) level;
//! see the crate docs for the taxonomy.

mod aes;
mod des;
mod hight;
mod hummingbird2;
mod iceberg;
mod lea;
mod present;
mod pride;
mod rc5;
mod seed;
mod simon;
mod speck;
mod tea;
mod twine;

pub use aes::Aes;
pub use des::{Des, Desl, TripleDes};
pub use hight::Hight;
pub use hummingbird2::Hummingbird2;
pub use iceberg::Iceberg;
pub use lea::Lea;
pub use present::{Present128, Present80};
pub use pride::Pride;
pub use rc5::Rc5;
pub use seed::Seed;
pub use simon::Simon128;
pub use speck::Speck128;
pub(crate) use speck::{join_words, split_words};
pub use tea::{Tea, Xtea};
pub use twine::Twine;

#[cfg(test)]
pub(crate) mod proptests {
    //! Shared property tests applied to every cipher: roundtrip over random
    //! blocks, single-bit avalanche, and key sensitivity.

    use crate::BlockCipher;
    use rand::{Rng, SeedableRng};

    /// Encrypt-then-decrypt over many random blocks must be the identity.
    pub fn roundtrip(cipher: &dyn BlockCipher) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..64 {
            let mut block: Vec<u8> = (0..cipher.block_size()).map(|_| rng.gen()).collect();
            let original = block.clone();
            cipher.encrypt_block(&mut block).unwrap();
            assert_ne!(
                block,
                original,
                "{}: encryption is identity",
                cipher.info().name
            );
            cipher.decrypt_block(&mut block).unwrap();
            assert_eq!(block, original, "{}: roundtrip failed", cipher.info().name);
        }
    }

    /// Flipping one plaintext bit should flip a substantial fraction of
    /// ciphertext bits on average (we require > 20% over 32 trials — loose
    /// enough for 16-bit-block ciphers, far above what a broken/linear
    /// implementation achieves).
    pub fn avalanche(cipher: &dyn BlockCipher) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xAA11);
        let bs = cipher.block_size();
        let mut total_flipped = 0usize;
        let trials = 32usize;
        for _ in 0..trials {
            let base: Vec<u8> = (0..bs).map(|_| rng.gen()).collect();
            let mut a = base.clone();
            let mut b = base.clone();
            let bit = rng.gen_range(0..bs * 8);
            b[bit / 8] ^= 1 << (bit % 8);
            cipher.encrypt_block(&mut a).unwrap();
            cipher.encrypt_block(&mut b).unwrap();
            total_flipped += a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| (x ^ y).count_ones() as usize)
                .sum::<usize>();
        }
        let avg_fraction = total_flipped as f64 / (trials * bs * 8) as f64;
        assert!(
            avg_fraction > 0.20,
            "{}: weak avalanche, avg fraction {:.3}",
            cipher.info().name,
            avg_fraction
        );
    }

    /// Two ciphers keyed differently must not agree on a block.
    pub fn key_sensitivity<F>(mk: F)
    where
        F: Fn(&[u8]) -> Box<dyn BlockCipher>,
    {
        let c1 = mk(&[0x11u8; 64]);
        let c2 = mk(&[0x12u8; 64]);
        let mut b1 = vec![0x33u8; c1.block_size()];
        let mut b2 = b1.clone();
        c1.encrypt_block(&mut b1).unwrap();
        c2.encrypt_block(&mut b2).unwrap();
        assert_ne!(
            b1,
            b2,
            "{}: key changes must change ciphertext",
            c1.info().name
        );
    }
}
