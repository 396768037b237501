//! Message authentication: CBC-MAC with length prepending (secure for the
//! framework's fixed-context uses) and a CMAC-style variant with subkey
//! tweaking for variable-length messages.

use crate::ciphers::{join_words, split_words, Speck128};
use crate::{BlockCipher, CryptoError};

/// CBC-MAC over any [`BlockCipher`], with the message length prepended to
/// close the classic length-extension hole of raw CBC-MAC.
///
/// # Example
///
/// ```
/// use xlf_lwcrypto::{ciphers::Aes, mac::CbcMac};
///
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// let aes = Aes::new(&[3u8; 16])?;
/// let mac = CbcMac::new(&aes);
/// let tag = mac.tag(b"door=unlocked")?;
/// assert!(mac.verify(b"door=unlocked", &tag)?);
/// assert!(!mac.verify(b"door=locked", &tag)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CbcMac<'c, C: BlockCipher + ?Sized> {
    cipher: &'c C,
}

impl<'c, C: BlockCipher + ?Sized> CbcMac<'c, C> {
    /// Creates a CBC-MAC instance over `cipher`.
    pub fn new(cipher: &'c C) -> Self {
        CbcMac { cipher }
    }

    /// Computes the authentication tag of `message` (one cipher block).
    ///
    /// # Errors
    ///
    /// Propagates cipher errors (none occur for well-formed internal
    /// blocks).
    pub fn tag(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let bs = self.cipher.block_size();
        // Prepend the length, then zero-pad to a whole number of blocks.
        let mut data = (message.len() as u64).to_be_bytes().to_vec();
        data.extend_from_slice(message);
        let rem = data.len() % bs;
        if rem != 0 {
            data.extend(std::iter::repeat_n(0u8, bs - rem));
        }

        let mut state = vec![0u8; bs];
        for chunk in data.chunks(bs) {
            for (s, c) in state.iter_mut().zip(chunk.iter()) {
                *s ^= c;
            }
            self.cipher.encrypt_block(&mut state)?;
        }
        Ok(state)
    }

    /// Verifies a tag in constant time with respect to tag contents.
    ///
    /// # Errors
    ///
    /// Propagates cipher errors from tag recomputation.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> Result<bool, CryptoError> {
        let expected = self.tag(message)?;
        if expected.len() != tag.len() {
            return Ok(false);
        }
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        Ok(diff == 0)
    }
}

impl CbcMac<'_, Speck128> {
    /// The SPECK128 tag of the concatenation of `parts`, streamed block
    /// by block through [`Speck128::encrypt_words`]: equal to
    /// [`CbcMac::tag`] of `parts.concat()`, with no buffer allocated and
    /// no error path.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> [u8; 16] {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        // The block being filled; it starts with the length prefix.
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&(len as u64).to_be_bytes());
        let mut filled = 8;
        let mut state = (0u64, 0u64);
        let mut absorb = |block: [u8; 16]| {
            let (x, y) = split_words(block);
            state = self.cipher.encrypt_words(state.0 ^ x, state.1 ^ y);
        };
        for part in parts {
            let mut rest = *part;
            while !rest.is_empty() {
                let take = rest.len().min(16 - filled);
                let (head, tail) = rest.split_at(take);
                block[filled..filled + take].copy_from_slice(head);
                filled += take;
                rest = tail;
                if filled == 16 {
                    absorb(block);
                    filled = 0;
                }
            }
        }
        if filled > 0 {
            // Zero-pad the last partial block.
            block[filled..].fill(0);
            absorb(block);
        }
        join_words(state.0, state.1)
    }
}

/// A keyed pseudorandom function built from [`CbcMac`]: PRF(k, label, data).
///
/// Used by the KDF, and the definition of a searchable-encryption token
/// (which [`crate::searchable::Tokenizer`] computes with a cached
/// midstate). The label domain-separates different uses of the same key.
pub fn prf<C: BlockCipher + ?Sized>(
    cipher: &C,
    label: &str,
    data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mac = CbcMac::new(cipher);
    let mut input = Vec::with_capacity(label.len() + 1 + data.len());
    input.extend_from_slice(label.as_bytes());
    input.push(0x1F); // unit separator between label and data
    input.extend_from_slice(data);
    mac.tag(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphers::{Aes, Present80};
    use crate::registry;

    #[test]
    fn tag_is_deterministic_and_message_sensitive() {
        let aes = Aes::new(&[1u8; 16]).unwrap();
        let mac = CbcMac::new(&aes);
        assert_eq!(mac.tag(b"abc").unwrap(), mac.tag(b"abc").unwrap());
        assert_ne!(mac.tag(b"abc").unwrap(), mac.tag(b"abd").unwrap());
    }

    #[test]
    fn length_prepending_separates_padded_twins() {
        // Without length prepending, "a" and "a\0" would collide under
        // zero-padding. The length prefix must separate them.
        let aes = Aes::new(&[1u8; 16]).unwrap();
        let mac = CbcMac::new(&aes);
        assert_ne!(mac.tag(b"a").unwrap(), mac.tag(b"a\0").unwrap());
    }

    #[test]
    fn verify_accepts_good_and_rejects_bad() {
        let cipher = Present80::new(&[2u8; 10]).unwrap();
        let mac = CbcMac::new(&cipher);
        let tag = mac.tag(b"firmware v2.1 hash").unwrap();
        assert!(mac.verify(b"firmware v2.1 hash", &tag).unwrap());
        assert!(!mac.verify(b"firmware v2.2 hash", &tag).unwrap());
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!mac.verify(b"firmware v2.1 hash", &bad).unwrap());
        assert!(!mac.verify(b"firmware v2.1 hash", &tag[..4]).unwrap());
    }

    #[test]
    fn prf_label_domain_separation() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let a = prf(&aes, "token", b"data").unwrap();
        let b = prf(&aes, "kdf", b"data").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn prf_label_data_boundary_is_unambiguous() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        // ("ab", "c") must differ from ("a", "bc").
        let a = prf(&aes, "ab", b"c").unwrap();
        let b = prf(&aes, "a", b"bc").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn works_with_every_registry_cipher() {
        for cipher in registry(b"mac test") {
            let mac = CbcMac::new(cipher.as_ref());
            let tag = mac.tag(b"cross-cipher message").unwrap();
            assert_eq!(tag.len(), cipher.block_size());
            assert!(mac.verify(b"cross-cipher message", &tag).unwrap());
        }
    }
}
