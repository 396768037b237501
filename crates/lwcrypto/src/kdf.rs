//! Key derivation: an extract-then-expand KDF (HKDF-shaped) built on the
//! crate's [`crate::hash::LightHash`] and CBC-MAC PRF, used by
//! XLF to derive per-session, per-device, and per-purpose keys from a
//! master secret.

use crate::ciphers::Speck128;
use crate::hash::LightHash;
use crate::mac::prf;
use crate::CryptoError;

/// Derives `len` bytes of key material from `secret`, bound to `context`.
///
/// Extract: hash the secret into a uniform 32-byte PRK. Expand: PRF chain
/// keyed by the PRK's first 16 bytes, feeding back each output block.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidParameter`] if `len` is zero or greater
/// than 1024, or if `secret` is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// let session = xlf_lwcrypto::kdf::derive_key(b"master", "device-42/session", 16)?;
/// let other = xlf_lwcrypto::kdf::derive_key(b"master", "device-43/session", 16)?;
/// assert_ne!(session, other);
/// # Ok(())
/// # }
/// ```
pub fn derive_key(secret: &[u8], context: &str, len: usize) -> Result<Vec<u8>, CryptoError> {
    if secret.is_empty() {
        return Err(CryptoError::InvalidParameter(
            "KDF secret must be non-empty".to_string(),
        ));
    }
    if len == 0 || len > 1024 {
        return Err(CryptoError::InvalidParameter(format!(
            "KDF output length must be 1..=1024, got {len}"
        )));
    }

    // Extract.
    let mut extract = LightHash::new();
    extract.update(b"xlf-kdf-extract");
    extract.update(secret);
    let prk = extract.finalize();

    // Expand.
    let cipher = Speck128::new(&prk[..16])?;
    let mut out = Vec::with_capacity(len);
    let mut previous: Vec<u8> = prk[16..].to_vec();
    let mut counter = 0u32;
    while out.len() < len {
        let mut input = previous.clone();
        input.extend_from_slice(context.as_bytes());
        input.extend_from_slice(&counter.to_be_bytes());
        let block = prf(&cipher, "xlf-kdf-expand", &input)?;
        out.extend_from_slice(&block);
        previous = block;
        counter += 1;
    }
    out.truncate(len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            derive_key(b"s", "ctx", 32).unwrap(),
            derive_key(b"s", "ctx", 32).unwrap()
        );
    }

    #[test]
    fn output_is_pinned() {
        assert_eq!(
            derive_key(b"hub secret", "event-key/front-door", 16).unwrap(),
            [
                0x8d, 0x1d, 0xd2, 0x55, 0xaf, 0xd0, 0xd6, 0xfb, 0x8a, 0xf0, 0xca, 0xaf, 0x6e, 0xab,
                0xd3, 0x66
            ]
        );
    }

    #[test]
    fn context_and_secret_sensitive() {
        let base = derive_key(b"secret", "a", 16).unwrap();
        assert_ne!(base, derive_key(b"secret", "b", 16).unwrap());
        assert_ne!(base, derive_key(b"secreT", "a", 16).unwrap());
    }

    #[test]
    fn prefix_consistency_across_lengths() {
        let short = derive_key(b"s", "ctx", 16).unwrap();
        let long = derive_key(b"s", "ctx", 48).unwrap();
        assert_eq!(short[..], long[..16]);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(derive_key(b"", "ctx", 16).is_err());
        assert!(derive_key(b"s", "ctx", 0).is_err());
        assert!(derive_key(b"s", "ctx", 4096).is_err());
    }

    #[test]
    fn output_lengths_exact() {
        for len in [1usize, 15, 16, 17, 100, 1024] {
            assert_eq!(derive_key(b"s", "ctx", len).unwrap().len(), len);
        }
    }
}
