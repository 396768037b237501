//! Man-in-the-middle attacks against the TLS-lite channel (Table II's
//! oven row and the §III-B transport-channel analysis).
//!
//! An on-path attacker who merely observes ciphertext learns nothing and
//! cannot tamper undetected; one who has obtained the PSK (e.g. from the
//! UPnP leak or plaintext storage) reads and forges at will — exactly the
//! pivot chain the paper describes ("Access other devices").

use xlf_protocols::tls::{Role, Session, TlsError};

/// What an on-path attacker achieved against one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitmOutcome {
    /// Could not decrypt; record intact (attack failed).
    Blind,
    /// Read the plaintext using a leaked PSK.
    Read(Vec<u8>),
    /// Read and replaced the plaintext, re-encrypting validly.
    Tampered(Vec<u8>),
}

/// Attempts to read (and optionally replace) an intercepted client→server
/// record given a guessed/leaked PSK.
///
/// `session_id` is public (it travels in the clear during the handshake).
/// `record_index` is the position of the record in the stream (needed to
/// resynchronize the attacker's decryption state).
pub fn mitm_attempt(
    psk_guess: &[u8],
    session_id: &str,
    record_index: u64,
    record: &[u8],
    replace_with: Option<&[u8]>,
) -> MitmOutcome {
    // Build a server-side view with the guessed PSK, fast-forwarded past
    // earlier records.
    let mut receiver = Session::establish(psk_guess, session_id, Role::Server);
    let mut sender = Session::establish(psk_guess, session_id, Role::Client);
    for _ in 0..record_index {
        // Burn sequence numbers to align with the intercepted record.
        let Ok(burned) = sender.seal(b"") else {
            return MitmOutcome::Blind;
        };
        let _ = receiver.open(&burned);
    }
    match receiver.open(record) {
        Ok(plaintext) => match replace_with {
            Some(new_payload) => sender
                .seal(new_payload)
                .map_or(MitmOutcome::Blind, MitmOutcome::Tampered),
            None => MitmOutcome::Read(plaintext),
        },
        Err(TlsError::BadRecordMac) | Err(_) => MitmOutcome::Blind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PSK: &[u8] = b"wifi-derived psk";

    fn client_record(payload: &[u8]) -> Vec<u8> {
        let mut client = Session::establish(PSK, "oven-session", Role::Client);
        client.seal(payload).unwrap()
    }

    #[test]
    fn without_the_psk_the_attacker_is_blind() {
        let record = client_record(b"oven: preheat 400F");
        let outcome = mitm_attempt(b"wrong guess", "oven-session", 0, &record, None);
        assert_eq!(outcome, MitmOutcome::Blind);
    }

    #[test]
    fn leaked_psk_allows_reading() {
        // The pivot: the UPnP sniff leaked the WiFi password → PSK.
        let record = client_record(b"oven: preheat 400F");
        let outcome = mitm_attempt(PSK, "oven-session", 0, &record, None);
        assert_eq!(outcome, MitmOutcome::Read(b"oven: preheat 400F".to_vec()));
    }

    #[test]
    fn leaked_psk_allows_valid_forgery() {
        let record = client_record(b"oven: preheat 400F");
        let outcome = mitm_attempt(
            PSK,
            "oven-session",
            0,
            &record,
            Some(b"oven: self-clean 900F"),
        );
        let MitmOutcome::Tampered(forged) = outcome else {
            panic!("expected tampering to succeed");
        };
        // The forged record validates at the real server.
        let mut server = Session::establish(PSK, "oven-session", Role::Server);
        assert_eq!(server.open(&forged).unwrap(), b"oven: self-clean 900F");
    }

    #[test]
    fn later_records_require_sequence_alignment() {
        let mut client = Session::establish(PSK, "s", Role::Client);
        let _r0 = client.seal(b"first").unwrap();
        let r1 = client.seal(b"second").unwrap();
        assert_eq!(
            mitm_attempt(PSK, "s", 1, &r1, None),
            MitmOutcome::Read(b"second".to_vec())
        );
        // Misaligned index ⇒ wrong nonce ⇒ MAC still verifies? No: the MAC
        // key is right but replay protection rejects the out-of-order seq.
        assert_eq!(mitm_attempt(PSK, "s", 2, &r1, None), MitmOutcome::Blind);
    }
}
