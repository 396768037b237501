//! Lightweight-cipher negotiation (§IV-A2): "the proposed lightweight
//! algorithms need to be adopted by the vendors to provide end-to-end
//! data security and integrity" — but which algorithm fits which device
//! is dictated by the Table I resource envelope. The XLF Core negotiates
//! the strongest cipher each device can sustain and derives per-device
//! session keys.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use xlf_device::{CryptoFeasibility, DeviceSpec, ResourceModel};
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::{registry, CipherInfo, CryptoError};
use xlf_simnet::SimTime;

/// A negotiated cryptographic session for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiatedSession {
    /// Device the session belongs to.
    pub device: String,
    /// The selected algorithm.
    pub cipher: CipherInfo,
    /// Derived session key (length = the cipher's smallest key).
    pub session_key: Vec<u8>,
    /// Estimated throughput on the device (bytes/second).
    pub throughput_bps: f64,
}

/// Negotiation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationError {
    /// The device cannot run any candidate at the required rate.
    NoFeasibleCipher {
        /// Device concerned.
        device: String,
    },
    /// The session key could not be derived (empty master secret).
    KeyDerivation(CryptoError),
}

impl std::fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NegotiationError::NoFeasibleCipher { device } => {
                write!(f, "no feasible cipher for device {device}")
            }
            NegotiationError::KeyDerivation(e) => write!(f, "session key derivation failed: {e}"),
        }
    }
}

impl std::error::Error for NegotiationError {}

/// The negotiator.
#[derive(Debug)]
pub struct CipherNegotiator {
    candidates: Vec<CipherInfo>,
    master_secret: Vec<u8>,
    bus: Option<EvidenceBus>,
}

impl CipherNegotiator {
    /// Creates a negotiator over the full Table III registry.
    pub fn new(master_secret: &[u8]) -> Self {
        CipherNegotiator {
            candidates: registry(b"negotiation catalog")
                .iter()
                .map(|c| c.info())
                .collect(),
            master_secret: master_secret.to_vec(),
            bus: None,
        }
    }

    /// Attaches the evidence bus (failures become Core evidence).
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Negotiates for one device at the required sustained rate.
    ///
    /// # Errors
    ///
    /// [`NegotiationError::NoFeasibleCipher`] when nothing fits; also
    /// reported to the Core as [`EvidenceKind::TelemetryAnomaly`]-grade
    /// context so policy can flag unprotectable devices.
    pub fn negotiate(
        &self,
        device_name: &str,
        spec: &DeviceSpec,
        required_bps: f64,
        now: SimTime,
    ) -> Result<NegotiatedSession, NegotiationError> {
        let model = ResourceModel::new(spec.clone());
        let Some(chosen) = model.negotiate_cipher(&self.candidates, required_bps) else {
            if let Some(bus) = &self.bus {
                bus.report(Evidence::new(
                    now,
                    Layer::Device,
                    device_name,
                    EvidenceKind::TelemetryAnomaly,
                    0.4,
                    &format!("no feasible cipher at {required_bps} B/s — device unprotectable"),
                ));
            }
            return Err(NegotiationError::NoFeasibleCipher {
                device: device_name.to_string(),
            });
        };
        let throughput = match model.crypto_feasibility(chosen, required_bps) {
            CryptoFeasibility::Fits { throughput_bps } => throughput_bps,
            _ => unreachable!("negotiate_cipher only returns fitting ciphers"),
        };
        let key_len = chosen.key_bits.iter().min().copied().unwrap_or(128) / 8;
        let session_key = derive_key(
            &self.master_secret,
            &format!("session/{device_name}/{}", chosen.name),
            key_len,
        )
        .map_err(NegotiationError::KeyDerivation)?;
        Ok(NegotiatedSession {
            device: device_name.to_string(),
            cipher: chosen.clone(),
            session_key,
            throughput_bps: throughput,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;
    use xlf_device::DeviceClass;

    #[test]
    fn sensors_get_a_lightweight_cipher() {
        let negotiator = CipherNegotiator::new(b"home master");
        let spec = DeviceSpec::of(DeviceClass::SensorDevice);
        let session = negotiator
            .negotiate("soil-sensor", &spec, 500.0, SimTime::ZERO)
            .unwrap();
        assert!(session.throughput_bps >= 500.0);
        assert!(!session.session_key.is_empty());
    }

    #[test]
    fn empty_master_secret_is_a_structured_error() {
        let negotiator = CipherNegotiator::new(b"");
        let spec = DeviceSpec::of(DeviceClass::SensorDevice);
        let err = negotiator
            .negotiate("soil-sensor", &spec, 500.0, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::KeyDerivation(_)), "{err}");
    }

    #[test]
    fn tvs_get_a_256_bit_capable_cipher() {
        let negotiator = CipherNegotiator::new(b"home master");
        let spec = DeviceSpec::of(DeviceClass::SamsungSmartTv);
        let session = negotiator
            .negotiate("tv", &spec, 100_000.0, SimTime::ZERO)
            .unwrap();
        assert!(session.cipher.key_bits.contains(&256));
    }

    #[test]
    fn passive_tags_fail_with_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let negotiator = CipherNegotiator::new(b"home master").with_bus(bus);
        let spec = DeviceSpec::of(DeviceClass::HidGlassTagRfid);
        let err = negotiator
            .negotiate("tag", &spec, 10.0, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoFeasibleCipher { .. }));
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 1);
    }

    #[test]
    fn session_keys_are_per_device_and_deterministic() {
        let negotiator = CipherNegotiator::new(b"home master");
        let spec = DeviceSpec::of(DeviceClass::SensorDevice);
        let a = negotiator
            .negotiate("s1", &spec, 100.0, SimTime::ZERO)
            .unwrap();
        let b = negotiator
            .negotiate("s2", &spec, 100.0, SimTime::ZERO)
            .unwrap();
        let a2 = negotiator
            .negotiate("s1", &spec, 100.0, SimTime::ZERO)
            .unwrap();
        assert_ne!(a.session_key, b.session_key);
        assert_eq!(a.session_key, a2.session_key);
    }
}
