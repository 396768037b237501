//! The event subsystem: devices report attribute changes as events; apps
//! subscribe to them.
//!
//! Reproduces the two flaws of Fernandes et al. the paper cites (§IV-C2):
//! *insufficient sensitive event data protection* (any app subscribed to
//! an event name receives sensitive payloads) and *unprotected event
//! integrity* ("malicious actors could easily launch spoofing event
//! attacks"). [`EventPolicy`] selects the vulnerable or hardened posture.

use crate::capability::Capability;
use std::collections::BTreeMap;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::CbcMac;
use xlf_lwcrypto::CryptoError;
use xlf_simnet::SimTime;

/// Where an event claims to come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// Reported by the device itself (via the hub).
    Device,
    /// Generated by an app (e.g. simulated events for testing).
    App,
}

/// One attribute-change event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloudEvent {
    /// When the cloud received it.
    pub at: SimTime,
    /// Originating device.
    pub device: String,
    /// Attribute that changed.
    pub attribute: String,
    /// New value.
    pub value: String,
    /// Claimed source.
    pub source: EventSource,
    /// Integrity tag under the device's event key, if the sender signed.
    pub mac: Option<[u8; 16]>,
}

/// The device's event-MAC cipher: a pure function of the hub secret and
/// the device name, so [`EventBus`] derives it once per device. Fails
/// only for an empty hub secret.
fn event_cipher(device: &str, hub_secret: &[u8]) -> Result<Speck128, CryptoError> {
    Speck128::new(&derive_key(hub_secret, &format!("event-key/{device}"), 16)?)
}

/// The event MAC: SPECK128 CBC-MAC over
/// `device ‖ 0 ‖ attribute ‖ 0 ‖ value ‖ 0 ‖ be64(at in µs)`, streamed
/// field by field. The one tag function behind every sign and verify.
fn event_tag(cipher: &Speck128, event: &CloudEvent) -> [u8; 16] {
    CbcMac::new(cipher).tag_parts(&[
        event.device.as_bytes(),
        &[0],
        event.attribute.as_bytes(),
        &[0],
        event.value.as_bytes(),
        &[0],
        &event.at.as_micros().to_be_bytes(),
    ])
}

/// Whether `event` carries the tag `cipher` gives it, compared in
/// constant time with respect to the tag contents.
fn tag_verifies(cipher: &Speck128, event: &CloudEvent) -> bool {
    let Some(tag) = &event.mac else { return false };
    let expected = event_tag(cipher, event);
    expected
        .iter()
        .zip(tag)
        .fold(0u8, |diff, (a, b)| diff | (a ^ b))
        == 0
}

impl CloudEvent {
    /// Creates an unsigned event.
    pub fn new(at: SimTime, device: &str, attribute: &str, value: &str) -> Self {
        CloudEvent {
            at,
            device: device.to_string(),
            attribute: attribute.to_string(),
            value: value.to_string(),
            source: EventSource::Device,
            mac: None,
        }
    }

    /// Signs the event under the hub/device shared secret. An empty
    /// secret cannot key a MAC, so the event then stays unsigned.
    /// Derives the device's key on every call; [`EventBus::sign`] is the
    /// cached equivalent.
    pub fn signed(mut self, hub_secret: &[u8]) -> Self {
        self.mac = event_cipher(&self.device, hub_secret)
            .ok()
            .map(|cipher| event_tag(&cipher, &self));
        self
    }

    /// Verifies the integrity tag (always false under an empty secret).
    pub fn verify(&self, hub_secret: &[u8]) -> bool {
        self.mac.is_some()
            && event_cipher(&self.device, hub_secret)
                .is_ok_and(|cipher| tag_verifies(&cipher, self))
    }
}

/// Event-handling posture of the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventPolicy {
    /// Require a valid integrity MAC on device events (blocks spoofing).
    pub require_integrity: bool,
    /// Restrict sensitive-capability events to apps holding a sensitive
    /// grant for that device.
    pub protect_sensitive: bool,
}

impl EventPolicy {
    /// The vulnerable SmartThings-2016 posture the paper describes.
    pub fn permissive() -> Self {
        EventPolicy {
            require_integrity: false,
            protect_sensitive: false,
        }
    }

    /// The hardened XLF posture.
    pub fn hardened() -> Self {
        EventPolicy {
            require_integrity: true,
            protect_sensitive: true,
        }
    }
}

/// Why an event or delivery was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRejection {
    /// Missing or invalid MAC under `require_integrity`.
    IntegrityFailure,
}

/// A subscription: app → (device, attribute) pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Subscription {
    app: String,
    device: String,
    attribute: String,
    /// Whether the app holds a sensitive-data grant for this device.
    sensitive_grant: bool,
}

/// The cloud's event bus.
#[derive(Debug)]
pub struct EventBus {
    policy: EventPolicy,
    hub_secret: Vec<u8>,
    subscriptions: Vec<Subscription>,
    /// Delivered events per app (drained by the app engine).
    inboxes: BTreeMap<String, Vec<CloudEvent>>,
    /// Events accepted by policy so far, whether or not any inbox
    /// subscribed to them.
    pub published: u64,
    /// Events rejected by policy, for monitoring.
    pub rejected: Vec<(CloudEvent, EventRejection)>,
    /// Event-MAC ciphers under `hub_secret`, one per device, derived on
    /// first use.
    event_ciphers: BTreeMap<String, Speck128>,
}

impl EventBus {
    /// Creates a bus with the given policy and hub secret.
    pub fn new(policy: EventPolicy, hub_secret: &[u8]) -> Self {
        EventBus {
            policy,
            hub_secret: hub_secret.to_vec(),
            subscriptions: Vec::new(),
            inboxes: BTreeMap::new(),
            published: 0,
            rejected: Vec::new(),
            event_ciphers: BTreeMap::new(),
        }
    }

    /// The device's event-MAC cipher from the cache, derived and cached
    /// on first use; `None` under an empty hub secret.
    fn event_cipher(&mut self, device: &str) -> Option<&Speck128> {
        if !self.event_ciphers.contains_key(device) {
            let cipher = event_cipher(device, &self.hub_secret).ok()?;
            self.event_ciphers.insert(device.to_string(), cipher);
        }
        self.event_ciphers.get(device)
    }

    /// Signs `event` under the hub secret with the device's cached key:
    /// the same tag as [`CloudEvent::signed`], which derives the key
    /// every time. An empty secret leaves the event unsigned.
    pub fn sign(&mut self, mut event: CloudEvent) -> CloudEvent {
        event.mac = self
            .event_cipher(&event.device)
            .map(|cipher| event_tag(cipher, &event));
        event
    }

    /// [`CloudEvent::verify`] under the hub secret, with the device's
    /// cached key.
    fn verify(&mut self, event: &CloudEvent) -> bool {
        event.mac.is_some()
            && self
                .event_cipher(&event.device)
                .is_some_and(|cipher| tag_verifies(cipher, event))
    }

    /// Subscribes an app to (device, attribute) events. `sensitive_grant`
    /// marks whether the installation granted sensitive access.
    pub fn subscribe(&mut self, app: &str, device: &str, attribute: &str, sensitive_grant: bool) {
        self.subscriptions.push(Subscription {
            app: app.to_string(),
            device: device.to_string(),
            attribute: attribute.to_string(),
            sensitive_grant,
        });
    }

    /// Publishes an event, applying the policy; returns the number of app
    /// inboxes it reached, or the rejection.
    pub fn publish(
        &mut self,
        event: CloudEvent,
        capability: Option<Capability>,
    ) -> Result<usize, EventRejection> {
        if self.policy.require_integrity && !self.verify(&event) {
            self.rejected
                .push((event, EventRejection::IntegrityFailure));
            return Err(EventRejection::IntegrityFailure);
        }
        let sensitive = capability.map(|c| c.is_sensitive()).unwrap_or(false);
        let mut delivered = 0usize;
        for sub in &self.subscriptions {
            if sub.device != event.device || sub.attribute != event.attribute {
                continue;
            }
            if self.policy.protect_sensitive && sensitive && !sub.sensitive_grant {
                continue;
            }
            self.inboxes
                .entry(sub.app.clone())
                .or_default()
                .push(event.clone());
            delivered += 1;
        }
        self.published += 1;
        Ok(delivered)
    }

    /// Drains an app's inbox.
    pub fn drain(&mut self, app: &str) -> Vec<CloudEvent> {
        self.inboxes.remove(app).unwrap_or_default()
    }

    /// The hub secret (shared with legitimate event signers).
    pub fn hub_secret(&self) -> &[u8] {
        &self.hub_secret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUB: &[u8] = b"hub secret";

    fn signed_event(value: &str) -> CloudEvent {
        CloudEvent::new(SimTime::from_secs(1), "front-door", "lock", value).signed(HUB)
    }

    #[test]
    fn empty_hub_secret_leaves_events_unsigned() {
        let event = CloudEvent::new(SimTime::from_secs(1), "front-door", "lock", "open");
        assert_eq!(event.clone().signed(b"").mac, None);
        let signed = event.signed(HUB);
        assert!(signed.verify(HUB));
        assert!(!signed.verify(b""));
    }

    #[test]
    fn bus_derives_each_device_key_once() {
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        let devices = ["front-door", "thermostat", "camera"];
        for i in 0..1000u64 {
            let device = devices[(i % 3) as usize];
            let event = bus.sign(CloudEvent::new(SimTime::from_secs(i), device, "a", "v"));
            assert!(event.verify(HUB));
            assert_eq!(bus.publish(event, None), Ok(0));
        }
        assert_eq!(bus.event_ciphers.len(), 3);
    }

    #[test]
    fn subscribed_apps_receive_events() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("notifier", "front-door", "lock", false);
        let n = bus
            .publish(signed_event("unlocked"), Some(Capability::Lock))
            .unwrap();
        assert_eq!(n, 1);
        let inbox = bus.drain("notifier");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].value, "unlocked");
        assert!(bus.drain("notifier").is_empty());
    }

    #[test]
    fn permissive_bus_accepts_spoofed_events() {
        // The Fernandes et al. event-spoofing flaw.
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("auto-open", "front-door", "lock", false);
        let spoofed = CloudEvent::new(SimTime::ZERO, "front-door", "lock", "unlocked");
        assert_eq!(bus.publish(spoofed, Some(Capability::Lock)), Ok(1));
    }

    #[test]
    fn hardened_bus_rejects_spoofed_events() {
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        bus.subscribe("auto-open", "front-door", "lock", true);
        let spoofed = CloudEvent::new(SimTime::ZERO, "front-door", "lock", "unlocked");
        assert_eq!(
            bus.publish(spoofed, Some(Capability::Lock)),
            Err(EventRejection::IntegrityFailure)
        );
        assert_eq!(bus.rejected.len(), 1);
        // Legitimate signed events still flow.
        assert_eq!(
            bus.publish(signed_event("locked"), Some(Capability::Lock)),
            Ok(1)
        );
    }

    #[test]
    fn sensitive_protection_requires_a_grant() {
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        bus.subscribe("nosy-app", "front-door", "lock", false);
        bus.subscribe("trusted-app", "front-door", "lock", true);
        let n = bus
            .publish(signed_event("unlocked"), Some(Capability::Lock))
            .unwrap();
        assert_eq!(n, 1);
        assert!(bus.drain("nosy-app").is_empty());
        assert_eq!(bus.drain("trusted-app").len(), 1);
    }

    #[test]
    fn permissive_bus_leaks_sensitive_events_to_any_subscriber() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("nosy-app", "front-door", "lock", false);
        bus.publish(signed_event("unlocked"), Some(Capability::Lock))
            .unwrap();
        assert_eq!(bus.drain("nosy-app").len(), 1);
    }

    #[test]
    fn event_log_accumulates_for_analytics() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        for i in 0..5 {
            bus.publish(
                CloudEvent::new(SimTime::from_secs(i), "t", "temperature", "70"),
                Some(Capability::TemperatureMeasurement),
            )
            .unwrap();
        }
        assert_eq!(bus.published, 5);
    }

    #[test]
    fn tampered_event_fails_verification() {
        let mut e = signed_event("locked");
        e.value = "unlocked".to_string();
        assert!(!e.verify(HUB));
    }
}
