//! Property-based tests over the service layer: token lifecycle, event
//! integrity, recipe thresholds, and API-gateway authorization under
//! arbitrary inputs.

use proptest::prelude::*;
use xlf_cloud::events::{CloudEvent, EventBus, EventPolicy, EventRejection};
use xlf_cloud::ifttt::{Recipe, RecipeAction, RecipeEngine, ServiceTrigger, WebService};
use xlf_cloud::oauth::TokenService;
use xlf_cloud::Capability;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::CbcMac;
use xlf_simnet::{Duration, SimTime};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,15}"
}

proptest! {
    /// Tokens validate exactly within their lifetime and scope set.
    #[test]
    fn token_lifecycle(subject in ident(),
                       lifetime_s in 1u64..10_000,
                       check_at in 0u64..20_000,
                       scope_count in 1usize..4) {
        let scopes: Vec<String> = (0..scope_count).map(|i| format!("scope{i}")).collect();
        let scope_refs: Vec<&str> = scopes.iter().map(String::as_str).collect();
        let mut svc = TokenService::new();
        let token = svc.issue(
            &subject,
            &scope_refs,
            SimTime::ZERO,
            Duration::from_secs(lifetime_s),
            false,
        );
        let now = SimTime::from_secs(check_at);
        for scope in &scopes {
            let ok = svc.validate(&token.value, scope, now).is_ok();
            prop_assert_eq!(ok, check_at < lifetime_s);
        }
        // A scope never granted always fails.
        prop_assert!(svc.validate(&token.value, "never-granted", now).is_err());
    }

    /// Revoked tokens never validate again, at any time.
    #[test]
    fn revocation_is_final(check_at in 0u64..10_000) {
        let mut svc = TokenService::new();
        let t = svc.issue("u", &["x"], SimTime::ZERO, Duration::from_secs(9_999), true);
        svc.revoke(&t.value);
        prop_assert!(svc
            .validate(&t.value, "x", SimTime::from_secs(check_at))
            .is_err());
    }

    /// Event signatures bind every field: any mutation invalidates.
    #[test]
    fn event_integrity_binds_fields(device in ident(),
                                    attribute in ident(),
                                    value in ident(),
                                    at_s in 0u64..100_000) {
        let event = CloudEvent::new(SimTime::from_secs(at_s), &device, &attribute, &value)
            .signed(b"hub secret");
        prop_assert!(event.verify(b"hub secret"));
        prop_assert!(!event.verify(b"other secret"));
        let mut m = event.clone();
        m.value.push('!');
        prop_assert!(!m.verify(b"hub secret"));
        let mut m = event.clone();
        m.device.push('!');
        prop_assert!(!m.verify(b"hub secret"));
    }

    /// Bus signing through the key cache gives, bit for bit, the tag of
    /// the original construction: a fresh KDF-derived SPECK128 key and a
    /// CBC-MAC over the NUL-joined fields and the big-endian timestamp.
    #[test]
    fn bus_signing_matches_the_kdf_oracle(device in ident(),
                                          attribute in ident(),
                                          value in "[ -~]{0,24}",
                                          at_us in any::<u64>(),
                                          secret in prop::collection::vec(any::<u8>(), 1..32)) {
        let at = SimTime::from_micros(at_us);
        let key = derive_key(&secret, &format!("event-key/{device}"), 16).unwrap();
        let speck = Speck128::new(&key).unwrap();
        let mut bytes = Vec::new();
        for field in [&device, &attribute, &value] {
            bytes.extend_from_slice(field.as_bytes());
            bytes.push(0);
        }
        bytes.extend_from_slice(&at.as_micros().to_be_bytes());
        let oracle = CbcMac::new(&speck).tag(&bytes).unwrap();

        let mut bus = EventBus::new(EventPolicy::hardened(), &secret);
        let event = CloudEvent::new(at, &device, &attribute, &value);
        // Twice: the second signature comes from the cached cipher.
        for _ in 0..2 {
            let signed = bus.sign(event.clone());
            prop_assert_eq!(signed.mac.map(|tag| tag.to_vec()), Some(oracle.clone()));
        }
        let signed = event.signed(&secret);
        prop_assert_eq!(signed.mac.map(|tag| tag.to_vec()), Some(oracle));
    }

    /// An empty hub secret cannot key a MAC: events stay unsigned on the
    /// bus and on the uncached path alike.
    #[test]
    fn empty_secret_leaves_events_unsigned(device in ident(), value in ident()) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"");
        let event = CloudEvent::new(SimTime::ZERO, &device, "attr", &value);
        prop_assert_eq!(bus.sign(event.clone()).mac, None);
        prop_assert_eq!(event.signed(b"").mac, None);
    }

    /// A hardened bus accepts signed events and rejects unsigned,
    /// tampered and wrong-secret events, all through its key cache.
    #[test]
    fn hardened_bus_verifies_through_the_cache(device in ident(),
                                                value in ident(),
                                                at_s in 0u64..100_000) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
        let event = CloudEvent::new(SimTime::from_secs(at_s), &device, "attr", &value);
        let signed = bus.sign(event.clone());
        prop_assert_eq!(bus.publish(signed.clone(), None), Ok(0));
        prop_assert_eq!(bus.publish(event.clone().signed(b"hub secret"), None), Ok(0));

        let mut tampered = signed.clone();
        tampered.value.push('!');
        let wrong_secret = event.clone().signed(b"other secret");
        for bad in [event, tampered, wrong_secret] {
            prop_assert_eq!(
                bus.publish(bad, None),
                Err(EventRejection::IntegrityFailure)
            );
        }
        prop_assert_eq!(bus.rejected.len(), 3);
        prop_assert_eq!(bus.published, 2);
    }

    /// Hardened buses deliver exactly the signed events; spoofed
    /// (unsigned) events are always rejected.
    #[test]
    fn hardened_bus_accepts_only_signed(signed in any::<bool>(), value in ident()) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
        bus.subscribe("app", "dev", "attr", true);
        let mut event = CloudEvent::new(SimTime::ZERO, "dev", "attr", &value);
        if signed {
            event = event.signed(b"hub secret");
        }
        let outcome = bus.publish(event, Some(Capability::Switch));
        prop_assert_eq!(outcome.is_ok(), signed);
    }

    /// Recipes fire iff the trigger's service, item, and threshold all
    /// match — for arbitrary thresholds and values.
    #[test]
    fn recipe_threshold_semantics(threshold in -1000.0f64..1000.0,
                                  value in -1000.0f64..1000.0) {
        let mut engine = RecipeEngine::new();
        engine.register_service(WebService {
            name: "svc".to_string(),
            verified: true,
        });
        engine.install(Recipe {
            name: "r".to_string(),
            trigger: ServiceTrigger {
                service: "svc".to_string(),
                item: "item".to_string(),
                above: threshold,
            },
            action: RecipeAction {
                device: "d".to_string(),
                command: "on".to_string(),
            },
        });
        let fired = !engine.feed("svc", "item", value).is_empty();
        prop_assert_eq!(fired, value > threshold);
        // Wrong item never fires.
        prop_assert!(engine.feed("svc", "other", value).is_empty());
    }
}
