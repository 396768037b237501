//! OAuth2-shaped token service: scopes, expiry, revocation, and the SSO
//! tokens the XLF delegation proxy caches (§IV-A1, §IV-C1).

use std::collections::BTreeMap;
use xlf_lwcrypto::hash::LightHash;
use xlf_simnet::{Duration, SimTime};

/// A bearer token's server-side record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Opaque token string handed to the client.
    pub value: String,
    /// Subject (user or service identity).
    pub subject: String,
    /// Granted scopes, e.g. `"devices:read"`, `"ota:push"`.
    pub scopes: Vec<String>,
    /// Expiry instant.
    pub expires: SimTime,
    /// Whether this is an SSO token usable across services (§IV-A1).
    pub sso: bool,
}

impl Token {
    /// Whether the token grants `scope` at `now`.
    pub fn allows(&self, scope: &str, now: SimTime) -> bool {
        now < self.expires && self.scopes.iter().any(|s| s == scope)
    }
}

/// Why validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenError {
    /// Unknown or revoked token value.
    Unknown,
    /// Token known but expired.
    Expired,
    /// Token valid but missing the requested scope.
    MissingScope,
}

/// The token authority.
#[derive(Debug, Default)]
pub struct TokenService {
    tokens: BTreeMap<String, Token>,
    issued: u64,
    /// Validation calls served (cloud load metric for E-M1).
    pub validations: u64,
}

impl TokenService {
    /// Creates an empty service.
    pub fn new() -> Self {
        TokenService::default()
    }

    /// Issues a token for `subject` with the given scopes and lifetime.
    pub fn issue(
        &mut self,
        subject: &str,
        scopes: &[&str],
        now: SimTime,
        lifetime: Duration,
        sso: bool,
    ) -> Token {
        self.issued += 1;
        let digest = LightHash::digest(
            format!("{}|{}|{}", subject, self.issued, now.as_micros()).as_bytes(),
        );
        let value: String = digest[..12].iter().map(|b| format!("{b:02x}")).collect();
        let token = Token {
            value: value.clone(),
            subject: subject.to_string(),
            scopes: scopes.iter().map(|s| s.to_string()).collect(),
            expires: now + lifetime,
            sso,
        };
        self.tokens.insert(value, token.clone());
        token
    }

    /// Validates a token for a scope at `now`.
    ///
    /// # Errors
    ///
    /// See [`TokenError`].
    pub fn validate(
        &mut self,
        value: &str,
        scope: &str,
        now: SimTime,
    ) -> Result<&Token, TokenError> {
        self.validations += 1;
        let Some(token) = self.tokens.get(value) else {
            return Err(TokenError::Unknown);
        };
        if now >= token.expires {
            return Err(TokenError::Expired);
        }
        if !token.scopes.iter().any(|s| s == scope) {
            return Err(TokenError::MissingScope);
        }
        Ok(token)
    }

    /// Revokes a token.
    pub fn revoke(&mut self, value: &str) -> bool {
        self.tokens.remove(value).is_some()
    }

    /// Number of live token records.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tokens are outstanding.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_and_validate() {
        let mut svc = TokenService::new();
        let t = svc.issue(
            "alice",
            &["devices:read"],
            SimTime::ZERO,
            Duration::from_secs(3600),
            false,
        );
        assert!(svc
            .validate(&t.value, "devices:read", SimTime::from_secs(10))
            .is_ok());
    }

    #[test]
    fn expiry_is_enforced() {
        let mut svc = TokenService::new();
        let t = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(60), false);
        assert_eq!(
            svc.validate(&t.value, "x", SimTime::from_secs(61)).err(),
            Some(TokenError::Expired)
        );
    }

    #[test]
    fn scopes_are_enforced() {
        let mut svc = TokenService::new();
        let t = svc.issue(
            "a",
            &["devices:read"],
            SimTime::ZERO,
            Duration::from_secs(60),
            false,
        );
        assert_eq!(
            svc.validate(&t.value, "ota:push", SimTime::ZERO).err(),
            Some(TokenError::MissingScope)
        );
    }

    #[test]
    fn revocation_takes_effect() {
        let mut svc = TokenService::new();
        let t = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(60), false);
        assert!(svc.revoke(&t.value));
        assert_eq!(
            svc.validate(&t.value, "x", SimTime::ZERO).err(),
            Some(TokenError::Unknown)
        );
        assert!(!svc.revoke(&t.value));
    }

    #[test]
    fn tokens_are_unique_and_unguessable_looking() {
        let mut svc = TokenService::new();
        let t1 = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(1), false);
        let t2 = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(1), false);
        assert_ne!(t1.value, t2.value);
        assert_eq!(t1.value.len(), 24);
    }

    #[test]
    fn validation_counter_tracks_load() {
        let mut svc = TokenService::new();
        let t = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(60), false);
        for _ in 0..5 {
            let _ = svc.validate(&t.value, "x", SimTime::ZERO);
        }
        assert_eq!(svc.validations, 5);
    }

    #[test]
    fn token_allows_helper() {
        let mut svc = TokenService::new();
        let t = svc.issue("a", &["x"], SimTime::ZERO, Duration::from_secs(60), true);
        assert!(t.allows("x", SimTime::from_secs(59)));
        assert!(!t.allows("x", SimTime::from_secs(60)));
        assert!(!t.allows("y", SimTime::ZERO));
        assert!(t.sso);
    }
}
