//! Secure-onboarding experiment: can a fleet admit its constrained
//! devices over CoAP + ACE-style scoped tokens at a per-class energy
//! cost the Table I envelopes can afford — while admitting **zero**
//! rogue joins?
//!
//! Three parts:
//!
//! 1. The per-class cipher sweep (Table III catalog vs. Table I
//!    envelopes): which cipher each class negotiates, at what key floor,
//!    handshake latency and energy.
//! 2. Three fleet variants — benign, token-replay mix, rogue-AS mix —
//!    each running the join phase before home stepping. The benign
//!    fleet must admit every home; the attack fleets must admit zero
//!    rogue joins, with every denial flagged and attributed to a
//!    structured cause.
//! 3. Layout invariance: onboarding-bearing reports must be
//!    byte-identical across worker counts *and* region-shard counts.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_onboard -- \
//!     --homes 64 --workers 8 --horizon 120 --json BENCH_onboard.json
//! ```

use std::time::Instant;
use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::print_table;
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, OnboardingSpec,
    FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_onboard::sweep;
use xlf_simnet::Duration;

fn spec(args: &Args, workers: usize, attacks: Vec<(FleetAttack, u32)>) -> FleetSpec {
    FleetSpec::new(0x0B0A_4D13, args.homes)
        .with_workers(workers)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_attacks(attacks)
        .with_onboarding(OnboardingSpec::new())
}

struct Variant {
    label: &'static str,
    attacks: Vec<(FleetAttack, u32)>,
    report: FleetReport,
    metrics_json: String,
    wall_s: f64,
}

fn main() {
    let args = Args::from_env(Experiment::Onboard);
    println!(
        "xlf-onboard: {} homes, horizon {} s, {} workers, CoAP over 6LoWPAN, \
         ACE scoped tokens",
        args.homes, args.horizon_s, args.workers,
    );

    // Part 1: the per-class negotiation record (pure sweep, no fleet).
    let ob = OnboardingSpec::new();
    let plans = sweep(&ob.classes);
    print_table(
        "Per-class cipher sweep (Table III vs Table I)",
        &[
            "Class",
            "Key floor",
            "Cipher",
            "Throughput (B/s)",
            "Handshake (mJ)",
        ],
        &plans
            .iter()
            .map(|p| {
                vec![
                    format!("{:?}", p.class),
                    format!("{} b", p.key_floor_bits),
                    p.choice
                        .as_ref()
                        .map_or("-".to_string(), |c| c.info.name.to_string()),
                    p.choice
                        .as_ref()
                        .map_or("-".to_string(), |c| format!("{:.0}", c.throughput_bps)),
                    p.choice
                        .as_ref()
                        .map_or("-".to_string(), |c| format!("{:.4}", c.handshake_energy_mj)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    assert!(
        plans.iter().all(|p| p.choice.is_some()),
        "every default onboarding class must negotiate a cipher"
    );

    // Part 2: fleet variants with the join phase ahead of home stepping.
    let mut variants: Vec<Variant> = Vec::new();
    for (label, attacks) in [
        ("benign", vec![(FleetAttack::None, 1)]),
        (
            "token-replay",
            vec![(FleetAttack::None, 3), (FleetAttack::TokenReplay, 1)],
        ),
        (
            "rogue-as",
            vec![(FleetAttack::None, 3), (FleetAttack::RogueAs, 1)],
        ),
    ] {
        let t0 = Instant::now();
        let metrics = FleetMetrics::new();
        let report = run_fleet(&spec(&args, args.workers, attacks.clone()), &metrics)
            .expect("fleet engine lost work");
        variants.push(Variant {
            label,
            attacks,
            report,
            metrics_json: metrics.to_json(),
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }

    for v in &variants {
        let s = v.report.onboarding.as_ref().expect("onboarding section");
        let attacked = v
            .report
            .rows
            .iter()
            .filter(|r| r.attack == "token-replay" || r.attack == "rogue-as")
            .count() as u64;
        // Acceptance 1: every home joins exactly once, and the admission
        // ledger balances.
        assert_eq!(s.joins, args.homes as u64, "{}: joins != homes", v.label);
        assert_eq!(s.admitted + s.denied, s.joins, "{}: ledger", v.label);
        // Acceptance 2: containment — zero rogue admissions, every
        // attacked join denied with a structured cause and flagged.
        assert_eq!(s.rogue_admissions, 0, "{}: rogue admission!", v.label);
        assert_eq!(s.denied, attacked, "{}: every rogue join denied", v.label);
        assert_eq!(
            s.denials.iter().sum::<u64>(),
            s.denied,
            "{}: every denial attributed",
            v.label
        );
        for id in &s.denied_homes {
            assert!(
                v.report.flagged.contains(id),
                "{}: denied home {id} not flagged",
                v.label
            );
        }
        // Acceptance 3: the engine's live metrics agree with the
        // recomputed section.
        assert!(
            v.metrics_json
                .contains(&format!("\"onboard_joins\":{}", s.joins)),
            "{}: metrics joins",
            v.label
        );
        assert!(
            v.metrics_json
                .contains(&format!("\"onboard_denied\":{}", s.denied)),
            "{}: metrics denied",
            v.label
        );
    }
    let benign = variants[0].report.onboarding.as_ref().expect("section");
    assert_eq!(benign.denied, 0, "benign fleet must admit every home");
    assert!(
        benign.energy_mj > 0.0,
        "battery classes pay for their joins"
    );

    print_table(
        "Onboarding fleet variants",
        &[
            "Variant",
            "Joins",
            "Admitted",
            "Denied",
            "Rogue adm.",
            "Retrans",
            "Bytes",
            "Energy (mJ)",
            "Wall (s)",
        ],
        &variants
            .iter()
            .map(|v| {
                let s = v.report.onboarding.as_ref().expect("section");
                vec![
                    v.label.to_string(),
                    s.joins.to_string(),
                    s.admitted.to_string(),
                    s.denied.to_string(),
                    s.rogue_admissions.to_string(),
                    s.retransmissions.to_string(),
                    s.bytes_sent.to_string(),
                    format!("{:.3}", s.energy_mj),
                    format!("{:.2}", v.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        "Per-class join record (benign fleet)",
        &[
            "Class",
            "Cipher",
            "Floor",
            "Joins",
            "Admitted",
            "Latency (ms)",
            "Energy (mJ)",
        ],
        &benign
            .classes
            .iter()
            .map(|c| {
                vec![
                    c.class.clone(),
                    c.cipher.map_or("-".to_string(), |n| n.to_string()),
                    format!("{} b", c.key_floor_bits),
                    c.joins.to_string(),
                    c.admitted.to_string(),
                    format!("{:.3}", c.mean_latency_ms),
                    format!("{:.4}", c.mean_energy_mj),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Part 3: layout invariance — worker counts and region shards must
    // not change a single report byte.
    let replay_json = variants[1].report.to_json();
    assert!(replay_json.starts_with(&format!(
        "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
    )));
    let mut byte_identical = true;
    for workers in [1, 2] {
        let report = run_fleet(
            &spec(&args, workers, variants[1].attacks.clone()),
            &FleetMetrics::new(),
        )
        .expect("fleet engine lost work");
        if report.to_json() != replay_json {
            eprintln!("worker count {workers} changed the onboarding-bearing report");
            byte_identical = false;
        }
    }
    let sharded_base = run_fleet(
        &spec(&args, args.workers, variants[2].attacks.clone()).with_regions(1),
        &FleetMetrics::new(),
    )
    .expect("fleet engine lost work")
    .to_json();
    for shards in [2, 8] {
        let report = run_fleet(
            &spec(&args, args.workers, variants[2].attacks.clone()).with_regions(shards),
            &FleetMetrics::new(),
        )
        .expect("fleet engine lost work");
        if report.to_json() != sharded_base {
            eprintln!("region shard count {shards} changed the onboarding-bearing report");
            byte_identical = false;
        }
    }
    assert!(
        byte_identical,
        "onboarding reports must be layout-invariant"
    );

    let replay = variants[1].report.onboarding.as_ref().expect("section");
    let rogue = variants[2].report.onboarding.as_ref().expect("section");
    println!(
        "\nAdmission held: 0 rogue admissions across {} replayed and {} rogue-AS joins; \
         benign fleet joined {} homes for {:.3} mJ total.",
        replay.denied, rogue.denied, benign.admitted, benign.energy_mj,
    );

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "onboard")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .field("horizon_s", args.horizon_s)
            .field("byte_identical_layouts", byte_identical)
            .rows(
                "sweep",
                plans.iter().map(|p| {
                    let choice = p.choice.as_ref();
                    Obj::new()
                        .field("class", format!("{:?}", p.class))
                        .field("key_floor_bits", p.key_floor_bits)
                        .field("cipher", choice.map(|c| c.info.name))
                        .field("throughput_bps", choice.map(|c| Fixed(c.throughput_bps, 1)))
                        .field(
                            "handshake_energy_mj",
                            choice.map(|c| Fixed(c.handshake_energy_mj, 6)),
                        )
                }),
            )
            .rows(
                "runs",
                variants.iter().map(|v| {
                    let s = v.report.onboarding.as_ref().expect("onboarding section");
                    Obj::new()
                        .field("variant", v.label)
                        .field("joins", s.joins)
                        .field("admitted", s.admitted)
                        .field("denied", s.denied)
                        .field("rogue_admissions", s.rogue_admissions)
                        .field("retransmissions", s.retransmissions)
                        .field("bytes_sent", s.bytes_sent)
                        .field("energy_mj", Fixed(s.energy_mj, 6))
                        .field("flagged", v.report.flagged.len())
                        .field("wall_s", Fixed(v.wall_s, 3))
                        .rows(
                            "classes",
                            s.classes.iter().map(|c| {
                                Obj::new()
                                    .field("class", &c.class)
                                    .field("cipher", c.cipher)
                                    .field("joins", c.joins)
                                    .field("admitted", c.admitted)
                                    .field("mean_latency_ms", Fixed(c.mean_latency_ms, 3))
                                    .field("mean_energy_mj", Fixed(c.mean_energy_mj, 6))
                            }),
                        )
                }),
            ),
    );
}
