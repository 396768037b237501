//! E-M6 at fleet scale: stamps a sharded multi-home fleet from one
//! master seed, runs it on 1 worker and on `--workers` workers, checks
//! the two fleet reports are byte-identical, verifies the cross-home
//! aggregator flags every injected deviant, sweeps the bounded
//! evidence-bus capacity (unbounded vs 1024/256/64) to measure overload
//! shedding vs verdict quality, and records throughput and speedup in
//! `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_fleet -- \
//!     --homes 1000 --workers 8 --horizon 420 --capacity 64 \
//!     --report FLEET_report.json --json BENCH_fleet.json
//! ```

use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj, Raw};
use xlf_bench::print_table;
use xlf_bench::timing::{interleaved, timed};
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, HomeTemplate,
    FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

fn spec(args: &Args, workers: usize, capacity: Option<usize>) -> FleetSpec {
    FleetSpec::new(0xF1EE_2019, args.homes)
        .with_workers(workers)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(vec![
            (FleetAttack::None, 30),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
            (FleetAttack::Replay, 1),
            (FleetAttack::DnsPoison, 1),
            (FleetAttack::TrafficObserver, 1),
        ])
        .with_evidence_capacity(capacity)
}

/// One fleet run: its report and metrics, and its wall time.
fn fleet_run(spec: &FleetSpec) -> ((FleetReport, FleetMetrics), f64) {
    let metrics = FleetMetrics::new();
    let (report, wall_s) = timed(|| run_fleet(spec, &metrics).expect("fleet engine lost work"));
    ((report, metrics), wall_s)
}

/// Homes under an *active* attack — the ones the home/fleet tiers can be
/// expected to flag. Passive observation (traffic-observer) injects no
/// traffic and is invisible from inside; it is scored via
/// `observer_accuracy` instead.
fn attacked_ids(report: &FleetReport) -> Vec<u64> {
    report
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect()
}

fn deviants_flagged(report: &FleetReport) -> bool {
    let attacked = attacked_ids(report);
    !attacked.is_empty() && attacked.iter().all(|id| report.flagged.contains(id))
}

/// One row of the capacity sweep.
struct SweepPoint {
    label: String,
    capacity: Option<usize>,
    report: FleetReport,
    wall_s: f64,
}

impl SweepPoint {
    fn homes_shedding(&self) -> usize {
        self.report
            .rows
            .iter()
            .filter(|r| r.report.evidence_shed > 0)
            .count()
    }
}

fn main() {
    let args = Args::from_env(Experiment::Fleet);
    println!(
        "xlf-fleet: {} homes, horizon {} s, 1 worker vs {} workers, capacity {}",
        args.homes,
        args.horizon_s,
        args.workers,
        args.capacity
            .map_or("unbounded".to_string(), |c| c.to_string()),
    );

    // Min of `--repeats` interleaved rounds per side; each side keeps
    // its first run's report and metrics.
    let [baseline, sharded] = interleaved(
        args.repeats,
        [
            &mut || fleet_run(&spec(&args, 1, args.capacity)),
            &mut || fleet_run(&spec(&args, args.workers, args.capacity)),
        ],
    );
    let ((baseline, _), baseline_s) = (baseline.first, baseline.secs);
    let ((report, metrics), sharded_s) = (sharded.first, sharded.secs);
    // The engine clamps the worker pool to the machine's hardware
    // threads (the spec value is retained for determinism stamping), so
    // the "sharded" run never pays oversubscription context-switch cost.
    let workers_effective = metrics.workers_effective.get();

    let deterministic = report.to_json() == baseline.to_json();
    let attacked = attacked_ids(&report);
    let main_deviants_flagged = deviants_flagged(&report);

    print_table(
        "Fleet run",
        &["Config", "Wall (s)", "Homes/s"],
        &[
            vec![
                "1 worker".to_string(),
                format!("{baseline_s:.2}"),
                format!("{:.1}", args.homes as f64 / baseline_s),
            ],
            vec![
                format!("{} workers", args.workers),
                format!("{sharded_s:.2}"),
                format!("{:.1}", args.homes as f64 / sharded_s),
            ],
        ],
    );
    // Phase split: where the wall time actually goes. These are CPU
    // seconds summed across workers (sum of per-home phase timings), so
    // on >1 worker they can exceed the wall clock.
    let build_cpu_s = metrics.build_us.sum_us() as f64 / 1e6;
    let step_cpu_s = metrics.step_us.sum_us() as f64 / 1e6;
    let report_cpu_s = metrics.report_us.sum_us() as f64 / 1e6;
    let aggregate_cpu_s = metrics.aggregate_us.sum_us() as f64 / 1e6;
    print_table(
        "Phase split (CPU s, summed across workers)",
        &["Build", "Step", "Report", "Aggregate"],
        &[vec![
            format!("{build_cpu_s:.2}"),
            format!("{step_cpu_s:.2}"),
            format!("{report_cpu_s:.2}"),
            format!("{aggregate_cpu_s:.2}"),
        ]],
    );
    println!(
        "Steady-state homes/s (step phase only): {:.1}",
        args.homes as f64 / step_cpu_s.max(1e-9)
    );
    print_table(
        "Cross-home correlation",
        &[
            "Communities",
            "Threshold",
            "Attacked",
            "Flagged",
            "All deviants flagged",
        ],
        &[vec![
            report.communities.to_string(),
            format!("{:.3}", report.threshold),
            attacked.len().to_string(),
            report.flagged.len().to_string(),
            main_deviants_flagged.to_string(),
        ]],
    );

    // Capacity sweep: how hard can the per-home evidence bus be bounded
    // before the fleet verdict degrades? Retrofit homes under a Mirai
    // flood burst ~300 NAC observations into one evaluation window, so
    // small capacities shed heavily there while benign homes lose
    // nothing.
    let sweep_caps: [Option<usize>; 4] = [None, Some(1024), Some(256), Some(64)];
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for cap in sweep_caps {
        let label = cap.map_or("unbounded".to_string(), |c| c.to_string());
        let (rep, wall_s) = if cap == args.capacity {
            (report.clone(), sharded_s)
        } else {
            let ((rep, _), secs) = fleet_run(&spec(&args, args.workers, cap));
            (rep, secs)
        };
        sweep.push(SweepPoint {
            label,
            capacity: cap,
            report: rep,
            wall_s,
        });
    }
    print_table(
        "Evidence-capacity sweep",
        &[
            "Capacity",
            "Evidence",
            "Shed",
            "Shed rate",
            "Homes shedding",
            "Flagged",
            "Deviants flagged",
            "Wall (s)",
        ],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    p.report.totals.evidence.to_string(),
                    p.report.totals.evidence_shed.to_string(),
                    format!("{:.4}", p.report.totals.evidence_shed_rate()),
                    p.homes_shedding().to_string(),
                    p.report.flagged.len().to_string(),
                    deviants_flagged(&p.report).to_string(),
                    format!("{:.2}", p.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!(
        "\nSpeedup {}→{} workers ({} effective): {:.2}×  \
         (deterministic across worker counts: {})",
        1,
        args.workers,
        workers_effective,
        baseline_s / sharded_s,
        deterministic
    );
    println!("Fleet metrics: {}", metrics.to_json());

    assert!(deterministic, "fleet report changed with worker count");
    // Sharding must never cost real throughput: with the worker clamp in
    // place, the sharded run is at worst the baseline plus channel and
    // thread-spawn overhead. Gate at 0.95× with a 50 ms absolute guard
    // so sub-second smoke runs don't trip on scheduler noise.
    assert!(
        sharded_s <= baseline_s / 0.95 + 0.05,
        "sharded run slower than baseline: {sharded_s:.3}s vs {baseline_s:.3}s \
         ({workers_effective} effective workers)"
    );
    assert!(
        main_deviants_flagged,
        "aggregator missed injected deviants: attacked={attacked:?} flagged={:?}",
        report.flagged
    );

    // Schema guarantees: both longitudinal JSON surfaces are versioned.
    let report_json = report.to_json();
    assert!(
        report_json.starts_with(&format!(
            "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
        )),
        "fleet report JSON lost its schema version"
    );
    assert!(
        metrics.to_json().starts_with("{\"schema_version\":"),
        "fleet metrics JSON lost its schema version"
    );

    // Sweep invariants: unbounded runs never shed; bounded runs shed
    // exactly when a flooding retrofit home is in the stamped mix, and
    // even the tightest capacity still catches every deviant (the Core
    // evaluates on drained evidence, and the newest observations always
    // survive a shed-oldest bus).
    let flooding_homes = report
        .rows
        .iter()
        .filter(|r| r.template == "retrofit" && r.attack == "botnet-recruit")
        .count();
    for p in &sweep {
        match p.capacity {
            None => assert_eq!(
                p.report.totals.evidence_shed, 0,
                "unbounded fleet must not shed"
            ),
            Some(cap) if cap <= 256 && flooding_homes > 0 => assert!(
                p.report.totals.evidence_shed > 0,
                "capacity {cap} with {flooding_homes} flooding homes must shed"
            ),
            Some(_) => {}
        }
        assert!(
            deviants_flagged(&p.report) || attacked_ids(&p.report).is_empty(),
            "capacity {} degraded the fleet verdict",
            p.label
        );
    }

    if !args.report.is_empty() {
        match std::fs::write(&args.report, format!("{report_json}\n")) {
            Ok(()) => println!("Fleet report written to {}.", args.report),
            Err(e) => eprintln!("could not write {}: {e}", args.report),
        }
    }

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "fleet")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .field("workers_effective", metrics.workers_effective.get())
            .field("repeats", args.repeats)
            .field("horizon_s", args.horizon_s)
            .field("capacity", args.capacity)
            .field("baseline_s", Fixed(baseline_s, 3))
            .field("sharded_s", Fixed(sharded_s, 3))
            .field("homes_per_sec", Fixed(args.homes as f64 / sharded_s, 1))
            .field("speedup", Fixed(baseline_s / sharded_s, 2))
            .field("build_cpu_s", Fixed(build_cpu_s, 3))
            .field("step_cpu_s", Fixed(step_cpu_s, 3))
            .field("report_cpu_s", Fixed(report_cpu_s, 3))
            .field("aggregate_cpu_s", Fixed(aggregate_cpu_s, 3))
            .field(
                "homes_per_sec_step",
                Fixed(args.homes as f64 / step_cpu_s.max(1e-9), 1),
            )
            .field("deterministic", deterministic)
            .field("attacked_homes", attacked.len())
            .field("flagged_homes", report.flagged.len())
            .field("deviants_flagged", main_deviants_flagged)
            .field("communities", report.communities)
            .field("threshold", Fixed(report.threshold, 6))
            .field("evidence_shed", report.totals.evidence_shed)
            .rows(
                "capacity_sweep",
                sweep.iter().map(|p| {
                    Obj::new()
                        .field("capacity", p.capacity)
                        .field("evidence", p.report.totals.evidence)
                        .field("shed", p.report.totals.evidence_shed)
                        .field("shed_rate", Fixed(p.report.totals.evidence_shed_rate(), 6))
                        .field("homes_shedding", p.homes_shedding())
                        .field("flagged", p.report.flagged.len())
                        .field("wall_s", Fixed(p.wall_s, 3))
                }),
            )
            .field("metrics", Raw(&metrics.to_json())),
    );
}
