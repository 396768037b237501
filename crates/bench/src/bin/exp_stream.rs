//! Streamed-correlation experiment: how much earlier does the fleet
//! tier detect injected deviants when the cross-home pass re-runs
//! mid-simulation instead of once at the horizon?
//!
//! Sweeps the correlation interval over {batch, 60 s, 15 s} on the same
//! stamped fleet, checks the final verdicts are byte-stable across the
//! sweep (streaming is pure observation), measures per-home detection
//! latency in simulated seconds, verifies checkpoint/resume cycling is
//! invisible in the output bytes, and records detection-latency and
//! alert-dedup columns in `BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_stream -- \
//!     --homes 48 --workers 8 --horizon 420 --json BENCH_stream.json
//! ```

use std::time::Instant;
use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::print_table;
use xlf_fleet::scratch_dir;
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, HomeTemplate,
    FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

fn spec(args: &Args, interval_s: Option<u64>) -> FleetSpec {
    let mut spec = FleetSpec::new(0x57AE_2019, args.homes)
        .with_workers(args.workers)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(vec![
            (FleetAttack::None, 12),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
            (FleetAttack::Replay, 1),
            (FleetAttack::DnsPoison, 1),
        ]);
    if let Some(s) = interval_s {
        spec = spec.with_correlation_interval(s);
    }
    // Optional durability rider: every sweep point snapshots at the same
    // cadence (into a per-point scratch dir), so cross-point comparisons
    // stay apples-to-apples while exercising the run-snapshot path.
    if let Some(every) = args.snapshot_every {
        spec = spec.with_run_snapshot_every(every, scratch_dir("exp-stream"));
    }
    spec
}

/// Homes under an *active* attack — the deviants detection latency is
/// measured over (passive observation has no in-home signature).
fn attacked_ids(report: &FleetReport) -> Vec<u64> {
    report
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect()
}

/// One row of the interval sweep.
struct SweepPoint {
    label: String,
    interval_s: Option<u64>,
    report: FleetReport,
    wall_s: f64,
}

impl SweepPoint {
    /// First-detection sim-time for `home`: the end of its detection
    /// epoch for streamed runs, the horizon for batch.
    fn detection_latency_s(&self, home: u64, horizon_s: u64) -> u64 {
        match (&self.interval_s, &self.report.epochs) {
            (Some(interval), Some(epochs)) => epochs
                .first_detection
                .iter()
                .find(|(h, _)| *h == home)
                .map(|(_, epoch)| ((epoch + 1) * interval).min(horizon_s))
                .unwrap_or(horizon_s),
            _ => horizon_s,
        }
    }

    fn mean_latency_s(&self, homes: &[u64], horizon_s: u64) -> f64 {
        if homes.is_empty() {
            return horizon_s as f64;
        }
        homes
            .iter()
            .map(|h| self.detection_latency_s(*h, horizon_s) as f64)
            .sum::<f64>()
            / homes.len() as f64
    }

    fn new_alerts(&self) -> u64 {
        self.report
            .epochs
            .as_ref()
            .map_or(0, |e| e.per_epoch.iter().map(|r| r.alerts).sum())
    }

    fn deduped(&self) -> u64 {
        self.report
            .epochs
            .as_ref()
            .map_or(0, |e| e.per_epoch.iter().map(|r| r.deduped).sum())
    }
}

fn main() {
    let args = Args::from_env(Experiment::Stream);
    println!(
        "xlf-stream: {} homes, horizon {} s, {} workers, interval sweep {{batch, 60 s, 15 s}}",
        args.homes, args.horizon_s, args.workers,
    );

    let mut sweep: Vec<SweepPoint> = Vec::new();
    for interval_s in [None, Some(60), Some(15)] {
        let label = interval_s.map_or("batch".to_string(), |s| format!("{s} s"));
        let metrics = FleetMetrics::new();
        let t0 = Instant::now();
        let report = run_fleet(&spec(&args, interval_s), &metrics).expect("fleet engine lost work");
        sweep.push(SweepPoint {
            label,
            interval_s,
            report,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }

    let batch = &sweep[0];
    let attacked = attacked_ids(&batch.report);
    assert!(!attacked.is_empty(), "attack mix stamped no deviants");

    // Streaming is pure observation: final rows/flags/totals must be
    // identical to batch at every interval.
    for p in &sweep[1..] {
        assert_eq!(
            p.report.rows, batch.report.rows,
            "interval {} perturbed the per-home rows",
            p.label
        );
        assert_eq!(
            p.report.flagged, batch.report.flagged,
            "interval {} changed the final verdicts",
            p.label
        );
        assert_eq!(p.report.totals, batch.report.totals);
    }

    // Checkpoint/resume cycling on the finest interval is invisible.
    let finest = sweep.last().expect("sweep is non-empty");
    let cycled = run_fleet(
        &spec(&args, finest.interval_s).with_stream_checkpoint_every(1),
        &FleetMetrics::new(),
    )
    .expect("fleet engine lost work");
    let checkpoint_stable = cycled.to_json() == finest.report.to_json();
    assert!(
        checkpoint_stable,
        "checkpoint/resume cycling changed the streamed report"
    );

    print_table(
        "Correlation-interval sweep",
        &[
            "Interval",
            "Epochs",
            "Windows",
            "Mean detect (s)",
            "New alerts",
            "Deduped",
            "Flagged",
            "Wall (s)",
        ],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    p.report
                        .epochs
                        .as_ref()
                        .map_or("-".to_string(), |e| e.count.to_string()),
                    p.report
                        .epochs
                        .as_ref()
                        .map_or("-".to_string(), |e| e.windows_ingested.to_string()),
                    format!("{:.1}", p.mean_latency_s(&attacked, args.horizon_s)),
                    p.new_alerts().to_string(),
                    p.deduped().to_string(),
                    p.report.flagged.len().to_string(),
                    format!("{:.2}", p.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The acceptance bar: at the finest interval every injected deviant
    // is detected strictly before the horizon (i.e. strictly earlier
    // than the batch pass can possibly report it).
    let mut all_earlier = true;
    for id in &attacked {
        let latency = finest.detection_latency_s(*id, args.horizon_s);
        if latency >= args.horizon_s {
            eprintln!(
                "deviant {id} only detected at the horizon under {}",
                finest.label
            );
            all_earlier = false;
        }
    }
    assert!(
        all_earlier,
        "interval {} failed to beat batch detection",
        finest.label
    );

    println!(
        "\nAll {} deviants detected strictly before the {} s horizon at interval {} \
         (checkpoint/resume stable: {checkpoint_stable})",
        attacked.len(),
        args.horizon_s,
        finest.label,
    );

    let report_json = finest.report.to_json();
    assert!(
        report_json.starts_with(&format!(
            "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
        )),
        "fleet report JSON lost its schema version"
    );

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "stream")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .field("horizon_s", args.horizon_s)
            .field("attacked_homes", attacked.len())
            .field("verdicts_match_batch", true)
            .field("checkpoint_stable", checkpoint_stable)
            .rows(
                "interval_sweep",
                sweep.iter().map(|p| {
                    let epochs = p.report.epochs.as_ref();
                    Obj::new()
                        .field("interval_s", p.interval_s)
                        .field("epochs", epochs.map_or(0, |e| e.count))
                        .field("windows_ingested", epochs.map_or(0, |e| e.windows_ingested))
                        .field("windows_shed", epochs.map_or(0, |e| e.windows_shed))
                        .field(
                            "mean_detect_s",
                            Fixed(p.mean_latency_s(&attacked, args.horizon_s), 1),
                        )
                        .field("new_alerts", p.new_alerts())
                        .field("deduped", p.deduped())
                        .field("flagged", p.report.flagged.len())
                        .field("wall_s", Fixed(p.wall_s, 3))
                        .rows(
                            "detection_latency",
                            attacked.iter().map(|&h| {
                                Obj::new()
                                    .field("home", h)
                                    .field("detect_s", p.detection_latency_s(h, args.horizon_s))
                            }),
                        )
                }),
            ),
    );
}
