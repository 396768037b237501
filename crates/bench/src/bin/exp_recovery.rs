//! Recovery experiment: what does run-level durability cost, and what
//! does it buy back after a kill?
//!
//! Sweeps the snapshot cadence over {off, every-5, every-1} on the same
//! stamped fleet (faulted homes + a tampered gated campaign + a config
//! audit, so the snapshot carries every kind of aggregation-tier state),
//! then chaos-kills the snapshotting runs at representative points —
//! the homes→stream boundary, an early epoch, a mid-campaign epoch
//! between waves, and the final epoch — and resumes each from the
//! on-disk `XLFR` generations. Records recovery wall-time, replayed
//! epochs, and snapshot footprint per kill point and cadence in
//! `BENCH_recovery.json`.
//!
//! Self-asserting acceptance: every resumed report is **byte-identical**
//! to the straight-through run, and the steady-state overhead of the
//! every-5 cadence (min of `--repeats` interleaved rounds vs. snapshots
//! off) is at most 3%.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_recovery -- \
//!     --homes 32 --workers 4 --horizon 420 --json BENCH_recovery.json
//! ```

use std::path::PathBuf;
use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::timing::{interleaved, timed};
use xlf_bench::{print_table, quiet_injected_panics};
use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, run_fleet_chaos, run_fleet_resume, scratch_dir, CampaignSpec, ConfigAuditSpec,
    FleetAttack, FleetError, FleetFault, FleetMetrics, FleetSpec, KillPoint,
    FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

const INTERVAL_S: u64 = 60;

/// The stamped fleet every cadence shares: faulted homes (failed rows in
/// the slots), a tampered gated campaign (engines + command bus mutate
/// mid-stream), and a config audit — the full state menagerie the
/// snapshot must carry.
fn base_spec(args: &Args) -> FleetSpec {
    FleetSpec::new(0x4EC0_2026, args.homes)
        .with_workers(args.workers)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_correlation_interval(INTERVAL_S)
        .with_attacks(vec![
            (FleetAttack::None, 6),
            (FleetAttack::BotnetRecruit, 1),
        ])
        .with_faults(vec![(FleetFault::None, 7), (FleetFault::ChaosPanic, 1)])
        .with_retry_budget(1)
        .with_campaign(
            CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam fw v2".to_vec())
                .with_schedule(2, 2)
                .with_waves(vec![25, 100])
                .with_tampered(),
        )
        .with_config_audit(ConfigAuditSpec::new(3).with_drift(25, 4))
}

fn spec_with_cadence(args: &Args, every: Option<u64>, dir: &PathBuf) -> FleetSpec {
    match every {
        Some(e) => base_spec(args).with_run_snapshot_every(e, dir),
        None => base_spec(args),
    }
}

/// One straight-through run at cadence `every`: its report JSON and
/// wall time.
fn straight_run(args: &Args, every: Option<u64>) -> (String, f64) {
    let dir = scratch_dir("bench-straight");
    let spec = spec_with_cadence(args, every, &dir);
    let (report, wall_s) =
        timed(|| run_fleet(&spec, &FleetMetrics::new()).expect("fleet engine lost work"));
    let _ = std::fs::remove_dir_all(&dir);
    (report.to_json(), wall_s)
}

/// One kill-and-resume measurement.
struct KillRow {
    every: u64,
    kill: KillPoint,
    replayed_epochs: u64,
    snapshots_written: u64,
    snapshot_bytes: u64,
    resume_wall_s: f64,
    identical: bool,
}

fn kill_and_resume(args: &Args, every: u64, kill: KillPoint, golden: &str) -> KillRow {
    let dir = scratch_dir("bench-kill");
    let spec = spec_with_cadence(args, Some(every), &dir);
    let killed = FleetMetrics::new();
    match run_fleet_chaos(&spec, &killed, kill) {
        Err(FleetError::ChaosKilled(at)) if at == kill => {}
        other => panic!("kill {kill} did not fire: {other:?}"),
    }
    let resumed = FleetMetrics::new();
    let (report, resume_wall_s) =
        timed(|| run_fleet_resume(&spec, &resumed).expect("resume completes"));
    let _ = std::fs::remove_dir_all(&dir);
    KillRow {
        every,
        kill,
        replayed_epochs: resumed.replayed_epochs.get(),
        snapshots_written: killed.snapshots_written.get(),
        snapshot_bytes: killed.snapshot_bytes.get(),
        resume_wall_s,
        identical: report.to_json() == golden,
    }
}

fn main() {
    quiet_injected_panics();
    let args = Args::from_env(Experiment::Recovery);
    let epochs = base_spec(&args).stream_epochs();
    println!(
        "xlf-recovery: {} homes, horizon {} s ({} epochs @ {} s), {} workers, \
         cadence sweep {{off, every-5, every-1}}, min of {} interleaved rounds",
        args.homes, args.horizon_s, epochs, INTERVAL_S, args.workers, args.repeats,
    );
    assert!(epochs >= 5, "horizon too short for the kill-point sweep");

    // Straight-through walls per cadence, min of `--repeats` interleaved
    // rounds; the snapshotting goldens (first run of each) are also the
    // byte-identity references for the kill sweep.
    let [off, e5, e1] = interleaved(
        args.repeats,
        [
            &mut || straight_run(&args, None),
            &mut || straight_run(&args, Some(5)),
            &mut || straight_run(&args, Some(1)),
        ],
    );
    let (wall_off, wall_e5, wall_e1) = (off.secs, e5.secs, e1.secs);
    let (golden_e5, golden_e1) = (e5.first, e1.first);
    let overhead_e5 = (wall_e5 - wall_off) / wall_off;
    let overhead_e1 = (wall_e1 - wall_off) / wall_off;

    // Kill-point sweep: boundary, early, mid-campaign (the tampered
    // campaign launches at epoch 2 and is gated at epoch 4 — epoch 3 is
    // between waves), and the final epoch.
    let kills = [
        KillPoint::AfterHomes,
        KillPoint::Epoch(1),
        KillPoint::Epoch(3),
        KillPoint::Epoch(epochs - 1),
    ];
    let mut rows: Vec<KillRow> = Vec::new();
    for (every, golden) in [(1u64, &golden_e1), (5u64, &golden_e5)] {
        for kill in kills {
            rows.push(kill_and_resume(&args, every, kill, golden));
        }
    }

    print_table(
        "Kill-and-resume sweep",
        &[
            "Cadence",
            "Kill point",
            "Replayed epochs",
            "Snapshots",
            "Snapshot KiB",
            "Resume wall (s)",
            "Byte-identical",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("every-{}", r.every),
                    r.kill.to_string(),
                    format!("{}/{}", r.replayed_epochs, epochs),
                    r.snapshots_written.to_string(),
                    format!("{:.1}", r.snapshot_bytes as f64 / 1024.0),
                    format!("{:.3}", r.resume_wall_s),
                    r.identical.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Acceptance 1: every resumed report matches its straight-through
    // golden byte for byte.
    let byte_identical = rows.iter().all(|r| r.identical);
    for r in &rows {
        assert!(
            r.identical,
            "resume after kill {} at cadence every-{} diverged",
            r.kill, r.every
        );
    }
    assert!(golden_e1.starts_with(&format!(
        "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
    )));

    // Acceptance 2: finer cadence never replays more than coarser, and
    // every-1 replays exactly the post-kill epochs.
    for r in rows.iter().filter(|r| r.every == 1) {
        let expected = match r.kill {
            KillPoint::AfterHomes => epochs,
            KillPoint::Epoch(e) => epochs - e,
        };
        assert_eq!(
            r.replayed_epochs, expected,
            "every-1 must replay exactly the epochs after kill {}",
            r.kill
        );
    }

    // Acceptance 3: the every-5 cadence costs at most 3% wall-time over
    // snapshots-off (minimums of interleaved rounds on both sides).
    let within_3pct = overhead_e5 <= 0.03;
    assert!(
        within_3pct,
        "every-5 snapshot overhead {:.2}% exceeds the 3% budget \
         (off {wall_off:.3} s vs every-5 {wall_e5:.3} s)",
        overhead_e5 * 100.0
    );

    println!(
        "\nSnapshot overhead: every-5 {:+.2}% / every-1 {:+.2}% over a {:.3} s straight \
         run; every resume byte-identical ({} kill points × 2 cadences).",
        overhead_e5 * 100.0,
        overhead_e1 * 100.0,
        wall_off,
        kills.len(),
    );

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "recovery")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .field("horizon_s", args.horizon_s)
            .field("interval_s", INTERVAL_S)
            .field("epochs", epochs)
            .field("repeats", args.repeats)
            .field("byte_identical_resume", byte_identical)
            .field(
                "overhead",
                Obj::new()
                    .field("baseline_wall_s", Fixed(wall_off, 3))
                    .field("every5_wall_s", Fixed(wall_e5, 3))
                    .field("every1_wall_s", Fixed(wall_e1, 3))
                    .field("pct_at_every5", Fixed(overhead_e5 * 100.0, 2))
                    .field("within_3pct", within_3pct),
            )
            .rows(
                "kills",
                rows.iter().map(|r| {
                    Obj::new()
                        .field("every", r.every)
                        .field("kill", r.kill.to_string())
                        .field("replayed_epochs", r.replayed_epochs)
                        .field("snapshots_written", r.snapshots_written)
                        .field("snapshot_bytes", r.snapshot_bytes)
                        .field("resume_wall_s", Fixed(r.resume_wall_s, 3))
                        .field("byte_identical", r.identical)
                }),
            ),
    );
}
