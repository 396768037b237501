//! E-SCALE: the hierarchical region→global aggregation at fleet scale.
//!
//! Runs two fleet tiers (`--homes / 10` and `--homes`) under
//! candidates-only row retention and measures peak RSS per tier, proving
//! the memory contract of the two-tier topology: peak memory grows
//! **sublinearly** in fleet size because the region tier forwards a
//! bounded candidate set instead of retaining every home's outcome. The
//! large tier additionally runs with 1, 2, and 8 region-aggregator
//! instances and asserts the three reports are **byte-identical** — the
//! shard count is an execution knob, not an input to the science.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_scale -- \
//!     --homes 100000 --workers 8 --horizon 240 --max-rss-mb 2048 \
//!     --json BENCH_scale.json
//! ```

use std::time::Instant;
use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj, Raw};
use xlf_bench::print_table;
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, HomeTemplate, RowPolicy,
    FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

/// A mostly-benign fleet (~1.6% active attacks) under candidates-only
/// retention — the configuration the hierarchical tier exists for.
fn spec(args: &Args, homes: usize, regions: usize) -> FleetSpec {
    FleetSpec::new(0xF1EE_5CA1, homes)
        .with_workers(args.workers)
        .with_regions(regions)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(vec![
            (FleetAttack::None, 120),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
        ])
        .with_row_policy(RowPolicy::CandidatesOnly)
}

/// Peak RSS (VmHWM) of this process in KiB, from `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Resets the kernel's peak-RSS watermark (`echo 5 > clear_refs`) so
/// each tier's peak can be read independently. Returns false where
/// unsupported — the sublinearity check is skipped then.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

struct TierRun {
    homes: usize,
    regions: usize,
    report: FleetReport,
    metrics: FleetMetrics,
    wall_s: f64,
    peak_rss_mb: Option<f64>,
}

fn timed_run(args: &Args, homes: usize, regions: usize, rss_resets: bool) -> TierRun {
    if rss_resets {
        reset_peak_rss();
    }
    let metrics = FleetMetrics::new();
    let t0 = Instant::now();
    let report = run_fleet(&spec(args, homes, regions), &metrics).expect("fleet engine lost work");
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = if rss_resets {
        peak_rss_kb().map(|kb| kb as f64 / 1024.0)
    } else {
        None
    };
    TierRun {
        homes,
        regions,
        report,
        metrics,
        wall_s,
        peak_rss_mb,
    }
}

/// Ids of homes under an *active* attack (the ones the fleet tier must
/// flag) — drawn from the region tallies' ground truth: every active
/// attack raises in-home criticals, so the home is an always-candidate
/// and appears among the retained rows even in candidates mode.
fn attacked_ids(report: &FleetReport) -> Vec<u64> {
    report
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect()
}

fn main() {
    let args = Args::from_env(Experiment::Scale);
    let small_homes = args.homes / 10;
    let rss_resets = reset_peak_rss();
    if !rss_resets {
        eprintln!("warning: /proc/self/clear_refs unavailable; memory checks skipped");
    }
    println!(
        "xlf-scale: tiers {small_homes} and {} homes, horizon {} s, candidates-only rows, \
         region shards 1/2/8 at the large tier",
        args.homes, args.horizon_s,
    );

    // Small tier: one run (8 shards), the memory baseline.
    let small = timed_run(&args, small_homes, 8, rss_resets);

    // Large tier: three runs across region counts; byte-identity is the
    // hierarchical contract, and the 8-shard run is the memory probe.
    let large_r1 = timed_run(&args, args.homes, 1, rss_resets);
    let large_r2 = timed_run(&args, args.homes, 2, rss_resets);
    let large = timed_run(&args, args.homes, 8, rss_resets);

    let json_r8 = large.report.to_json();
    let byte_identical_regions =
        large_r1.report.to_json() == json_r8 && large_r2.report.to_json() == json_r8;

    let runs = [&small, &large_r1, &large_r2, &large];
    print_table(
        "Scale tiers",
        &[
            "Homes",
            "Regions",
            "Wall (s)",
            "Homes/s",
            "Peak RSS (MB)",
            "Candidates",
            "Rows",
            "Flagged",
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.homes.to_string(),
                    r.regions.to_string(),
                    format!("{:.2}", r.wall_s),
                    format!("{:.1}", r.homes as f64 / r.wall_s),
                    r.peak_rss_mb
                        .map_or("n/a".to_string(), |mb| format!("{mb:.1}")),
                    r.metrics.region_candidates.get().to_string(),
                    r.report.rows.len().to_string(),
                    r.report.flagged.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Sublinearity: the large tier is 10× the homes; its peak RSS must
    // come in well under 10× the small tier's (the candidate set, not
    // the fleet, is what the global pass retains). The bar is half of
    // linear scaling — in practice the ratio is near 1.
    let homes_ratio = args.homes as f64 / small_homes as f64;
    let (mem_ratio, sublinear_memory) = match (small.peak_rss_mb, large.peak_rss_mb) {
        (Some(s), Some(l)) if s > 0.0 => {
            let ratio = l / s;
            (Some(ratio), ratio < homes_ratio * 0.5)
        }
        _ => (None, false),
    };
    if let Some(ratio) = mem_ratio {
        println!(
            "\nPeak-RSS ratio {small_homes}→{} homes: {ratio:.2}× \
             (homes ratio {homes_ratio:.0}×, sublinear: {sublinear_memory})",
            args.homes,
        );
    }
    println!("Byte-identical across region counts 1/2/8: {byte_identical_regions}");

    // Self-asserting acceptance gates.
    assert!(
        byte_identical_regions,
        "region shard count changed the large-tier report"
    );
    for r in runs {
        let attacked = attacked_ids(&r.report);
        assert!(
            !attacked.is_empty(),
            "{} homes: attack mix stamped no active attacks",
            r.homes
        );
        let missed: Vec<u64> = attacked
            .iter()
            .filter(|id| !r.report.flagged.contains(id))
            .copied()
            .collect();
        assert!(
            missed.is_empty(),
            "{} homes: {} active-attacked home(s) not flagged: {missed:?}",
            r.homes,
            missed.len()
        );
        assert!(
            r.report.accounting_ok(r.homes),
            "{} homes: outcome conservation violated",
            r.homes
        );
        // Candidates-only retention really is bounded: far fewer rows
        // than homes at the large tier.
        if r.homes >= 10_000 {
            assert!(
                r.report.rows.len() < r.homes / 4,
                "{} homes: candidates-only retention kept {} rows",
                r.homes,
                r.report.rows.len()
            );
        }
        if args.max_rss_mb > 0 {
            if let Some(mb) = r.peak_rss_mb {
                assert!(
                    mb <= args.max_rss_mb as f64,
                    "{} homes ({} regions): peak RSS {mb:.1} MB exceeds ceiling {} MB",
                    r.homes,
                    r.regions,
                    args.max_rss_mb
                );
            }
        }
    }
    if rss_resets {
        assert!(
            sublinear_memory,
            "peak RSS scaled superlinearly: ratio {mem_ratio:?} over {homes_ratio:.0}× homes"
        );
    }

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "scale")
            .field("schema_version", FLEET_REPORT_SCHEMA_VERSION)
            .field("homes_small", small_homes)
            .field("homes_large", args.homes)
            .field("horizon_s", args.horizon_s)
            .field("workers", args.workers)
            .field("row_policy", "candidates")
            .field("byte_identical_regions", byte_identical_regions)
            .field("homes_ratio", Fixed(homes_ratio, 1))
            .field("mem_ratio", mem_ratio.map(|r| Fixed(r, 3)))
            .field("sublinear_memory", sublinear_memory)
            .rows(
                "tiers",
                runs.iter().map(|r| {
                    Obj::new()
                        .field("homes", r.homes)
                        .field("regions", r.regions)
                        .field("wall_s", Fixed(r.wall_s, 3))
                        .field("homes_per_sec", Fixed(r.homes as f64 / r.wall_s, 1))
                        .field("peak_rss_mb", r.peak_rss_mb.map(|mb| Fixed(mb, 1)))
                        .field("rows", r.report.rows.len())
                        .field("candidates", r.metrics.region_candidates.get())
                        .field("flagged", r.report.flagged.len())
                        .field("attacked", attacked_ids(&r.report).len())
                        .field("evidence", r.report.totals.evidence)
                        .field("communities", r.report.communities)
                }),
            )
            .field("metrics", Raw(&large.metrics.to_json())),
    );
}
