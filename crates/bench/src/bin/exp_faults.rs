//! Fault-injection sweep: how does the fleet's verdict quality hold up
//! as infrastructure faults and home crashes eat into completion rate,
//! and how much does the retry budget buy back?
//!
//! Grid: fault share {0, 10, 30}% × retry budget {0, 1, 3}. Each cell
//! runs the same stamped fleet (layout-invariant fault stamping: the
//! benign cell and the faulted cells share seeds/templates/attacks) and
//! records the outcome conservation, completion rate
//! (`(ok + degraded) / homes`), and verdict quality (flagged ∩ actively
//! attacked / actively attacked, over surviving rows). A final
//! tight-step-budget run demonstrates degraded-mode accounting.
//! Emits `BENCH_faults.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_faults -- \
//!     --homes 48 --workers 8 --json BENCH_faults.json
//! ```

use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::timing::timed;
use xlf_bench::{print_table, quiet_injected_panics};
use xlf_fleet::{
    run_fleet, FleetAttack, FleetFault, FleetMetrics, FleetReport, FleetSpec, HomeTemplate,
};

/// The fault mix for a total fault share of `pct` percent, spread evenly
/// over all six non-benign fault kinds.
fn fault_mix(pct: u32) -> Vec<(FleetFault, u32)> {
    if pct == 0 {
        return vec![(FleetFault::None, 1)];
    }
    vec![
        (FleetFault::None, (100 - pct) * 6),
        (FleetFault::WanFlap, pct),
        (FleetFault::CloudOutage, pct),
        (FleetFault::WanDegrade, pct),
        (FleetFault::DeviceCrash, pct),
        (FleetFault::GatewaySkew, pct),
        (FleetFault::ChaosPanic, pct),
    ]
}

fn spec(args: &Args, fault_pct: u32, retry_budget: u32) -> FleetSpec {
    FleetSpec::new(0xFA17_2019, args.homes)
        .with_workers(args.workers)
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(vec![
            (FleetAttack::None, 6),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
        ])
        .with_faults(fault_mix(fault_pct))
        .with_retry_budget(retry_budget)
}

/// One cell of the sweep grid.
struct Cell {
    fault_pct: u32,
    retry_budget: u32,
    report: FleetReport,
    metrics: FleetMetrics,
    wall_s: f64,
}

impl Cell {
    /// `(ok + degraded) / homes`: the share of homes that produced a
    /// usable (possibly partial) report.
    fn completion_rate(&self, homes: usize) -> f64 {
        (self.report.totals.homes_ok + self.report.totals.homes_degraded) as f64 / homes as f64
    }

    fn active_attacked(&self) -> Vec<u64> {
        self.report
            .rows
            .iter()
            .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
            .map(|r| r.id)
            .collect()
    }

    /// Flagged ∩ actively-attacked over actively-attacked, counted on
    /// surviving (correlated) rows; 1.0 when no attacked home survived
    /// (nothing to miss).
    fn verdict_quality(&self) -> f64 {
        let attacked = self.active_attacked();
        if attacked.is_empty() {
            return 1.0;
        }
        let caught = attacked
            .iter()
            .filter(|id| self.report.flagged.contains(id))
            .count();
        caught as f64 / attacked.len() as f64
    }
}

fn run_cell(args: &Args, fault_pct: u32, retry_budget: u32) -> Cell {
    let metrics = FleetMetrics::new();
    let (report, wall_s) = timed(|| {
        run_fleet(&spec(args, fault_pct, retry_budget), &metrics).expect("fleet engine lost work")
    });
    assert!(
        report.accounting_ok(args.homes),
        "conservation violated at fault {fault_pct}% retry {retry_budget}: {:?}",
        report.totals
    );
    Cell {
        fault_pct,
        retry_budget,
        report,
        metrics,
        wall_s,
    }
}

fn main() {
    quiet_injected_panics();
    let args = Args::from_env(Experiment::Faults);
    println!(
        "xlf-faults: {} homes, {} workers, fault share {{0,10,30}}% × retry budget {{0,1,3}}",
        args.homes, args.workers
    );

    let mut grid: Vec<Cell> = Vec::new();
    for fault_pct in [0u32, 10, 30] {
        for retry_budget in [0u32, 1, 3] {
            grid.push(run_cell(&args, fault_pct, retry_budget));
        }
    }

    print_table(
        "Fault sweep (completion vs verdict quality)",
        &[
            "Fault %",
            "Retries",
            "Ok",
            "Degraded",
            "Failed",
            "Completion",
            "Verdict quality",
            "Panics",
            "Wall (s)",
        ],
        &grid
            .iter()
            .map(|c| {
                vec![
                    c.fault_pct.to_string(),
                    c.retry_budget.to_string(),
                    c.report.totals.homes_ok.to_string(),
                    c.report.totals.homes_degraded.to_string(),
                    c.report.totals.homes_run_failed.to_string(),
                    format!("{:.3}", c.completion_rate(args.homes)),
                    format!("{:.3}", c.verdict_quality()),
                    c.metrics.panics_caught.get().to_string(),
                    format!("{:.2}", c.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Degraded-mode demonstration: a tight per-home step event budget
    // truncates most homes; they still land in the report (degraded, not
    // lost) and conservation holds.
    let demo_metrics = FleetMetrics::new();
    let demo_spec = spec(&args, 10, 1).with_step_event_budget(Some(1_000));
    let demo = run_fleet(&demo_spec, &demo_metrics).expect("fleet engine lost work");
    assert!(demo.accounting_ok(args.homes));
    print_table(
        "Degraded-mode accounting (step budget 1000 events)",
        &["Ok", "Degraded", "Failed", "Accounted", "Homes"],
        &[vec![
            demo.totals.homes_ok.to_string(),
            demo.totals.homes_degraded.to_string(),
            demo.totals.homes_run_failed.to_string(),
            demo.totals.homes_accounted().to_string(),
            args.homes.to_string(),
        ]],
    );

    // Headline claims the sweep must support.
    let benign = &grid[0];
    assert_eq!(
        benign.completion_rate(args.homes),
        1.0,
        "fault-free fleet must complete fully"
    );
    assert_eq!(benign.metrics.panics_caught.get(), 0);
    assert_eq!(
        benign.verdict_quality(),
        1.0,
        "fault-free fleet must flag every active attack"
    );
    for c in &grid {
        // Chaos homes fail deterministically (retries can't save a
        // deterministic panic) — everything else completes.
        let chaos = c.metrics.faults_injected.get(FleetFault::ChaosPanic);
        assert_eq!(
            c.report.totals.homes_run_failed, chaos,
            "fault {}% retry {}: only chaos homes may fail",
            c.fault_pct, c.retry_budget
        );
        // Retry accounting: a chaos home panics identically on retry,
        // so the supervisor fails fast after one futile re-attempt —
        // failed homes burn at most 2 attempts however large the budget.
        for f in &c.report.run_failed {
            assert_eq!(f.attempts, c.retry_budget.min(1) + 1);
        }
        if c.retry_budget >= 1 {
            assert_eq!(
                c.metrics.retries_futile.get(),
                c.report.run_failed.len() as u64,
                "every failed home's single retry was futile"
            );
        }
        // Infrastructure faults never cost verdict quality on survivors.
        assert_eq!(
            c.verdict_quality(),
            1.0,
            "fault {}% retry {} degraded the surviving verdict",
            c.fault_pct,
            c.retry_budget
        );
    }
    assert!(
        demo.totals.homes_degraded > 0,
        "a 1000-event budget must truncate homes: {:?}",
        demo.totals
    );

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "faults")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .rows(
                "grid",
                grid.iter().map(|c| {
                    Obj::new()
                        .field("fault_pct", c.fault_pct)
                        .field("retry_budget", c.retry_budget)
                        .field("homes_ok", c.report.totals.homes_ok)
                        .field("homes_degraded", c.report.totals.homes_degraded)
                        .field("homes_run_failed", c.report.totals.homes_run_failed)
                        .field("completion_rate", Fixed(c.completion_rate(args.homes), 6))
                        .field("verdict_quality", Fixed(c.verdict_quality(), 6))
                        .field("panics_caught", c.metrics.panics_caught.get())
                        .field("retries", c.metrics.retries.get())
                        .field("retries_futile", c.metrics.retries_futile.get())
                        .field("wall_s", Fixed(c.wall_s, 3))
                }),
            )
            .field(
                "degraded_demo",
                Obj::new()
                    .field("step_event_budget", 1000u64)
                    .field("homes_ok", demo.totals.homes_ok)
                    .field("homes_degraded", demo.totals.homes_degraded)
                    .field("homes_run_failed", demo.totals.homes_run_failed)
                    .field(
                        "deadline_truncations",
                        demo_metrics.deadline_truncations.get(),
                    ),
            )
            .field(
                "conservation",
                "ok + degraded + failed + build_failed == homes held for every cell",
            ),
    );
}
