//! OTA campaign experiment: does the control plane's staged rollout +
//! stream-alert health gate turn firmware-supply-chain detection into
//! *containment*?
//!
//! Runs the same stamped fleet through three campaign variants — clean
//! gated, tampered gated, tampered ungated — with a config-drift audit
//! riding along. The clean release must reach 100% of the fleet; the
//! tampered gated release must be halted by the health gate with every
//! compromised home rolled back and quarantined (compromise bounded by
//! the first wave's share); the tampered *ungated* release is the
//! counterfactual showing what the gate prevented. Campaign-bearing
//! reports must be byte-identical across worker counts.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_ota -- \
//!     --homes 64 --workers 8 --horizon 420 --json BENCH_ota.json
//! ```

use std::time::Instant;
use xlf_bench::args::{Args, Experiment};
use xlf_bench::json::{self, Fixed, Obj};
use xlf_bench::print_table;
use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, scratch_dir, CampaignReport, CampaignSpec, ConfigAuditSpec, FleetMetrics,
    FleetReport, FleetSpec, FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

const INTERVAL_S: u64 = 15;
const WAVES: [u32; 4] = [10, 30, 60, 100];

/// The campaign: a cam firmware release staged through 10/30/60/100%
/// waves, first wave after the learning phase (epoch 8 = 120 s), one
/// wave every 3 epochs (45 s of gate observation between waves).
fn campaign(tampered: bool, gated: bool) -> CampaignSpec {
    let mut c = CampaignSpec::new(
        "cam-fw-2.0",
        "cam",
        Version(2, 0, 0),
        b"cam firmware v2".to_vec(),
    )
    .with_waves(WAVES.to_vec())
    .with_schedule(8, 3);
    if tampered {
        c = c.with_tampered();
    }
    if !gated {
        c = c.with_gate(None);
    }
    c
}

fn spec(args: &Args, workers: usize, tampered: bool, gated: bool) -> FleetSpec {
    let mut spec = FleetSpec::new(0x07A_CA4E, args.homes)
        .with_workers(workers)
        .with_horizon(Duration::from_secs(args.horizon_s))
        .with_correlation_interval(INTERVAL_S)
        .with_campaign(campaign(tampered, gated))
        .with_config_audit(ConfigAuditSpec::new(6).with_drift(15, 10));
    // Optional durability rider: every variant snapshots at the same
    // cadence (into its own scratch dir), keeping the cross-variant and
    // cross-worker byte comparisons apples-to-apples.
    if let Some(every) = args.snapshot_every {
        spec = spec.with_run_snapshot_every(every, scratch_dir("exp-ota"));
    }
    spec
}

struct Variant {
    label: &'static str,
    report: FleetReport,
    wall_s: f64,
}

impl Variant {
    fn campaign(&self) -> &CampaignReport {
        &self
            .report
            .mgmt
            .as_ref()
            .expect("campaign section")
            .campaigns[0]
    }
}

fn main() {
    let args = Args::from_env(Experiment::Ota);
    println!(
        "xlf-ota: {} homes, horizon {} s, {} workers, waves {:?} @ every 3 epochs ({} s interval)",
        args.homes, args.horizon_s, args.workers, WAVES, INTERVAL_S,
    );

    let mut variants: Vec<Variant> = Vec::new();
    for (label, tampered, gated) in [
        ("clean gated", false, true),
        ("tampered gated", true, true),
        ("tampered ungated", true, false),
    ] {
        let t0 = Instant::now();
        let report = run_fleet(
            &spec(&args, args.workers, tampered, gated),
            &FleetMetrics::new(),
        )
        .expect("fleet engine lost work");
        variants.push(Variant {
            label,
            report,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }

    let clean = variants[0].campaign().clone();
    let gated = variants[1].campaign().clone();
    let ungated = variants[2].campaign().clone();

    // Acceptance 1: the clean signed release reaches the whole fleet.
    assert_eq!(clean.rollout_pct, 100, "clean rollout stalled: {clean:?}");
    assert_eq!(clean.halted_at_wave, None);
    assert_eq!(clean.updated, clean.targets, "clean release must apply");
    assert_eq!(clean.compromised, 0);

    // Acceptance 2: the health gate halts the tampered release after its
    // first wave — compromise is bounded by the first gated wave's
    // cohort, and every compromised home is rolled back + quarantined.
    assert_eq!(
        gated.halted_at_wave,
        Some(1),
        "gate must halt at the first boundary: {gated:?}"
    );
    assert_eq!(gated.rollout_pct, WAVES[0], "halt bounds the rollout");
    assert!(
        gated.updated > 0,
        "first wave must land for the gate to see it"
    );
    assert_eq!(
        gated.compromised, gated.waves[0].applied,
        "compromise cannot exceed the first wave"
    );
    assert_eq!(gated.rolled_back, gated.updated);
    assert_eq!(gated.quarantined, gated.updated);
    assert!(gated.contained, "containment is the whole point: {gated:?}");

    // Acceptance 3: without the gate the same release owns every
    // promiscuous target — the counterfactual the gate prevents.
    assert_eq!(ungated.rollout_pct, 100);
    assert!(ungated.compromised > gated.compromised);
    assert_eq!(ungated.rolled_back, 0);
    assert!(!ungated.contained);

    // Acceptance 4: the config audit detected and remediated its
    // deterministic drift cohort.
    let audit = variants[0]
        .report
        .mgmt
        .as_ref()
        .and_then(|m| m.config_audit)
        .expect("config audit section");
    assert!(audit.drifted > 0, "drift cohort stamped empty");
    assert_eq!(audit.detected, audit.drifted, "every drift caught");
    assert_eq!(audit.remediated, audit.detected);

    // Acceptance 5: campaign-bearing reports are byte-identical across
    // worker counts (the control plane is part of the deterministic
    // aggregation, not an execution detail).
    let gated_json = variants[1].report.to_json();
    assert!(gated_json.starts_with(&format!(
        "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
    )));
    let mut byte_identical = true;
    for workers in [1, 2] {
        let report = run_fleet(&spec(&args, workers, true, true), &FleetMetrics::new())
            .expect("fleet engine lost work");
        if report.to_json() != gated_json {
            eprintln!("worker count {workers} changed the campaign-bearing report");
            byte_identical = false;
        }
    }
    assert!(byte_identical, "campaign reports must be layout-invariant");

    print_table(
        "OTA campaign variants",
        &[
            "Variant",
            "Rollout %",
            "Updated",
            "Rejected",
            "Compromised",
            "Rolled back",
            "Quarantined",
            "Halted @",
            "Contained",
            "Wall (s)",
        ],
        &variants
            .iter()
            .map(|v| {
                let c = v.campaign();
                vec![
                    v.label.to_string(),
                    c.rollout_pct.to_string(),
                    c.updated.to_string(),
                    c.rejected.to_string(),
                    c.compromised.to_string(),
                    c.rolled_back.to_string(),
                    c.quarantined.to_string(),
                    c.halted_at_wave
                        .map_or("-".to_string(), |w| format!("wave {w}")),
                    c.contained.to_string(),
                    format!("{:.2}", v.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!(
        "\nGate held the tampered release to {}% of the fleet ({} compromised, all rolled \
         back + quarantined); ungated counterfactual compromised {} home(s). Config audit \
         remediated {} drifted home(s).",
        gated.rollout_pct, gated.compromised, ungated.compromised, audit.remediated,
    );

    json::write(
        &args.json,
        &Obj::new()
            .field("experiment", "ota")
            .field("homes", args.homes)
            .field("workers", args.workers)
            .field("horizon_s", args.horizon_s)
            .field("interval_s", INTERVAL_S)
            .field("waves", WAVES.as_slice())
            .field("byte_identical_workers", byte_identical)
            .field(
                "config_audit",
                Obj::new()
                    .field("every", audit.every)
                    .field("drifted", audit.drifted)
                    .field("detected", audit.detected)
                    .field("remediated", audit.remediated),
            )
            .rows(
                "runs",
                variants.iter().map(|v| {
                    let c = v.campaign();
                    Obj::new()
                        .field("variant", v.label)
                        .field("tampered", c.tampered)
                        .field("gated", c.gated)
                        .field("targets", c.targets)
                        .field("rollout_pct", c.rollout_pct)
                        .field("updated", c.updated)
                        .field("rejected", c.rejected)
                        .field("compromised", c.compromised)
                        .field("rolled_back", c.rolled_back)
                        .field("quarantined", c.quarantined)
                        .field("halted_at_wave", c.halted_at_wave)
                        .field("halt_epoch", c.halt_epoch)
                        .field("contained", c.contained)
                        .field("waves_launched", c.waves.len())
                        .field("wall_s", Fixed(v.wall_s, 3))
                }),
            ),
    );
}
