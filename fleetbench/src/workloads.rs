//! The benchmark's workloads, their fleet specs, and the checks and
//! security outcomes read off each run's report. `README.md` in this
//! directory says why each workload exists.

use xlf_device::firmware::Version;
use xlf_fleet::{
    CampaignSpec, ConfigAuditSpec, FleetAttack, FleetReport, FleetSpec, HomeSpec, HomeTemplate,
    OnboardingSpec, RowPolicy, FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_simnet::Duration;

/// Simulated horizon of every workload.
pub const HORIZON_S: u64 = 420;
/// Streamed correlation interval of `fleet-ops`: the gateway's own
/// evaluation interval.
const FLEET_OPS_INTERVAL_S: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Canonical,
    RetrofitOutbreak,
    FleetOps,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Canonical,
        Workload::RetrofitOutbreak,
        Workload::FleetOps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Canonical => "canonical",
            Workload::RetrofitOutbreak => "retrofit-outbreak",
            Workload::FleetOps => "fleet-ops",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Homes per fleet run, sized so one run takes a few seconds at two
    /// workers and a measured stretch holds several runs.
    pub fn homes(self) -> usize {
        match self {
            Workload::Canonical => 1000,
            Workload::RetrofitOutbreak => 4000,
            Workload::FleetOps => 600,
        }
    }

    /// The fleet this workload runs for `seed` on `workers` threads.
    pub fn spec(self, seed: u64, workers: usize) -> FleetSpec {
        let canonical_attacks = vec![
            (FleetAttack::None, 30),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
            (FleetAttack::Replay, 1),
            (FleetAttack::DnsPoison, 1),
            (FleetAttack::TrafficObserver, 1),
        ];
        let canonical_templates = vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ];
        let base = FleetSpec::new(seed, self.homes())
            .with_workers(workers)
            .with_horizon(Duration::from_secs(HORIZON_S))
            .with_evidence_capacity(Some(64));
        match self {
            Workload::Canonical => base
                .with_templates(canonical_templates)
                .with_attacks(canonical_attacks),
            Workload::RetrofitOutbreak => base
                .with_templates(vec![HomeTemplate::retrofit()])
                .with_attacks(vec![
                    (FleetAttack::None, 3),
                    (FleetAttack::BotnetRecruit, 1),
                    (FleetAttack::DnsPoison, 1),
                ])
                .with_regions(8)
                .with_row_policy(RowPolicy::CandidatesOnly),
            Workload::FleetOps => {
                let epoch = |s: u64| s / FLEET_OPS_INTERVAL_S;
                let mut attacks = canonical_attacks;
                attacks.push((FleetAttack::TokenReplay, 1));
                attacks.push((FleetAttack::RogueAs, 1));
                base.with_templates(canonical_templates)
                    .with_attacks(attacks)
                    .with_correlation_interval(FLEET_OPS_INTERVAL_S)
                    .with_campaign(
                        CampaignSpec::new(
                            "cam-fw-2.0",
                            "cam",
                            Version(2, 0, 0),
                            b"cam firmware v2".to_vec(),
                        )
                        .with_waves(vec![10, 30, 60, 100])
                        .with_schedule(epoch(120), epoch(45))
                        .with_tampered(),
                    )
                    .with_config_audit(ConfigAuditSpec::new(epoch(90)).with_drift(15, epoch(150)))
                    .with_onboarding(OnboardingSpec::new())
            }
        }
    }
}

/// The security outcomes of one fleet run. Every value is a share or a
/// simulated time that is never 0 on a working fleet, so a regression
/// reads as a relative change against a non-zero base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcomes {
    /// Completed homes / homes attempted (base: every stamped home).
    pub homes_ok_share: f64,
    /// Flagged active-attack homes / active-attack homes.
    pub deviant_recall: f64,
    /// Unflagged attack-free homes / attack-free homes.
    pub benign_pass_share: f64,
    /// Mean simulated time at which an active-attack home is first
    /// flagged: the end of its detection epoch in a streamed run, the
    /// horizon in a batch run (the fleet verdict exists only then).
    pub detect_s_mean: f64,
    /// Campaign targets that never ran the implant / targets; 1 when
    /// no campaign runs.
    pub ota_safe_share: f64,
    /// Onboarding attackers denied / onboarding attackers; 1 when no
    /// home onboards under attack.
    pub rogue_denied_share: f64,
}

/// A failed check: what went wrong, and how many homes it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub what: String,
    pub homes: usize,
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

fn is_onboarding_attack(attack: FleetAttack) -> bool {
    matches!(attack, FleetAttack::TokenReplay | FleetAttack::RogueAs)
}

/// Reads the security outcomes off `report` and checks it: the
/// conservation law, the schema version, and the workload's own
/// security guarantees. `stamps` are the run's stamped homes.
pub fn check(
    workload: Workload,
    spec: &FleetSpec,
    stamps: &[HomeSpec],
    report: &FleetReport,
    report_json: &str,
) -> (Outcomes, Vec<Violation>) {
    let homes = stamps.len();
    let mut violations = Vec::new();
    let mut violate = |what: String, homes: usize| violations.push(Violation { what, homes });

    if !report.accounting_ok(homes) {
        violate(
            format!(
                "accounting: {} homes accounted of {homes}",
                report.homes_accounted()
            ),
            homes,
        );
    }
    let schema = format!("{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},");
    if !report_json.starts_with(&schema) {
        violate(
            format!("report schema is not v{FLEET_REPORT_SCHEMA_VERSION}"),
            homes,
        );
    }
    let lost = report.degraded.len() + report.run_failed.len() + report.build_failed.len();
    if lost > 0 {
        violate(format!("{lost} homes degraded or failed"), lost);
    }

    let flagged: std::collections::BTreeSet<u64> = report.flagged.iter().copied().collect();
    let active: Vec<u64> = stamps
        .iter()
        .filter(|h| h.attack.is_active())
        .map(|h| h.id)
        .collect();
    let benign: Vec<u64> = stamps
        .iter()
        .filter(|h| h.attack == FleetAttack::None)
        .map(|h| h.id)
        .collect();
    let missed: Vec<u64> = active
        .iter()
        .copied()
        .filter(|id| !flagged.contains(id))
        .collect();
    if !missed.is_empty() {
        violate(
            format!("active-attack homes not flagged: {missed:?}"),
            missed.len(),
        );
    }
    let false_flags = benign.iter().filter(|id| flagged.contains(id)).count();

    let horizon_s = spec.horizon.as_micros() as f64 / 1e6;
    let detect_s = |id: u64| -> f64 {
        match (&report.epochs, spec.correlation_interval) {
            (Some(epochs), Some(interval)) => epochs
                .first_detection
                .iter()
                .find(|(h, _)| *h == id)
                .map_or(horizon_s, |(_, e)| ((e + 1) * interval) as f64)
                .min(horizon_s),
            _ => horizon_s,
        }
    };
    let detect_s_mean = if active.is_empty() {
        horizon_s
    } else {
        active.iter().map(|&id| detect_s(id)).sum::<f64>() / active.len() as f64
    };

    let (mut targets, mut compromised) = (0, 0);
    if let Some(mgmt) = &report.mgmt {
        for c in &mgmt.campaigns {
            targets += c.targets as usize;
            compromised += c.compromised as usize;
            if c.tampered && (c.halted_at_wave != Some(1) || !c.contained) {
                violate(
                    format!(
                        "tampered campaign {} not halted at wave 1 and contained \
                         (halted before wave {:?}, {} compromised, {} rolled back)",
                        c.name, c.halted_at_wave, c.compromised, c.rolled_back
                    ),
                    c.compromised as usize,
                );
            }
            if c.rolled_back != c.compromised {
                violate(
                    format!(
                        "campaign {}: {} compromised but {} rolled back",
                        c.name, c.compromised, c.rolled_back
                    ),
                    c.compromised.abs_diff(c.rolled_back) as usize,
                );
            }
        }
    }
    if workload == Workload::FleetOps && report.mgmt.is_none() {
        violate(
            "fleet-ops report has no campaign section".to_string(),
            homes,
        );
    }

    let mut rogue_denied_share = 1.0;
    if let Some(ob) = &report.onboarding {
        let attackers: Vec<u64> = stamps
            .iter()
            .filter(|h| is_onboarding_attack(h.attack))
            .map(|h| h.id)
            .collect();
        let denied = attackers
            .iter()
            .filter(|id| ob.denied_homes.contains(id))
            .count();
        rogue_denied_share = share(denied, attackers.len());
        if ob.rogue_admissions > 0 {
            violate(
                format!("{} rogue admissions", ob.rogue_admissions),
                ob.rogue_admissions as usize,
            );
        }
    }

    let outcomes = Outcomes {
        homes_ok_share: share(report.totals.homes_ok as usize, homes),
        deviant_recall: share(active.len() - missed.len(), active.len()),
        benign_pass_share: share(benign.len() - false_flags, benign.len()),
        detect_s_mean,
        ota_safe_share: share(targets.saturating_sub(compromised), targets),
        rogue_denied_share,
    };
    (outcomes, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn specs_depend_on_the_seed_only_through_stamping() {
        for w in Workload::ALL {
            let a = w.spec(7, 1).stamp();
            assert_eq!(
                a,
                w.spec(7, 2).stamp(),
                "{}: workers changed stamps",
                w.name()
            );
            assert_ne!(a, w.spec(8, 1).stamp(), "{}: seed ignored", w.name());
            assert_eq!(a.len(), w.homes());
        }
    }

    fn tiny(w: Workload, homes: usize) -> (FleetSpec, Vec<HomeSpec>, FleetReport, String) {
        let mut spec = w.spec(0xF1EE_2019, 2);
        spec.homes = homes;
        let stamps = spec.stamp();
        let report = xlf_fleet::run_fleet(&spec, &xlf_fleet::FleetMetrics::new())
            .expect("a tiny fleet runs");
        let json = report.to_json();
        (spec, stamps, report, json)
    }

    #[test]
    fn checks_catch_a_missed_deviant_and_a_wrong_schema() {
        let w = Workload::Canonical;
        let (spec, stamps, report, json) = tiny(w, 40);
        let (outcomes, violations) = check(w, &spec, &stamps, &report, &json);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(outcomes.deviant_recall, 1.0);

        let deviant = stamps
            .iter()
            .find(|h| h.attack.is_active())
            .expect("40 homes hold an attacked one")
            .id;
        let mut missed = report.clone();
        missed.flagged.retain(|&id| id != deviant);
        let (outcomes, violations) = check(w, &spec, &stamps, &missed, &json);
        assert!(outcomes.deviant_recall < 1.0);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].homes, 1);

        let (_, violations) = check(w, &spec, &stamps, &report, "{\"schema_version\":0,");
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn checks_catch_rogue_admissions_and_an_uncontained_campaign() {
        let w = Workload::FleetOps;
        let (spec, stamps, report, json) = tiny(w, 60);
        let (outcomes, violations) = check(w, &spec, &stamps, &report, &json);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(outcomes.ota_safe_share < 1.0 && outcomes.rogue_denied_share == 1.0);

        let mut rogue = report.clone();
        if let Some(ob) = rogue.onboarding.as_mut() {
            ob.rogue_admissions = 2;
        }
        let (_, violations) = check(w, &spec, &stamps, &rogue, &json);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].homes, 2);

        let mut loose = report.clone();
        if let Some(mgmt) = loose.mgmt.as_mut() {
            mgmt.campaigns[0].halted_at_wave = None;
            mgmt.campaigns[0].contained = false;
        }
        let (_, violations) = check(w, &spec, &stamps, &loose, &json);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn fleet_ops_campaign_starts_after_learning() {
        let spec = Workload::FleetOps.spec(1, 1);
        let c = &spec.campaigns[0];
        assert_eq!(c.start_epoch * FLEET_OPS_INTERVAL_S, 120);
        assert_eq!(c.epochs_per_wave * FLEET_OPS_INTERVAL_S, 45);
        assert!(c.tampered);
    }
}
