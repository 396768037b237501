//! Reusable attack scenarios over a standard XLF home, shared by the
//! Figure 4 / Table II harnesses and the Criterion benches.
//!
//! Every scenario is deterministic: same seed → identical trace.

use xlf_attacks::mirai::{recruit_login, CNC_SIGNATURES};
use xlf_core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf_core::shaping::ShapingMode;
use xlf_device::{SensorKind, VulnSet, Vulnerability};
use xlf_simnet::{Context, Duration, Kind, Medium, Node, NodeId, Packet, SimTime, TimerId};

/// The attack injected into a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackScenario {
    /// No attack (benign control).
    None,
    /// Mirai-style recruitment of the weak camera through the gateway
    /// (C&C bootstrap string in the login payload), then a flood order.
    BotnetRecruitFlood,
    /// Oversized command exploiting the wall-pad buffer overflow.
    BufferOverflow,
    /// Unsigned malicious OTA pushed through the gateway.
    FirmwareTamper,
    /// Spoofed high-temperature events fired at the cloud to trigger the
    /// window automation.
    SpoofedEvents,
}

impl AttackScenario {
    /// All scenarios, benign first.
    pub fn all() -> &'static [AttackScenario] {
        &[
            AttackScenario::None,
            AttackScenario::BotnetRecruitFlood,
            AttackScenario::BufferOverflow,
            AttackScenario::FirmwareTamper,
            AttackScenario::SpoofedEvents,
        ]
    }

    /// The device the attack targets (ground truth for detection).
    pub fn target(&self) -> Option<&'static str> {
        match self {
            AttackScenario::None => None,
            AttackScenario::BotnetRecruitFlood => Some("cam"),
            AttackScenario::BufferOverflow => Some("wallpad"),
            AttackScenario::FirmwareTamper => Some("cam"),
            AttackScenario::SpoofedEvents => Some("window"),
        }
    }
}

/// The standard experimental home: thermostat, weak camera, wall pad
/// (overflow-vulnerable), lamp, and a window actuator.
pub fn standard_devices() -> Vec<HomeDevice> {
    vec![
        HomeDevice::new("thermo", SensorKind::Temperature)
            .with_telemetry_period(Duration::from_secs(10)),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[
                Vulnerability::StaticPassword,
                Vulnerability::UnsignedFirmware,
            ]))
            .with_telemetry_period(Duration::from_secs(10)),
        HomeDevice::new("wallpad", SensorKind::Motion)
            .with_vulns(VulnSet::of(&[Vulnerability::BufferOverflow]))
            .with_telemetry_period(Duration::from_secs(15)),
        HomeDevice::new("lamp", SensorKind::Power).with_telemetry_period(Duration::from_secs(20)),
        HomeDevice::new("window", SensorKind::Power).with_telemetry_period(Duration::from_secs(20)),
    ]
}

/// When the learning phase ends and the attack fires.
pub const LEARNING_END_S: u64 = 120;
/// When the attack is injected.
pub const ATTACK_AT_S: u64 = 180;
/// When the scenario run ends.
pub const SCENARIO_END_S: u64 = 420;

const TIMER_GO: u64 = 900;
const TIMER_FLOOD_ORDER: u64 = 901;

/// WAN attacker that runs the selected scenario against the home.
struct ScenarioAttacker {
    gateway: NodeId,
    cloud: NodeId,
    victim_sink: NodeId,
    scenario: AttackScenario,
}

impl Node for ScenarioAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(ATTACK_AT_S), TIMER_GO);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        match (tag, self.scenario) {
            (TIMER_GO, AttackScenario::BotnetRecruitFlood) => {
                let login = recruit_login(ctx.id(), self.gateway, "cam");
                ctx.send(self.gateway, login);
                ctx.set_timer(Duration::from_secs(20), TIMER_FLOOD_ORDER);
            }
            (TIMER_FLOOD_ORDER, AttackScenario::BotnetRecruitFlood) => {
                let kind = Kind::AttackCmd {
                    target: self.victim_sink,
                    count: 300,
                };
                let order = Packet::new(ctx.id(), self.gateway, kind, CNC_SIGNATURES[1].to_vec())
                    .with_device("cam");
                ctx.send(self.gateway, order);
            }
            (TIMER_GO, AttackScenario::BufferOverflow) => {
                // Exploit attempts rarely come alone: the attacker retries.
                for i in 0..3u64 {
                    let kind = Kind::Cmd {
                        action: None,
                        command: None,
                    };
                    let smash = Packet::new(ctx.id(), self.gateway, kind, vec![0x90u8; 300])
                        .with_device("wallpad");
                    ctx.send_after(self.gateway, smash, Duration::from_secs(i));
                }
            }
            (TIMER_GO, AttackScenario::FirmwareTamper) => {
                let image = xlf_device::firmware::FirmwareImage::unsigned(
                    xlf_device::firmware::Version(9, 9, 9),
                    "mallory",
                    b"BOTNET implant".to_vec(),
                );
                for i in 0..3u64 {
                    let ota = Packet::new(ctx.id(), self.gateway, Kind::Ota, image.to_bytes())
                        .with_device("cam");
                    ctx.send_after(self.gateway, ota, Duration::from_secs(i));
                }
            }
            (TIMER_GO, AttackScenario::SpoofedEvents) => {
                for i in 0..10 {
                    let kind = Kind::SpoofedEvent {
                        attribute: "temperature".to_string(),
                        value: format!("{}", 95 + i),
                    };
                    let spoof =
                        Packet::new(ctx.id(), self.cloud, kind, Vec::new()).with_device("thermo");
                    ctx.send(self.cloud, spoof);
                }
            }
            _ => {}
        }
    }
}

/// Passive WAN sink standing in for a DDoS victim.
struct VictimSink;
impl Node for VictimSink {}

/// Builds and runs one scenario; returns the finished home (inspect the
/// Core, gateway, and devices for outcomes).
pub fn run_scenario(seed: u64, mut config: XlfConfig, scenario: AttackScenario) -> XlfHome {
    config.learning_period = Duration::from_secs(LEARNING_END_S);
    let mut home = XlfHome::build(seed, config, &standard_devices());

    // Install the §IV-C3 automation: open the window when the thermostat
    // reports above 80°F. The diurnal simulation peaks at ~78°F, so only
    // spoofed/manipulated readings ever fire it.
    {
        use xlf_cloud::smartapp::{Action, AppPermissions, Predicate, SmartApp, Trigger};
        let cloud = home
            .net
            .node_as_mut::<xlf_cloud::CloudNode>(home.cloud)
            .expect("cloud node");
        cloud.cloud_mut().install_app(
            SmartApp::new(
                "auto-window",
                AppPermissions::new().grant("window", xlf_cloud::Capability::Switch),
            )
            .rule(
                Trigger {
                    device: "thermo".into(),
                    attribute: "temperature".into(),
                    predicate: Predicate::GreaterThan(80.0),
                },
                Action {
                    device: "window".into(),
                    command: "on".into(),
                },
            ),
        );
    }

    let victim = home.net.add_node(Box::new(VictimSink));
    home.net
        .connect(victim, home.gateway, Medium::Wan.link().with_loss(0.0));

    let attacker = home.net.add_node(Box::new(ScenarioAttacker {
        gateway: home.gateway,
        cloud: home.cloud,
        victim_sink: victim,
        scenario,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
    home.net
        .connect(attacker, home.cloud, Medium::Wan.link().with_loss(0.0));

    home.net.run_until(SimTime::from_secs(SCENARIO_END_S));
    // Final evaluation sweep so late evidence is fused.
    home.core
        .borrow_mut()
        .evaluate(SimTime::from_secs(SCENARIO_END_S));
    home
}

/// A benign-but-busy configuration used for shaping/DPI benches: full
/// mechanisms with padding enabled.
pub fn shaped_config(bucket: usize) -> XlfConfig {
    let mut config = XlfConfig::full();
    config.shaping = ShapingMode::PadAndDelay {
        bucket,
        max_delay: Duration::from_millis(100),
    };
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_core::alerts::Severity;

    #[test]
    fn benign_scenario_raises_no_critical_alerts() {
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::None);
        assert!(home
            .core
            .borrow()
            .alerts
            .at_least(Severity::Critical)
            .is_empty());
    }

    #[test]
    fn botnet_scenario_is_critically_flagged_under_full_xlf() {
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::BotnetRecruitFlood);
        let core = home.core.borrow();
        assert!(
            core.alerts.has_alert("cam", Severity::Critical),
            "alerts: {:?}",
            core.alerts.alerts()
        );
    }

    #[test]
    fn firmware_tamper_is_blocked_and_flagged() {
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::FirmwareTamper);
        // Gateway vetting blocked the image, so the camera stays clean.
        assert!(!home.device_ref("cam").is_compromised());
        assert!(home
            .core
            .borrow()
            .store
            .all()
            .iter()
            .any(|e| e.kind == xlf_core::EvidenceKind::FirmwareRejected));
    }

    #[test]
    fn undefended_home_lets_the_attacks_through() {
        let home = run_scenario(1, XlfConfig::off(), AttackScenario::BotnetRecruitFlood);
        assert!(home.device_ref("cam").is_compromised());
        let tampered = run_scenario(1, XlfConfig::off(), AttackScenario::FirmwareTamper);
        assert!(tampered.device_ref("cam").is_compromised());
    }
}
