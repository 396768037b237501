//! The simulated device runtime: a [`Node`] gluing together sensor,
//! firmware store, credential store, local storage, and vulnerability
//! profile, speaking the small packet vocabulary the rest of the system
//! (hub, cloud, attacks, XLF) shares.
//!
//! ## Wire vocabulary ([`Kind`])
//!
//! | kind | direction | meaning |
//! |---|---|---|
//! | `Telemetry` | device → hub | periodic sensor reading |
//! | `Event` | device → hub | state transition notification |
//! | `Cmd` | hub → device | `action`: `on`/`off`/`stream`/`idle` |
//! | `Login` | any → device | `user`/`pass`; replies `LoginResult` |
//! | `Ota` | hub → device | firmware image payload; replies `OtaResult` |
//! | `Probe` | any → device | port probe; replies `ProbeResult` |
//! | `AttackCmd` | C&C → device | botnet order (only if compromised) |
//! | `Ddos` | device → victim | flood packet (via hub, `final_dst` set) |

use crate::credentials::{CredentialStore, LoginOutcome};
use crate::firmware::{FirmwareImage, FirmwareStore, UpdatePolicy};
use crate::sensor::{Sensor, SensorKind};
use crate::storage::{LocalStore, StorageEncryption};
use crate::vulns::{VulnSet, Vulnerability};
use xlf_simnet::{Context, Duration, Kind, Node, NodeId, Packet, Protocol, TimerId};

/// Operational state of a device — the state machine the paper's
/// behavioural monitoring (HoMonit-style DFA, §IV-B3) profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Powered but dormant.
    Idle,
    /// Actively performing its function.
    Active,
    /// High-rate mode (e.g. camera streaming).
    Streaming,
    /// Turned off (still reachable for wake commands).
    Off,
    /// Under attacker control.
    Compromised,
}

impl DeviceState {
    /// Short label used in events and DFA symbols.
    pub fn label(self) -> &'static str {
        match self {
            DeviceState::Idle => "idle",
            DeviceState::Active => "active",
            DeviceState::Streaming => "streaming",
            DeviceState::Off => "off",
            DeviceState::Compromised => "compromised",
        }
    }
}

/// Static configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable name (also used as the device identity).
    pub name: String,
    /// Sensing modality.
    pub sensor: SensorKind,
    /// Sensor determinism seed.
    pub seed: u64,
    /// Vulnerability profile.
    pub vulns: VulnSet,
    /// The hub/gateway this device talks through.
    pub hub: NodeId,
    /// Telemetry period while `Idle`/`Active`.
    pub telemetry_period: Duration,
    /// Vendor identity for firmware verification.
    pub vendor: String,
    /// Vendor signing secret (shared with the legitimate OTA server).
    pub vendor_secret: Vec<u8>,
}

impl DeviceConfig {
    /// A hardened device configuration with sane defaults.
    pub fn new(name: &str, sensor: SensorKind, hub: NodeId) -> Self {
        DeviceConfig {
            name: name.to_string(),
            sensor,
            seed: name.bytes().map(u64::from).sum(),
            vulns: VulnSet::hardened(),
            hub,
            telemetry_period: Duration::from_secs(30),
            vendor: "acme".to_string(),
            vendor_secret: b"acme vendor secret".to_vec(),
        }
    }

    /// Replaces the vulnerability profile (builder-style).
    pub fn with_vulns(mut self, vulns: VulnSet) -> Self {
        self.vulns = vulns;
        self
    }

    /// Overrides the telemetry period (builder-style).
    pub fn with_telemetry_period(mut self, period: Duration) -> Self {
        self.telemetry_period = period;
        self
    }
}

const TIMER_TELEMETRY: u64 = 1;
const TIMER_DDOS: u64 = 2;

/// A simulated IoT device.
pub struct SimDevice {
    config: DeviceConfig,
    sensor: Sensor,
    state: DeviceState,
    firmware: FirmwareStore,
    credentials: CredentialStore,
    storage: LocalStore,
    /// Target and packet budget for an active botnet order.
    ddos_order: Option<(NodeId, u32)>,
    /// Count of state transitions, for test inspection.
    pub transitions: Vec<(DeviceState, DeviceState)>,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("name", &self.config.name)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl SimDevice {
    /// Builds a device from its configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let factory = FirmwareImage::signed(
            crate::firmware::Version(1, 0, 0),
            &config.vendor,
            format!("factory firmware for {}", config.name).into_bytes(),
            &config.vendor_secret,
        );
        let policy = if config.vulns.has(Vulnerability::UnsignedFirmware) {
            UpdatePolicy::promiscuous()
        } else {
            UpdatePolicy::strict()
        };
        let firmware = FirmwareStore::new(factory, policy, &config.vendor_secret);

        let credentials = if config.vulns.has(Vulnerability::StaticPassword)
            || config.vulns.has(Vulnerability::GenericAuth)
        {
            CredentialStore::factory_default()
        } else {
            let mut c = CredentialStore::hardened();
            c.add_user("owner", &format!("{}-Str0ng!Pass", config.name));
            c
        };

        let storage = if config.vulns.has(Vulnerability::PlaintextStorage) {
            let mut s = LocalStore::new(StorageEncryption::None);
            s.put("wifi-psk", b"home-network-password-123");
            s
        } else {
            let mut s = LocalStore::new(StorageEncryption::Encrypted {
                device_secret: format!("{}-device-secret", config.name).into_bytes(),
            });
            s.put("wifi-psk", b"home-network-password-123");
            s
        };

        let sensor = Sensor::new(config.sensor, config.seed);
        SimDevice {
            config,
            sensor,
            state: DeviceState::Idle,
            firmware,
            credentials,
            storage,
            ddos_order: None,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Firmware store (inspection).
    pub fn firmware(&self) -> &FirmwareStore {
        &self.firmware
    }

    /// Local storage (inspection).
    pub fn storage(&self) -> &LocalStore {
        &self.storage
    }

    /// Whether the device is under attacker control.
    pub fn is_compromised(&self) -> bool {
        self.state == DeviceState::Compromised
    }

    fn set_state(&mut self, ctx: &mut Context<'_>, next: DeviceState) {
        if next == self.state {
            return;
        }
        let prev = self.state;
        self.state = next;
        self.transitions.push((prev, next));
        let (from, to) = (prev.label(), next.label());
        self.reply(ctx, self.config.hub, Kind::Event { from, to });
    }

    /// Sends a payload-less `kind` to `to`, naming this device.
    fn reply(&self, ctx: &mut Context<'_>, to: NodeId, kind: Kind) {
        let packet = Packet::new(ctx.id(), to, kind, Vec::new()).with_device(&self.config.name);
        ctx.send(to, packet);
    }

    fn telemetry_period(&self) -> Duration {
        match self.state {
            DeviceState::Streaming => Duration::from_millis(200),
            DeviceState::Active => self.config.telemetry_period,
            DeviceState::Idle => self.config.telemetry_period,
            DeviceState::Off => Duration::from_secs(300),
            DeviceState::Compromised => self.config.telemetry_period,
        }
    }

    fn telemetry_size(&self) -> usize {
        match self.state {
            DeviceState::Streaming => 900,
            DeviceState::Active => 120,
            _ => 48,
        }
    }

    fn handle_cmd(&mut self, ctx: &mut Context<'_>, packet: &Packet, action: Option<&str>) {
        // Table II "wall pad" row: oversized command payloads smash the
        // parser buffer and execute attacker shellcode.
        if self.config.vulns.has(Vulnerability::BufferOverflow) && packet.payload.len() > 64 {
            self.set_state(ctx, DeviceState::Compromised);
            return;
        }
        match action {
            Some("on") => self.set_state(ctx, DeviceState::Active),
            Some("off") => self.set_state(ctx, DeviceState::Off),
            Some("stream") => self.set_state(ctx, DeviceState::Streaming),
            Some("idle") => self.set_state(ctx, DeviceState::Idle),
            _ => {}
        }
    }

    fn handle_login(&mut self, ctx: &mut Context<'_>, src: NodeId, user: &str, pass: &str) {
        let ok = self.credentials.login(user, pass) == LoginOutcome::Success;
        // A successful login by the default credentials on a vulnerable
        // device hands over control (Table II smart-bulb / fridge rows).
        if ok && self.credentials.has_default_credentials && user == "admin" {
            self.set_state(ctx, DeviceState::Compromised);
        }
        self.reply(ctx, src, Kind::LoginResult { ok });
    }

    fn handle_ota(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        let result =
            FirmwareImage::from_bytes(&packet.payload).and_then(|image| self.firmware.apply(image));
        let (ok, detail) = match &result {
            Ok(()) => (true, String::from("applied")),
            Err(e) => (false, e.to_string()),
        };
        if ok && self.firmware.payload_contains(b"BOTNET") {
            self.set_state(ctx, DeviceState::Compromised);
        }
        self.reply(ctx, packet.src, Kind::OtaResult { ok, detail });
    }

    fn handle_probe(&mut self, ctx: &mut Context<'_>, src: NodeId, port: u16) {
        let open = match port {
            23 => {
                // Telnet open on weak-credential devices (the Mirai vector).
                self.config.vulns.has(Vulnerability::StaticPassword)
                    || self.config.vulns.has(Vulnerability::GenericAuth)
            }
            1900 => {
                self.config.vulns.has(Vulnerability::OpenUpnpPorts)
                    || self.config.vulns.has(Vulnerability::UnprotectedChannel)
            }
            _ => false,
        };
        self.reply(ctx, src, Kind::ProbeResult { port, open });
    }

    fn handle_attack_cmd(&mut self, ctx: &mut Context<'_>, target: NodeId, count: u32) {
        if !self.is_compromised() {
            return; // healthy devices ignore C&C traffic
        }
        self.ddos_order = Some((target, count));
        ctx.set_timer(Duration::from_millis(10), TIMER_DDOS);
    }
}

impl Node for SimDevice {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.telemetry_period(), TIMER_TELEMETRY);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TIMER_TELEMETRY => {
                if self.state != DeviceState::Off {
                    let mut payload = self.sensor.encode_reading(ctx.now());
                    payload.resize(self.telemetry_size(), b' ');
                    let kind = Kind::Telemetry {
                        state: self.state.label(),
                    };
                    let pkt = Packet::new(ctx.id(), self.config.hub, kind, payload)
                        .with_protocol(Protocol::Tls)
                        .with_device(&self.config.name);
                    ctx.send(self.config.hub, pkt);
                }
                ctx.set_timer(self.telemetry_period(), TIMER_TELEMETRY);
            }
            TIMER_DDOS => {
                if let Some((target, remaining)) = self.ddos_order {
                    let flood = Packet {
                        final_dst: Some(target),
                        ..Packet::new(ctx.id(), self.config.hub, Kind::Ddos, vec![0u8; 512])
                            .with_protocol(Protocol::Udp)
                            .with_device(&self.config.name)
                    };
                    ctx.send(self.config.hub, flood);
                    if remaining > 1 {
                        self.ddos_order = Some((target, remaining - 1));
                        ctx.set_timer(Duration::from_millis(2), TIMER_DDOS);
                    } else {
                        self.ddos_order = None;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        match packet.kind {
            Kind::Cmd { action, .. } => self.handle_cmd(ctx, &packet, action),
            Kind::Login { user, pass } => self.handle_login(ctx, packet.src, user, pass),
            Kind::Ota => self.handle_ota(ctx, &packet),
            Kind::Probe { port } => self.handle_probe(ctx, packet.src, port),
            Kind::AttackCmd { target, count } => self.handle_attack_cmd(ctx, target, count),
            // Table II "Chromecast" row: a forged deauthentication makes a
            // rickroll-vulnerable device drop its session and reconnect to
            // the sender, handing over the stream.
            Kind::Deauth if self.config.vulns.has(Vulnerability::RickrollReconnect) => {
                self.set_state(ctx, DeviceState::Compromised);
                self.reply(ctx, packet.src, Kind::Reconnect);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::Version;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xlf_simnet::{Medium, Network, SimTime};

    /// Hub stub that records everything it hears.
    #[derive(Default)]
    struct HubStub {
        heard: Rc<RefCell<Vec<Packet>>>,
    }
    impl Node for HubStub {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
            self.heard.borrow_mut().push(packet);
        }
    }

    const BARE_CMD: Kind = Kind::Cmd {
        action: None,
        command: None,
    };
    const STREAM_CMD: Kind = Kind::Cmd {
        action: Some("stream"),
        command: None,
    };

    fn flood_order(count: u32) -> Kind {
        let target = NodeId::from_raw(0);
        Kind::AttackCmd { target, count }
    }

    fn setup(vulns: VulnSet) -> (Network, NodeId, NodeId, Rc<RefCell<Vec<Packet>>>) {
        let mut net = Network::new(5);
        let heard = Rc::new(RefCell::new(Vec::new()));
        let hub = net.add_node(Box::new(HubStub {
            heard: heard.clone(),
        }));
        let cfg = DeviceConfig::new("lamp", SensorKind::Power, hub)
            .with_vulns(vulns)
            .with_telemetry_period(Duration::from_secs(5));
        let dev = net.add_node(Box::new(SimDevice::new(cfg)));
        net.connect(hub, dev, Medium::Zigbee.link().with_loss(0.0));
        (net, hub, dev, heard)
    }

    fn send(net: &mut Network, src: NodeId, dst: NodeId, kind: Kind, payload: Vec<u8>) {
        net.inject(src, dst, Packet::new(src, dst, kind, payload));
    }

    /// The packets heard whose kind passes `pick`.
    fn heard_where(heard: &RefCell<Vec<Packet>>, pick: impl Fn(&Kind) -> bool) -> Vec<Packet> {
        heard
            .borrow()
            .iter()
            .filter(|p| pick(&p.kind))
            .cloned()
            .collect()
    }

    /// Whether the device announced its own compromise.
    fn reported_compromise(heard: &RefCell<Vec<Packet>>) -> bool {
        let compromised = |k: &Kind| matches!(k, Kind::Event { to, .. } if *to == "compromised");
        !heard_where(heard, compromised).is_empty()
    }

    #[test]
    fn telemetry_flows_periodically() {
        let (mut net, _hub, _dev, heard) = setup(VulnSet::hardened());
        net.run_until(SimTime::from_secs(31));
        let telemetry = heard_where(&heard, |k| matches!(k, Kind::Telemetry { .. }));
        assert!(telemetry.len() >= 5, "got {}", telemetry.len());
        assert_eq!(telemetry[0].device.as_deref(), Some("lamp"));
    }

    #[test]
    fn commands_drive_state_machine_and_events() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        send(&mut net, hub, dev, STREAM_CMD, Vec::new());
        net.run_until(SimTime::from_secs(2));
        let events = heard_where(&heard, |k| matches!(k, Kind::Event { .. }));
        assert_eq!(events.len(), 1);
        let (from, to) = ("idle", "streaming");
        assert_eq!(events[0].kind, Kind::Event { from, to });
    }

    #[test]
    fn streaming_raises_telemetry_rate_and_size() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        send(&mut net, hub, dev, STREAM_CMD, Vec::new());
        net.run_until(SimTime::from_secs(10));
        let telemetry = heard_where(&heard, |k| matches!(k, Kind::Telemetry { .. }));
        // 200 ms period → tens of packets in 10 s, with streaming size.
        assert!(telemetry.len() > 20);
        assert!(telemetry.iter().any(|p| p.payload.len() == 900));
    }

    #[test]
    fn default_credentials_grant_takeover_only_when_vulnerable() {
        let weak = VulnSet::of(&[Vulnerability::StaticPassword]);
        for (vulns, vulnerable) in [(weak, true), (VulnSet::hardened(), false)] {
            let (mut net, _hub, dev, heard) = setup(vulns);
            let attacker = net.add_node(Box::new(HubStub::default()));
            net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
            let login = Kind::Login {
                user: "admin",
                pass: "admin",
            };
            send(&mut net, attacker, dev, login, Vec::new());
            net.run_until(SimTime::from_secs(2));
            assert_eq!(reported_compromise(&heard), vulnerable);
        }
    }

    #[test]
    fn buffer_overflow_requires_the_vuln_flag() {
        let weak = VulnSet::of(&[Vulnerability::BufferOverflow]);
        for (vulns, vulnerable) in [(weak, true), (VulnSet::hardened(), false)] {
            let (mut net, hub, dev, heard) = setup(vulns);
            send(&mut net, hub, dev, BARE_CMD, vec![b'A'; 200]);
            net.run_until(SimTime::from_secs(1));
            assert_eq!(reported_compromise(&heard), vulnerable);
            let events = heard_where(&heard, |k| matches!(k, Kind::Event { .. }));
            assert_eq!(events.is_empty(), !vulnerable);
        }
    }

    #[test]
    fn unsigned_firmware_attack_requires_the_vuln_flag() {
        let evil = FirmwareImage::unsigned(Version(9, 9, 9), "mallory", b"BOTNET code".to_vec());
        let weak = VulnSet::of(&[Vulnerability::UnsignedFirmware]);
        for (vulns, vulnerable) in [(weak, true), (VulnSet::hardened(), false)] {
            let (mut net, hub, dev, heard) = setup(vulns);
            send(&mut net, hub, dev, Kind::Ota, evil.to_bytes());
            net.run_until(SimTime::from_secs(1));
            let applied = |k: &Kind| matches!(k, Kind::OtaResult { ok, .. } if *ok == vulnerable);
            assert_eq!(heard_where(&heard, applied).len(), 1);
            assert_eq!(reported_compromise(&heard), vulnerable);
        }
    }

    #[test]
    fn probe_reports_open_telnet_only_on_weak_devices() {
        let weak = VulnSet::of(&[Vulnerability::StaticPassword]);
        for (vulns, vulnerable) in [(weak, true), (VulnSet::hardened(), false)] {
            let (mut net, hub, dev, heard) = setup(vulns);
            send(&mut net, hub, dev, Kind::Probe { port: 23 }, Vec::new());
            net.run_until(SimTime::from_secs(1));
            let open = Kind::ProbeResult {
                port: 23,
                open: vulnerable,
            };
            assert_eq!(heard_where(&heard, |k| *k == open).len(), 1);
        }
    }

    #[test]
    fn healthy_devices_ignore_cnc_orders() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        send(&mut net, hub, dev, flood_order(10), Vec::new());
        net.run_until(SimTime::from_secs(2));
        assert!(heard_where(&heard, |k| *k == Kind::Ddos).is_empty());
    }

    #[test]
    fn compromised_devices_flood_on_command() {
        let (mut net, hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::BufferOverflow]));
        send(&mut net, hub, dev, BARE_CMD, vec![b'A'; 200]);
        net.run_until(SimTime::from_secs(1));
        send(&mut net, hub, dev, flood_order(25), Vec::new());
        net.run_until(SimTime::from_secs(5));
        assert_eq!(heard_where(&heard, |k| *k == Kind::Ddos).len(), 25);
    }
}
