//! The traced run: the workload's homes stepped one at a time on one
//! thread through the fleet crate's public API, with every call into a
//! layer timed from outside the program.
//!
//! It mirrors what a fleet worker does with a home (build, step in
//! slices, drain, probe, finish, fold into its region) and what the
//! aggregation tier does after the last home, so the report it ends
//! with must be byte-identical to an untraced `run_fleet` of the same
//! spec. That identity is checked: tracing is observation only.

use crate::host::process_cpu_s;
use crate::stats::percentile;
use crate::workloads::{self, Violation, Workload};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use xlf_attacks::observer::TrafficAnalyst;
use xlf_core::dpi::{default_rules, EncryptedDpi};
use xlf_core::framework::{HomeProbe, HomeReport, HomeRunner, XlfConfig};
use xlf_fleet::spec::LEARNING_END_S;
use xlf_fleet::{
    build_home, join_for, run_fleet, FleetAggregator, FleetAttack, FleetMetrics, FleetSpec,
    HomeOutcome, HomeSpec, HomeStream, RegionAggregator,
};
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::searchable::{Token, Tokenizer};
use xlf_mgmt::CommandKind;
use xlf_simnet::observer::{PacketRecord, RecordingTap, Tap};
use xlf_simnet::{LinkConfig, NodeId, Packet, SimTime};
use xlf_stream::{WindowBuffer, WindowSummary, STREAM_FEATURES};

/// The secret `XlfHome::build` gives every gateway; per-device DPI
/// session keys derive from it.
const HOME_MASTER_SECRET: &[u8] = b"home master secret";

/// Hops the engine carries, as the tap sees them.
const HOP_DEV_GW: usize = 0;
const HOP_GW_CLOUD: usize = 1;
const HOP_CLOUD_GW: usize = 2;
const HOP_GW_DEV: usize = 3;
const HOP_ATTACKER_GW: usize = 4;

/// What the benchmark's tap saw in one home.
#[derive(Default)]
struct Seen {
    packets: u64,
    wire_bytes: u64,
    hops: [u64; 5],
    /// `(device index, payload)` of every packet the gateway would hand
    /// to its DPI scanner.
    scans: Vec<(usize, Bytes)>,
}

/// A tap counting transmissions per hop and capturing the payloads a
/// DPI-enabled gateway tokenizes. Taps only observe; the engine's
/// event sequence does not depend on them.
struct LayerTap {
    seen: Rc<RefCell<Seen>>,
    gateway: NodeId,
    cloud: NodeId,
    devices: Vec<NodeId>,
    names: Vec<String>,
    /// `Some(scans_ota)` when the gateway runs DPI; downstream OTA
    /// images are scanned only when update vetting is off.
    dpi: Option<bool>,
}

impl LayerTap {
    /// The device whose DPI session scans `packet` at the gateway, if
    /// any: every non-empty upstream payload, and downstream commands,
    /// logins, probes (and unvetted OTA images) for a registered
    /// device. Quarantine drops are not modelled, so this slightly
    /// over-counts the gateway's own scans.
    fn scanned_by(&self, packet: &Packet, upstream: Option<usize>) -> Option<usize> {
        let scans_ota = self.dpi?;
        if packet.dst != self.gateway || packet.payload.is_empty() {
            return None;
        }
        if upstream.is_some() {
            return upstream;
        }
        let scanned = matches!(packet.kind.as_str(), "cmd" | "login" | "probe")
            || (packet.kind == "ota" && scans_ota);
        let device = packet.meta("device").filter(|_| scanned)?;
        self.names.iter().position(|n| n == device)
    }
}

impl Tap for LayerTap {
    fn on_transmit(&mut self, _at: SimTime, packet: &Packet, _link: &LinkConfig) {
        let from_device = self.devices.iter().position(|&d| d == packet.src);
        let scan = self.scanned_by(packet, from_device);
        let mut seen = self.seen.borrow_mut();
        seen.packets += 1;
        seen.wire_bytes += packet.wire_size as u64;
        let hop = if packet.dst == self.gateway {
            Some(match (from_device, packet.src == self.cloud) {
                (Some(_), _) => HOP_DEV_GW,
                (None, true) => HOP_CLOUD_GW,
                (None, false) => HOP_ATTACKER_GW,
            })
        } else if packet.src == self.gateway && packet.dst == self.cloud {
            Some(HOP_GW_CLOUD)
        } else if packet.src == self.gateway && self.devices.contains(&packet.dst) {
            Some(HOP_GW_DEV)
        } else {
            None
        };
        if let Some(h) = hop {
            seen.hops[h] += 1;
        }
        if let Some(device) = scan {
            seen.scans.push((device, packet.payload.clone()));
        }
    }
}

fn install_tap(runner: &mut HomeRunner, dpi: Option<bool>) -> Rc<RefCell<Seen>> {
    let home = runner.home();
    let seen = Rc::new(RefCell::new(Seen::default()));
    let tap = LayerTap {
        seen: seen.clone(),
        gateway: home.gateway,
        cloud: home.cloud,
        devices: home.devices.values().copied().collect(),
        names: home.devices.keys().cloned().collect(),
        dpi,
    };
    runner.home_mut().net.add_tap(Box::new(tap));
    seen
}

/// One stop on a home's run schedule, as the fleet engine plans it:
/// every slice end drains the evidence bus, every correlation boundary
/// of a streamed run closes a window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Deadline {
    at_us: u64,
    drain: bool,
    window_end: bool,
}

fn schedule(spec: &FleetSpec) -> Vec<Deadline> {
    let horizon_us = spec.horizon.as_micros();
    let slices = spec.slices.max(1) as u64;
    let interval_us = spec
        .correlation_interval
        .unwrap_or(0)
        .saturating_mul(1_000_000);
    let mut deadlines: Vec<Deadline> = (1..=slices)
        .map(|i| Deadline {
            at_us: horizon_us * i / slices,
            drain: true,
            window_end: false,
        })
        .collect();
    for w in 1..=spec.stream_epochs() {
        let at_us = (interval_us * w).min(horizon_us);
        match deadlines.iter_mut().find(|d| d.at_us == at_us) {
            Some(d) => d.window_end = true,
            None => deadlines.push(Deadline {
                at_us,
                drain: false,
                window_end: true,
            }),
        }
    }
    deadlines.sort_by_key(|d| d.at_us);
    deadlines
}

fn probe_delta(prev: &HomeProbe, now: &HomeProbe) -> [f64; STREAM_FEATURES] {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let u = |a: usize, b: usize| a.saturating_sub(b) as f64;
    [
        u(now.evidence_total, prev.evidence_total),
        u(now.evidence_by_layer[0], prev.evidence_by_layer[0]),
        u(now.evidence_by_layer[1], prev.evidence_by_layer[1]),
        u(now.evidence_by_layer[2], prev.evidence_by_layer[2]),
        u(now.warning_alerts, prev.warning_alerts),
        u(now.critical_alerts, prev.critical_alerts),
        d(now.forwarded, prev.forwarded),
        d(now.dropped_packets, prev.dropped_packets),
        d(now.wire_bytes, prev.wire_bytes),
        d(now.packets, prev.packets),
    ]
}

/// The passive analyst's score, trained on the learning window and
/// judged on the rest, as the fleet scores traffic-observer homes.
fn observer_accuracy(records: &[PacketRecord]) -> f64 {
    let cut = SimTime::from_secs(LEARNING_END_S);
    let (train, test): (Vec<PacketRecord>, Vec<PacketRecord>) =
        records.iter().cloned().partition(|r| r.at <= cut);
    let mut analyst = TrafficAnalyst::new();
    analyst.train(&train);
    analyst.accuracy(&test)
}

/// Per-home host times (ns) and counts, summed over the traced homes.
#[derive(Default)]
struct Totals {
    homes: u64,
    build_ns: u128,
    step_ns_per_home: Vec<f64>,
    drain_ns: u128,
    probe_ns: u128,
    finish_ns: u128,
    consume_ns: u128,
    events: u64,
    packets: u64,
    wire_bytes: u64,
    hops: [u64; 5],
    dpi_homes: u64,
    dpi_step_ns: u128,
    tokenize_ns: u128,
    tokens: u64,
    match_ns: u128,
    benign_step_ns: u128,
    benign_homes: u64,
    /// Process CPU of the traced homes (build, step, finish) and of the
    /// same homes run again without the tap.
    traced_cpu_s: f64,
    plain_cpu_s: f64,
    evidence: u64,
    evidence_shed: u64,
    evidence_by_layer: [u64; 3],
    windows: u64,
    windows_shed: u64,
}

fn ns(t: Instant) -> u128 {
    t.elapsed().as_nanos()
}

/// A home stepped to the horizon under the benchmark's tap.
struct Stepped {
    runner: HomeRunner,
    seen: Rc<RefCell<Seen>>,
    step_ns: u128,
    stream: HomeStream,
    /// The passive analyst's recording of a traffic-observer home.
    observer: Option<Rc<RefCell<Vec<PacketRecord>>>>,
}

/// Builds and steps one home on the engine's schedule, timing each
/// call; with `tap` set, under the benchmark's tap (capturing DPI
/// payloads when `dpi` is set).
fn step_home(
    spec: &FleetSpec,
    hs: &HomeSpec,
    plan: &[Deadline],
    tap: bool,
    dpi: Option<bool>,
    t: &mut Totals,
) -> Result<Stepped, Violation> {
    let lost = |what: String| Violation { what, homes: 1 };
    let t0 = Instant::now();
    let mut runner = build_home(spec, hs).map_err(|e| lost(e.to_string()))?;
    t.build_ns += ns(t0);
    let seen = if tap {
        install_tap(&mut runner, dpi)
    } else {
        Rc::default()
    };
    let observer = (hs.attack == FleetAttack::TrafficObserver).then(|| {
        let (tap, records) = RecordingTap::new();
        runner.home_mut().net.add_tap(Box::new(tap));
        records
    });

    let streaming = spec.correlation_interval.is_some();
    let mut buffer = WindowBuffer::new(spec.window_capacity);
    let mut last = HomeProbe::default();
    if streaming {
        let t0 = Instant::now();
        last = runner.probe();
        t.probe_ns += ns(t0);
    }
    let budget = spec.step_event_budget.unwrap_or(u64::MAX);
    let (mut events, mut step_ns, mut window) = (0u64, 0u128, 0u64);
    for d in plan {
        let t0 = Instant::now();
        let (n, truncated) =
            runner.run_until_capped(SimTime::from_micros(d.at_us), budget.saturating_sub(events));
        step_ns += ns(t0);
        events += n;
        if truncated {
            return Err(lost(format!("home {} hit its step event budget", hs.id)));
        }
        if d.drain {
            let t0 = Instant::now();
            black_box(
                runner
                    .home()
                    .core
                    .borrow_mut()
                    .drain_pending(spec.drain_batch),
            );
            t.drain_ns += ns(t0);
        }
        if d.window_end {
            let t0 = Instant::now();
            let probe = runner.probe();
            t.probe_ns += ns(t0);
            buffer.push(WindowSummary {
                home: hs.id,
                window,
                partial: false,
                features: probe_delta(&last, &probe),
            });
            last = probe;
            window += 1;
        }
    }
    t.events += events;
    let (windows, shed) = buffer.into_parts();
    Ok(Stepped {
        runner,
        seen,
        step_ns,
        stream: HomeStream { windows, shed },
        observer,
    })
}

/// Replays the gateway's DPI work on one home's captured payloads:
/// `Tokenizer::tokenize`, then `EncryptedDpi::inspect` on each token
/// stream, with one session per device as the gateway keys them.
/// Session set-up is not timed.
fn replay_dpi(scans: &[(usize, Bytes)], names: &[String], t: &mut Totals) {
    let mut sessions: BTreeMap<usize, (Tokenizer, EncryptedDpi)> = BTreeMap::new();
    for &(device, _) in scans {
        sessions.entry(device).or_insert_with(|| {
            let secret = derive_key(HOME_MASTER_SECRET, &format!("dpi/{}", names[device]), 16)
                .expect("a 16-byte key from a fixed secret");
            let mut dpi = EncryptedDpi::new(default_rules());
            dpi.bind_session(&secret).expect("non-empty session secret");
            (
                Tokenizer::new(&secret).expect("non-empty session secret"),
                dpi,
            )
        });
    }
    let t0 = Instant::now();
    let streams: Vec<Vec<Token>> = scans
        .iter()
        .map(|(device, payload)| sessions[device].0.tokenize(payload))
        .collect();
    t.tokenize_ns += ns(t0);
    t.tokens += streams.iter().map(|s| s.len() as u64).sum::<u64>();
    let now = SimTime::from_secs(0);
    let t0 = Instant::now();
    for ((device, _), tokens) in scans.iter().zip(&streams) {
        let (_, dpi) = sessions.get_mut(device).expect("session built above");
        black_box(dpi.inspect(&names[*device], tokens, now));
    }
    t.match_ns += ns(t0);
}

/// The outcome of a traced run.
pub struct Traced {
    pub homes: u64,
    pub values: Vec<(&'static str, f64)>,
    pub violations: Vec<Violation>,
}

/// Runs the workload's `spec` untraced on one worker (the reference),
/// then traced, checks the traced report, and returns every per-layer
/// metric.
pub fn run(workload: Workload, spec: &FleetSpec) -> Traced {
    let spec = spec.clone().with_workers(1);
    let stamps = spec.stamp();
    let homes = stamps.len();
    let mut violations = Vec::new();

    let reference = match run_fleet(&spec, &FleetMetrics::new()) {
        Ok(r) => r,
        Err(e) => {
            violations.push(Violation {
                what: format!("untraced reference run failed: {e}"),
                homes,
            });
            return Traced {
                homes: homes as u64,
                values: Vec::new(),
                violations,
            };
        }
    };

    let mut t = Totals::default();
    let plan = schedule(&spec);
    let horizon = SimTime::from_micros(spec.horizon.as_micros());

    let mut join_ns = 0u128;
    if let Some(ob) = &spec.onboarding {
        for hs in &stamps {
            let t0 = Instant::now();
            black_box(join_for(ob, hs));
            join_ns += ns(t0);
        }
    }

    let instances = spec.regions.max(1);
    let region_slots = spec.region_slots.max(1) as u32;
    let mut shards: Vec<RegionAggregator> = (0..instances)
        .map(|i| RegionAggregator::new(&spec, i, instances))
        .collect();
    let mut traced_reports: BTreeMap<u64, HomeReport> = BTreeMap::new();
    for (i, hs) in stamps.iter().enumerate() {
        let config = &spec.templates[hs.template].config;
        let dpi = config.dpi.then_some(!config.update_vetting);
        // Each home also runs once without the tap, alternately before
        // and after its traced run, so the tracing overhead is measured
        // on the same homes with host drift cancelled out.
        let plain_cpu_s = || {
            let c0 = process_cpu_s();
            if let Ok(s) = step_home(&spec, hs, &plan, false, None, &mut Totals::default()) {
                black_box(s.runner.finish(horizon));
            }
            process_cpu_s() - c0
        };
        if i % 2 == 0 {
            t.plain_cpu_s += plain_cpu_s();
        }
        let c0 = process_cpu_s();
        let stepped = match step_home(&spec, hs, &plan, true, dpi, &mut t) {
            Ok(s) => s,
            Err(v) => {
                violations.push(v);
                continue;
            }
        };
        let names: Vec<String> = stepped.runner.home().devices.keys().cloned().collect();
        let t0 = Instant::now();
        let report = stepped.runner.finish(horizon);
        t.finish_ns += ns(t0);
        t.traced_cpu_s += process_cpu_s() - c0;
        if i % 2 == 1 {
            t.plain_cpu_s += plain_cpu_s();
        }

        let seen = std::mem::take(&mut *stepped.seen.borrow_mut());
        t.homes += 1;
        t.step_ns_per_home.push(stepped.step_ns as f64);
        t.packets += seen.packets;
        t.wire_bytes += seen.wire_bytes;
        for (sum, n) in t.hops.iter_mut().zip(seen.hops) {
            *sum += n;
        }
        t.evidence += report.evidence_total as u64;
        t.evidence_shed += report.evidence_shed;
        for (sum, n) in t.evidence_by_layer.iter_mut().zip(report.evidence_by_layer) {
            *sum += n as u64;
        }
        t.windows += stepped.stream.windows.len() as u64;
        t.windows_shed += stepped.stream.shed;
        if hs.attack == FleetAttack::None {
            t.benign_homes += 1;
            t.benign_step_ns += stepped.step_ns;
        }
        if dpi.is_some() {
            t.dpi_homes += 1;
            t.dpi_step_ns += stepped.step_ns;
            replay_dpi(&seen.scans, &names, &mut t);
        }

        let observer_accuracy = stepped
            .observer
            .map(|records| observer_accuracy(&records.borrow()));
        traced_reports.insert(hs.id, report.clone());
        let outcome = HomeOutcome::Ok {
            report,
            observer_accuracy,
        };
        let shard = RegionAggregator::shard_of(hs.region % region_slots, instances);
        let t0 = Instant::now();
        shards[shard].consume(hs.clone(), outcome, stepped.stream);
        t.consume_ns += ns(t0);
    }

    let t0 = Instant::now();
    let report = FleetAggregator::new(&spec).aggregate_regions(shards);
    let aggregate_ms = ns(t0) as f64 / 1e6;

    let t0 = Instant::now();
    let json = report.to_json();
    let to_json_ms = ns(t0) as f64 / 1e6;

    // Tracing must be pure observation: the same homes and the same
    // fleet report as the untraced run.
    for row in &reference.rows {
        if traced_reports.get(&row.id) != Some(&row.report) {
            violations.push(Violation {
                what: format!(
                    "traced home {} report differs from the untraced row",
                    row.id
                ),
                homes: 1,
            });
        }
    }
    if json != reference.to_json() {
        violations.push(Violation {
            what: "traced fleet report bytes differ from the untraced report".to_string(),
            homes,
        });
    }
    violations.extend(workloads::check(workload, &spec, &stamps, &report, &json).1);

    let off_step_us = xlf_off_step_us(&spec, &stamps, &plan, &mut violations);
    let mut values = layer_values(&t, &report, &spec, join_ns, homes as u64);
    values.extend([
        ("fleet.aggregate_ms", aggregate_ms),
        ("fleet.to_json_ms", to_json_ms),
        ("core.xlf_off_step_us", off_step_us),
        (
            "core.xlf_share",
            1.0 - off_step_us / per(t.benign_step_ns as f64 / 1e3, t.benign_homes),
        ),
        (
            "trace.overhead_share",
            t.traced_cpu_s / t.plain_cpu_s.max(1e-9) - 1.0,
        ),
    ]);
    Traced {
        homes: homes as u64,
        values,
        violations,
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Mean step time of the attack-free homes rebuilt with every XLF
/// mechanism off: the engine, devices, cloud and plain forwarding.
fn xlf_off_step_us(
    spec: &FleetSpec,
    stamps: &[HomeSpec],
    plan: &[Deadline],
    violations: &mut Vec<Violation>,
) -> f64 {
    let mut off = spec.clone();
    for template in &mut off.templates {
        template.config = XlfConfig::off();
    }
    let mut t = Totals::default();
    let (mut step_ns, mut n) = (0u128, 0u64);
    for hs in stamps.iter().filter(|h| h.attack == FleetAttack::None) {
        match step_home(&off, hs, plan, true, None, &mut t) {
            Ok(s) => {
                step_ns += s.step_ns;
                n += 1;
            }
            Err(v) => violations.push(v),
        }
    }
    per(step_ns as f64 / 1e3, n)
}

fn layer_values(
    t: &Totals,
    report: &xlf_fleet::FleetReport,
    spec: &FleetSpec,
    join_ns: u128,
    homes: u64,
) -> Vec<(&'static str, f64)> {
    let us = |total_ns: u128, n: u64| per(total_ns as f64 / 1e3, n);
    let mean = |total: u64| per(total as f64, t.homes);
    let step_total_ns: f64 = t.step_ns_per_home.iter().sum();
    let step_us: Vec<f64> = t.step_ns_per_home.iter().map(|ns| ns / 1e3).collect();
    let (applied, rollbacks, quarantines) = report.mgmt.as_ref().map_or((0, 0, 0), |m| {
        (
            m.commands.applied(CommandKind::FirmwareUpdate),
            m.commands.applied(CommandKind::FirmwareRollback),
            m.commands.issued(CommandKind::Quarantine),
        )
    });
    let (retransmissions, denied) = report
        .onboarding
        .as_ref()
        .map_or((0, 0), |o| (o.retransmissions, o.denied));
    let join_homes = if spec.onboarding.is_some() { homes } else { 0 };
    vec![
        ("fleet.homes", t.homes as f64),
        ("fleet.build_us", us(t.build_ns, t.homes)),
        ("fleet.step_us", per(step_total_ns / 1e3, t.homes)),
        (
            "fleet.step_us_p50",
            percentile(&step_us, 50.0).unwrap_or(0.0),
        ),
        (
            "fleet.step_us_p99",
            percentile(&step_us, 99.0).unwrap_or(0.0),
        ),
        ("fleet.drain_us", us(t.drain_ns, t.homes)),
        ("fleet.probe_us", us(t.probe_ns, t.homes)),
        ("fleet.finish_us", us(t.finish_ns, t.homes)),
        ("fleet.region_consume_us", us(t.consume_ns, t.homes)),
        ("simnet.events", mean(t.events)),
        ("simnet.ns_per_event", per(step_total_ns, t.events)),
        ("simnet.packets", mean(t.packets)),
        ("simnet.wire_bytes", mean(t.wire_bytes)),
        ("simnet.hop.dev_gw", mean(t.hops[HOP_DEV_GW])),
        ("simnet.hop.gw_cloud", mean(t.hops[HOP_GW_CLOUD])),
        ("simnet.hop.cloud_gw", mean(t.hops[HOP_CLOUD_GW])),
        ("simnet.hop.gw_dev", mean(t.hops[HOP_GW_DEV])),
        ("simnet.hop.attacker_gw", mean(t.hops[HOP_ATTACKER_GW])),
        ("lwcrypto.dpi_homes", t.dpi_homes as f64),
        ("lwcrypto.tokenize_us", us(t.tokenize_ns, t.dpi_homes)),
        ("lwcrypto.tokens", per(t.tokens as f64, t.dpi_homes)),
        (
            "lwcrypto.tokenize_ns_per_token",
            per(t.tokenize_ns as f64, t.tokens),
        ),
        (
            "lwcrypto.tokenize_step_share",
            if t.dpi_step_ns == 0 {
                0.0
            } else {
                t.tokenize_ns as f64 / t.dpi_step_ns as f64
            },
        ),
        ("core.dpi_match_us", us(t.match_ns, t.dpi_homes)),
        ("core.evidence", mean(t.evidence)),
        ("core.evidence_shed", mean(t.evidence_shed)),
        ("core.evidence_device", mean(t.evidence_by_layer[0])),
        ("core.evidence_network", mean(t.evidence_by_layer[1])),
        ("core.evidence_service", mean(t.evidence_by_layer[2])),
        ("stream.windows", mean(t.windows)),
        ("stream.windows_shed", mean(t.windows_shed)),
        ("mgmt.updates_applied", applied as f64),
        ("mgmt.rollbacks", rollbacks as f64),
        ("mgmt.quarantines", quarantines as f64),
        ("onboard.join_us", us(join_ns, join_homes)),
        ("onboard.retransmissions", retransmissions as f64),
        ("onboard.denied", denied as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_is_pure_observation_on_every_workload() {
        for w in Workload::ALL {
            let mut spec = w.spec(0xF1EE_2019, 1);
            spec.homes = 12;
            let traced = run(w, &spec);
            let broken: Vec<&Violation> = traced
                .violations
                .iter()
                .filter(|v| v.what.contains("traced"))
                .collect();
            assert!(broken.is_empty(), "{}: {broken:?}", w.name());
            assert_eq!(traced.values.len(), crate::metrics::PER_LAYER.len());
            assert_eq!(traced.homes, 12);
        }
    }

    #[test]
    fn batch_schedule_is_the_slice_ends() {
        let spec = FleetSpec::new(1, 1);
        let plan = schedule(&spec);
        assert_eq!(plan.len(), spec.slices as usize);
        assert!(plan.iter().all(|d| d.drain && !d.window_end));
        assert_eq!(plan.last().map(|d| d.at_us), Some(spec.horizon.as_micros()));
    }

    #[test]
    fn streamed_schedule_merges_windows_into_slices() {
        let spec = FleetSpec::new(1, 1).with_correlation_interval(15);
        let plan = schedule(&spec);
        let windows = plan.iter().filter(|d| d.window_end).count() as u64;
        assert_eq!(windows, spec.stream_epochs());
        assert_eq!(
            plan.iter().filter(|d| d.drain).count(),
            spec.slices as usize
        );
        assert!(plan.windows(2).all(|w| w[0].at_us < w[1].at_us));
    }
}
