//! Packets: the unit of traffic every XLF mechanism observes, and the
//! typed message vocabulary the home's layers exchange.

use crate::node::NodeId;
use bytes::Bytes;
use std::fmt;

/// Transport/application protocol tag carried by a packet.
///
/// This is deliberately a coarse label (the granularity a middlebox sees
/// after port/heuristic classification), not a full header stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Plain UDP datagram.
    Udp,
    /// TCP segment (connection handling abstracted away).
    Tcp,
    /// DNS query/response.
    Dns,
    /// TLS record (possibly carrying DoT/DoH).
    Tls,
    /// HTTP request/response.
    Http,
    /// IEEE 802.15.4 frame (ZigBee/6LoWPAN).
    Ieee802154,
    /// SSDP/UPnP discovery.
    Ssdp,
    /// Application-level event/report (already decapsulated).
    App,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Udp => "UDP",
            Protocol::Tcp => "TCP",
            Protocol::Dns => "DNS",
            Protocol::Tls => "TLS",
            Protocol::Http => "HTTP",
            Protocol::Ieee802154 => "802.15.4",
            Protocol::Ssdp => "SSDP",
            Protocol::App => "APP",
        };
        f.write_str(s)
    }
}

/// What a packet is, with the fields that message carries.
///
/// This is the home's whole message vocabulary (device ↔ hub ↔ cloud,
/// attacker traffic, and the gateway's cover traffic). Each variant's
/// [`Kind::as_str`] label is stable: observers record it as ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// Periodic sensor reading, device → hub; `state` is the device's
    /// state label when it sent the reading.
    Telemetry {
        /// Device state label (e.g. `"streaming"`).
        state: &'static str,
    },
    /// Device state transition, device → hub.
    Event {
        /// State label before the transition.
        from: &'static str,
        /// State label after the transition.
        to: &'static str,
    },
    /// Command to a device.
    Cmd {
        /// Device-level action (`on`/`off`/`stream`/`idle`).
        action: Option<&'static str>,
        /// Cloud capability command the action was derived from.
        command: Option<String>,
    },
    /// Firmware image (payload), hub → device.
    Ota,
    /// A device's verdict on an OTA image.
    OtaResult {
        /// Whether the image was applied.
        ok: bool,
        /// `"applied"` or the rejection reason.
        detail: String,
    },
    /// Login attempt against a device.
    Login {
        /// User name tried.
        user: &'static str,
        /// Password tried.
        pass: &'static str,
    },
    /// A device's answer to a login.
    LoginResult {
        /// Whether the credentials were accepted.
        ok: bool,
    },
    /// Port probe against a device.
    Probe {
        /// Probed port.
        port: u16,
    },
    /// A device's answer to a probe.
    ProbeResult {
        /// Probed port.
        port: u16,
        /// Whether the port is open.
        open: bool,
    },
    /// Botnet order: flood `target` with `count` packets.
    AttackCmd {
        /// Flood victim.
        target: NodeId,
        /// Flood packets to send.
        count: u32,
    },
    /// Flood packet (routed via the hub by [`Packet::final_dst`]).
    Ddos,
    /// Forged deauthentication.
    Deauth,
    /// A device reconnecting to whoever deauthenticated it.
    Reconnect,
    /// Attribute-change event injected at the cloud from outside the hub
    /// channel.
    SpoofedEvent {
        /// Attribute to fake.
        attribute: String,
        /// Value to report.
        value: String,
    },
    /// REST request to the cloud API (payload).
    Api,
    /// REST response from the cloud API (payload).
    ApiResponse,
    /// WAN-side DNS answer for a device.
    DnsResponse {
        /// Queried name.
        name: String,
        /// Claimed address.
        value: String,
        /// Transaction id.
        txid: u16,
    },
    /// Gateway cover traffic (constant-rate shaping).
    Cover,
    /// Generic request (reachability probes, load generators).
    Ping,
    /// Generic reply to a [`Kind::Ping`].
    Echo,
}

impl Kind {
    /// The stable wire label (e.g. `"telemetry"`, `"ota-result"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Kind::Telemetry { .. } => "telemetry",
            Kind::Event { .. } => "event",
            Kind::Cmd { .. } => "cmd",
            Kind::Ota => "ota",
            Kind::OtaResult { .. } => "ota-result",
            Kind::Login { .. } => "login",
            Kind::LoginResult { .. } => "login-result",
            Kind::Probe { .. } => "probe",
            Kind::ProbeResult { .. } => "probe-result",
            Kind::AttackCmd { .. } => "attack-cmd",
            Kind::Ddos => "ddos",
            Kind::Deauth => "deauth",
            Kind::Reconnect => "reconnect",
            Kind::SpoofedEvent { .. } => "spoofed-event",
            Kind::Api => "api",
            Kind::ApiResponse => "api-response",
            Kind::DnsResponse { .. } => "dns-response",
            Kind::Cover => "cover",
            Kind::Ping => "ping",
            Kind::Echo => "echo",
        }
    }
}

/// Compares the label (`packet.kind == "ota"`), kept for out-of-tree
/// readers written against string labels.
impl PartialEq<&str> for Kind {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A simulated packet.
///
/// `payload` carries application bytes; `wire_size` is what an observer
/// sees on the link (payload + header overhead, or a shaped/padded size).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// What the packet is, with its message fields.
    pub kind: Kind,
    /// Protocol tag (defaults to [`Protocol::App`]).
    pub protocol: Protocol,
    /// Application payload.
    pub payload: Bytes,
    /// Bytes on the wire as seen by observers; defaults to
    /// `payload.len() + 40` (IP+transport overhead) and may be raised by
    /// padding (traffic shaping) but never below the payload.
    pub wire_size: usize,
    /// Name of the device the packet is from or addressed to.
    pub device: Option<String>,
    /// WAN destination a hub routes the packet on to (source routing);
    /// the hub clears it when it forwards.
    pub final_dst: Option<NodeId>,
}

/// Default per-packet header overhead included in `wire_size`.
pub const HEADER_OVERHEAD: usize = 40;

impl Packet {
    /// Creates a packet with default protocol/overhead.
    pub fn new(src: NodeId, dst: NodeId, kind: Kind, payload: impl Into<Bytes>) -> Self {
        let payload = payload.into();
        let wire_size = payload.len() + HEADER_OVERHEAD;
        Packet {
            src,
            dst,
            kind,
            protocol: Protocol::App,
            payload,
            wire_size,
            device: None,
            final_dst: None,
        }
    }

    /// Sets the protocol tag (builder-style).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Names the device the packet concerns (builder-style).
    pub fn with_device(mut self, device: impl Into<String>) -> Self {
        self.device = Some(device.into());
        self
    }

    /// Pads the observable wire size up to `size` (no-op if already
    /// larger) — the primitive traffic shaping uses.
    pub fn pad_to(&mut self, size: usize) {
        self.wire_size = self.wire_size.max(size);
    }

    /// Read-only view of [`Packet::device`] under its former metadata
    /// key, kept for out-of-tree readers written against string
    /// metadata. Answers `"device"` only; every other key is `None`.
    pub fn meta(&self, key: &str) -> Option<&str> {
        match key {
            "device" => self.device.as_deref(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn node(n: u32) -> NodeId {
        NodeId::from_raw(n)
    }

    /// One value of every variant with the label it must keep.
    fn every_kind() -> Vec<(Kind, &'static str)> {
        vec![
            (Kind::Telemetry { state: "idle" }, "telemetry"),
            (
                Kind::Event {
                    from: "idle",
                    to: "active",
                },
                "event",
            ),
            (
                Kind::Cmd {
                    action: Some("on"),
                    command: None,
                },
                "cmd",
            ),
            (Kind::Ota, "ota"),
            (
                Kind::OtaResult {
                    ok: true,
                    detail: "applied".into(),
                },
                "ota-result",
            ),
            (
                Kind::Login {
                    user: "admin",
                    pass: "admin",
                },
                "login",
            ),
            (Kind::LoginResult { ok: true }, "login-result"),
            (Kind::Probe { port: 23 }, "probe"),
            (
                Kind::ProbeResult {
                    port: 23,
                    open: true,
                },
                "probe-result",
            ),
            (
                Kind::AttackCmd {
                    target: node(9),
                    count: 1,
                },
                "attack-cmd",
            ),
            (Kind::Ddos, "ddos"),
            (Kind::Deauth, "deauth"),
            (Kind::Reconnect, "reconnect"),
            (
                Kind::SpoofedEvent {
                    attribute: "temperature".into(),
                    value: "95".into(),
                },
                "spoofed-event",
            ),
            (Kind::Api, "api"),
            (Kind::ApiResponse, "api-response"),
            (
                Kind::DnsResponse {
                    name: "n".into(),
                    value: "v".into(),
                    txid: 7,
                },
                "dns-response",
            ),
            (Kind::Cover, "cover"),
            (Kind::Ping, "ping"),
            (Kind::Echo, "echo"),
        ]
    }

    #[test]
    fn kind_labels_are_pinned_and_unique() {
        let kinds = every_kind();
        for (kind, label) in &kinds {
            assert_eq!(kind.as_str(), *label);
            assert!(*kind == *label, "{kind:?} must compare equal to {label:?}");
        }
        let labels: BTreeSet<&str> = kinds.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(labels.len(), kinds.len(), "labels must be unique");
    }

    #[test]
    fn wire_size_includes_overhead() {
        for (kind, _) in every_kind() {
            let p = Packet::new(node(1), node(2), kind, vec![0u8; 100]);
            assert_eq!(p.wire_size, 100 + HEADER_OVERHEAD);
        }
    }

    #[test]
    fn padding_never_shrinks() {
        let mut p = Packet::new(node(1), node(2), Kind::Ping, vec![0u8; 100]);
        p.pad_to(64);
        assert_eq!(p.wire_size, 140);
        p.pad_to(512);
        assert_eq!(p.wire_size, 512);
    }

    #[test]
    fn builder_metadata_and_protocol() {
        let p = Packet::new(node(1), node(2), Kind::Ota, b"image".to_vec())
            .with_protocol(Protocol::Tls)
            .with_device("cam");
        assert_eq!(p.protocol, Protocol::Tls);
        assert_eq!(p.device.as_deref(), Some("cam"));
        assert_eq!(p.final_dst, None);
        assert_eq!(p.meta("device"), Some("cam"));
        for key in ["state", "final_dst", "missing"] {
            assert_eq!(p.meta(key), None, "{key}");
        }
        let anonymous = Packet::new(node(1), node(2), Kind::Ddos, Vec::new());
        assert_eq!(anonymous.meta("device"), None);
    }
}
