//! NAT-vantage flow analysis: groups observed packets into the streams a
//! passive observer outside the home NAT can distinguish, and computes the
//! rate statistics Apthorpe et al. use to infer device state (§IV-B1,
//! step 3 of the observer procedure the paper describes).

use crate::node::NodeId;
use crate::observer::PacketRecord;
use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;

/// Key a NAT-external observer can see: the remote (cloud) endpoint of a
/// stream. Internal devices share one external IP, so streams are
/// separated by remote endpoint, exactly as in the paper's step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RemoteEndpoint(pub NodeId);

/// Per-stream statistics over an observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Remote endpoint identifying the stream.
    pub remote: RemoteEndpoint,
    /// Packets sent home → remote.
    pub upstream_packets: usize,
    /// Packets sent remote → home.
    pub downstream_packets: usize,
    /// Bytes home → remote.
    pub upstream_bytes: u64,
    /// Bytes remote → home.
    pub downstream_bytes: u64,
    /// Mean upstream send rate in bytes/second over the window.
    pub upstream_rate_bps: f64,
    /// Mean downstream rate in bytes/second over the window.
    pub downstream_rate_bps: f64,
}

/// Groups records into NAT-external streams.
///
/// `home` is the set of node ids behind the NAT; everything else is
/// treated as a remote endpoint. Packets between two home nodes are
/// invisible to this observer and skipped.
pub fn streams(records: &[PacketRecord], home: &[NodeId], window: Duration) -> Vec<StreamStats> {
    let is_home = |n: NodeId| home.contains(&n);
    let mut map: BTreeMap<RemoteEndpoint, StreamStats> = BTreeMap::new();
    for rec in records {
        let (remote, upstream) = match (is_home(rec.src), is_home(rec.dst)) {
            (true, false) => (RemoteEndpoint(rec.dst), true),
            (false, true) => (RemoteEndpoint(rec.src), false),
            _ => continue,
        };
        let entry = map.entry(remote).or_insert_with(|| StreamStats {
            remote,
            upstream_packets: 0,
            downstream_packets: 0,
            upstream_bytes: 0,
            downstream_bytes: 0,
            upstream_rate_bps: 0.0,
            downstream_rate_bps: 0.0,
        });
        if upstream {
            entry.upstream_packets += 1;
            entry.upstream_bytes += rec.wire_size as u64;
        } else {
            entry.downstream_packets += 1;
            entry.downstream_bytes += rec.wire_size as u64;
        }
    }
    let secs = window.as_secs_f64().max(1e-9);
    let mut out: Vec<StreamStats> = map.into_values().collect();
    for s in &mut out {
        s.upstream_rate_bps = s.upstream_bytes as f64 / secs;
        s.downstream_rate_bps = s.downstream_bytes as f64 / secs;
    }
    out
}

/// Counts distinct remote endpoints — the paper's step 1 ("identify and
/// count the distinct clients behind a NAT" by separating streams).
pub fn distinct_streams(records: &[PacketRecord], home: &[NodeId]) -> usize {
    streams(records, home, Duration::from_secs(1)).len()
}

/// Slices records into fixed windows and emits per-window rates for one
/// stream — the send/receive-rate time series the paper's step 3 uses to
/// reveal user interactions.
pub fn rate_series(
    records: &[PacketRecord],
    home: &[NodeId],
    remote: RemoteEndpoint,
    window: Duration,
    horizon: SimTime,
) -> Vec<f64> {
    let w = window.as_micros().max(1);
    let buckets = (horizon.as_micros() / w + 1) as usize;
    let mut series = vec![0f64; buckets];
    let is_home = |n: NodeId| home.contains(&n);
    for rec in records {
        let external = if is_home(rec.src) && rec.dst == remote.0 {
            true
        } else {
            rec.src == remote.0 && is_home(rec.dst)
        };
        if !external {
            continue;
        }
        let idx = (rec.at.as_micros() / w) as usize;
        if idx < buckets {
            series[idx] += rec.wire_size as f64;
        }
    }
    let secs = window.as_secs_f64().max(1e-9);
    for v in &mut series {
        *v /= secs;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;

    fn rec(at_ms: u64, src: u32, dst: u32, size: usize) -> PacketRecord {
        PacketRecord {
            at: SimTime::from_millis(at_ms),
            src: NodeId::from_raw(src),
            dst: NodeId::from_raw(dst),
            wire_size: size,
            protocol: Protocol::Tls,
            ground_truth_kind: "t",
        }
    }

    fn home() -> Vec<NodeId> {
        vec![NodeId::from_raw(1), NodeId::from_raw(2)]
    }

    #[test]
    fn streams_split_by_remote_endpoint() {
        let records = vec![
            rec(0, 1, 10, 100),
            rec(1, 1, 10, 100),
            rec(2, 10, 1, 400),
            rec(3, 2, 11, 50),
        ];
        let stats = streams(&records, &home(), Duration::from_secs(1));
        assert_eq!(stats.len(), 2);
        let s10 = stats
            .iter()
            .find(|s| s.remote == RemoteEndpoint(NodeId::from_raw(10)))
            .unwrap();
        assert_eq!(s10.upstream_packets, 2);
        assert_eq!(s10.downstream_packets, 1);
        assert_eq!(s10.upstream_bytes, 200);
        assert_eq!(s10.downstream_bytes, 400);
    }

    #[test]
    fn internal_traffic_is_invisible() {
        let records = vec![rec(0, 1, 2, 100), rec(1, 2, 1, 100)];
        assert_eq!(distinct_streams(&records, &home()), 0);
    }

    #[test]
    fn rates_scale_with_window() {
        let records = vec![rec(0, 1, 10, 1000)];
        let s = streams(&records, &home(), Duration::from_secs(2));
        assert!((s[0].upstream_rate_bps - 500.0).abs() < 1e-9);
    }

    #[test]
    fn rate_series_buckets_by_time() {
        let records = vec![
            rec(0, 1, 10, 100),
            rec(1500, 1, 10, 300),
            rec(1800, 10, 1, 50),
        ];
        let series = rate_series(
            &records,
            &home(),
            RemoteEndpoint(NodeId::from_raw(10)),
            Duration::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(series.len(), 3);
        assert!((series[0] - 100.0).abs() < 1e-9);
        assert!((series[1] - 350.0).abs() < 1e-9);
        assert_eq!(series[2], 0.0);
    }
}
