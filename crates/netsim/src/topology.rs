//! Stations and links.
//!
//! Every station has an *uplink* — the serialization capacity it can
//! push into the network — matching the 1999 deployment where
//! "multicast" was implemented as repeated unicast from each relay
//! station (the paper's broadcast vector). Optional per-pair links
//! override bandwidth/latency for specific station pairs (e.g. a slow
//! trans-Pacific hop between Tamsui and Aizu).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A station (workstation / server) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StationId(pub u32);

/// Bandwidth/latency of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Serialization bandwidth in bytes per second.
    pub bandwidth: u64,
    /// One-way propagation latency.
    pub latency: SimTime,
}

impl LinkSpec {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(bandwidth: u64, latency: SimTime) -> Self {
        LinkSpec { bandwidth, latency }
    }

    /// A late-90s campus LAN: 100 Mbit/s, 1 ms.
    #[must_use]
    pub fn lan() -> Self {
        LinkSpec::new(12_500_000, SimTime::from_millis(1))
    }

    /// A good 1999 Internet path: 1.5 Mbit/s T1, 40 ms.
    #[must_use]
    pub fn t1() -> Self {
        LinkSpec::new(187_500, SimTime::from_millis(40))
    }

    /// ISDN: 128 kbit/s, 60 ms.
    #[must_use]
    pub fn isdn() -> Self {
        LinkSpec::new(16_000, SimTime::from_millis(60))
    }

    /// Dial-up modem: 33.6 kbit/s, 120 ms.
    #[must_use]
    pub fn modem() -> Self {
        LinkSpec::new(4_200, SimTime::from_millis(120))
    }

    /// This spec with bandwidth and latency scaled by the given
    /// factors (used by fault-injection degradation overlays; rounding
    /// is to the nearest byte/s and microsecond, so the result is a
    /// pure function of the inputs).
    #[must_use]
    pub fn scaled(self, bandwidth_factor: f64, latency_factor: f64) -> LinkSpec {
        LinkSpec {
            bandwidth: (self.bandwidth as f64 * bandwidth_factor).round() as u64,
            latency: SimTime::from_micros(
                (self.latency.as_micros() as f64 * latency_factor).round() as u64,
            ),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct StationState {
    pub uplink: LinkSpec,
    /// Time at which the uplink finishes its queued sends.
    pub uplink_free: SimTime,
    /// Cumulative serialization time spent on this uplink (for
    /// utilization metrics: busy / elapsed).
    pub busy: SimTime,
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    pub tx_msgs: u64,
    pub rx_msgs: u64,
    /// Events this station has sourced. Packed into the event-queue
    /// tie-break key `(src << 32) | seq`, so same-time events pop by
    /// source station, then in that station's own issue order.
    pub seq: u32,
}

/// The static shape of the network plus per-station counters.
#[derive(Debug, Default)]
pub struct Topology {
    pub(crate) stations: Vec<StationState>,
    pub(crate) links: HashMap<(StationId, StationId), LinkSpec>,
}

impl Topology {
    /// Empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a station with the given uplink spec; returns its id.
    pub fn add_station(&mut self, uplink: LinkSpec) -> StationId {
        let id = StationId(self.stations.len() as u32);
        self.stations.push(StationState {
            uplink,
            uplink_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            tx_bytes: 0,
            rx_bytes: 0,
            tx_msgs: 0,
            rx_msgs: 0,
            seq: 0,
        });
        id
    }

    /// Add `n` identical stations; returns their ids.
    pub fn add_stations(&mut self, n: usize, uplink: LinkSpec) -> Vec<StationId> {
        (0..n).map(|_| self.add_station(uplink)).collect()
    }

    /// Override the path `src → dst` with a dedicated spec.
    pub fn set_link(&mut self, src: StationId, dst: StationId, spec: LinkSpec) {
        self.links.insert((src, dst), spec);
    }

    /// Effective spec for `src → dst`: the per-pair override if present,
    /// else the source's uplink.
    #[must_use]
    pub fn path(&self, src: StationId, dst: StationId) -> LinkSpec {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.stations[src.0 as usize].uplink)
    }

    /// Number of stations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// True if no stations exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }
}

/// Per-station traffic counters, exposed for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StationStats {
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Messages sent.
    pub tx_msgs: u64,
    /// Messages received.
    pub rx_msgs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stations_get_sequential_ids() {
        let mut t = Topology::new();
        assert_eq!(t.add_station(LinkSpec::lan()), StationId(0));
        assert_eq!(t.add_station(LinkSpec::lan()), StationId(1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn path_prefers_override() {
        let mut t = Topology::new();
        let a = t.add_station(LinkSpec::lan());
        let b = t.add_station(LinkSpec::lan());
        assert_eq!(t.path(a, b), LinkSpec::lan());
        t.set_link(a, b, LinkSpec::modem());
        assert_eq!(t.path(a, b), LinkSpec::modem());
        // Reverse direction unaffected.
        assert_eq!(t.path(b, a), LinkSpec::lan());
    }

    #[test]
    fn scaled_spec_rounds_deterministically() {
        let s = LinkSpec::new(1_000_000, SimTime::from_millis(10));
        assert_eq!(
            s.scaled(0.5, 2.0),
            LinkSpec::new(500_000, SimTime::from_millis(20))
        );
        assert_eq!(s.scaled(1.0, 1.0), s);
        // Factor 0 saturates transfers visibly (see SimTime::transfer).
        assert_eq!(s.scaled(0.0, 1.0).bandwidth, 0);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        assert!(LinkSpec::lan().bandwidth > LinkSpec::t1().bandwidth);
        assert!(LinkSpec::t1().bandwidth > LinkSpec::isdn().bandwidth);
        assert!(LinkSpec::isdn().bandwidth > LinkSpec::modem().bandwidth);
    }
}
