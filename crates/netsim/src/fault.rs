//! Deterministic fault injection: timed link and station failures.
//!
//! The paper claims the distribution design is "adaptive to changing
//! network conditions"; this module supplies the changing conditions.
//! A [`FaultSchedule`] is a list of [`Fault`] events keyed off
//! [`SimTime`] — no wall clock, no ambient randomness — which the
//! simulator applies as simulated time advances, so a faulty run is
//! exactly as replayable as a healthy one.
//!
//! ## Semantics
//!
//! * **Degrade** multiplies the bandwidth and latency of one directed
//!   path from the event time on. It affects *subsequent* sends only;
//!   messages already in flight keep the timing computed when they were
//!   sent. Factors replace (do not compose with) any earlier overlay.
//! * **Partition** cuts a directed path: messages in flight across it
//!   are dropped, and later sends across it are doomed to be dropped on
//!   arrival (the sender still burns uplink time — it cannot know).
//! * **Heal** removes both the partition and any degradation overlay of
//!   a directed path.
//! * **Crash** takes a station down: it can no longer receive (in-flight
//!   messages to it are dropped), its pending local timers never fire
//!   (a crash wipes volatile state, so they stay dead even after
//!   recovery), and [`Network::try_send`] from it errors out.
//! * **Recover** brings a crashed station back up. Only traffic sent
//!   *after* the recovery reaches it.
//!
//! A message is dropped exactly when (a) its path was partitioned or
//! its receiver down at send time, or (b) a partition of its path or a
//! crash of either endpoint happened after it was sent and no later
//! than its arrival. Store-and-forward is whole-object: a transfer cut
//! anywhere between send and delivery yields nothing usable at the
//! receiver.
//!
//! With an empty schedule every check short-circuits and the simulator
//! behaves bit-identically to a fault-free build — the layer is
//! zero-cost when unused.
//!
//! [`Network::try_send`]: crate::Network::try_send

use crate::time::SimTime;
use crate::topology::{LinkSpec, StationId};
use obs::Registry;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One fault event. All paths are directed (`src → dst`), matching
/// [`Topology::path`](crate::Topology::path); schedule both directions
/// for a symmetric failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Scale the bandwidth and latency of the `src → dst` path.
    /// `bandwidth_factor < 1` slows the link down; `latency_factor > 1`
    /// stretches propagation. Replaces any earlier overlay on the pair.
    Degrade {
        /// Sending side of the degraded path.
        src: StationId,
        /// Receiving side of the degraded path.
        dst: StationId,
        /// Multiplier on path bandwidth (applied to later sends).
        bandwidth_factor: f64,
        /// Multiplier on path latency (applied to later sends).
        latency_factor: f64,
    },
    /// Cut the `src → dst` path entirely.
    Partition {
        /// Sending side of the cut path.
        src: StationId,
        /// Receiving side of the cut path.
        dst: StationId,
    },
    /// Restore the `src → dst` path (clears partition and degradation).
    Heal {
        /// Sending side of the healed path.
        src: StationId,
        /// Receiving side of the healed path.
        dst: StationId,
    },
    /// Take a station down.
    Crash {
        /// The failing station.
        station: StationId,
    },
    /// Bring a crashed station back up (its pre-crash timers stay dead).
    Recover {
        /// The recovering station.
        station: StationId,
    },
}

/// A time-ordered list of fault events to inject into a run.
///
/// Build one with [`FaultSchedule::at`] and hand it to
/// [`Network::set_faults`](crate::Network::set_faults). Events sharing
/// a timestamp apply in insertion order; all events at time *t* apply
/// before any delivery at *t*.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<(SimTime, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `fault` at time `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.push(at, fault);
        self
    }

    /// Add `fault` at time `at`.
    pub fn push(&mut self, at: SimTime, fault: Fault) {
        self.events.push((at, fault));
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events sorted by time, ties kept in insertion order.
    pub(crate) fn into_sorted(mut self) -> Vec<(SimTime, Fault)> {
        self.events.sort_by_key(|&(at, _)| at);
        self.events
    }
}

/// Error returned by [`Network::try_send`](crate::Network::try_send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The sending station is currently crashed.
    SenderDown(StationId),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::SenderDown(s) => write!(f, "station {} is down", s.0),
        }
    }
}

impl std::error::Error for SendError {}

/// Live fault state inside a running [`Network`](crate::Network):
/// the un-applied tail of the schedule plus overlays and the "cut
/// clocks" that decide in-flight drops in O(1) per delivery.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Remaining schedule, sorted by time; `cursor` indexes the next
    /// event to apply.
    schedule: Vec<(SimTime, Fault)>,
    cursor: usize,
    /// Stations currently down.
    down: HashSet<StationId>,
    /// Most recent crash time per station (persists across recovery —
    /// it is the epoch that invalidates pre-crash traffic and timers).
    crashed_at: HashMap<StationId, SimTime>,
    /// Directed pairs currently cut.
    partitioned: HashSet<(StationId, StationId)>,
    /// Most recent partition time per directed pair.
    pair_cut: HashMap<(StationId, StationId), SimTime>,
    /// Degradation overlay per directed pair.
    degraded: HashMap<(StationId, StationId), (f64, f64)>,
}

impl FaultState {
    pub(crate) fn new(schedule: FaultSchedule) -> Self {
        FaultState {
            schedule: schedule.into_sorted(),
            ..FaultState::default()
        }
    }

    /// Apply every scheduled event with time ≤ `now`, counting each
    /// applied event (`netsim.fault.*`) and tracing it on `metrics`.
    pub(crate) fn advance(&mut self, now: SimTime, metrics: &Registry) {
        while let Some(&(at, fault)) = self.schedule.get(self.cursor) {
            if at > now {
                break;
            }
            self.cursor += 1;
            match fault {
                Fault::Degrade {
                    src,
                    dst,
                    bandwidth_factor,
                    latency_factor,
                } => {
                    metrics.inc("netsim.fault.degrade");
                    metrics.trace(at.as_micros(), "netsim.fault.degrade", || {
                        format!(
                            "{}->{} bw*{bandwidth_factor} lat*{latency_factor}",
                            src.0, dst.0
                        )
                    });
                    self.degraded
                        .insert((src, dst), (bandwidth_factor, latency_factor));
                }
                Fault::Partition { src, dst } => {
                    metrics.inc("netsim.fault.partition");
                    metrics.trace_pair(
                        at.as_micros(),
                        "netsim.fault.partition",
                        src.0.into(),
                        dst.0.into(),
                    );
                    self.partitioned.insert((src, dst));
                    self.pair_cut.insert((src, dst), at);
                }
                Fault::Heal { src, dst } => {
                    metrics.inc("netsim.fault.heal");
                    metrics.trace_pair(
                        at.as_micros(),
                        "netsim.fault.heal",
                        src.0.into(),
                        dst.0.into(),
                    );
                    self.partitioned.remove(&(src, dst));
                    self.degraded.remove(&(src, dst));
                }
                Fault::Crash { station } => {
                    metrics.inc("netsim.fault.crash");
                    metrics.trace_num(at.as_micros(), "netsim.fault.crash", station.0.into());
                    self.down.insert(station);
                    self.crashed_at.insert(station, at);
                }
                Fault::Recover { station } => {
                    metrics.inc("netsim.fault.recover");
                    metrics.trace_num(at.as_micros(), "netsim.fault.recover", station.0.into());
                    self.down.remove(&station);
                }
            }
        }
    }

    pub(crate) fn is_down(&self, id: StationId) -> bool {
        self.down.contains(&id)
    }

    pub(crate) fn last_crash(&self, id: StationId) -> Option<SimTime> {
        self.crashed_at.get(&id).copied()
    }

    /// True if a message queued now on `src → dst` can never be
    /// delivered: the path is cut or the receiver is already down.
    pub(crate) fn dooms(&self, src: StationId, dst: StationId) -> bool {
        self.down.contains(&dst) || self.partitioned.contains(&(src, dst))
    }

    /// True if the path was cut — partitioned, or either endpoint
    /// crashed — strictly after `sent_at` (in-flight kill).
    pub(crate) fn cut_since(&self, src: StationId, dst: StationId, sent_at: SimTime) -> bool {
        let after = |t: Option<&SimTime>| t.is_some_and(|&t| t > sent_at);
        after(self.pair_cut.get(&(src, dst)))
            || after(self.crashed_at.get(&src))
            || after(self.crashed_at.get(&dst))
    }

    /// The degradation overlay applied to a static path spec.
    pub(crate) fn apply(&self, src: StationId, dst: StationId, spec: LinkSpec) -> LinkSpec {
        match self.degraded.get(&(src, dst)) {
            Some(&(bf, lf)) => spec.scaled(bf, lf),
            None => spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::new()
    }

    #[test]
    fn schedule_sorts_stably() {
        let s = FaultSchedule::new()
            .at(
                SimTime::from_secs(5),
                Fault::Crash {
                    station: StationId(1),
                },
            )
            .at(
                SimTime::from_secs(1),
                Fault::Crash {
                    station: StationId(2),
                },
            )
            .at(
                SimTime::from_secs(5),
                Fault::Recover {
                    station: StationId(3),
                },
            );
        assert_eq!(s.len(), 3);
        let sorted = s.into_sorted();
        assert_eq!(
            sorted[0].1,
            Fault::Crash {
                station: StationId(2)
            }
        );
        // Ties keep insertion order: crash(1) before recover(3).
        assert_eq!(
            sorted[1].1,
            Fault::Crash {
                station: StationId(1)
            }
        );
        assert_eq!(
            sorted[2].1,
            Fault::Recover {
                station: StationId(3)
            }
        );
    }

    #[test]
    fn advance_applies_up_to_now() {
        let s = FaultSchedule::new()
            .at(
                SimTime::from_secs(1),
                Fault::Crash {
                    station: StationId(0),
                },
            )
            .at(
                SimTime::from_secs(2),
                Fault::Recover {
                    station: StationId(0),
                },
            );
        let mut f = FaultState::new(s);
        f.advance(SimTime::ZERO, &reg());
        assert!(!f.is_down(StationId(0)));
        f.advance(SimTime::from_secs(1), &reg());
        assert!(f.is_down(StationId(0)));
        assert_eq!(f.last_crash(StationId(0)), Some(SimTime::from_secs(1)));
        f.advance(SimTime::from_secs(3), &reg());
        assert!(!f.is_down(StationId(0)));
        // The crash epoch survives recovery.
        assert_eq!(f.last_crash(StationId(0)), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn cut_clock_is_strict() {
        let s = FaultSchedule::new().at(
            SimTime::from_secs(2),
            Fault::Partition {
                src: StationId(0),
                dst: StationId(1),
            },
        );
        let mut f = FaultState::new(s);
        f.advance(SimTime::from_secs(2), &reg());
        // Sent before the cut: killed. Sent at/after the cut: the doom
        // check at send time is responsible instead.
        assert!(f.cut_since(StationId(0), StationId(1), SimTime::from_secs(1)));
        assert!(!f.cut_since(StationId(0), StationId(1), SimTime::from_secs(2)));
        assert!(f.dooms(StationId(0), StationId(1)));
        // Direction matters.
        assert!(!f.dooms(StationId(1), StationId(0)));
        assert!(!f.cut_since(StationId(1), StationId(0), SimTime::ZERO));
    }

    #[test]
    fn heal_clears_partition_and_degradation() {
        let pair = (StationId(0), StationId(1));
        let s = FaultSchedule::new()
            .at(
                SimTime::from_secs(1),
                Fault::Degrade {
                    src: pair.0,
                    dst: pair.1,
                    bandwidth_factor: 0.5,
                    latency_factor: 2.0,
                },
            )
            .at(
                SimTime::from_secs(1),
                Fault::Partition {
                    src: pair.0,
                    dst: pair.1,
                },
            )
            .at(
                SimTime::from_secs(2),
                Fault::Heal {
                    src: pair.0,
                    dst: pair.1,
                },
            );
        let mut f = FaultState::new(s);
        f.advance(SimTime::from_secs(1), &reg());
        let spec = LinkSpec::new(1_000_000, SimTime::from_millis(10));
        assert_eq!(
            f.apply(pair.0, pair.1, spec),
            LinkSpec::new(500_000, SimTime::from_millis(20))
        );
        assert!(f.dooms(pair.0, pair.1));
        f.advance(SimTime::from_secs(2), &reg());
        assert_eq!(f.apply(pair.0, pair.1, spec), spec);
        assert!(!f.dooms(pair.0, pair.1));
    }
}
