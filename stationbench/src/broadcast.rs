//! The course pre-broadcast: a semester's mixed-media material sent
//! from the instructor station to a `LinkMix::distance_cohort`
//! population with `dist::broadcast_course`, one m-ary tree per media
//! kind with fan-out from `AdaptiveController`.
//!
//! Wall time is the measurement; simulated time is a correctness pin.

use crate::docs::mix;
use crate::registry::value;
use crate::spans::Spans;
use blobstore::MediaKind;
use netsim::{LinkSpec, Network, StationId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use wdoc_dist::broadcast::CourseRelay;
use wdoc_dist::{broadcast_course, AdaptiveController, CourseBroadcastReport, CourseObject};
use wdoc_workload::media::sample_size;
use wdoc_workload::{build_population_with, LinkMix};

/// Simulated completion, total and per kind (µs), recorded per
/// `(objects, stations, seed)`: `objects stations seed completion
/// kind=us...` on each line.
const PINS: &str = include_str!("../pins.txt");

/// Size of the pre-broadcast.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Receiving population, the instructor station included.
    pub stations: usize,
    /// Course objects.
    pub objects: usize,
}

/// What the phase measured.
pub struct Phase {
    /// Wall time of each course pre-broadcast, s.
    pub broadcast_s: Vec<f64>,
    /// Spans of the broadcasts.
    pub spans: Spans,
    /// Per-layer metrics this phase owns.
    pub layers: BTreeMap<String, f64>,
    /// The report of the first broadcast.
    pub report: CourseBroadcastReport,
}

fn course(seed: u64, n: usize) -> Vec<CourseObject> {
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 0xE1]));
    crate::docs::courseware_deck(&mut rng, n)
        .into_iter()
        .map(|kind| CourseObject {
            kind,
            bytes: sample_size(&mut rng, kind, 1),
        })
        .collect()
}

/// The population and each media kind's fan-out.
fn setup(
    seed: u64,
    n: usize,
) -> (
    Network<CourseRelay>,
    Vec<StationId>,
    BTreeMap<MediaKind, u64>,
) {
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 0xE0]));
    let (net, ids) = build_population_with(&mut rng, n, LinkMix::distance_cohort());
    // Plan for the cohort's typical home link.
    let controller = AdaptiveController::default();
    let fanout = MediaKind::ALL
        .iter()
        .map(|&k| (k, controller.m_for_media(n as u64, k, LinkSpec::isdn())))
        .collect();
    (net, ids, fanout)
}

/// The pinned report line for this size and seed, if recorded.
fn pinned(objects: usize, stations: usize, seed: u64) -> Option<&'static str> {
    let key = format!("{objects} {stations} {seed} ");
    PINS.lines().find(|l| l.starts_with(&key))
}

/// The report as a pin line.
#[must_use]
pub fn pin_line(objects: usize, stations: usize, seed: u64, r: &CourseBroadcastReport) -> String {
    let kinds: Vec<String> = r
        .per_kind
        .iter()
        .map(|(k, t)| format!("{k}={}", t.as_micros()))
        .collect();
    format!(
        "{objects} {stations} {seed} {} {}",
        r.completion.as_micros(),
        kinds.join(" ")
    )
}

/// Seed of round `round`'s course and population. Round 0 broadcasts
/// the run's own seed, whose simulated times `pins.txt` records; every
/// later round another course, so that the phase's figures span several
/// courses instead of one course's memory and event pattern.
fn round_seed(seed: u64, round: u64) -> u64 {
    if round == 0 {
        seed
    } else {
        mix(&[seed, round, 0xE2])
    }
}

/// Build a fresh population and pre-broadcast round `round`'s course to
/// it once.
///
/// # Errors
/// When a station misses an object or, on round 0, the simulated times
/// differ from the recorded ones.
pub fn run(seed: u64, cfg: Config, round: u64, sp: Spans) -> Result<Phase, String> {
    let (op, seed) = (round, round_seed(seed, round));
    let objects = course(seed, cfg.objects);
    let want_msgs = (objects.len() * (cfg.stations - 1)) as f64;
    let want_bytes =
        objects.iter().map(|o| o.bytes).sum::<u64>() as f64 * (cfg.stations - 1) as f64;
    let mut sp = sp;
    let (mut net, ids, fanout) = sp.span("netsim.setup", "build_population", op, |_| {
        setup(seed, cfg.stations)
    });
    let t = Instant::now();
    let report = sp.span("dist", "broadcast_course", op, |_| {
        broadcast_course(&mut net, &ids, &objects, |k| fanout[&k])
    });
    let broadcast_s = vec![t.elapsed().as_secs_f64()];

    // Gate: every station holds every object exactly once.
    net.flush_metrics();
    let m = net.metrics();
    let (msgs, bytes) = (
        value(m, "netsim.deliver.msgs"),
        value(m, "netsim.deliver.bytes"),
    );
    if msgs != want_msgs || bytes != want_bytes {
        return Err(format!(
            "pre-broadcast delivered {msgs} objects / {bytes} bytes, want {want_msgs} / {want_bytes}"
        ));
    }
    let layers = [
        "netsim.send.msgs",
        "netsim.deliver.msgs",
        "netsim.deliver.bytes",
        "netsim.timer.scheduled",
    ]
    .into_iter()
    .map(|name| (name.to_owned(), value(m, name)))
    .collect();
    if round == 0 {
        let line = pin_line(cfg.objects, cfg.stations, seed, &report);
        match pinned(cfg.objects, cfg.stations, seed) {
            Some(want) if want != line => {
                return Err(format!("simulated completion differs from the recorded value:\n  got  {line}\n  want {want}"));
            }
            Some(_) => {}
            None => eprintln!("# pre-broadcast {line} (not recorded in pins.txt)"),
        }
    }
    let mut phase = Phase {
        broadcast_s,
        spans: sp,
        layers,
        report,
    };
    phase.rate();
    Ok(phase)
}

impl Phase {
    /// Fold a later round's broadcast into this one; counts stay the
    /// first broadcast's.
    pub fn merge(&mut self, later: Phase) {
        self.broadcast_s.extend(later.broadcast_s);
        self.spans.absorb(later.spans);
        self.rate();
    }

    /// `netsim.events_per_s`: deliveries per wall-clock second.
    fn rate(&mut self) {
        let busy: f64 = self.broadcast_s.iter().sum();
        let events = self.layers["netsim.deliver.msgs"] * self.broadcast_s.len() as f64;
        self.layers
            .insert("netsim.events_per_s".into(), events / busy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size the benchmark broadcasts at and the seeds recorded.
    const PINNED: (usize, usize) = (192, 10_240);
    const SEEDS: std::ops::Range<u64> = 0..128;

    fn report(objects: usize, stations: usize, seed: u64) -> CourseBroadcastReport {
        let (mut net, ids, fanout) = setup(seed, stations);
        broadcast_course(&mut net, &ids, &course(seed, objects), |k| fanout[&k])
    }

    /// Prints `pins.txt`; run after a deliberate change of simulated
    /// behaviour with
    /// `cargo test --release -- --ignored --nocapture print_pins`.
    #[test]
    #[ignore = "regenerates pins.txt"]
    fn print_pins() {
        let (objects, stations) = PINNED;
        for seed in SEEDS {
            println!(
                "{}",
                pin_line(objects, stations, seed, &report(objects, stations, seed))
            );
        }
    }

    #[test]
    fn pins_hold() {
        let (objects, stations) = PINNED;
        for seed in [0, SEEDS.end - 1] {
            let line = pin_line(objects, stations, seed, &report(objects, stations, seed));
            assert_eq!(pinned(objects, stations, seed), Some(line.as_str()));
        }
    }
}
