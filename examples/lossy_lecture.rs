//! A lecture pre-broadcast on a network that misbehaves: one relay
//! station crashes mid-run and the instructor's access link degrades —
//! the self-healing tree repairs itself, and the adaptive controller
//! re-picks the fan-out for the next wave from the *measured* link.
//!
//! ```sh
//! cargo run --example lossy_lecture
//! ```

use mmu_wdoc::dist::{resilient_broadcast, AdaptiveController, BroadcastTree, RetryPolicy};
use mmu_wdoc::netsim::{Fault, FaultSchedule, LinkSpec, Network, SimTime, StationId};

const STATIONS: usize = 28; // 1 instructor + 27 students
const LECTURE_BYTES: u64 = 4_000_000;

fn main() {
    let link = LinkSpec::new(2_000_000, SimTime::from_millis(5));
    let controller = AdaptiveController::default();
    let m = controller.best_m(STATIONS as u64, LECTURE_BYTES, link);
    println!("wave 1: controller chose m = {m} for {STATIONS} stations");

    // --- Wave 1: a relay dies mid-broadcast --------------------------
    // Station 1 is the first relay; it will have ACKed and forwarded
    // part of its subtree before dying at t = 5 s, orphaning the rest.
    let schedule = FaultSchedule::new()
        .at(
            SimTime::from_secs(5),
            Fault::Crash {
                station: StationId(1),
            },
        )
        // …and while repairing, the instructor's uplink turns sour.
        .at(
            SimTime::from_secs(8),
            Fault::Degrade {
                src: StationId(0),
                dst: StationId(2),
                bandwidth_factor: 0.5,
                latency_factor: 400.0,
            },
        );
    let (mut net, ids) = Network::uniform(STATIONS, link);
    net.set_faults(schedule);
    let tree = BroadcastTree::new(ids.clone(), m);
    let r = resilient_broadcast(&mut net, &tree, LECTURE_BYTES, RetryPolicy::default());

    println!(
        "wave 1: {}/{} stations delivered in {}, {} retries, {} re-parented, {} unreachable",
        r.report.arrivals.len(),
        STATIONS - 1,
        r.report.completion,
        r.retries,
        r.reparented.len(),
        r.unreachable.len(),
    );
    println!(
        "wave 1: {} duplicate deliveries absorbed, {} messages dropped by faults, {} control bytes",
        r.duplicates, r.dropped_msgs, r.control_bytes,
    );
    for sid in &r.reparented {
        println!("  station {sid} was re-parented around the dead relay");
    }

    // --- Between waves: replan from the measured link ----------------
    // The degradation overlay is visible through effective_path; the
    // controller re-picks m for the smaller review object of wave 2.
    let review_bytes = 30_000;
    let measured = net
        .effective_path(ids[0], ids[2])
        .expect("degraded but not partitioned");
    println!(
        "measured instructor link: {} B/s, {} ms (was {} B/s, 5 ms)",
        measured.bandwidth,
        measured.latency.as_micros() / 1000,
        link.bandwidth,
    );
    let m2 = match controller.replan(STATIONS as u64, review_bytes, measured, m) {
        Some(m2) => {
            println!("wave 2: controller replanned m = {m} -> {m2}");
            m2
        }
        None => {
            println!("wave 2: controller kept m = {m}");
            m
        }
    };

    // --- Wave 2: the review pack under degraded conditions -----------
    let (mut net2, ids2) = Network::uniform(STATIONS, measured);
    let tree2 = BroadcastTree::new(ids2, m2);
    let r2 = resilient_broadcast(&mut net2, &tree2, review_bytes, RetryPolicy::default());
    println!(
        "wave 2: {}/{} stations got the review pack in {} (no faults this time: {} retries)",
        r2.report.arrivals.len(),
        STATIONS - 1,
        r2.report.completion,
        r2.retries,
    );
}
