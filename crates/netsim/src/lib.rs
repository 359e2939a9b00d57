//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate standing in for the paper's physical 1999 network of
//! instructor and student workstations. The distribution-layer claims of
//! the paper (m-ary pre-broadcast efficiency, adaptive fan-out,
//! watermark-driven duplication) are all statements about *transfer
//! volume and completion time as functions of fan-out, bandwidth and
//! object size*; this simulator captures exactly those quantities with
//! byte-accurate accounting, and nothing it does depends on wall-clock
//! time or thread scheduling — a run is a pure function of its inputs.
//!
//! See [`sim::Network`] for the transfer model.
//!
//! ## Example: a two-hop relay
//!
//! ```
//! use netsim::{LinkSpec, Network, SimTime, StationId};
//!
//! let (mut net, ids) = Network::uniform(3, LinkSpec::new(1_000_000, SimTime::ZERO));
//! net.send(ids[0], ids[1], 500_000, "lecture");
//! let mut got = Vec::new();
//! net.run(|net, msg| {
//!     got.push(msg.dst);
//!     if msg.dst == StationId(1) {
//!         net.send(msg.dst, StationId(2), msg.bytes, msg.payload);
//!     }
//! });
//! assert_eq!(got, vec![StationId(1), StationId(2)]);
//! assert_eq!(net.now(), SimTime::from_secs(1)); // 0.5s + 0.5s serialization
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod fault;
pub mod sim;
pub mod time;
pub mod topology;

pub use bytes::Bytes;
pub use event::{EventQueue, QueueKind};
pub use fault::{Fault, FaultSchedule, SendError};
pub use sim::{Message, Network};
pub use time::SimTime;
pub use topology::{LinkSpec, StationId, StationStats, Topology};
