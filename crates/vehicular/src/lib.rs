//! Vehicular connectivity emulation.
//!
//! The SoftStage paper evaluates on an indoor WiFi testbed whose radio
//! environment is scripted from the Cabernet dataset percentiles
//! (encounter 3–12 s, disconnection 8–100 s, loss 20–40 %) plus day-long
//! Beijing wardriving traces. This crate provides the equivalents:
//!
//! - [`schedule::CoverageSchedule`]: when the vehicle is inside which edge
//!   network's coverage, with drive-by RSS ramps; generators for the
//!   paper's alternating (micro-benchmark) and overlapping (handoff
//!   policy) patterns,
//! - [`trace`]: a JSON connectivity-trace format, a wardriving-trace
//!   synthesizer, and conversion into coverage schedules (Fig. 7),
//! - [`beacon::BeaconApp`]: Network-Joining-Protocol beacons carrying RSS
//!   and the staging VNF address,
//! - [`sensor::NetworkSensor`]: the client's second-interface scanner,
//! - [`roam::Roamer`]: association, layer-3 handoff and active session
//!   migration mechanics shared by the baseline client and SoftStage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod roam;
pub mod schedule;
pub mod sensor;
pub mod trace;

pub use beacon::BeaconApp;
pub use roam::{RoamEvent, RoamState, Roamer, ROAM_ASSOC_TIMER};
pub use schedule::{CoverageInterval, CoverageSchedule};
pub use sensor::{NetworkKnowledge, NetworkSensor};
pub use trace::{synthesize_wardriving, ConnectivityTrace, TracePeriod, WardrivingParams};
