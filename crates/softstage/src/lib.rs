//! SoftStage: client-instructed, reactive content staging for vehicular
//! content delivery in the eXpressive Internet Architecture.
//!
//! This crate implements the primary contribution of *SoftStage: Content
//! Staging for Vehicular Content Delivery in the eXpressive Internet
//! Architecture* (ICDCS 2019): a network-layer function that uses edge
//! caching (XCache) to keep a mobile client's chunk fetches on the short,
//! fast wireless segment instead of the long, lossy Internet path —
//! without predicting client mobility and without changing application
//! semantics.
//!
//! The split follows the paper:
//!
//! - [`SoftStageClient`] — the client-side **Staging Manager**: Chunk
//!   Profile ([`profile`]), Chunk Manager (transparent `XfetchChunk*`
//!   delegation), Network Sensor + Handoff Manager (including the
//!   chunk-aware handoff policy), Staging Coordinator ([`coordinator`],
//!   the reactive `N < (RTT + L_stage)/L_fetch` rule) and Staging Tracker.
//! - [`StagingVnf`] — the stateless edge-side executor embedded in the
//!   access router's XCache, answering staging requests by prefetching
//!   chunks from their origin.
//!
//! # Quick start
//!
//! Build a topology with `xia-router`/`xia-host`, deploy a [`StagingVnf`]
//! on each edge router, advertise it in beacons (`vehicular::BeaconApp`),
//! and run a [`SoftStageClient`] on the mobile host. The
//! `softstage-experiments` crate assembles exactly the paper's testbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod client;
pub mod coordinator;
pub mod messages;
pub mod profile;
pub mod vnf;

pub use admission::AdmissionPolicy;
pub use breaker::{Breaker, BreakerConfig};
pub use client::{ClientStats, HandoffPolicy, SoftStageClient, SoftStageConfig, StagingMode};
pub use coordinator::{CoordinatorConfig, Ewma, StagingCoordinator};
pub use messages::StagingMsg;
pub use profile::{ChunkProfile, ChunkRecord, FetchState, StagingState};
pub use vnf::{StagingVnf, VnfConfig, VnfStats};
