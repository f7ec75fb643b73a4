//! The TCP-like reliable transport of the XIA prototype model.
//!
//! XIA transfers both byte streams (*Xstream*) and content chunks
//! (*XChunkP*) over "a TCP-like reliable protocol connection directly
//! between XCache and the requesting client" (SoftStage §II-C). This crate
//! implements that transport as a deterministic state machine:
//!
//! - Reno congestion control: slow start, congestion avoidance, fast
//!   retransmit on three duplicate ACKs, RTO with exponential backoff
//!   (RFC 6298-style RTT estimation),
//! - connection lifecycle: three-way handshake, bidirectional FIN
//!   teardown, RSTs, and TIME_WAIT ACK replay,
//! - **active session migration**: a connection can pause and re-source
//!   itself from a new network attachment (the 1–2 s layer-3 handoff cost
//!   the paper's chunk-aware handoff policy avoids),
//! - a **per-packet processing overhead** model reproducing the gap
//!   between kernel TCP and the user-level Click daemon of the XIA
//!   prototype (Fig. 5 of the paper).
//!
//! The transport is simulator-agnostic: it talks to the world through the
//! [`TransportEnv`] trait (clock, packet egress, timers, app upcalls),
//! implemented by `xia-host` for simulation and by lightweight harnesses in
//! tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod buffer;
pub mod config;
pub mod conn;
pub mod mux;
pub mod rtt;

pub use config::TransportConfig;
pub use conn::{CloseReason, ConnStats, TransportEnv, TransportEvent};
pub use mux::{Owner, TransportError, TransportMux};
pub use rtt::RttEstimator;
