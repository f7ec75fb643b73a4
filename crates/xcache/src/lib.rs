//! XCache: XIA's network-layer chunk cache.
//!
//! XCache "implements XIA's native ICN support on both end hosts and
//! network appliances" (SoftStage §II-C). This crate provides:
//!
//! - [`store::ChunkStore`]: a bounded content store with LRU eviction
//!   and pinned (published) content,
//! - [`chunker`]: splitting content objects into self-certifying chunks
//!   and the [`chunker::Manifest`] clients fetch,
//! - [`proto`]: the chunk request/response wire protocol,
//! - [`service`]: sans-IO server ([`service::ChunkServer`]) and client
//!   ([`service::ChunkFetcher`]) state machines that `xia-host` wires to
//!   the reliable transport.
//!
//! The SoftStage Staging VNF stages chunks *into* one of these stores so
//! mobile clients fetch them from the edge instead of the origin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunker;
pub mod proto;
pub mod service;
pub mod store;

pub use chunker::{chunk_content, ContentDigest, Manifest};
pub use proto::{ChunkRequest, ChunkResponseHeader, ProtoError};
pub use service::{ChunkFetcher, ChunkServer, FetchProgress, ServerAction};
pub use store::{ChunkStore, EvictionPolicy, StoreStats};
