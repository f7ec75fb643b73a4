//! Zero-dependency building blocks shared by the whole workspace.
//!
//! The reproduction must build and test with **no network and no external
//! crates** — a registry outage or an air-gapped machine must never stop
//! `cargo build --release && cargo test -q`. This crate provides the small
//! slices of third-party functionality the workspace actually uses:
//!
//! - [`bytes`]: a cheap-clone, reference-counted byte buffer
//!   ([`bytes::Bytes`]) whose allocation remembers the digest of each
//!   range hashed through it, and a growable builder
//!   ([`bytes::BytesMut`]), replacing the `bytes` crate,
//! - [`json`]: a minimal JSON value model, writer and parser, replacing
//!   `serde`/`serde_json` for trace files, staging messages and experiment
//!   reports,
//! - [`check`]: a seeded property-test harness with shrink-on-fail,
//!   replacing `proptest` in the workspace's property tests, and beside
//!   it the exhaustive [`check::walk`] for spaces small enough to visit
//!   completely,
//! - [`seed`]: splitmix64-based seed derivation for replicated
//!   experiment grids (one base seed, per-cell/per-replicate streams),
//! - [`sync`]: the workspace's only threaded code: [`sync::parallel_map`],
//!   the index-keyed worker pool behind `reproduce --jobs`, and
//!   [`sync::pipelined_map`], one worker mapping what the caller produces.
//!
//! Everything here is deterministic where it matters: the property harness
//! derives its cases from a fixed per-property seed, so CI failures
//! reproduce locally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod check;
pub mod json;
pub mod seed;
pub mod sync;
