//! `ssbench`: the SoftStage reproduction's benchmark.
//!
//! Four paired-arm workloads ([`workloads`]) are built and run through
//! the public entry points `reproduce` uses, one pass per child process
//! ([`pass`]); the parent ([`report`]) turns passes into end-to-end and
//! per-layer metrics ([`registry`]), with a separate traced pass
//! ([`spans`], [`kernels`]) for attribution. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod host;
pub mod kernels;
pub mod pass;
pub mod registry;
pub mod report;
pub mod spans;
pub mod workloads;
