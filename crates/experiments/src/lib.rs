//! Experiment harness reproducing every table and figure of the SoftStage
//! paper (ICDCS 2019).
//!
//! | Artifact | Module | What it regenerates |
//! |---|---|---|
//! | Fig. 5 | [`fig5`] | XIA transport benchmark (TCP vs Xstream vs XChunkP) |
//! | Fig. 6(a)–(f) | [`fig6`] | SoftStage vs Xftp gain across Table III sweeps |
//! | §IV-D | [`handoff`] | Chunk-aware vs default handoff policy |
//! | Fig. 7 | [`fig7`] | Trace-driven wardriving replay |
//! | (extra) | [`ablation`] | Design-choice ablations (DESIGN.md §5) |
//! | (extra) | [`overload`] | Graceful degradation under staging-queue caps |
//! | (extra) | [`fleet`] | Fleet-scale shared-cache contention ([`workload`] drives it) |
//!
//! [`world`] builds the paper's Fig. 4 topology from plain data;
//! [`testbed`] (one client along a coverage schedule) and [`fleet`] (N
//! parked clients) are parameterisations of it. [`params`] holds the
//! Table III parameter set. Every module declares its table as a list of
//! independent cells ([`exec::TableSpec`]); the shared fan-out engine
//! ([`exec::execute`]) evaluates them across a worker pool with per-cell
//! derived seeds and merges results in declared order, so output is
//! byte-identical for any `--jobs` count. The `reproduce` binary prints
//! each artifact's paper-vs-measured table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod exec;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fleet;
pub mod handoff;
pub mod overload;
pub mod params;
pub mod report;
pub mod smoke;
pub mod testbed;
pub mod workload;
pub mod world;

pub use exec::{execute, Cell, DerivedRow, ExecConfig, TableSpec};
pub use params::{ExperimentParams, MB, MBPS};
pub use testbed::{build, build_with_vnf, RunResult, Testbed};
