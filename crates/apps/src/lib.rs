//! Applications over the XIA stack: the workloads of the SoftStage paper.
//!
//! - [`SeqFetcher`]: a minimal sequential chunk downloader (the *XChunkP*
//!   pattern) for stationary hosts and benchmarks,
//! - the roaming clients themselves live in `softstage`: build a
//!   [`softstage::SoftStageClient`] with [`softstage::SoftStageConfig::baseline`]
//!   for the paper's Xftp baseline (no staging, legacy handoff) or
//!   `::default()` for SoftStage proper,
//! - [`PlaybackModel`]: video-on-demand analysis over chunk completion
//!   times (startup delay, rebuffering), supporting the paper's §V
//!   extension discussion,
//! - [`build_origin`]: an origin content server for one object in one
//!   call, and [`origin_host`], an empty one a catalog is published on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod playback;
pub mod seq;
pub mod server;

pub use playback::{PlaybackModel, PlaybackReport};
pub use seq::SeqFetcher;
pub use server::{build_origin, origin_host};
