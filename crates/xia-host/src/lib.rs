//! The XIA host stack: what runs on every end host and inside every
//! router's local delivery path.
//!
//! A [`Host`] composes:
//!
//! - a [`xia_transport::TransportMux`] (reliable chunk/stream transport),
//! - a local [`xcache::ChunkStore`] with its built-in chunk server (every
//!   XIA host can serve content it holds — the basis of edge staging),
//! - a set of [`App`]s: applications and network functions (FTP clients,
//!   origin servers, SoftStage's Staging Manager and Staging VNF, beacon
//!   transmitters) that program against [`HostCtx`].
//!
//! [`EndHost`] wraps a `Host` as a [`simnet`] node for stub hosts;
//! `xia-router` embeds a `Host` next to its forwarding engine so router
//! caches can intercept and serve CID requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod ctx;
pub mod host;

pub use app::{App, FetchResult};
pub use ctx::{Effect, HostCtx, HostView};
pub use host::{EndHost, Host, HostConfig};
