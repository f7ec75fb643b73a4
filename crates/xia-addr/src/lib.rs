//! XIA addressing primitives.
//!
//! The eXpressive Internet Architecture (XIA) addresses destinations with
//! directed acyclic graphs (DAGs) of *XIDs* — typed 160-bit identifiers.
//! This crate implements the subset of XIA addressing that SoftStage relies
//! on:
//!
//! - [`Xid`]: a 20-byte identifier tagged with a [`Principal`] type
//!   (content `CID`, host `HID`, network `NID`, or service `SID`),
//! - [`Dag`]: a DAG address with fallback edges, including the simplified
//!   `CID|NID:HID` form used throughout the SoftStage paper,
//! - [`sha1`]: a self-contained SHA-1 used to derive CIDs from content and
//!   HIDs/SIDs from (mock) public keys,
//! - [`ProbeTable`]: the one-probe table that forwarding and connection
//!   lookups key by XID.
//!
//! # Examples
//!
//! ```
//! use xia_addr::{Dag, Principal, Xid};
//!
//! let cid = Xid::for_content(b"a movie chunk");
//! let nid = Xid::new_random(Principal::Nid, 7);
//! let hid = Xid::new_random(Principal::Hid, 7);
//!
//! // The paper's simplified representation: CID | NID : HID.
//! let dag = Dag::cid_with_fallback(cid, nid, hid);
//! assert_eq!(dag.intent().principal(), Principal::Cid);
//! assert_eq!(dag.fallback_host(), Some(hid));
//! ```

// No `#![forbid(unsafe_code)]`: the workspace lints deny it, and sha1's
// SHA-NI fast path, which needs `core::arch` intrinsics, is the one
// item-level `#[expect(unsafe_code)]`.
#![warn(missing_docs)]

pub mod dag;
pub mod probe;
pub mod sha1;
pub mod xid;

pub use dag::{Dag, DagError, DagNode};
pub use probe::{ProbeKey, ProbeTable};
pub use xid::{Principal, Xid};
