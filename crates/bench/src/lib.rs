//! Allocation instrumentation: [`alloc_counter`] is a counting
//! [`std::alloc::GlobalAlloc`] wrapper around the system allocator, used
//! by the repo's benchmark (`benchmark/`, which reports
//! `simnet.allocs_per_event`) and by this crate's allocation regression
//! test (`tests/alloc_regression.rs`).
//!
//! That wrapper is the one place in the workspace outside `xia-addr`'s
//! SHA-NI module that needs `unsafe` (the `GlobalAlloc` trait itself is
//! unsafe), so this crate does not carry `#![forbid(unsafe_code)]`; the
//! module below re-establishes `#![deny(unsafe_code)]` everywhere except
//! the two-line trait impl.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod alloc_counter;
