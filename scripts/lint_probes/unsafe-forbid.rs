//! Former sslint fixture `unsafe-forbid`: `unsafe` in a crate that
//! carries no `#![forbid(unsafe_code)]` of its own, so only the workspace
//! lint table can refuse it. The block is documented, so nothing else
//! fires.

pub fn read(v: &u64) -> u64 {
    let p: *const u64 = v;
    // SAFETY: `p` comes from a reference, so it is aligned and live.
    unsafe { *p }
}
