//! Former sslint fixture `wall-clock`: library code that reads the wall
//! clock, the host and per-thread state.

use std::time::Instant;

pub fn now() -> Instant {
    Instant::now()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

pub fn depth() -> u32 {
    DEPTH.with(std::cell::Cell::get)
}
