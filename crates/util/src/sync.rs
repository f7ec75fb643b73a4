//! The workspace's only doorway to `std::sync` / `std::thread`.
//!
//! The workspace's one concurrent site — the experiments fan-out pool,
//! [`parallel_map`] below — builds on the primitives re-exported here
//! instead of naming `std::sync` or `std::thread` directly (the
//! `sync-shim` lint rule enforces this).
//! The payoff is a compile-time switch:
//!
//! - In a normal build (no `model` cfg) everything below is a zero-cost
//!   re-export or a `#[repr(transparent)]`-in-spirit wrapper over the
//!   `std` primitive; the only behavioral difference is that lock APIs
//!   are non-poisoning (`lock()` returns the guard directly — the
//!   workspace never observes poison because panics in lib code are
//!   forbidden by `panic-hygiene`).
//! - Under `RUSTFLAGS="--cfg model"` the same names resolve to
//!   [`ssmc::sync`] twins, and every synchronization operation routes
//!   through ssmc's schedule-exploring scheduler and vector-clock race
//!   detector. `crates/util/tests/model.rs` exhaustively explores
//!   [`parallel_map`] under that cfg.
//!
//! See DESIGN.md §8 for the model's semantics (SeqCst upgrade,
//! happens-before edges, preemption bounding).

// The one sanctioned `std::sync`/`std::thread` naming site in the
// workspace (allowlisted for the `sync-shim` rule).
#[cfg(not(model))]
mod real {
    use std::sync::PoisonError;

    pub use std::sync::atomic::{AtomicUsize, Ordering};
    pub use std::sync::MutexGuard;
    pub use std::thread::{scope, Scope};

    /// A non-poisoning [`std::sync::Mutex`]: `lock()` hands back the
    /// guard directly, recovering from poison, because lib-code panics
    /// are forbidden workspace-wide and poison states are therefore
    /// unobservable by construction.
    pub struct Mutex<T> {
        real: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex.
        pub const fn new(value: T) -> Self {
            Mutex {
                real: std::sync::Mutex::new(value),
            }
        }

        /// Acquires the lock, blocking until it is free.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.real.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Consumes the mutex, returning the value.
        pub fn into_inner(self) -> T {
            self.real
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Number of hardware threads available to this process, when the
    /// platform can report one.
    pub fn available_parallelism() -> Option<usize> {
        std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZeroUsize::get)
    }
}

#[cfg(not(model))]
pub use real::*;

#[cfg(model)]
pub use ssmc::sync::{scope, AtomicUsize, Mutex, MutexGuard, Ordering, Scope};

/// Model-build stand-in for the hardware-thread count: a fixed small
/// value, so code branching on it stays deterministic under
/// exploration.
#[cfg(model)]
pub fn available_parallelism() -> Option<usize> {
    Some(2)
}

/// Maps `f` over `0..len` with a pool of `jobs` worker threads,
/// returning the results in index order.
///
/// This is the workspace's canonical fan-out shape (the experiments
/// grid runner uses it): workers pull
/// indices from a shared atomic cursor and publish into a pre-sized,
/// mutex-guarded slot table, so the merged output is byte-identical
/// for every worker count — including the `jobs == 1` path, which runs
/// inline without spawning. `jobs` is clamped to `1..=len`.
///
/// `T: Default` exists only to keep the merge total: every slot is
/// written exactly once before the scope ends, so the default is never
/// observed in practice (ssmc explores this exhaustively in
/// `crates/util/tests/model.rs`).
pub fn parallel_map<T, F>(len: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.clamp(1, len.max(1));
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..len).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= len {
                    break;
                }
                let value = f(idx);
                let mut slots = results.lock();
                slots[idx] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_is_identical_across_worker_counts() {
        let reference: Vec<u64> = (0..17).map(|i| (i as u64) * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map(17, jobs, |i| (i as u64) * 3 + 1), reference);
        }
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn available_parallelism_reports_at_least_one_when_known() {
        if let Some(n) = available_parallelism() {
            assert!(n >= 1);
        }
    }
}
