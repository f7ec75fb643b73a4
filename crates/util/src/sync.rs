//! The workspace's only doorway to `std::sync` / `std::thread`.
//!
//! Every concurrent site in the workspace — the experiments fan-out
//! pool, the fleet summary memo — builds on the primitives re-exported
//! here instead of naming `std::sync` or `std::thread` directly (the
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
//!   detector. `crates/util/tests/model.rs` exhaustively explores the
//!   shared helpers below under that cfg.
//!
//! See DESIGN.md §8 for the model's semantics (SeqCst upgrade,
//! happens-before edges, preemption bounding).

// The one sanctioned `std::sync`/`std::thread` naming site in the
// workspace (allowlisted for the `sync-shim` rule).
#[cfg(not(model))]
mod real {
    use std::sync::PoisonError;

    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{MutexGuard, OnceLock};
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
pub use ssmc::sync::{
    scope, AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, OnceLock, Ordering, Scope,
};

/// Model-build stand-in for the hardware-thread count: a fixed small
/// value, so code branching on it stays deterministic under
/// exploration.
#[cfg(model)]
pub fn available_parallelism() -> Option<usize> {
    Some(2)
}

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// A concurrent compute-once memo: one [`OnceLock`] slot per key.
///
/// Losers of a per-key compute race block on the slot and observe the
/// winner's value through an acquire edge, so `compute` runs at most
/// once per key and every caller sees the same `Arc` — the pattern the
/// fleet summary cache uses. The two-level shape (a mutex only around
/// the key table, computation outside it) keeps slow computations from
/// serializing unrelated keys.
pub struct MemoMap<K, V> {
    map: Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Ord, V> MemoMap<K, V> {
    /// An empty memo.
    pub const fn new() -> Self {
        MemoMap {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// The memoized value for `key`, running `compute` to fill the slot
    /// if this is the first request (or racing requests lost the
    /// initialization).
    pub fn get_or_compute<F: FnOnce() -> V>(&self, key: K, compute: F) -> Arc<V> {
        let slot = {
            let mut map = self.map.lock();
            Arc::clone(map.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(compute())))
    }

    /// Drops every memoized slot (subsequent lookups recompute).
    pub fn clear(&self) {
        self.map.lock().clear();
    }
}

impl<K: Ord, V> Default for MemoMap<K, V> {
    fn default() -> Self {
        MemoMap::new()
    }
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
    fn memo_map_computes_once_per_key() {
        let memo: MemoMap<String, u32> = MemoMap::new();
        let calls = AtomicUsize::new(0);
        let a = memo.get_or_compute("a".to_owned(), || {
            calls.fetch_add(1, Ordering::Relaxed);
            7
        });
        let b = memo.get_or_compute("a".to_owned(), || {
            calls.fetch_add(1, Ordering::Relaxed);
            9
        });
        assert_eq!((*a, *b), (7, 7));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        memo.clear();
        let c = memo.get_or_compute("a".to_owned(), || {
            calls.fetch_add(1, Ordering::Relaxed);
            9
        });
        assert_eq!(*c, 9);
    }

    #[test]
    fn available_parallelism_reports_at_least_one_when_known() {
        if let Some(n) = available_parallelism() {
            assert!(n >= 1);
        }
    }
}
