//! The workspace's one threaded function: [`parallel_map`], the fan-out
//! pool behind `reproduce --jobs`.
//!
//! Workers share nothing but an atomic ticket cursor. Each collects its
//! own `(index, value)` pairs and hands them back through `join`, so
//! there is no lock to order, no slot to leave unwritten, and — in a
//! `#![forbid(unsafe_code)]` crate — a data race does not compile.
//! DESIGN.md §8 lists each hazard and what rules it out.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `f` over `0..len` with a pool of `jobs` worker threads,
/// returning the results in index order.
///
/// Results are merged by index, never by completion order, so the
/// output is identical for every worker count — including the
/// `jobs == 1` path, which runs inline without spawning. `jobs` is
/// clamped to `1..=len`. A panic in `f` reaches the caller with its own
/// payload once the other workers have drained the remaining indices.
#[expect(
    clippy::disallowed_methods,
    reason = "whole runs fan out across threads; results merge by index, so the output is the same for every worker count"
)]
pub fn parallel_map<T, F>(len: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.clamp(1, len.max(1));
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    // `Relaxed` is enough: `fetch_add` is an atomic read-modify-write,
    // so no two workers draw the same index, and the cursor publishes
    // no data — values cross threads only through `join`.
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, T)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= len {
                            return mine;
                        }
                        mine.push((idx, f(idx)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(idx, _)| idx);
    pairs.into_iter().map(|(_, value)| value).collect()
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

    /// Deliberately not `Default`, so that bound cannot creep back.
    #[derive(Debug, PartialEq)]
    struct Tagged(usize);

    #[test]
    fn parallel_map_merges_by_index_under_reverse_completion() {
        const LEN: usize = 9;
        for jobs in [2, 3, 8] {
            // Item 0 finishes last, whichever worker draws it: it spins
            // until every other item has been evaluated.
            let finished = AtomicUsize::new(0);
            let evals: Vec<AtomicUsize> = (0..LEN).map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map(LEN, jobs, |i| {
                evals[i].fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    while finished.load(Ordering::SeqCst) < LEN - 1 {
                        thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                Tagged(i)
            });
            let expected: Vec<Tagged> = (0..LEN).map(Tagged).collect();
            assert_eq!(out, expected, "jobs={jobs}");
            for (i, n) in evals.iter().enumerate() {
                assert_eq!(n.load(Ordering::SeqCst), 1, "item {i} at jobs={jobs}");
            }
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, 2, |i| {
                assert!(i != 2, "cell 2 is invalid");
                i
            })
        });
        let payload = caught.expect_err("item 2 panics");
        assert_eq!(crate::check::panic_message(payload), "cell 2 is invalid");
    }
}
