//! A small seeded property-test harness with shrink-on-fail.
//!
//! Replaces `proptest` for the workspace's property tests. Properties draw
//! their inputs from a [`Gen`], which records every raw `u64` choice on a
//! tape. When a case fails (panics), the harness replays the property on
//! systematically simplified tapes — truncations, zeroing, halving and
//! decrementing individual choices — and reports the smallest tape that
//! still fails, together with the deterministic seed so the failure
//! reproduces exactly on any machine.
//!
//! ```
//! util::check::check("addition_commutes", 64, |g| {
//!     let a = g.u64_in(0, 1_000_000);
//!     let b = g.u64_in(0, 1_000_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Random sampling suits large input spaces. For one small enough to
//! visit completely, [`walk`] runs a body once per leaf of the decision
//! tree its [`Walk::choice`] calls span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

pub use ssmc::{walk, Walk};

use crate::seed;

/// Number of shrink candidates tried after a failure before giving up.
const SHRINK_BUDGET: usize = 2000;

// The panic hook is process-global; serialize hooked sections so parallel
// test threads don't clobber each other's hooks.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// A deterministic source of choices for one property case.
///
/// In generation mode it draws fresh values from a seeded SplitMix64
/// stream and records them; in replay mode it reads back a (possibly
/// shrunk) tape, yielding `0` once the tape is exhausted — which biases
/// shrunk cases toward the simplest inputs.
pub struct Gen {
    state: u64,
    tape: Vec<u64>,
    replay: Option<usize>,
}

impl Gen {
    fn fresh(seed: u64) -> Self {
        Gen {
            state: seed,
            tape: Vec::new(),
            replay: None,
        }
    }

    fn replaying(tape: Vec<u64>) -> Self {
        Gen {
            state: 0,
            tape,
            replay: Some(0),
        }
    }

    /// The next raw 64-bit choice.
    pub fn u64(&mut self) -> u64 {
        match self.replay {
            Some(pos) => {
                let v = self.tape.get(pos).copied().unwrap_or(0);
                self.replay = Some(pos + 1);
                v
            }
            None => {
                let v = seed::splitmix64(self.state);
                self.state = self.state.wrapping_add(seed::GAMMA);
                self.tape.push(v);
                v
            }
        }
    }

    /// A uniform integer in `lo..=hi`. Shrinks toward `lo`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.u64();
        }
        lo + self.u64() % (span + 1)
    }

    /// A uniform `usize` in `lo..=hi`. Shrinks toward `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A uniform signed integer in `lo..=hi`. Shrinks toward `lo`.
    #[cfg(test)]
    pub(crate) fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "i64_in: empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128) as u64;
        lo.wrapping_add(self.u64_in(0, span) as i64)
    }

    /// A uniform float in `[lo, hi)`. Shrinks toward `lo`.
    #[cfg(test)]
    pub(crate) fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// A fair coin flip. Shrinks toward `false`.
    pub fn bool(&mut self) -> bool {
        self.u64() % 2 == 1
    }

    /// `len` arbitrary bytes. Shrinks toward zeros.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let v = self.u64();
            for b in v.to_le_bytes() {
                if out.len() == len {
                    break;
                }
                out.push(b);
            }
        }
        out
    }

    /// A vector with `lo..=hi` elements drawn from `item`. Shrinks toward
    /// fewer, simpler elements.
    pub fn vec_of<T>(
        &mut self,
        lo: usize,
        hi: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(lo, hi);
        (0..n).map(|_| item(self)).collect()
    }

    /// Picks one element of a non-empty slice. Shrinks toward the first.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.usize_in(0, items.len() - 1)]
    }
}

/// Runs `prop` on `cases` generated inputs; on failure, shrinks and panics
/// with a reproduction report.
///
/// The case stream is a pure function of `name`, so a failure seen in CI
/// reproduces locally with no extra state. Set `UTIL_CHECK_SEED` to probe
/// a property with a different stream.
pub fn check(name: &str, cases: usize, prop: impl Fn(&mut Gen)) {
    let base = match std::env::var("UTIL_CHECK_SEED") {
        Ok(s) => seed::fnv1a(name.as_bytes()) ^ seed::fnv1a(s.as_bytes()),
        Err(_) => seed::fnv1a(name.as_bytes()),
    };

    // A failing property panics below with the guard still held; the
    // lock guards `()`, so a poisoned one is as good as new.
    let _serial = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // quiet during search + shrink
    let outcome = run_all(base, cases, &prop).map(|(case, tape, msg)| {
        let (tape, msg) = shrink(&prop, tape, msg);
        (case, tape, msg)
    });
    std::panic::set_hook(saved_hook);

    if let Some((case, tape, msg)) = outcome {
        panic!(
            "property `{name}` failed (case {case}/{cases}, seed {base:#x})\n\
             minimal tape ({} choices): {:?}\n\
             failure: {msg}",
            tape.len(),
            tape,
        );
    }
}

/// Replays a property on an explicit tape — paste the "minimal tape" from
/// a failure report to debug it under a debugger or with printouts.
pub fn replay(tape: &[u64], prop: impl Fn(&mut Gen)) {
    let mut g = Gen::replaying(tape.to_vec());
    prop(&mut g);
}

fn run_all(base: u64, cases: usize, prop: &impl Fn(&mut Gen)) -> Option<(usize, Vec<u64>, String)> {
    for case in 0..cases {
        let mut g = Gen::fresh(seed::splitmix64(base.wrapping_add(case as u64)));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
            return Some((case, g.tape, panic_message(payload)));
        }
    }
    None
}

fn fails(prop: &impl Fn(&mut Gen), tape: &[u64]) -> Option<String> {
    let mut g = Gen::replaying(tape.to_vec());
    catch_unwind(AssertUnwindSafe(|| prop(&mut g)))
        .err()
        .map(panic_message)
}

fn shrink(prop: &impl Fn(&mut Gen), mut tape: Vec<u64>, mut msg: String) -> (Vec<u64>, String) {
    let mut budget = SHRINK_BUDGET;
    let mut improved = true;
    while improved && budget > 0 {
        improved = false;

        // Pass 1: drop suffixes (halving first, then single steps).
        let mut cut = tape.len() / 2;
        while cut > 0 && budget > 0 {
            if cut > tape.len() {
                cut = tape.len();
                continue;
            }
            let candidate = tape[..tape.len() - cut].to_vec();
            budget -= 1;
            if let Some(m) = fails(prop, &candidate) {
                tape = candidate;
                msg = m;
                improved = true;
            } else {
                cut /= 2;
            }
        }

        // Pass 2: simplify individual choices toward zero.
        for i in 0..tape.len() {
            if budget == 0 {
                break;
            }
            let original = tape[i];
            for candidate_value in [0, original / 2, original.saturating_sub(1)] {
                if candidate_value >= tape[i] {
                    continue;
                }
                let mut candidate = tape.clone();
                candidate[i] = candidate_value;
                budget -= 1;
                if let Some(m) = fails(prop, &candidate) {
                    tape = candidate;
                    msg = m;
                    improved = true;
                    break;
                }
                if budget == 0 {
                    break;
                }
            }
        }
    }
    (tape, msg)
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let seen = std::cell::Cell::new(0usize);
        check("always_true", 50, |g| {
            let _ = g.u64();
            seen.set(seen.get() + 1);
        });
        assert_eq!(seen.get(), 50);
    }

    #[test]
    fn ranges_are_respected() {
        check("ranges", 200, |g| {
            let x = g.u64_in(10, 20);
            assert!((10..=20).contains(&x));
            let y = g.i64_in(-5, 5);
            assert!((-5..=5).contains(&y));
            let f = g.f64_in(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
            let v = g.vec_of(0, 8, |g| g.bool());
            assert!(v.len() <= 8);
            let b = g.bytes(13);
            assert_eq!(b.len(), 13);
        });
    }

    #[test]
    fn failing_property_is_reported_with_a_minimal_tape() {
        let result = catch_unwind(|| {
            check("must_fail", 100, |g| {
                let x = g.u64_in(0, 1000);
                assert!(x < 50, "x too big: {x}");
            });
        });
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("property `must_fail` failed"), "got: {msg}");
        assert!(msg.contains("minimal tape"), "got: {msg}");
        // The minimal counterexample for x<50 is x=50; shrinking minimizes
        // the mapped value (the raw tape entry is whatever ≡50 mod 1001).
        assert!(
            msg.contains("x too big: 50"),
            "shrink did not minimize: {msg}"
        );
        assert!(msg.contains("(1 choices)"), "tape not truncated: {msg}");
    }

    #[test]
    fn same_name_same_stream() {
        let collect = |_run: usize| {
            let mut vals = Vec::new();
            // Reach into the generator directly — determinism is about
            // the seed derivation, not the harness loop.
            let mut g = Gen::fresh(seed::splitmix64(seed::fnv1a(b"stable").wrapping_add(3)));
            for _ in 0..8 {
                vals.push(g.u64());
            }
            vals
        };
        assert_eq!(collect(0), collect(1));
    }

    #[test]
    fn replay_reproduces_a_tape() {
        replay(&[7, 11], |g| {
            let a = g.u64();
            let b = g.u64();
            let c = g.u64(); // beyond the tape → 0
            assert_eq!((a, b, c), (7, 11, 0));
        });
    }
}
