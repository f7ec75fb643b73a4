//! Differential tests: the timer-wheel scheduler against its contract.
//!
//! The contract is "pop in ascending `(at, seq)` order", `seq` counting
//! pushes, so the reference is that sentence written literally: a
//! `BTreeMap` keyed by `(at, seq)` with `insert` / `pop_first` /
//! `first_key_value`. The wheel keeps push order without numbering it, so
//! each payload, filed whole in its bucket, carries its `seq` beside the
//! item. (The simulator's split of timers from slab-held events is
//! checked in `sim.rs`.) Every test drives the
//! [`WheelQueue`] and the map with the *same* operation sequence and
//! asserts they agree — on each pop, on each non-mutating peek, and on
//! the final drain. Seeded generators (`util::check` + `util::seed`)
//! cover the regimes where a wheel can diverge: bursts of
//! equal-timestamp events (FIFO tie-breaking), far-future events that
//! overflow into high wheel levels (cascade correctness), pops cut short
//! by a dispatch limit, and fleet-shaped periodic ticks whose
//! high-level buckets hold several tied timestamps at once.

use std::collections::BTreeMap;

use simnet::rng::Rng;
use simnet::{SimTime, WheelQueue};
use util::check::{check, Gen};
use util::seed;

/// One observable pop result.
type Popped = (SimTime, u64, u64);

/// The wheel and its reference, driven in lock step. A wheel payload is
/// `(seq, item)`.
struct Pair {
    wheel: WheelQueue<(u64, u64)>,
    reference: BTreeMap<(SimTime, u64), u64>,
    seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: WheelQueue::new(),
            reference: BTreeMap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: u64, item: u64) {
        let at = SimTime::from_micros(at);
        self.wheel.push(at, (self.seq, item));
        self.reference.insert((at, self.seq), item);
        self.seq += 1;
    }

    /// Pops both once and asserts byte-for-byte agreement.
    fn pop(&mut self) -> Option<Popped> {
        let w = self.wheel.pop().map(|(at, (seq, item))| (at, seq, item));
        let r = self
            .reference
            .pop_first()
            .map(|((at, seq), item)| (at, seq, item));
        assert_eq!(w, r, "wheel and reference disagreed on pop order");
        w
    }

    /// Asserts the non-mutating views agree.
    fn peek(&self) {
        let first = self.reference.first_key_value().map(|(&(at, _), _)| at);
        assert_eq!(self.wheel.next_at(), first, "peek disagreement");
        assert_eq!(self.wheel.len(), self.reference.len());
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty());
    }
}

/// Drives the pair through `ops` interleaved push/pop operations, with
/// `delay` choosing each push's offset from the current clock, then
/// drains and compares the tails.
fn drive(g: &mut Gen, ops: usize, mut delay: impl FnMut(&mut Gen) -> u64) {
    let mut q = Pair::new();
    let mut now = 0u64;
    for _ in 0..ops {
        if q.wheel.is_empty() || g.bool() {
            q.push(now.saturating_add(delay(g)), q.seq);
        } else if let Some((at, _, _)) = q.pop() {
            now = at.as_micros();
        }
        q.peek();
    }
    q.drain();
}

#[test]
fn random_schedules_pop_identically() {
    check("sched-diff-random", 40, |g| {
        drive(g, 400, |g| g.u64_in(0, 10_000));
    });
}

#[test]
fn equal_timestamp_bursts_stay_fifo() {
    // Half of all pushes land at exactly the current time, so FIFO
    // tie-breaking is doing almost all of the ordering work.
    check("sched-diff-bursts", 40, |g| {
        drive(g, 400, |g| if g.bool() { 0 } else { g.u64_in(0, 3) });
    });
}

#[test]
fn far_future_events_overflow_wheel_levels() {
    // Delays of `digit << (6 * level)` place events on every wheel level
    // up to the top (level 10 covers bits 60..64), forcing cascades to
    // interleave with near-term work.
    check("sched-diff-far-future", 40, |g| {
        drive(g, 300, |g| {
            let digit = g.u64_in(1, 63);
            let level = g.usize_in(0, 10) as u32;
            digit.checked_shl(6 * level).unwrap_or(u64::MAX)
        });
    });
}

#[test]
fn pop_limit_cuts_both_backends_at_the_same_event() {
    // Models Simulator::set_event_limit: dispatch stops after a fixed
    // number of pops, more work arrives, then the run resumes. The
    // prefix before the cut, the cut point, and the tail must all agree.
    check("sched-diff-limit", 30, |g| {
        let mut q = Pair::new();
        let push_burst = |q: &mut Pair, g: &mut Gen, base: u64| {
            for _ in 0..g.usize_in(5, 40) {
                q.push(base + g.u64_in(0, 100), q.seq);
            }
        };
        push_burst(&mut q, g, 0);
        let limit = g.usize_in(1, 20);
        let mut resume_at = 0;
        for _ in 0..limit {
            if let Some((at, _, _)) = q.pop() {
                resume_at = at.as_micros();
            }
        }
        // New work lands relative to where the limited run stopped.
        push_burst(&mut q, g, resume_at);
        q.drain();
    });
}

#[test]
fn periodic_ticks_cascade_mixed_timestamps_in_fifo_order() {
    // A fleet's beacon timers: many clients re-arm one period ahead on a
    // handful of phases. The phases share one 4096 µs window and the
    // period is 2^20 µs, so each round files every tick into a single
    // level-3 bucket holding several distinct timestamps, each with
    // ties; it cascades through levels 2 and 1 while near-term work is
    // pushed between a peek and the next pop. Ties must come out in
    // push order all the way down.
    const PERIOD: u64 = 1 << 20;
    const TICK: u64 = 1;
    const NEAR: u64 = 0;
    check("sched-diff-ticks", 30, |g| {
        let mut q = Pair::new();
        let phases = g.vec_of(2, 4, |g| g.u64_in(0, 4095));
        for _ in 0..g.usize_in(20, 60) {
            q.push(PERIOD + *g.choose(&phases), TICK);
        }
        let mut now = 0u64;
        for _ in 0..600 {
            q.peek();
            if g.bool() {
                q.push(now + g.u64_in(0, 30), NEAR);
                q.peek();
            }
            if let Some((at, _, item)) = q.pop() {
                now = at.as_micros();
                if item == TICK {
                    q.push(now + PERIOD, TICK);
                }
            }
        }
        q.drain();
    });
}

#[test]
fn derived_seed_schedules_are_reproducible() {
    // The same derived seed must produce the same pop sequence from the
    // wheel alone — the scheduler itself adds no hidden state.
    let run = |seed_val: u64| {
        let mut rng = Rng::seed_from_u64(seed_val);
        let mut wheel = WheelQueue::new();
        let mut out = Vec::new();
        let mut now = 0u64;
        for seq in 0..500u64 {
            let delay = rng.gen_range_f64(0.0, 5_000.0) as u64;
            wheel.push(SimTime::from_micros(now + delay), seq);
            if seq % 3 == 0 {
                if let Some((at, s)) = wheel.pop() {
                    now = at.as_micros();
                    out.push((at, s));
                }
            }
        }
        while let Some(p) = wheel.pop() {
            out.push(p);
        }
        out
    };
    for replicate in 0..3 {
        let s = seed::derive(42, "sched-diff", replicate);
        assert_eq!(run(s), run(s), "replicate {replicate} not reproducible");
    }
    assert_ne!(
        run(seed::derive(42, "sched-diff", 0)),
        run(seed::derive(42, "sched-diff", 1)),
        "distinct replicates should explore distinct schedules"
    );
}
