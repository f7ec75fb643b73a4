//! Client-side circuit breaker guarding the active edge.
//!
//! The Staging Manager stops hammering a sick edge: consecutive failure
//! signals (explicit rejects, staging timeouts) trip the breaker from
//! `Closed` to `Open`; while open, no staging requests leave the client
//! and every fetch falls through to the origin DAG. After a fixed open
//! window — timed on the sim clock, so deterministically — the breaker
//! moves to `HalfOpen` and allows exactly one probe request. A reply
//! closes it; a reject or timeout re-opens it for another window.
//!
//! The state machine is pure (no I/O, no clock of its own): every input
//! takes `now` explicitly and returns `Some(state)` when the state
//! changed, which the client mirrors into [`TraceEvent::BreakerTransition`]
//! records. The trace oracle then enforces that no stage request is
//! recorded while the breaker is open and that every open was preceded
//! by a failure signal.
//!
//! [`TraceEvent::BreakerTransition`]: simnet::TraceEvent::BreakerTransition

use simnet::{BreakerState, SimDuration, SimTime};

/// Tuning knobs for the [`Breaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failure signals that trip a closed breaker.
    pub threshold: u32,
    /// How long an open breaker blocks staging before probing.
    pub open_for: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            // High enough that an isolated slow reply amid healthy acks
            // never trips it; a genuinely sick edge fails this fast.
            threshold: 5,
            open_for: SimDuration::from_secs(3),
        }
    }
}

/// The per-edge circuit breaker state machine.
#[derive(Debug, Clone)]
pub struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    opened_at: SimTime,
    probe_inflight: bool,
}

impl Breaker {
    /// A closed breaker with the given knobs.
    pub fn new(config: BreakerConfig) -> Self {
        Breaker {
            config,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
            probe_inflight: false,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a staging request may be sent right now. In `HalfOpen`
    /// that is the single probe — call [`Breaker::note_probe_sent`] when
    /// it actually leaves.
    pub fn can_request(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_inflight,
        }
    }

    /// Whether the next permitted request is the half-open probe (and
    /// should therefore be limited to a single chunk).
    pub fn is_probe(&self) -> bool {
        self.state == BreakerState::HalfOpen
    }

    /// Marks the half-open probe as sent, so no second one follows.
    pub fn note_probe_sent(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_inflight = true;
        }
    }

    /// The edge answered (any staged reply). Returns the new state when
    /// this closed the breaker.
    pub fn on_success(&mut self) -> Option<BreakerState> {
        self.consecutive = 0;
        self.probe_inflight = false;
        self.transition_to(BreakerState::Closed)
    }

    /// The edge failed us: an explicit reject or a staging timeout.
    /// Returns the new state when this opened (or re-opened) the breaker.
    pub fn on_failure(&mut self, now: SimTime) -> Option<BreakerState> {
        match self.state {
            // A failed probe re-opens immediately for another window.
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                self.opened_at = now;
                self.transition_to(BreakerState::Open)
            }
            BreakerState::Closed => {
                self.consecutive = self.consecutive.saturating_add(1);
                if self.consecutive >= self.config.threshold {
                    self.opened_at = now;
                    self.transition_to(BreakerState::Open)
                } else {
                    None
                }
            }
            // Already open: nothing more to trip.
            BreakerState::Open => None,
        }
    }

    /// Clock tick: an open breaker whose window elapsed moves to
    /// `HalfOpen` and will admit one probe. Returns the new state when
    /// it moved.
    pub fn poll(&mut self, now: SimTime) -> Option<BreakerState> {
        if self.state == BreakerState::Open && now >= self.opened_at + self.config.open_for {
            self.probe_inflight = false;
            self.transition_to(BreakerState::HalfOpen)
        } else {
            None
        }
    }

    /// The in-flight half-open probe was lost to something other than the
    /// edge (e.g. a coverage gap swallowed it): forget it without judging
    /// the edge, so a later probe may go out.
    pub fn abort_probe(&mut self) {
        self.probe_inflight = false;
    }

    /// The client switched to a different edge: the new contact starts
    /// with a clean slate. Returns `Some(Closed)` when the breaker was
    /// not already closed, exactly as a success would.
    pub fn reset(&mut self) -> Option<BreakerState> {
        self.on_success()
    }

    fn transition_to(&mut self, next: BreakerState) -> Option<BreakerState> {
        if self.state == next {
            return None;
        }
        self.state = next;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new(BreakerConfig {
            threshold: 3,
            open_for: SimDuration::from_secs(2),
        })
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn trips_only_on_consecutive_failures() {
        let mut b = breaker();
        assert_eq!(b.on_failure(t(1)), None);
        assert_eq!(b.on_failure(t(2)), None);
        // A success in between resets the count.
        assert_eq!(b.on_success(), None, "already closed: no transition");
        assert_eq!(b.on_failure(t(3)), None);
        assert_eq!(b.on_failure(t(4)), None);
        assert_eq!(b.on_failure(t(5)), Some(BreakerState::Open));
        assert!(!b.can_request());
        // Further failures while open are absorbed.
        assert_eq!(b.on_failure(t(6)), None);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(t(i));
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Window not yet elapsed: still open, no requests.
        assert_eq!(b.poll(t(3)), None);
        assert!(!b.can_request());
        // Window elapsed (opened at t=2, open_for 2s): probe allowed.
        assert_eq!(b.poll(t(4)), Some(BreakerState::HalfOpen));
        assert!(b.can_request() && b.is_probe());
        b.note_probe_sent();
        assert!(!b.can_request(), "only one probe in flight");
        assert_eq!(b.on_success(), Some(BreakerState::Closed));
        assert!(b.can_request() && !b.is_probe());
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_fresh_window() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(t(i));
        }
        assert_eq!(b.poll(t(4)), Some(BreakerState::HalfOpen));
        b.note_probe_sent();
        // One failed probe re-opens without needing the full threshold.
        assert_eq!(b.on_failure(t(5)), Some(BreakerState::Open));
        // The window restarts from the re-open, not the original trip.
        assert_eq!(b.poll(t(6)), None);
        assert_eq!(b.poll(t(7)), Some(BreakerState::HalfOpen));
    }

    #[test]
    fn aborted_probe_allows_another_without_reopening() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(t(i));
        }
        assert_eq!(b.poll(t(4)), Some(BreakerState::HalfOpen));
        b.note_probe_sent();
        assert!(!b.can_request());
        // The probe vanished into a coverage gap: no verdict on the edge,
        // but the slot frees up for the next probe.
        b.abort_probe();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.can_request() && b.is_probe());
    }

    #[test]
    fn reset_on_edge_switch_starts_clean() {
        let mut b = breaker();
        for i in 0..3 {
            b.on_failure(t(i));
        }
        assert_eq!(b.reset(), Some(BreakerState::Closed));
        assert!(b.can_request());
        // The failure count restarted too.
        assert_eq!(b.on_failure(t(10)), None);
        assert_eq!(b.reset(), None, "already closed: no transition");
    }
}
