//! The Staging Coordinator's reactive depth rule (§III-D of the paper).
//!
//! The coordinator keeps the staged-ahead depth *N* at the smallest value
//! that keeps the client busy: a new chunk must be staged immediately
//! whenever
//!
//! ```text
//! N < (RTT_C,EdgeNet + L_S→EdgeNet) / L_EdgeNet→C
//! ```
//!
//! i.e. while fetching the already-staged chunks would finish before one
//! more chunk could be staged. All three quantities are measured online
//! (EWMAs over the client's own measurements), so a slow Internet
//! (large `L_S→EdgeNet`) automatically deepens staging — the behaviour
//! behind the paper's 9.9x gain at 15 Mbps — with no mobility prediction
//! anywhere.

use simnet::{SimDuration, SimTime};

/// Smoothing factor of every [`Ewma`]: the coordinator's three
/// estimators and gap model, and the VNF's staging latency.
const ALPHA: f64 = 0.3;

/// Exponentially weighted moving average over durations, smoothing by
/// `ALPHA` (0.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ewma {
    value_us: Option<f64>,
}

impl Ewma {
    /// Absorbs a sample.
    pub(crate) fn observe(&mut self, sample: SimDuration) {
        let s = sample.as_micros() as f64;
        self.value_us = Some(match self.value_us {
            None => s,
            Some(v) => v + ALPHA * (s - v),
        });
    }

    /// The current estimate, if any sample has arrived.
    pub fn value(&self) -> Option<SimDuration> {
        self.value_us
            .map(|v| SimDuration::from_micros(v.max(0.0) as u64))
    }
}

/// Usefulness-deadline horizon used before a fetch estimate exists (the
/// cold start). A fresh client cannot predict when a staged chunk stops
/// being useful, so its first requests carry `now + COLD_DEADLINE`: a
/// deadline-aware VNF admits them onto any healthy queue but can still
/// shed them from a backlog too deep to land within the horizon, so a
/// fleet of cold clients is not admitted without limit up to the depth
/// cap.
const COLD_DEADLINE: SimDuration = SimDuration::from_secs(10);

/// Configuration of the staging coordinator: the bounds of its depth rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorConfig {
    /// Depth used before any measurements exist, and the rule's floor.
    pub initial_depth: usize,
    /// Hard cap on the staged-ahead depth (bounds edge cache use — the
    /// "economical" constraint).
    pub max_depth: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            initial_depth: 2,
            max_depth: 32,
        }
    }
}

/// Online estimator of the staging depth *N*.
#[derive(Debug)]
pub struct StagingCoordinator {
    config: CoordinatorConfig,
    /// `L_EdgeNet→C`: staged-chunk fetch latency.
    fetch: Ewma,
    /// `L_S→EdgeNet`: origin-to-edge staging latency.
    stage: Ewma,
    /// `RTT_C,EdgeNet`: staging-signal round trip.
    rtt: Ewma,
    /// Observed disconnection durations (reactive gap model).
    gap: Ewma,
}

impl StagingCoordinator {
    /// Creates a coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `initial_depth` exceeds `max_depth`: the depth rule
    /// clamps to `[initial_depth, max_depth]`.
    pub fn new(config: CoordinatorConfig) -> Self {
        let (initial, max) = (config.initial_depth, config.max_depth);
        assert!(
            initial <= max,
            "initial_depth {initial} exceeds max_depth {max}"
        );
        StagingCoordinator {
            config,
            fetch: Ewma::default(),
            stage: Ewma::default(),
            rtt: Ewma::default(),
            gap: Ewma::default(),
        }
    }

    /// Records a staged-chunk fetch latency (`L_EdgeNet→C`).
    pub(crate) fn observe_fetch(&mut self, latency: SimDuration) {
        self.fetch.observe(latency);
    }

    /// Records a staging latency reported by the VNF (`L_S→EdgeNet`).
    pub(crate) fn observe_stage(&mut self, latency: SimDuration) {
        self.stage.observe(latency);
    }

    /// Records a signaling round trip (`RTT_C,EdgeNet`).
    pub(crate) fn observe_rtt(&mut self, rtt: SimDuration) {
        self.rtt.observe(rtt);
    }

    /// Records an experienced disconnection duration. Fetch and staging
    /// are asynchronous — "Staging VNF can continue to work when the
    /// client is disconnected" (§III-D) — so the coordinator keeps enough
    /// chunks requested to occupy the VNF across a typical gap, measured
    /// reactively from the drive itself (no mobility prediction).
    pub(crate) fn observe_gap(&mut self, gap: SimDuration) {
        self.gap.observe(gap);
    }

    /// The target staged-ahead depth: the paper's threshold
    /// `(RTT + L_stage) / L_fetch` (rounded up), plus enough further
    /// chunks to keep the VNF staging through a typical disconnection
    /// (`gap / L_stage`), clamped to `[initial_depth, max_depth]`. Falls
    /// back to `initial_depth` until both a fetch and a staging sample
    /// exist.
    pub fn target_depth(&self) -> usize {
        let (Some(fetch), Some(stage)) = (self.fetch.value(), self.stage.value()) else {
            return self.config.initial_depth;
        };
        let rtt = self.rtt.value().unwrap_or(SimDuration::ZERO);
        let fetch_us = fetch.as_micros().max(1);
        let numerator = rtt.as_micros() + stage.as_micros();
        let depth = numerator.div_ceil(fetch_us) as usize;
        // Keep the VNF busy across a typical coverage gap: the chunks it
        // can stage in `gap` time must already be requested when coverage
        // drops.
        let gap_depth = match self.gap.value() {
            Some(gap) => (gap.as_micros() / stage.as_micros().max(1)) as usize,
            None => 0,
        };
        (depth + gap_depth).clamp(self.config.initial_depth, self.config.max_depth)
    }

    /// How many new staging requests to issue given the current
    /// staged-ahead count.
    pub(crate) fn deficit(&self, staged_ahead: usize) -> usize {
        self.target_depth().saturating_sub(staged_ahead)
    }

    /// The smoothed staged-chunk fetch latency (`L_EdgeNet→C`), once
    /// measured. The Staging Manager derives its RICH-style usefulness
    /// deadlines from it: chunk `k` positions ahead is needed in about
    /// `k · L_fetch`.
    pub fn fetch_estimate(&self) -> Option<SimDuration> {
        self.fetch.value()
    }

    /// The smoothed staging latency (`L_S→EdgeNet`), once measured.
    pub fn stage_estimate(&self) -> Option<SimDuration> {
        self.stage.value()
    }

    /// The RICH-style usefulness deadline (µs since sim start) for a
    /// staging request whose furthest chunk sits `ahead` positions past
    /// the fetch cursor: the client will want it in about
    /// `ahead · L_fetch`. Before a fetch estimate exists the
    /// `COLD_DEADLINE` horizon applies, so the thundering-herd moment (a
    /// fleet of fresh clients) still meets deadline-aware admission.
    pub(crate) fn deadline_us_for(&self, now: SimTime, ahead: u64) -> u64 {
        match self.fetch.value() {
            Some(fetch) => (now + fetch * ahead).as_micros(),
            None => (now + COLD_DEADLINE).as_micros(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_then_smooths() {
        let mut e = Ewma::default();
        assert_eq!(e.value(), None);
        e.observe(SimDuration::from_millis(100));
        assert_eq!(e.value(), Some(SimDuration::from_millis(100)));
        e.observe(SimDuration::from_millis(200));
        assert_eq!(e.value(), Some(SimDuration::from_millis(130)));
    }

    #[test]
    #[should_panic(expected = "initial_depth 5 exceeds max_depth 4")]
    fn inverted_depth_bounds_are_rejected_at_construction() {
        let _ = StagingCoordinator::new(CoordinatorConfig {
            initial_depth: 5,
            max_depth: 4,
        });
    }

    #[test]
    fn default_depth_before_measurements() {
        let c = StagingCoordinator::new(CoordinatorConfig::default());
        assert_eq!(c.target_depth(), 2);
        assert_eq!(c.deficit(0), 2);
        assert_eq!(c.deficit(5), 0);
    }

    #[test]
    fn fast_wireless_slow_internet_deepens_staging() {
        let mut c = StagingCoordinator::new(CoordinatorConfig::default());
        // Edge fetch of a 2 MB chunk at ~25 Mbps: ~640 ms.
        c.observe_fetch(SimDuration::from_millis(640));
        // Staging over a 15 Mbps Internet: ~1.1 s.
        c.observe_stage(SimDuration::from_millis(1100));
        c.observe_rtt(SimDuration::from_millis(20));
        // (20 + 1100) / 640 → ceil = 2 when Internet is moderate...
        assert_eq!(c.target_depth(), 2);
        // ...but a congested Internet (4x slower staging) deepens it.
        for _ in 0..10 {
            c.observe_stage(SimDuration::from_millis(4400));
        }
        assert!(c.target_depth() >= 6, "depth {}", c.target_depth());
    }

    #[test]
    fn depth_clamped_to_bounds() {
        let mut c = StagingCoordinator::new(CoordinatorConfig {
            initial_depth: 2,
            max_depth: 4,
        });
        c.observe_fetch(SimDuration::from_millis(1));
        c.observe_stage(SimDuration::from_secs(100));
        assert_eq!(c.target_depth(), 4, "clamped at max");
        // The estimates smooth: after 20 samples each, staging has fallen
        // to ~80 ms against a ~100 s fetch.
        for _ in 0..20 {
            c.observe_stage(SimDuration::from_micros(1));
            c.observe_fetch(SimDuration::from_secs(100));
        }
        assert_eq!(c.target_depth(), 2, "clamped at min");
    }

    #[test]
    fn cold_start_carries_a_real_deadline() {
        let c = StagingCoordinator::new(CoordinatorConfig::default());
        let now = SimTime::from_micros(3_000_000);
        assert_eq!(
            c.deadline_us_for(now, 4),
            now.as_micros() + COLD_DEADLINE.as_micros(),
            "cold deadline is the fixed horizon from now"
        );
    }

    #[test]
    fn warm_deadline_scales_with_lookahead() {
        let mut c = StagingCoordinator::new(CoordinatorConfig::default());
        c.observe_fetch(SimDuration::from_millis(500));
        let now = SimTime::from_micros(1_000_000);
        assert_eq!(c.deadline_us_for(now, 2), 2_000_000);
        assert_eq!(c.deadline_us_for(now, 6), 4_000_000);
    }
}
