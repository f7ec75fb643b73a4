//! Coverage schedules: when the vehicle is inside which network's range.

use simnet::{SimDuration, SimTime};

/// One contiguous interval of coverage by one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageInterval {
    /// Index of the covering network (into the experiment's network list).
    pub network: usize,
    /// Coverage start (µs).
    pub start_us: u64,
    /// Coverage end (µs).
    pub end_us: u64,
    /// Peak RSS at the middle of the interval, in dBm.
    pub peak_rss_dbm: f64,
}

impl CoverageInterval {
    /// Coverage start time.
    pub fn start(&self) -> SimTime {
        SimTime::from_micros(self.start_us)
    }

    /// Coverage end time.
    pub fn end(&self) -> SimTime {
        SimTime::from_micros(self.end_us)
    }

    /// Whether `t` falls inside the interval.
    pub(crate) fn covers(&self, t: SimTime) -> bool {
        self.start_us <= t.as_micros() && t.as_micros() < self.end_us
    }

    /// RSS the client sees at time `t`: a triangular ramp from the cell
    /// edge (−90 dBm) up to `peak_rss_dbm` mid-interval and back — the
    /// drive-by pattern of a vehicular encounter.
    pub(crate) fn rss_at(&self, t: SimTime) -> Option<f64> {
        if !self.covers(t) {
            return None;
        }
        let dur = (self.end_us - self.start_us) as f64;
        let frac = (t.as_micros() - self.start_us) as f64 / dur;
        let edge = -90.0;
        let shape = 1.0 - (2.0 * frac - 1.0).abs(); // 0 at edges, 1 mid.
        Some(edge + (self.peak_rss_dbm - edge) * shape)
    }
}

/// The full coverage schedule of one drive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageSchedule {
    /// Coverage intervals, sorted by start time.
    pub intervals: Vec<CoverageInterval>,
    /// Number of distinct networks referenced.
    pub networks: usize,
}

impl CoverageSchedule {
    /// Builds a schedule from intervals (sorted by start time).
    pub fn new(mut intervals: Vec<CoverageInterval>) -> Self {
        intervals.sort_by_key(|i| i.start_us);
        let networks = intervals.iter().map(|i| i.network + 1).max().unwrap_or(0);
        CoverageSchedule {
            intervals,
            networks,
        }
    }

    /// The paper's micro-benchmark pattern: the client alternates between
    /// `networks` edge networks, staying `encounter` in each and spending
    /// `disconnection` out of coverage in between, until `total`.
    ///
    /// # Panics
    ///
    /// Panics if `networks` is zero, or if `encounter + disconnection` is
    /// zero: the pattern would never advance past time zero.
    pub fn alternating(
        encounter: SimDuration,
        disconnection: SimDuration,
        networks: usize,
        total: SimDuration,
    ) -> Self {
        assert!(networks >= 1, "need at least one network");
        assert!(
            encounter + disconnection > SimDuration::ZERO,
            "the encounter/disconnection cycle must be positive"
        );
        let mut intervals = Vec::new();
        let mut t = 0u64;
        let mut net = 0usize;
        while t < total.as_micros() {
            let end = t + encounter.as_micros();
            intervals.push(CoverageInterval {
                network: net,
                start_us: t,
                end_us: end,
                peak_rss_dbm: -55.0,
            });
            t = end + disconnection.as_micros();
            net = (net + 1) % networks;
        }
        CoverageSchedule::new(intervals)
    }

    /// The handoff-policy pattern (§IV-D): consecutive networks' coverage
    /// overlaps by `overlap`, so the client sees both at once and must
    /// decide when to switch. No dead gaps.
    pub fn overlapping(
        encounter: SimDuration,
        overlap: SimDuration,
        networks: usize,
        total: SimDuration,
    ) -> Self {
        assert!(networks >= 2, "overlap needs at least two networks");
        assert!(
            overlap < encounter,
            "overlap must be shorter than the encounter"
        );
        let mut intervals = Vec::new();
        let stride = encounter.as_micros() - overlap.as_micros();
        let mut t = 0u64;
        let mut net = 0usize;
        while t < total.as_micros() {
            intervals.push(CoverageInterval {
                network: net,
                start_us: t,
                end_us: t + encounter.as_micros(),
                peak_rss_dbm: -55.0,
            });
            t += stride;
            net = (net + 1) % networks;
        }
        CoverageSchedule::new(intervals)
    }

    /// Whether network `net` covers the client at `t`.
    #[cfg(test)]
    pub(crate) fn covered(&self, net: usize, t: SimTime) -> bool {
        self.intervals
            .iter()
            .any(|i| i.network == net && i.covers(t))
    }

    /// RSS for network `net` at `t`, if covered.
    pub(crate) fn rss(&self, net: usize, t: SimTime) -> Option<f64> {
        self.intervals
            .iter()
            .filter(|i| i.network == net)
            .find_map(|i| i.rss_at(t))
    }

    /// Fraction of `[0, total)` covered by at least one network.
    pub fn coverage_fraction(&self, total: SimDuration) -> f64 {
        // Intervals may overlap; sweep the merged union.
        let mut edges: Vec<(u64, i32)> = Vec::new();
        for i in &self.intervals {
            edges.push((i.start_us, 1));
            edges.push((i.end_us.min(total.as_micros()), -1));
        }
        edges.sort_unstable();
        let mut depth = 0;
        let mut covered = 0u64;
        let mut last = 0u64;
        for (t, d) in edges {
            if depth > 0 {
                covered += t.saturating_sub(last);
            }
            last = t;
            depth += d;
        }
        covered as f64 / total.as_micros() as f64
    }

    /// The link up/down transitions implied for each network, as
    /// `(time, network, up)` triples sorted by time — ready to feed into
    /// [`simnet::Simulator::schedule_link_state`].
    pub fn link_transitions(&self) -> Vec<(SimTime, usize, bool)> {
        let mut out = Vec::new();
        // Coverage intervals of the same network could in principle abut;
        // emit raw transitions (simnet ignores no-op duplicates).
        for i in &self.intervals {
            out.push((i.start(), i.network, true));
            out.push((i.end(), i.network, false));
        }
        out.sort_by_key(|(t, n, up)| (*t, *n, *up));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_shape() {
        let s = CoverageSchedule::alternating(
            SimDuration::from_secs(12),
            SimDuration::from_secs(8),
            2,
            SimDuration::from_secs(60),
        );
        // Encounters at 0, 20, 40 → 3 intervals, alternating nets 0,1,0.
        assert_eq!(s.intervals.len(), 3);
        assert_eq!(
            s.intervals.iter().map(|i| i.network).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        assert!(s.covered(0, SimTime::from_micros(5_000_000)));
        assert!(!s.covered(1, SimTime::from_micros(5_000_000)));
        // Gap: nobody covers t=15s.
        assert!(!s.covered(0, SimTime::from_micros(15_000_000)));
        assert!(!s.covered(1, SimTime::from_micros(15_000_000)));
    }

    #[test]
    #[should_panic(expected = "cycle must be positive")]
    fn alternating_rejects_an_empty_cycle() {
        let _ = CoverageSchedule::alternating(
            SimDuration::ZERO,
            SimDuration::ZERO,
            2,
            SimDuration::from_secs(60),
        );
    }

    #[test]
    fn overlapping_has_simultaneous_coverage() {
        let s = CoverageSchedule::overlapping(
            SimDuration::from_secs(12),
            SimDuration::from_secs(3),
            2,
            SimDuration::from_secs(30),
        );
        // Second network starts at 9 s while the first runs to 12 s.
        let t = SimTime::from_micros(10_000_000);
        assert!(s.covered(0, t) && s.covered(1, t));
        // Full coverage, no gaps.
        let frac = s.coverage_fraction(SimDuration::from_secs(30));
        assert!(frac > 0.99, "coverage {frac}");
    }

    #[test]
    fn rss_ramps_up_then_down() {
        let i = CoverageInterval {
            network: 0,
            start_us: 0,
            end_us: 10_000_000,
            peak_rss_dbm: -50.0,
        };
        let early = i.rss_at(SimTime::from_micros(1_000_000)).unwrap();
        let mid = i.rss_at(SimTime::from_micros(5_000_000)).unwrap();
        let late = i.rss_at(SimTime::from_micros(9_000_000)).unwrap();
        assert!(mid > early && mid > late);
        assert!((mid - -50.0).abs() < 1e-9);
        assert!(i.rss_at(SimTime::from_micros(11_000_000)).is_none());
    }

    #[test]
    fn coverage_fraction_alternating() {
        let s = CoverageSchedule::alternating(
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            2,
            SimDuration::from_secs(40),
        );
        // 10 on, 10 off, repeating → 50 %.
        let frac = s.coverage_fraction(SimDuration::from_secs(40));
        assert!((frac - 0.5).abs() < 0.01, "coverage {frac}");
    }

    #[test]
    fn link_transitions_sorted_and_paired() {
        let s = CoverageSchedule::alternating(
            SimDuration::from_secs(4),
            SimDuration::from_secs(8),
            2,
            SimDuration::from_secs(30),
        );
        let tr = s.link_transitions();
        assert_eq!(tr.len(), s.intervals.len() * 2);
        assert!(tr.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
