//! Connectivity traces: recorded or synthesized drive connectivity.
//!
//! The paper's Fig. 7 replays day-long wardriving traces from Beijing
//! (cellular-operator APs, coverage either >80 % or <2 %). Real traces are
//! proprietary, so this module provides (a) a JSON trace format so real
//! traces can be dropped in, and (b) a synthesizer that generates traces
//! with the same qualitative structure: alternating connected bursts and
//! short gaps tuned to a target coverage fraction.

#[cfg(test)]
use simnet::SimTime;
use simnet::{Rng, SimDuration};
use util::json::{FromJson, Json, JsonError, ToJson};

use crate::schedule::{CoverageInterval, CoverageSchedule};

/// One period of a binary connectivity trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePeriod {
    /// Period start, seconds from trace start.
    pub start_s: f64,
    /// Period end, seconds from trace start.
    pub end_s: f64,
    /// Whether the vehicle had usable AP coverage.
    pub connected: bool,
}

/// A binary (connected / disconnected) drive trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnectivityTrace {
    /// Human-readable origin of the trace.
    pub name: String,
    /// Consecutive, non-overlapping periods.
    pub periods: Vec<TracePeriod>,
}

impl ConnectivityTrace {
    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        let end = self.periods.last().map_or(0.0, |p| p.end_s);
        SimDuration::from_secs_f64(end)
    }

    /// Fraction of time connected.
    pub fn coverage_fraction(&self) -> f64 {
        let total: f64 = self.periods.iter().map(|p| p.end_s - p.start_s).sum();
        if total == 0.0 {
            return 0.0;
        }
        let on: f64 = self
            .periods
            .iter()
            .filter(|p| p.connected)
            .map(|p| p.end_s - p.start_s)
            .sum();
        on / total
    }

    /// Whether the vehicle is connected at time `t`.
    #[cfg(test)]
    pub(crate) fn connected_at(&self, t: SimTime) -> bool {
        let s = t.as_secs_f64();
        self.periods
            .iter()
            .any(|p| p.connected && p.start_s <= s && s < p.end_s)
    }

    /// Serializes to the JSON trace format.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_string_pretty()
    }

    /// Parses the JSON trace format.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, on periods out of order / overlapping, and
    /// on a bound the simulator's clock cannot hold (negative, not finite,
    /// or past `SimTime`'s µs range).
    pub fn from_json(json: &str) -> Result<Self, TraceError> {
        let value = Json::parse(json).map_err(|_| TraceError::Malformed)?;
        let trace = <ConnectivityTrace as FromJson>::from_json(&value)
            .map_err(|_| TraceError::Malformed)?;
        trace.validate()?;
        Ok(trace)
    }

    /// Builds a trace from per-second connectivity samples (1 Hz logging,
    /// the common wardriving format).
    #[cfg(test)]
    pub(crate) fn from_binary_seconds(name: &str, samples: &[bool]) -> Self {
        let mut periods = Vec::new();
        let mut start = 0usize;
        for i in 1..=samples.len() {
            if i == samples.len() || samples[i] != samples[start] {
                periods.push(TracePeriod {
                    start_s: start as f64,
                    end_s: i as f64,
                    connected: samples[start],
                });
                start = i;
            }
        }
        ConnectivityTrace {
            name: name.to_owned(),
            periods,
        }
    }

    fn validate(&self) -> Result<(), TraceError> {
        // NaN fails the first comparison, infinity the second.
        let holds = |s: f64| s >= 0.0 && s * 1e6 < u64::MAX as f64;
        let mut last_end = 0.0f64;
        for p in &self.periods {
            let ordered = p.start_s < p.end_s && last_end <= p.start_s;
            if !(ordered && holds(p.start_s) && holds(p.end_s)) {
                return Err(TraceError::BadPeriods);
            }
            last_end = p.end_s;
        }
        Ok(())
    }

    /// Converts the binary trace into a [`CoverageSchedule`], assigning
    /// consecutive connected periods to `networks` edge networks
    /// round-robin (the vehicle drives past a sequence of distinct APs).
    pub fn to_schedule(&self, networks: usize) -> CoverageSchedule {
        assert!(networks >= 1);
        let mut intervals = Vec::new();
        let mut net = 0usize;
        for p in self.periods.iter().filter(|p| p.connected) {
            intervals.push(CoverageInterval {
                network: net,
                start_us: (p.start_s * 1e6) as u64,
                end_us: (p.end_s * 1e6) as u64,
                peak_rss_dbm: -55.0,
            });
            net = (net + 1) % networks;
        }
        CoverageSchedule::new(intervals)
    }
}

impl ToJson for TracePeriod {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("start_s".into(), self.start_s.to_json()),
            ("end_s".into(), self.end_s.to_json()),
            ("connected".into(), self.connected.to_json()),
        ])
    }
}

impl FromJson for TracePeriod {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TracePeriod {
            start_s: f64::from_json(v.field("start_s")?)?,
            end_s: f64::from_json(v.field("end_s")?)?,
            connected: bool::from_json(v.field("connected")?)?,
        })
    }
}

impl ToJson for ConnectivityTrace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("periods".into(), self.periods.to_json()),
        ])
    }
}

impl FromJson for ConnectivityTrace {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ConnectivityTrace {
            name: String::from_json(v.field("name")?)?,
            periods: Vec::from_json(v.field("periods")?)?,
        })
    }
}

/// Errors loading a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The JSON did not parse.
    Malformed,
    /// Periods overlap, run backwards, are empty, or have a bound that
    /// is not a time the simulator can represent.
    BadPeriods,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TraceError::Malformed => "malformed trace JSON",
            TraceError::BadPeriods => "trace periods overlap, are inverted or out of range",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TraceError {}

/// Parameters of the wardriving-trace synthesizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WardrivingParams {
    /// Target fraction of time connected (Beijing operator APs: > 0.8).
    pub coverage: f64,
    /// Mean connected-burst length, seconds.
    pub mean_burst_s: f64,
    /// Total trace duration, seconds.
    pub total_s: f64,
}

impl Default for WardrivingParams {
    fn default() -> Self {
        WardrivingParams {
            coverage: 0.85,
            mean_burst_s: 40.0,
            total_s: 600.0,
        }
    }
}

/// Synthesizes a wardriving-style connectivity trace: exponentially
/// distributed connected bursts alternating with gaps sized so the trace
/// hits the requested coverage fraction in expectation.
///
/// # Panics
///
/// Panics if `coverage` is not in `(0, 1)` or durations are non-positive.
pub fn synthesize_wardriving(name: &str, params: WardrivingParams, seed: u64) -> ConnectivityTrace {
    assert!(
        params.coverage > 0.0 && params.coverage < 1.0,
        "coverage must be in (0,1)"
    );
    assert!(params.mean_burst_s > 0.0 && params.total_s > 0.0);
    let mut rng = Rng::seed_from_u64(seed);
    let mean_gap = params.mean_burst_s * (1.0 - params.coverage) / params.coverage;
    let mut periods = Vec::new();
    let mut t = 0.0f64;
    let mut connected = true;
    while t < params.total_s {
        let mean = if connected {
            params.mean_burst_s
        } else {
            mean_gap
        };
        // Exponential draw, clamped to keep periods sensible (≥ 1 s).
        let u: f64 = rng.gen_range_f64(1e-6, 1.0);
        let dur = (-u.ln() * mean).max(1.0);
        let end = (t + dur).min(params.total_s);
        periods.push(TracePeriod {
            start_s: t,
            end_s: end,
            connected,
        });
        t = end;
        connected = !connected;
    }
    ConnectivityTrace {
        name: name.to_owned(),
        periods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_seconds_roundtrip() {
        let samples = [true, true, false, true, true, true];
        let t = ConnectivityTrace::from_binary_seconds("t", &samples);
        assert_eq!(t.periods.len(), 3);
        assert!(t.connected_at(SimTime::from_micros(500_000)));
        assert!(!t.connected_at(SimTime::from_micros(2_500_000)));
        assert!((t.coverage_fraction() - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let t = ConnectivityTrace::from_binary_seconds("x", &[true, false, true]);
        let json = t.to_json();
        assert_eq!(ConnectivityTrace::from_json(&json).unwrap(), t);
        // Overlapping periods rejected.
        let bad = r#"{"name":"b","periods":[
            {"start_s":0.0,"end_s":5.0,"connected":true},
            {"start_s":3.0,"end_s":6.0,"connected":false}]}"#;
        assert_eq!(
            ConnectivityTrace::from_json(bad),
            Err(TraceError::BadPeriods)
        );
        assert_eq!(
            ConnectivityTrace::from_json("not json"),
            Err(TraceError::Malformed)
        );
    }

    #[test]
    fn bounds_the_clock_cannot_hold_are_rejected() {
        // `1e999` parses to infinity, which `duration()` would panic on
        // and `to_schedule` would saturate; `1e14` s overflows u64 µs.
        for (start, end) in [("0.0", "1e999"), ("0.0", "1e14"), ("-1.0", "5.0")] {
            let json = format!(
                r#"{{"name":"b","periods":[{{"start_s":{start},"end_s":{end},"connected":true}}]}}"#
            );
            assert_eq!(
                ConnectivityTrace::from_json(&json),
                Err(TraceError::BadPeriods),
                "{start}..{end}"
            );
        }
    }

    #[test]
    fn synthesizer_hits_coverage_roughly() {
        let params = WardrivingParams {
            coverage: 0.85,
            mean_burst_s: 40.0,
            total_s: 3600.0,
        };
        let t = synthesize_wardriving("beijing-like", params, 7);
        let cov = t.coverage_fraction();
        assert!((0.7..=0.95).contains(&cov), "coverage {cov}");
        // Deterministic per seed.
        assert_eq!(synthesize_wardriving("beijing-like", params, 7), t);
        assert_ne!(synthesize_wardriving("beijing-like", params, 8), t);
    }

    #[test]
    fn to_schedule_round_robins_networks() {
        let samples = [true, false, true, false, true];
        let t = ConnectivityTrace::from_binary_seconds("rr", &samples);
        let s = t.to_schedule(2);
        assert_eq!(s.intervals.len(), 3);
        assert_eq!(
            s.intervals.iter().map(|i| i.network).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn duration_and_empty_trace() {
        let t = ConnectivityTrace::default();
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(t.coverage_fraction(), 0.0);
    }
}
