//! Video-on-demand playback analysis over chunk completion times.
//!
//! The paper's §V argues SoftStage extends naturally to rate-adaptive
//! video. This module turns a download's chunk completion times into
//! playback quality metrics: a player that buffers `startup_chunks`
//! before starting, then consumes one chunk per `chunk_duration`, stalls
//! whenever the next chunk has not arrived by its deadline.

use simnet::{SimDuration, SimTime};

/// Playback quality metrics for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackReport {
    /// When playback started (startup buffer filled).
    pub playback_start: SimTime,
    /// Number of rebuffering (stall) events.
    pub stalls: usize,
    /// Total stalled time.
    pub stall_time: SimDuration,
    /// When the last chunk finished playing.
    pub playback_end: SimTime,
}

/// A deadline-driven playback model.
#[derive(Debug, Clone, Copy)]
pub struct PlaybackModel {
    /// Chunks buffered before playback starts.
    pub startup_chunks: usize,
    /// Media time per chunk (e.g. 2 s for the paper's YouTube-derived
    /// chunk sizes).
    pub chunk_duration: SimDuration,
}

impl PlaybackModel {
    /// Analyzes ordered chunk completion times.
    ///
    /// # Panics
    ///
    /// Panics if `completions` is empty or `startup_chunks` is zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "the asserts make completions non-empty and startup_chunks >= 1, so start_idx < completions.len()"
    )]
    pub fn analyze(&self, completions: &[SimTime]) -> PlaybackReport {
        assert!(!completions.is_empty(), "no chunks completed");
        assert!(self.startup_chunks >= 1, "startup buffer must be positive");
        let start_idx = self.startup_chunks.min(completions.len()) - 1;
        let playback_start = completions[start_idx];
        let mut clock = playback_start;
        let mut stalls = 0;
        let mut stall_time = SimDuration::ZERO;
        for &arrival in &completions[start_idx..] {
            if arrival > clock {
                // The chunk missed its deadline: stall until it arrives.
                stalls += 1;
                stall_time += arrival - clock;
                clock = arrival;
            }
            clock += self.chunk_duration;
        }
        PlaybackReport {
            playback_start,
            stalls,
            stall_time,
            playback_end: clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_micros((s * 1e6) as u64)
    }

    #[test]
    fn smooth_playback_has_no_stalls() {
        // Chunks arrive every second, playback consumes every 2 s.
        let completions: Vec<SimTime> = (1..=10).map(|i| t(i as f64)).collect();
        let model = PlaybackModel {
            startup_chunks: 2,
            chunk_duration: SimDuration::from_secs(2),
        };
        let report = model.analyze(&completions);
        assert_eq!(report.stalls, 0, "chunks always beat their deadlines");
        assert_eq!(report.stall_time, SimDuration::ZERO);
        assert_eq!(report.playback_start, t(2.0));
        // 9 chunks play from t=2 at 2 s each.
        assert_eq!(report.playback_end, t(2.0) + SimDuration::from_secs(18));
    }

    #[test]
    fn late_chunk_stalls_playback() {
        // Third chunk arrives 10 s late relative to its deadline.
        let completions = vec![t(1.0), t(2.0), t(20.0), t(20.5)];
        let model = PlaybackModel {
            startup_chunks: 1,
            chunk_duration: SimDuration::from_secs(2),
        };
        let report = model.analyze(&completions);
        assert!(report.stalls >= 1);
        assert!(report.stall_time >= SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "no chunks")]
    fn empty_completions_panics() {
        let model = PlaybackModel {
            startup_chunks: 1,
            chunk_duration: SimDuration::from_secs(2),
        };
        let _ = model.analyze(&[]);
    }
}
