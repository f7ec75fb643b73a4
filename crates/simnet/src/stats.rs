//! Counters collected during a simulation run.

/// Per-link counters (both directions combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to the link by nodes.
    pub offered: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Bytes delivered to the far end.
    pub bytes_delivered: u64,
    /// Packets dropped by channel loss (after ARQ, if any).
    pub lost: u64,
    /// Packets tail-dropped at a full transmit queue.
    pub dropped_queue: u64,
    /// Packets dropped because the link was down.
    pub dropped_down: u64,
    /// Packets discarded in flight by a down transition.
    pub dropped_in_flight: u64,
    /// Packets the link marked corrupted and the simulator dropped before
    /// delivery, standing in for a link checksum (fault injection only;
    /// see `simnet::fault`).
    pub corrupted: u64,
    /// Total link-layer transmission attempts (≥ offered when ARQ retries).
    pub attempts: u64,
}

impl LinkStats {
    /// Fraction of offered packets that were delivered.
    #[cfg(test)]
    pub(crate) fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.offered as f64
    }
}

/// Whole-simulation counters.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Events dispatched by the scheduler.
    pub events: u64,
    /// Timer events dispatched.
    pub timers: u64,
    /// Packet arrivals dispatched.
    pub packets: u64,
    /// Scheduled node faults dispatched (crashes, restarts, cache wipes).
    pub faults: u64,
    /// Per-link counters, indexed by link id.
    pub links: Vec<LinkStats>,
}

impl SimStats {
    /// Sum of delivered bytes over all links.
    #[cfg(test)]
    pub(crate) fn total_bytes_delivered(&self) -> u64 {
        self.links.iter().map(|l| l.bytes_delivered).sum()
    }

    /// Sum of lost packets over all links.
    #[cfg(test)]
    pub(crate) fn total_lost(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.lost + l.dropped_queue + l.dropped_down + l.dropped_in_flight + l.corrupted)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero() {
        let s = LinkStats::default();
        assert_eq!(s.delivery_ratio(), 0.0);
        let s = LinkStats {
            offered: 4,
            delivered: 3,
            ..LinkStats::default()
        };
        assert!((s.delivery_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn totals_aggregate_all_drop_kinds() {
        let stats = SimStats {
            links: vec![
                LinkStats {
                    bytes_delivered: 10,
                    lost: 1,
                    dropped_queue: 2,
                    ..LinkStats::default()
                },
                LinkStats {
                    bytes_delivered: 5,
                    dropped_down: 3,
                    dropped_in_flight: 4,
                    ..LinkStats::default()
                },
            ],
            ..SimStats::default()
        };
        assert_eq!(stats.total_bytes_delivered(), 15);
        assert_eq!(stats.total_lost(), 10);
    }
}
