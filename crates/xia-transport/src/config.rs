//! Transport configuration.

use simnet::SimDuration;
use xia_wire::MSS;

/// Tuning knobs of the reliable transport.
///
/// Two presets matter for the paper's Fig. 5 benchmark:
/// [`TransportConfig::linux_tcp`] (an idealised kernel TCP, no processing
/// overhead) and [`TransportConfig::xia`] (the XIA prototype: a user-level
/// Click daemon whose per-packet processing cost caps throughput below the
/// link rate).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Maximum payload bytes per segment.
    pub mss: usize,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: u64,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout (backoff cap).
    pub max_rto: SimDuration,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Consecutive RTO expirations before the connection fails.
    pub max_consecutive_rtos: u32,
    /// Receive window advertised to the peer, in bytes.
    pub receive_window: u64,
    /// Minimum spacing between consecutive data transmissions, modelling
    /// the per-packet cost of a user-level protocol stack. Zero disables
    /// pacing (kernel TCP).
    pub per_packet_overhead: SimDuration,
    /// Delay before a responder starts answering a new connection,
    /// modelling per-chunk session setup in the user-level daemon (XCache
    /// lookup, binding). Paid once per connection.
    pub accept_delay: SimDuration,
}

impl TransportConfig {
    /// An idealised in-kernel TCP: no user-level processing overhead.
    pub fn linux_tcp() -> Self {
        TransportConfig {
            mss: MSS,
            initial_cwnd_segments: 4,
            initial_ssthresh: 256 * 1024,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(10),
            initial_rto: SimDuration::from_millis(1000),
            max_consecutive_rtos: 40,
            receive_window: 2 * 1024 * 1024,
            per_packet_overhead: SimDuration::ZERO,
            accept_delay: SimDuration::ZERO,
        }
    }

    /// The XIA prototype stack: a user-level Click daemon.
    ///
    /// The 160 µs per-packet cost is calibrated so a wired bulk transfer
    /// reaches ≈66 Mbps on a 100 Mbps segment where kernel TCP reaches
    /// ≈95 Mbps, reproducing the paper's Fig. 5.
    pub fn xia() -> Self {
        TransportConfig {
            per_packet_overhead: SimDuration::from_micros(160),
            accept_delay: SimDuration::from_millis(20),
            ..TransportConfig::linux_tcp()
        }
    }

    /// Builder-style override of the per-packet overhead.
    pub fn with_overhead(mut self, overhead: SimDuration) -> Self {
        self.per_packet_overhead = overhead;
        self
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig::xia()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_overhead() {
        let tcp = TransportConfig::linux_tcp();
        let xia = TransportConfig::xia();
        assert_eq!(tcp.per_packet_overhead, SimDuration::ZERO);
        assert!(xia.per_packet_overhead > SimDuration::ZERO);
        assert!(xia.accept_delay > tcp.accept_delay);
        let mut aligned = xia.clone().with_overhead(SimDuration::ZERO);
        aligned.accept_delay = SimDuration::ZERO;
        assert_eq!(aligned, tcp);
    }

    #[test]
    fn default_is_xia() {
        assert_eq!(TransportConfig::default(), TransportConfig::xia());
    }
}
