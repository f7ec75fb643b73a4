//! Transport configuration.

use simnet::SimDuration;

/// The settings of the reliable transport that some caller varies; the
/// rest (segment size, initial window and threshold, RTO bounds, receive
/// window) are constants in `conn.rs`.
///
/// Two presets matter for the paper's Fig. 5 benchmark:
/// [`TransportConfig::linux_tcp`] (an idealised kernel TCP, no processing
/// overhead) and [`TransportConfig::xia`] (the XIA prototype: a user-level
/// Click daemon whose per-packet processing cost caps throughput below the
/// link rate).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Consecutive RTO expirations before the connection fails.
    pub max_consecutive_rtos: u32,
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
            max_consecutive_rtos: 40,
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
        let aligned = TransportConfig {
            per_packet_overhead: SimDuration::ZERO,
            accept_delay: SimDuration::ZERO,
            ..xia
        };
        assert_eq!(aligned, tcp);
    }

    #[test]
    fn default_is_xia() {
        assert_eq!(TransportConfig::default(), TransportConfig::xia());
    }
}
