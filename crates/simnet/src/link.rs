//! Point-to-point link model.
//!
//! A link connects two nodes with independent per-direction transmission
//! state. Each direction models:
//!
//! - **serialization**: `wire_size * 8 / bandwidth`,
//! - **propagation**: a fixed latency,
//! - **queueing**: a FIFO bounded by byte capacity; packets that would wait
//!   longer than the queue can hold are tail-dropped,
//! - **channel loss**: per-attempt Bernoulli loss,
//! - **ARQ**: optional 802.11-style link-layer retransmission; each retry
//!   re-serializes the frame and pays a per-retry overhead. Only if all
//!   attempts fail does the transport layer see a loss.
//!
//! The SoftStage paper's wireless segments (20–40 % raw loss, largely hidden
//! by 802.11 retransmission) map onto ARQ-enabled links; its wired
//! "Internet" segment maps onto a no-ARQ link whose bandwidth/latency are
//! set per experiment.

use std::fmt;

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Identifier of a link in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index of this link.
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a raw index — for trace tooling that
    /// reconstructs or synthesizes [`crate::TraceRecord`]s outside the
    /// simulator.
    pub fn from_index(index: usize) -> LinkId {
        LinkId(index)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Link-layer (ARQ) retransmissions after the first attempt, as in 802.11.
const ARQ_MAX_RETRIES: u32 = 7;
/// ARQ overhead per retry: ~300 µs of contention backoff and ACK timeout.
const ARQ_PER_RETRY: SimDuration = SimDuration::from_micros(300);

/// Static configuration of a [`Link`] (both directions share it). All
/// fields are plain scalars, so the type is `Copy` — the transmit hot
/// path takes a copy rather than `clone()`ing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Per-attempt Bernoulli loss probability in `[0, 1]`.
    pub loss: f64,
    /// Link-layer retransmission (`ARQ_MAX_RETRIES` retries of
    /// `ARQ_PER_RETRY` each); off for wired links.
    pub arq: bool,
    /// Transmit queue capacity in bytes (per direction); tail drop beyond.
    pub queue_bytes: usize,
    /// Whether the link starts up.
    pub initially_up: bool,
}

impl LinkConfig {
    /// A lossless wired link with a large (512 KiB) queue.
    pub fn wired(bandwidth_bps: u64, latency: SimDuration) -> Self {
        LinkConfig {
            bandwidth_bps,
            latency,
            loss: 0.0,
            arq: false,
            queue_bytes: 512 * 1024,
            initially_up: true,
        }
    }

    /// A lossy wireless link with 802.11-style ARQ and a 256 KiB queue.
    pub fn wireless(bandwidth_bps: u64, latency: SimDuration, loss: f64) -> Self {
        LinkConfig {
            bandwidth_bps,
            latency,
            loss,
            arq: true,
            queue_bytes: 256 * 1024,
            initially_up: true,
        }
    }

    /// Sets the per-attempt loss probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Sets the queue capacity in bytes (builder style).
    #[cfg(test)]
    pub(crate) fn with_queue_bytes(mut self, bytes: usize) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Makes the link start administratively down (builder style).
    pub fn starting_down(mut self) -> Self {
        self.initially_up = false;
        self
    }
}

/// Per-direction dynamic transmission state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Direction {
    /// Time at which the transmitter becomes free.
    pub busy_until: SimTime,
}

/// Outcome of offering one packet to a link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TxOutcome {
    /// Delivered to the far end at the contained time; `attempts` counts
    /// transmissions (1 = no retries). A `corrupted` frame arrives with
    /// flipped bits: the simulator drops it before delivery, standing in
    /// for a link checksum.
    Deliver {
        at: SimTime,
        attempts: u32,
        corrupted: bool,
    },
    /// Dropped: transmit queue full.
    DropQueue,
    /// Dropped: channel loss exhausted ARQ retries (or no ARQ).
    DropLoss { attempts: u32 },
    /// Dropped: link is down.
    DropDown,
}

/// A point-to-point link between nodes `a` and `b`.
#[derive(Debug, Clone)]
pub struct Link {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) config: LinkConfig,
    pub(crate) up: bool,
    /// Advanced (wrapping) on every down transition; stale in-flight
    /// arrivals are discarded when popped. The same width as the epoch an
    /// arrival carries, so the two compare as they are.
    pub(crate) epoch: u32,
    pub(crate) dir_ab: Direction,
    pub(crate) dir_ba: Direction,
    /// Current per-attempt loss probability. Starts at `config.loss`; fault
    /// injection (burst loss) can override and later restore it.
    pub(crate) loss: f64,
    /// Current probability that a *delivered* packet arrives with flipped
    /// bits. Starts at zero; fault injection can raise it.
    pub(crate) corrupt: f64,
}

impl Link {
    pub(crate) fn new(a: NodeId, b: NodeId, config: LinkConfig) -> Self {
        let up = config.initially_up;
        let loss = config.loss;
        Link {
            a,
            b,
            config,
            up,
            epoch: 0,
            dir_ab: Direction::default(),
            dir_ba: Direction::default(),
            loss,
            corrupt: 0.0,
        }
    }

    /// The two endpoints of the link.
    pub(crate) fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The loss probability currently in effect (config value unless a
    /// fault override is active).
    pub(crate) fn current_loss(&self) -> f64 {
        self.loss
    }

    /// The corruption probability currently in effect (zero unless a fault
    /// override is active).
    pub(crate) fn current_corruption(&self) -> f64 {
        self.corrupt
    }

    /// Overrides channel quality; `None` leaves a parameter unchanged.
    /// Used by the fault scheduler for burst loss and corruption windows.
    pub(crate) fn set_quality(&mut self, loss: Option<f64>, corrupt: Option<f64>) {
        if let Some(l) = loss {
            assert!((0.0..=1.0).contains(&l), "loss must be in [0,1]");
            self.loss = l;
        }
        if let Some(c) = corrupt {
            assert!((0.0..=1.0).contains(&c), "corruption must be in [0,1]");
            self.corrupt = c;
        }
    }

    /// The peer of `node` on this link.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint.
    #[expect(
        clippy::panic,
        reason = "documented contract: callers must pass an endpoint; wrong topology wiring cannot be recovered here"
    )]
    pub(crate) fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not an endpoint of this link");
        }
    }

    /// Offers one packet of `wire_bytes` for transmission from `from` at
    /// `now`; `sample` draws uniform `[0,1)` values for loss decisions.
    pub(crate) fn transmit(
        &mut self,
        from: NodeId,
        wire_bytes: usize,
        now: SimTime,
        mut sample: impl FnMut() -> f64,
    ) -> TxOutcome {
        if !self.up {
            return TxOutcome::DropDown;
        }
        let config = self.config;
        let loss = self.loss;
        let corrupt = self.corrupt;
        let dir = if from == self.a {
            &mut self.dir_ab
        } else {
            &mut self.dir_ba
        };
        let tx_start = dir.busy_until.max(now);
        let one_tx = SimDuration::transmission(wire_bytes, config.bandwidth_bps);
        // Tail drop if the backlog (expressed as waiting time) *including
        // the arriving packet's own serialization* exceeds what the queue
        // can hold — without the `one_tx` term the queue admits up to one
        // full packet beyond `queue_bytes`.
        let max_wait = SimDuration::transmission(config.queue_bytes, config.bandwidth_bps);
        if tx_start - now + one_tx > max_wait {
            return TxOutcome::DropQueue;
        }
        let max_attempts = if config.arq { 1 + ARQ_MAX_RETRIES } else { 1 };
        let mut attempts = 0;
        let mut delivered = false;
        while attempts < max_attempts {
            attempts += 1;
            if sample() >= loss {
                delivered = true;
                break;
            }
        }
        let mut occupancy = one_tx * u64::from(attempts);
        if attempts > 1 {
            occupancy += ARQ_PER_RETRY * u64::from(attempts - 1);
        }
        dir.busy_until = tx_start + occupancy;
        if delivered {
            // Corruption is orthogonal to loss: the frame arrives with bit
            // flips and is dropped before delivery. ARQ does not help
            // because the link-layer ACK covers the frame as sent.
            let corrupted = corrupt > 0.0 && sample() < corrupt;
            TxOutcome::Deliver {
                at: dir.busy_until + config.latency,
                attempts,
                corrupted,
            }
        } else {
            TxOutcome::DropLoss { attempts }
        }
    }

    /// Administratively sets link state; returns true if the state changed.
    pub(crate) fn set_up(&mut self, up: bool) -> bool {
        if self.up == up {
            return false;
        }
        self.up = up;
        if !up {
            // Anything in flight is lost; reset transmitter state.
            self.epoch = self.epoch.wrapping_add(1);
            self.dir_ab = Direction::default();
            self.dir_ba = Direction::default();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(config: LinkConfig) -> Link {
        Link::new(NodeId(0), NodeId(1), config)
    }

    #[test]
    fn lossless_delivery_time() {
        // 1500 B at 12 Mbps = 1 ms serialization + 5 ms propagation.
        let mut l = mk(LinkConfig::wired(12_000_000, SimDuration::from_millis(5)));
        let out = l.transmit(NodeId(0), 1500, SimTime::ZERO, || 0.9);
        assert_eq!(
            out,
            TxOutcome::Deliver {
                at: SimTime::ZERO + SimDuration::from_millis(6),
                attempts: 1,
                corrupted: false,
            }
        );
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = mk(LinkConfig::wired(12_000_000, SimDuration::ZERO));
        let o1 = l.transmit(NodeId(0), 1500, SimTime::ZERO, || 0.9);
        let o2 = l.transmit(NodeId(0), 1500, SimTime::ZERO, || 0.9);
        let (TxOutcome::Deliver { at: t1, .. }, TxOutcome::Deliver { at: t2, .. }) = (o1, o2)
        else {
            panic!("expected deliveries");
        };
        assert_eq!(t2 - t1, SimDuration::from_millis(1));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = mk(LinkConfig::wired(12_000_000, SimDuration::ZERO));
        let o1 = l.transmit(NodeId(0), 1500, SimTime::ZERO, || 0.9);
        let o2 = l.transmit(NodeId(1), 1500, SimTime::ZERO, || 0.9);
        let (TxOutcome::Deliver { at: t1, .. }, TxOutcome::Deliver { at: t2, .. }) = (o1, o2)
        else {
            panic!("expected deliveries");
        };
        assert_eq!(t1, t2);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let mut l = mk(LinkConfig::wired(8_000, SimDuration::ZERO).with_queue_bytes(1000));
        // Each 1000 B packet takes 1 s to serialize; queue holds 1 s worth,
        // and the first packet's own serialization fills it exactly.
        assert!(matches!(
            l.transmit(NodeId(0), 1000, SimTime::ZERO, || 0.9),
            TxOutcome::Deliver { .. }
        ));
        // Second packet's backlog would be 1 s of residual + its own 1 s of
        // serialization > 1 s of queue: dropped.
        assert_eq!(
            l.transmit(NodeId(0), 1000, SimTime::ZERO, || 0.9),
            TxOutcome::DropQueue
        );
    }

    #[test]
    fn queue_admits_exactly_its_capacity() {
        // Regression for the tail-drop accounting: the check must include
        // the arriving packet's own serialization time. A 2000 B queue at
        // 8 kbps holds exactly two 1000 B packets — the buggy check
        // (`backlog > queue` *excluding* the packet itself) admitted a
        // third, one full packet beyond capacity.
        let mut l = mk(LinkConfig::wired(8_000, SimDuration::ZERO).with_queue_bytes(2000));
        for _ in 0..2 {
            assert!(matches!(
                l.transmit(NodeId(0), 1000, SimTime::ZERO, || 0.9),
                TxOutcome::Deliver { .. }
            ));
        }
        assert_eq!(
            l.transmit(NodeId(0), 1000, SimTime::ZERO, || 0.9),
            TxOutcome::DropQueue
        );
        // Draining restores admission: at t = 1 s one packet's worth has
        // serialized, so one more fits.
        assert!(matches!(
            l.transmit(NodeId(0), 1000, SimTime::from_micros(1_000_000), || 0.9),
            TxOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn loss_without_arq_drops() {
        let mut l = mk(LinkConfig::wired(1_000_000, SimDuration::ZERO).with_loss(1.0));
        assert_eq!(
            l.transmit(NodeId(0), 100, SimTime::ZERO, || 0.5),
            TxOutcome::DropLoss { attempts: 1 }
        );
    }

    #[test]
    fn arq_recovers_and_charges_airtime() {
        let mut l = mk(LinkConfig::wireless(12_000_000, SimDuration::ZERO, 0.5));
        // First two attempts lose (sample 0.4 < 0.5), third succeeds.
        let mut samples = [0.4, 0.4, 0.9].into_iter();
        let out = l.transmit(NodeId(0), 1500, SimTime::ZERO, || samples.next().unwrap());
        let TxOutcome::Deliver { at, attempts, .. } = out else {
            panic!("expected delivery");
        };
        assert_eq!(attempts, 3);
        // 3 serializations of 1 ms + 2 retry overheads of 300 µs.
        assert_eq!(at, SimTime::ZERO + SimDuration::from_micros(3_600));
    }

    #[test]
    fn arq_exhaustion_drops() {
        let mut l = mk(LinkConfig::wireless(12_000_000, SimDuration::ZERO, 1.0));
        let out = l.transmit(NodeId(0), 1500, SimTime::ZERO, || 0.0);
        assert_eq!(out, TxOutcome::DropLoss { attempts: 8 });
    }

    #[test]
    fn down_link_drops_and_resets() {
        let mut l = mk(LinkConfig::wired(1_000_000, SimDuration::ZERO));
        let _ = l.transmit(NodeId(0), 10_000, SimTime::ZERO, || 0.9);
        assert!(l.set_up(false));
        assert!(!l.set_up(false), "no-op transition reports false");
        assert_eq!(
            l.transmit(NodeId(0), 100, SimTime::ZERO, || 0.9),
            TxOutcome::DropDown
        );
        assert!(l.set_up(true));
        // Transmitter state was reset by the down transition.
        let out = l.transmit(NodeId(0), 100, SimTime::from_micros(0), || 0.9);
        assert!(matches!(out, TxOutcome::Deliver { .. }));
        assert_eq!(l.epoch, 1);
    }

    #[test]
    fn quality_overrides_apply_and_restore() {
        let mut l = mk(LinkConfig::wired(12_000_000, SimDuration::ZERO));
        assert_eq!(l.current_loss(), 0.0);
        assert_eq!(l.current_corruption(), 0.0);

        // Full corruption: frames arrive flagged corrupted.
        l.set_quality(None, Some(1.0));
        let out = l.transmit(NodeId(0), 100, SimTime::ZERO, || 0.9);
        assert!(matches!(
            out,
            TxOutcome::Deliver {
                corrupted: true,
                ..
            }
        ));

        // Burst loss override drops everything.
        l.set_quality(Some(1.0), None);
        assert!(matches!(
            l.transmit(NodeId(0), 100, SimTime::ZERO, || 0.5),
            TxOutcome::DropLoss { .. }
        ));

        // Restoring returns the link to clean delivery.
        l.set_quality(Some(0.0), Some(0.0));
        assert!(matches!(
            l.transmit(NodeId(0), 100, SimTime::ZERO, || 0.5),
            TxOutcome::Deliver {
                corrupted: false,
                ..
            }
        ));
    }

    #[test]
    fn peer_of_both_sides() {
        let l = mk(LinkConfig::wired(1, SimDuration::ZERO));
        assert_eq!(l.peer_of(NodeId(0)), NodeId(1));
        assert_eq!(l.peer_of(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "endpoint")]
    fn peer_of_stranger_panics() {
        let l = mk(LinkConfig::wired(1, SimDuration::ZERO));
        let _ = l.peer_of(NodeId(7));
    }
}
