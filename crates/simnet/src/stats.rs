//! Counters collected during a simulation run.

use crate::trace::{DropReason, TraceEvent};

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
    /// Folds one record into the counters: the one place a packet's fate
    /// becomes a count, shared by the simulator and its
    /// [`crate::TraceAudit`]. An enqueue is offered, a transmission
    /// delivered, a drop counts under its reason, and every other record
    /// counts nothing (`attempts` is not traced).
    pub(crate) fn count(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::PacketEnqueue { .. } => self.offered += 1,
            TraceEvent::PacketTx { bytes, .. } => {
                self.delivered += 1;
                self.bytes_delivered += u64::from(bytes);
            }
            TraceEvent::PacketDrop { reason, .. } => match reason {
                DropReason::Loss => self.lost += 1,
                DropReason::Queue => self.dropped_queue += 1,
                DropReason::Down => self.dropped_down += 1,
                DropReason::InFlight => self.dropped_in_flight += 1,
                DropReason::Corrupt => self.corrupted += 1,
            },
            _ => {}
        }
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
    /// Per-link counters, indexed by link id.
    pub links: Vec<LinkStats>,
}
