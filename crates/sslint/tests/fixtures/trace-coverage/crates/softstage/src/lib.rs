#![forbid(unsafe_code)]
use simnet::trace::TraceEvent;

pub fn tx() -> TraceEvent {
    TraceEvent::PacketTx { link: 1 }
}

pub fn down() -> TraceEvent {
    TraceEvent::LinkDown
}
