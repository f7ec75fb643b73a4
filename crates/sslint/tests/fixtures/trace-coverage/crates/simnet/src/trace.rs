/// Flight-recorder event kinds, declared the way the live tree does: one
/// table, expanded by a macro whose own body also says `enum TraceEvent {`.
macro_rules! trace_events {
    (pub enum TraceEvent { $($variant:ident = $wire:literal $({ $($field:ident: $ty:ty,)+ })?,)+ }) => {
        pub enum TraceEvent { $($variant $({ $($field: $ty,)+ })?,)+ }
    };
}

trace_events! {
    pub enum TraceEvent {
        PacketTx = "pkt_tx" {
            link: u64,
        },
        LinkUp = "link_up",
        LinkDown = "link_down",
    }
}

/// The oracle: a variant named in its impl is checked there.
pub struct TraceAudit;

impl TraceAudit {
    pub fn watches(e: &TraceEvent) -> bool {
        matches!(e, TraceEvent::LinkDown)
    }
}
