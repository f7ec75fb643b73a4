//! Every metric the benchmark reports, by name, with its unit and
//! direction — the same tables as `BENCHMARK.json` (a test holds the two
//! equal). `benchmark/README.md` says what each one means and which
//! end-to-end metric each layer metric is expected to move.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is
/// the share of the parent commit's median by which the metric may get
/// worse before a change counts as a regression.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// A per-layer metric: `(name, unit, direction)`. No bound: these explain
/// end-to-end movement, they are not gated themselves.
pub type PerLayer = (&'static str, &'static str, Better);

/// What a user of the system sees, per workload.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", Lower, 0.25),
    ("wall_s", "s", Lower, 0.25),
    ("clients_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.20),
    ("sim_p50_s", "s", Lower, 0.25),
    ("staging_gain", "x", Higher, 0.25),
];

/// Layer by layer (layer = crate name), plus the two simulated end-to-end
/// ratios that can be 0 or negative and so cannot carry a relative bound.
pub const PER_LAYER: &[PerLayer] = &[
    ("sim_p99_s", "s", Lower),
    ("origin_offload", "ratio", Higher),
    ("fail_ratio", "ratio", Lower),
    ("simnet.events", "count", Lower),
    ("simnet.timers", "count", Lower),
    ("simnet.packets", "count", Lower),
    ("simnet.events_per_chunk", "count", Lower),
    ("simnet.timer_share", "ratio", Lower),
    ("simnet.run_ns_per_event.staged", "ns", Lower),
    ("simnet.run_ns_per_event.baseline", "ns", Lower),
    ("simnet.slice_ns_per_event.p50", "ns", Lower),
    ("simnet.slice_ns_per_event.max", "ns", Lower),
    ("simnet.sched.ns_per_event_timers", "ns", Lower),
    ("simnet.sched.ns_per_event_pingpong", "ns", Lower),
    ("simnet.allocs_per_event", "count", Lower),
    ("simnet.link.offered", "count", Lower),
    ("simnet.link.delivered", "count", Lower),
    ("simnet.link.lost", "count", Lower),
    ("simnet.link.dropped_queue", "count", Lower),
    ("simnet.link.attempts_per_delivered", "ratio", Lower),
    ("simnet.est_share", "ratio", Lower),
    ("xia-transport.segments", "count", Lower),
    ("xia-transport.ns_per_segment", "ns", Lower),
    ("xia-transport.retransmit_ratio", "ratio", Lower),
    ("xia-transport.est_share", "ratio", Lower),
    ("xia-addr.sha1.run_mb", "MB", Lower),
    ("xia-addr.sha1.ns_per_mb", "ns", Lower),
    ("xia-addr.est_share", "ratio", Lower),
    ("xcache.chunker.ns_per_mb", "ns", Lower),
    ("xcache.edge_hits", "count", Higher),
    ("xcache.edge_misses", "count", Lower),
    ("xcache.insertions", "count", Lower),
    ("xcache.evictions", "count", Lower),
    ("xcache.edge_hit_ratio", "ratio", Higher),
    ("xcache.evictions_per_insert", "ratio", Lower),
    ("xcache.peak_edge_bytes", "B", Lower),
    ("xcache.evict_log_dropped", "count", Lower),
    ("xcache.lookups", "count", Lower),
    ("xcache.store.ns_per_get_hit", "ns", Lower),
    ("xcache.store.ns_per_insert_evict", "ns", Lower),
    ("xcache.est_share", "ratio", Lower),
    ("xia-host.published_mb", "MB", Lower),
    ("xia-host.publish.ns_per_mb", "ns", Lower),
    ("xia-host.est_setup_share", "ratio", Lower),
    ("xia-router.forwarded", "count", Lower),
    ("xia-router.cid_intercepts", "count", Higher),
    ("xia-router.dropped_no_route", "count", Lower),
    ("xia-router.forwarded_per_chunk", "count", Lower),
    ("xia-router.lookups", "count", Lower),
    ("xia-router.lookup.ns_per_op", "ns", Lower),
    ("xia-router.est_share", "ratio", Lower),
    ("vehicular.handoffs", "count", Lower),
    ("vehicular.migrations", "count", Lower),
    ("softstage.stage_requests", "count", Lower),
    ("softstage.stage_retries", "count", Lower),
    ("softstage.fetch_retries", "count", Lower),
    ("softstage.stage_rejects", "count", Lower),
    ("softstage.stage_timeouts", "count", Lower),
    ("softstage.breaker_opens", "count", Lower),
    ("softstage.from_staged", "count", Higher),
    ("softstage.from_origin", "count", Lower),
    ("softstage.staged_fetch_ratio", "ratio", Higher),
    ("softstage.vnf.staged", "count", Lower),
    ("softstage.vnf.already_cached", "count", Higher),
    ("softstage.vnf.rejected", "count", Lower),
    ("softstage.vnf.peak_depth", "count", Lower),
    ("softstage.wasted_stage_ratio", "ratio", Lower),
    ("host.user_s", "s", Lower),
    ("host.sys_s", "s", Lower),
    ("host.minor_faults", "count", Lower),
    ("host.runq_wait_ratio", "ratio", Lower),
    ("unattributed_share", "ratio", Lower),
    ("trace_overhead_ratio", "ratio", Lower),
];
