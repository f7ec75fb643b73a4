//! Fleet-scale worlds: thousands of SoftStage clients sharing edge
//! caches under genuine contention.
//!
//! The single-client testbed ([`crate::testbed`]) answers "does staging
//! help one vehicle"; this module answers "does it still help when the
//! whole fleet shows up". One world holds one origin publishing a Zipf
//! catalog ([`crate::workload`]), a core router, a handful of edge
//! routers — each with one bounded XCache and (in staged worlds) one
//! deadline-aware Staging VNF — and N clients attached round-robin, each
//! downloading its own working set through its edge. Contention is real,
//! not modelled: overlapping working sets fight for edge cache bytes
//! (eviction pressure), staging requests from many clients pile into one
//! VNF queue (admission shedding), and every origin fetch — direct or
//! staged — serializes over one shared origin uplink.
//!
//! Everything is a pure function of [`FleetParams`] (which embeds the
//! seed): client working sets derive from `util::seed`, arrival times
//! are a fixed stagger, and the world runs in one deterministic
//! simulator — so any fleet size is byte-identical across `--jobs`.
//!
//! The headline question is the "Price of Fog" crossover: as the fleet
//! grows and popularity flattens, the combined working set overwhelms
//! the fixed edge caches, staged chunks are evicted before their clients
//! fetch them, and staging's origin traffic turns from investment into
//! overhead. [`spec`] sweeps fleet size × Zipf skew to find the point
//! where the edge-vs-origin gain row drops through 1.0.
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "fleet-topology wiring errors are programmer errors; a mis-built fleet must abort, not simulate garbage; sweep-array and per-client indexing is construction-guarded"
)]

use std::ops::{Deref, DerefMut};

use simnet::{LinkConfig, SimDuration, SimTime};
use softstage::{AdmissionPolicy, SoftStageClient, SoftStageConfig, VnfConfig};
use xia_addr::sha1::Sha1;
use xia_host::EndHost;

use crate::exec::{Cell, DerivedRow, TableSpec};
use crate::params::{MB, MBPS};
use crate::workload::{client_objects, ZipfCatalog};
use crate::world::{self, client_on, ClientSpec, EdgeSpec, World, WorldSpec};

/// Everything that defines one fleet world. Results are a pure function
/// of this struct.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Concurrent clients in the world.
    pub clients: usize,
    /// Edge routers; clients attach round-robin.
    pub edges: usize,
    /// Objects in the shared catalog.
    pub catalog_objects: usize,
    /// Chunks per object.
    pub chunks_per_object: usize,
    /// Bytes per chunk.
    pub chunk_size: usize,
    /// Distinct objects each client downloads.
    pub objects_per_client: usize,
    /// Zipf popularity exponent (0 = uniform).
    pub zipf_skew: f64,
    /// XCache capacity of each edge router, in bytes — the contended
    /// resource.
    pub edge_cache_bytes: usize,
    /// Deploy a Staging VNF per edge (false = Xftp baseline fleet).
    pub staging: bool,
    /// Per-client radio bandwidth.
    pub wireless_bw_bps: u64,
    /// Edge-to-core backhaul bandwidth.
    pub backhaul_bw_bps: u64,
    /// The shared origin uplink bandwidth (core to server).
    pub origin_bw_bps: u64,
    /// Origin round-trip time.
    pub origin_rtt: SimDuration,
    /// Edge beacon period.
    pub beacon_interval: SimDuration,
    /// Client arrivals are staggered uniformly across this window.
    pub arrival_window: SimDuration,
    /// Hard stop; unfinished clients are censored at this horizon.
    pub horizon: SimDuration,
    /// Verify every client's delivered [`ContentDigest`] against the
    /// published manifests of its working set.
    pub verify_content: bool,
    /// World seed: drives content, working sets and the simulator.
    pub seed: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            clients: 200,
            edges: 4,
            catalog_objects: 192,
            chunks_per_object: 2,
            chunk_size: 256 * 1024,
            objects_per_client: 2,
            zipf_skew: 0.8,
            edge_cache_bytes: 2 * MB,
            staging: true,
            wireless_bw_bps: 25 * MBPS,
            backhaul_bw_bps: 1000 * MBPS,
            origin_bw_bps: 200 * MBPS,
            origin_rtt: SimDuration::from_millis(50),
            beacon_interval: SimDuration::from_secs(1),
            arrival_window: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(300),
            verify_content: false,
            seed: 42,
        }
    }
}

impl FleetParams {
    /// Returns the params with a different seed (cell-eval plumbing).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Clients simulated.
    pub clients: usize,
    /// Clients that finished their whole working set before the horizon.
    pub completed: usize,
    /// Whether every verified client delivered intact content (always
    /// true when [`FleetParams::verify_content`] is off).
    pub content_ok: bool,
    /// Median per-client download time in seconds (censored at the
    /// horizon for unfinished clients — no survivor bias).
    pub p50_s: f64,
    /// 99th-percentile per-client download time in seconds (censored).
    pub p99_s: f64,
    /// Fraction of client chunk deliveries served out of edge caches.
    pub cache_hit_ratio: f64,
    /// `1 − origin serves / client chunk deliveries`. Origin serves
    /// include the VNFs' staging fetches, so thrash (staged chunks
    /// evicted unfetched, then re-pulled from the origin) drives this
    /// down and can push it negative — staging as pure overhead.
    pub origin_offload: f64,
    /// Staging requests shed by VNF backpressure or admission control.
    pub stage_rejects: u64,
    /// Chunks evicted across all edge caches.
    pub evictions: u64,
    /// Evicted-CID log records dropped past the bounded log's capacity.
    pub evict_log_dropped: u64,
    /// Highest byte high-water mark over the edge caches.
    pub peak_edge_bytes: u64,
    /// SHA-1 over every client's and store's counters, hex-encoded —
    /// the byte-identity witness for determinism tests.
    pub digest: String,
}

/// A built fleet world, ready to run: the [`World`] (whose fields and
/// readers it derefs to) plus what the summary needs.
pub struct FleetWorld {
    world: World,
    up_times: Vec<SimTime>,
    verify_content: bool,
    horizon: SimTime,
}

impl Deref for FleetWorld {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

impl DerefMut for FleetWorld {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Builds the fleet world for `params`: the Fig. 4 world
/// ([`crate::world`]) with every client parked at edge `i % edges`, its
/// one radio link coming up at its arrival time.
///
/// # Panics
///
/// Panics when the parameters are internally inconsistent (zero
/// clients/edges, or a working set larger than the catalog).
pub fn build(params: &FleetParams) -> FleetWorld {
    assert!(params.clients > 0 && params.edges > 0, "empty fleet");
    let object_bytes = params.chunks_per_object * params.chunk_size;
    let catalog = ZipfCatalog::new(params.catalog_objects, params.zipf_skew);
    // Staggered arrivals: one link-up every window/N, deterministic.
    let up_times: Vec<SimTime> = (0..params.clients as u64)
        .map(|i| {
            SimTime::ZERO
                + SimDuration::from_micros(
                    params.arrival_window.as_micros() * i / params.clients as u64,
                )
        })
        .collect();
    let world = world::build(WorldSpec {
        seed: params.seed,
        contents: (0..params.catalog_objects as u32)
            .map(|obj| {
                let seed = util::seed::derive(params.seed, "fleet/object", obj + 1);
                (object_bytes, seed)
            })
            .collect(),
        chunk_size: params.chunk_size,
        edges: (0..params.edges)
            .map(|_| EdgeSpec {
                cache_bytes: params.edge_cache_bytes,
                vnf: params.staging.then(|| VnfConfig {
                    admission: AdmissionPolicy::DeadlineAware,
                    ..VnfConfig::default()
                }),
                beacon_interval: params.beacon_interval,
                rss_model: None,
            })
            .collect(),
        clients: up_times
            .iter()
            .enumerate()
            .map(|(i, &up)| ClientSpec {
                hid_seed: 10_000 + i as u64,
                objects: client_objects(&catalog, params.seed, i as u32, params.objects_per_client),
                config: SoftStageConfig {
                    client_id: i as u32,
                    ..if params.staging {
                        SoftStageConfig::default()
                    } else {
                        SoftStageConfig::baseline()
                    }
                },
                // Fleet beacons are slow (event economy); stretch the
                // sensor's liveness window to match or edges flap "gone"
                // between beacons.
                beacon_timeout: params.beacon_interval * 3,
                radios: vec![i % params.edges],
                transitions: vec![(up, 0, true)],
            })
            .collect(),
        internet: LinkConfig::wired(params.origin_bw_bps, params.origin_rtt / 2),
        backhaul: LinkConfig::wired(params.backhaul_bw_bps, SimDuration::from_millis(1)),
        radio: LinkConfig::wireless(params.wireless_bw_bps, SimDuration::from_millis(2), 0.0),
    });
    FleetWorld {
        world,
        up_times,
        verify_content: params.verify_content,
        horizon: SimTime::ZERO + params.horizon,
    }
}

impl FleetWorld {
    /// Runs to completion (or the horizon) and aggregates the fleet's
    /// counters. The run advances in one-second slices — checking a
    /// thousand clients per *event* would dwarf the simulation itself.
    pub fn run(&mut self) -> FleetSummary {
        let slice = SimDuration::from_secs(1);
        let mut next = SimTime::ZERO + slice;
        let mut first_unfinished = 0usize;
        loop {
            let stop = if next < self.horizon {
                next
            } else {
                self.horizon
            };
            self.world.sim.run_until(stop);
            while self
                .clients
                .get(first_unfinished)
                .is_some_and(|&c| client_on(&self.sim, c).is_some_and(SoftStageClient::is_done))
            {
                first_unfinished += 1;
            }
            if first_unfinished == self.clients.len() || stop >= self.horizon {
                break;
            }
            next += slice;
        }
        self.summarize()
    }

    fn summarize(&self) -> FleetSummary {
        let n = self.clients.len();
        let mut digest = Sha1::new();
        let mut durations_us: Vec<u64> = Vec::with_capacity(n);
        let mut completed = 0usize;
        let mut content_ok = true;
        let (mut staged, mut origin_direct, mut rejects) = (0u64, 0u64, 0u64);
        for (i, app) in self.client_apps().enumerate() {
            let stats = app.stats();
            let up = self.up_times[i];
            let dur = match stats.finished {
                Some(f) => {
                    completed += 1;
                    f - up
                }
                None => self.horizon - up,
            };
            durations_us.push(dur.as_micros());
            staged += stats.from_staged;
            origin_direct += stats.from_origin;
            rejects += stats.stage_rejects;
            content_ok &= !self.verify_content || self.content_ok(i);
            for v in [
                u64::from(stats.client_id),
                stats.finished.map_or(u64::MAX, SimTime::as_micros),
                stats.from_staged,
                stats.from_origin,
                stats.stage_rejects,
                stats.stage_requests,
                stats.bytes_fetched,
            ] {
                digest.update(&v.to_le_bytes());
            }
        }
        let (mut edge_hits, mut evictions, mut dropped, mut peak) = (0u64, 0u64, 0u64, 0u64);
        for host in self.edge_hosts() {
            let stats = host.store().stats();
            edge_hits += stats.hits;
            evictions += stats.evictions;
            dropped += stats.evict_log_dropped;
            peak = peak.max(stats.peak_used_bytes);
            for v in [
                stats.hits,
                stats.misses,
                stats.insertions,
                stats.evictions,
                stats.peak_used_bytes,
                stats.evict_log_dropped,
            ] {
                digest.update(&v.to_le_bytes());
            }
        }
        let origin_hits = self
            .sim
            .node::<EndHost>(self.origin)
            .expect("origin node")
            .host()
            .store()
            .stats()
            .hits;
        digest.update(&origin_hits.to_le_bytes());

        let total_chunks = (staged + origin_direct).max(1) as f64;
        durations_us.sort_unstable();
        let pct = |p: usize| durations_us[(n - 1) * p / 100] as f64 / 1e6;
        let hex: String = digest
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        FleetSummary {
            clients: n,
            completed,
            content_ok,
            p50_s: pct(50),
            p99_s: pct(99),
            cache_hit_ratio: edge_hits as f64 / total_chunks,
            origin_offload: 1.0 - origin_hits as f64 / total_chunks,
            stage_rejects: rejects,
            evictions,
            evict_log_dropped: dropped,
            peak_edge_bytes: peak,
            digest: hex,
        }
    }
}

/// The summary of one freshly built and run world for `params`.
pub fn summary(params: &FleetParams) -> FleetSummary {
    build(params).run()
}

/// The sweep grid: fleet sizes × Zipf skews.
const SWEEP_CLIENTS: [usize; 2] = [250, 1000];
const SWEEP_SKEWS: [f64; 2] = [1.2, 0.0];

type Metric = (&'static str, fn(&FleetSummary) -> f64);

/// What each sweep cell publishes, in order: p50 (the cell's own row),
/// then the metric rows read off the staged world of each combo.
const METRICS: [Metric; 6] = [
    ("p50 (s)", |s| s.p50_s),
    ("p99 staged (s)", |s| s.p99_s),
    ("edge cache hit ratio", |s| s.cache_hit_ratio),
    ("origin offload", |s| s.origin_offload),
    ("stage rejects (count)", |s| s.stage_rejects as f64),
    ("completed clients (count)", |s| s.completed as f64),
];

/// Builds the fleet table over `sizes` × `skews`: per combo a staged and
/// a baseline p50 cell (paired worlds), then derived rows — the staged
/// world's other metrics (p99, hit ratio, origin offload, rejects,
/// completions), the edge gain per combo and the client total. One world
/// is simulated per cell; every other row reads what it published.
fn sweep_spec(id: &str, title: &str, sizes: &[usize], skews: &[f64]) -> TableSpec {
    let mut spec = TableSpec::new(id, title, "s / x / ratio / count");
    let combos: Vec<(usize, f64)> = sizes
        .iter()
        .flat_map(|&c| skews.iter().map(move |&z| (c, z)))
        .collect();
    for &(clients, skew) in &combos {
        for staging in [true, false] {
            let which = if staging { "staged" } else { "baseline" };
            spec = spec.cell(
                Cell::new(
                    format!("{which}-c{clients}-z{skew:.1}"),
                    format!("p50 {which}, F={clients} z={skew:.1} (s)"),
                    None,
                    move |seed| {
                        let s = summary(&FleetParams {
                            clients,
                            zipf_skew: skew,
                            staging,
                            seed,
                            ..FleetParams::default()
                        });
                        METRICS.map(|(_, read)| read(&s))
                    },
                )
                .with_seed_key(format!("fleet/c{clients}-z{skew:.1}")),
            );
        }
    }
    // Cells: [2k] staged, [2k+1] baseline per combo k.
    for (k, &(clients, skew)) in combos.iter().enumerate() {
        for (m, (name, _)) in METRICS.iter().enumerate().skip(1) {
            spec = spec.derived(DerivedRow::new(
                format!("{name}, F={clients} z={skew:.1}"),
                None,
                move |v| v.at(2 * k, m),
            ));
        }
    }
    for (k, &(clients, skew)) in combos.iter().enumerate() {
        spec = spec.derived(DerivedRow::new(
            format!("edge gain, F={clients} z={skew:.1} (x)"),
            None,
            move |v| v[2 * k + 1] / v[2 * k],
        ));
    }
    let total: usize = combos.iter().map(|&(c, _)| 2 * c).sum();
    spec.derived(DerivedRow::new(
        "clients simulated (count)",
        None,
        move |_| total as f64,
    ))
}

/// The full fleet sweep: 250 and 1000 clients at strong (1.2) and no
/// (0.0, uniform) skew — the grid where the edge-vs-origin crossover shows.
pub fn spec() -> TableSpec {
    sweep_spec(
        "fleet",
        "Fleet sweep: shared-edge staging vs origin across fleet size x Zipf skew",
        &SWEEP_CLIENTS,
        &SWEEP_SKEWS,
    )
}

/// A ~200-client single-combo smoke of the same pipeline, cheap enough
/// for CI (`scripts/verify.sh`).
pub fn smoke_spec() -> TableSpec {
    sweep_spec(
        "fleet-smoke",
        "Fleet smoke: 200 shared-edge clients, one combo",
        &[200],
        &[0.8],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet small enough for debug-mode unit tests but still multi-
    /// client per edge.
    fn tiny(seed: u64) -> FleetParams {
        FleetParams {
            clients: 24,
            edges: 2,
            catalog_objects: 8,
            chunks_per_object: 2,
            chunk_size: 8 * 1024,
            objects_per_client: 2,
            zipf_skew: 1.0,
            edge_cache_bytes: 64 * 1024,
            arrival_window: SimDuration::from_secs(2),
            horizon: SimDuration::from_secs(120),
            verify_content: true,
            ..FleetParams::default()
        }
        .with_seed(seed)
    }

    #[test]
    fn tiny_fleet_completes_with_intact_content() {
        let s = build(&tiny(42)).run();
        assert_eq!(s.completed, 24, "all clients finish: {s:?}");
        assert!(s.content_ok, "every download verifies: {s:?}");
        assert!(s.p50_s > 0.0 && s.p99_s >= s.p50_s);
        assert!(s.cache_hit_ratio > 0.0, "shared cache never hit: {s:?}");
    }

    #[test]
    fn fleet_verification_compares_against_the_published_manifests() {
        let mut world = build(&tiny(42));
        // Client 3's working set as the catalog published it, in order.
        let honest = world.expected[3];
        let delivered =
            |w: &FleetWorld| w.client_apps().nth(3).expect("24 clients").content_digest();
        assert_ne!(delivered(&world), honest, "nothing delivered yet");
        // A publisher that committed to different content is noticed.
        world.expected[3] = [0; 20];
        let s = world.run();
        assert_eq!(s.completed, 24);
        assert_eq!(delivered(&world), honest, "digests agree after the run");
        assert!(!s.content_ok, "client 3 must fail verification: {s:?}");
    }

    #[test]
    fn same_params_build_byte_identical_worlds() {
        let a = build(&tiny(7)).run();
        let b = build(&tiny(7)).run();
        assert_eq!(a.digest, b.digest, "two fresh same-seed worlds diverged");
        let c = build(&tiny(8)).run();
        assert_ne!(a.digest, c.digest, "digest is insensitive to the seed");
    }

    #[test]
    fn baseline_fleet_never_touches_edge_caches() {
        let s = build(&FleetParams {
            staging: false,
            ..tiny(42)
        })
        .run();
        assert_eq!(s.cache_hit_ratio, 0.0, "no VNF, no edge copies: {s:?}");
        assert!(s.origin_offload <= 0.0, "all chunks come from the origin");
        assert_eq!(s.completed, 24);
    }
}
