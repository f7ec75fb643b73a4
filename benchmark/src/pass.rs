//! One pass of one workload: build, run and read out every world of the
//! workload in this process, single-threaded, through the same public
//! entry points `reproduce` uses. A pass is what a child process does;
//! the parent ([`crate::report`]) combines passes into metrics.
//!
//! A pass splits its readings in two. `host` holds what depends on the
//! machine (times, memory, allocator traffic) and is summarised by its
//! median over passes; `sim` holds what is an exact function of the seed
//! (simulated times, ratios, every layer's counts) and must repeat
//! bit-identically — a difference there is a failure, not noise.

use std::collections::BTreeMap;
use std::time::Instant;

use simnet::{NodeId, SimDuration, SimTime, Simulator};
use softstage::{SoftStageClient, StagingVnf};
use softstage_bench::alloc_counter;
use softstage_experiments::fleet::{self, FleetWorld};
use softstage_experiments::testbed::{self, Testbed};
use util::json::{Json, JsonError};
use xia_host::EndHost;
use xia_router::RouterNode;
use xia_wire::{XiaPacket, MSS};

use crate::host::{peak_rss_mb, HostUsage};
use crate::kernels::{self, KernelParams};
use crate::spans::{Span, Tracer};
use crate::workloads::{self, Arm, WorldSpec};

/// Named readings, in a fixed order.
pub type Metrics = Vec<(String, f64)>;

/// Everything one pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the worlds were derived from.
    pub seed: u64,
    /// Whether spans were recorded and kernels run.
    pub traced: bool,
    /// Client downloads attempted, both arms.
    pub attempted: u64,
    /// Downloads unfinished at the horizon or failing the content hash.
    pub failed: u64,
    /// Per world, in order: the fleet digest, or the delivered content's
    /// SHA-1 — the byte-identity witnesses compared across passes.
    pub digests: Vec<String>,
    /// Host-dependent readings (median over passes).
    pub host: Metrics,
    /// Seed-determined readings (identical over passes).
    pub sim: Metrics,
    /// Kernel timings (traced passes only).
    pub kernels: Metrics,
    /// Recorded spans (traced passes only).
    pub spans: Vec<Span>,
}

/// Counts read from the layers' public stats, summed (or maxed) over the
/// worlds of one arm. Reading a name that was never collected is a bug in
/// this file, so it panics instead of reporting 0.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, key: &'static str, v: u64) {
        *self.0.entry(key).or_insert(0) += v;
    }

    fn max(&mut self, key: &'static str, v: u64) {
        let e = self.0.entry(key).or_insert(0);
        *e = (*e).max(v);
    }

    fn get(&self, key: &str) -> u64 {
        *self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("count `{key}` was never collected"))
    }
}

/// Counts kept as a maximum over worlds and arms instead of a sum.
const PEAKS: [&str; 2] = ["xcache.peak_edge_bytes", "softstage.vnf.peak_depth"];

/// What one arm's worlds added up to.
#[derive(Default)]
struct ArmTotals {
    build_s: f64,
    run_s: f64,
    sim_s: f64,
    heap_ops: u64,
    p50_samples: Vec<f64>,
    p99_samples: Vec<f64>,
    attempted: u64,
    verified: u64,
    counts: Counts,
}

enum Built {
    Fleet(FleetWorld),
    Drive(Testbed),
}

/// The simulated outcome of one world.
struct Outcome {
    p50_s: f64,
    p99_s: f64,
    attempted: u64,
    verified: u64,
    digest: String,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn client_app(sim: &Simulator<XiaPacket>, node: NodeId) -> Option<&SoftStageClient> {
    sim.node::<EndHost>(node)?.host().app::<SoftStageClient>(0)
}

impl Built {
    fn build(spec: &WorldSpec) -> Built {
        match spec {
            WorldSpec::Fleet(p) => Built::Fleet(fleet::build(p)),
            WorldSpec::Drive {
                params,
                schedule,
                config,
                ..
            } => Built::Drive(testbed::build(params, schedule, config.clone())),
        }
    }

    fn sim(&self) -> &Simulator<XiaPacket> {
        match self {
            Built::Fleet(w) => &w.sim,
            Built::Drive(t) => &t.sim,
        }
    }

    /// The timed run: exactly the call `reproduce` makes.
    fn run(&mut self, spec: &WorldSpec) -> Outcome {
        match self {
            Built::Fleet(w) => {
                let s = w.run();
                Outcome {
                    p50_s: s.p50_s,
                    p99_s: s.p99_s,
                    attempted: s.clients as u64,
                    // `content_ok` covers the whole fleet: without it no
                    // download of this world counts as verified.
                    verified: if s.content_ok { s.completed as u64 } else { 0 },
                    digest: s.digest,
                }
            }
            Built::Drive(t) => {
                let horizon = spec.horizon();
                let r = t.run(horizon);
                let secs = r.completion.unwrap_or(horizon).as_secs_f64();
                Outcome {
                    p50_s: secs,
                    p99_s: secs,
                    attempted: 1,
                    verified: u64::from(r.content_ok),
                    digest: hex(&t.client_app().content_digest()),
                }
            }
        }
    }

    /// The traced run: the same simulation advanced one simulated second
    /// per child span, with the `SimStats` deltas attached, stopping where
    /// the timed run stops so every count matches it. Pushes each slice's
    /// host ns per event onto `slice_ns`.
    fn run_sliced(&mut self, spec: &WorldSpec, tracer: &mut Tracer, slice_ns: &mut Vec<f64>) {
        let horizon = spec.horizon();
        let mut next = SimTime::ZERO;
        loop {
            next = (next + SimDuration::from_secs(1)).min(horizon);
            let read = |s: &simnet::SimStats| [s.events, s.timers, s.packets];
            let before = read(self.sim().stats());
            let t = Instant::now();
            let done = tracer.span("slice", |tracer| {
                let done = match self {
                    // FleetWorld::run advances in whole seconds and checks
                    // completion between them; so does this.
                    Built::Fleet(w) => {
                        w.sim.run_until(next);
                        w.clients
                            .iter()
                            .all(|&c| client_app(&w.sim, c).is_some_and(SoftStageClient::is_done))
                    }
                    // Testbed::run stops at the completing event.
                    Built::Drive(t) => {
                        let client = t.client;
                        t.sim.run_while(next, |sim| {
                            client_app(sim, client).is_some_and(SoftStageClient::is_done)
                        })
                    }
                };
                let after = read(self.sim().stats());
                for (name, (a, b)) in ["events", "timers", "packets"]
                    .iter()
                    .zip(after.iter().zip(before))
                {
                    tracer.count(name, a - b);
                }
                done
            });
            let events = self.sim().stats().events - before[0];
            // A near-empty slice (a coverage gap) times the loop, not the
            // simulator; leave it out of the per-event figures.
            if events >= 1000 {
                slice_ns.push(t.elapsed().as_nanos() as f64 / events as f64);
            }
            if done || next >= horizon {
                break;
            }
        }
    }

    /// Reads every layer's public stats into `c`.
    fn collect(&self, c: &mut Counts) {
        let sim = self.sim();
        let (edges, origin) = match self {
            Built::Fleet(w) => (&w.edges, w.origin),
            Built::Drive(t) => (&t.edges, t.server),
        };
        let s = sim.stats();
        c.add("simnet.events", s.events);
        c.add("simnet.timers", s.timers);
        c.add("simnet.packets", s.packets);
        for l in &s.links {
            c.add("simnet.link.offered", l.offered);
            c.add("simnet.link.delivered", l.delivered);
            c.add("simnet.link.lost", l.lost);
            c.add("simnet.link.dropped_queue", l.dropped_queue);
            c.add("simnet.link.attempts", l.attempts);
            c.add("simnet.link.bytes_delivered", l.bytes_delivered);
        }
        for i in 0..sim.node_count() {
            let id = NodeId::from_index(i);
            if let Some(router) = sim.node::<RouterNode>(id) {
                let r = router.stats();
                c.add("xia-router.forwarded", r.forwarded);
                c.add("xia-router.cid_intercepts", r.cid_intercepts);
                c.add("xia-router.dropped_no_route", r.dropped_no_route);
                c.add(
                    "xia-router.lookups",
                    r.forwarded + r.delivered_local + r.cid_intercepts + r.dropped_no_route,
                );
                let st = router.host().store().stats();
                c.add("xcache.lookups", st.hits + st.misses);
            } else if let Some(app) = client_app(sim, id) {
                let st = app.stats();
                c.add("softstage.stage_requests", st.stage_requests);
                c.add("softstage.stage_retries", st.stage_retries);
                c.add("softstage.fetch_retries", st.fetch_retries);
                c.add("softstage.stage_rejects", st.stage_rejects);
                c.add("softstage.stage_timeouts", st.stage_timeouts);
                c.add("softstage.breaker_opens", st.breaker_opens);
                c.add("softstage.from_staged", st.from_staged);
                c.add("softstage.from_origin", st.from_origin);
                c.add("client.bytes_fetched", st.bytes_fetched);
                c.add("vehicular.handoffs", app.roamer.handoffs);
                c.add("vehicular.migrations", app.roamer.migrations);
            }
        }
        for &edge in edges {
            let host = sim.node::<RouterNode>(edge).expect("edge router").host();
            let st = host.store().stats();
            c.add("xcache.edge_hits", st.hits);
            c.add("xcache.edge_misses", st.misses);
            c.add("xcache.insertions", st.insertions);
            c.add("xcache.evictions", st.evictions);
            c.add("xcache.evict_log_dropped", st.evict_log_dropped);
            c.max("xcache.peak_edge_bytes", st.peak_used_bytes);
            // Baseline fleets deploy no VNF; app 0 is then the beacon.
            let vnf = host.app::<StagingVnf>(0).map(StagingVnf::stats);
            let vnf = vnf.unwrap_or_default();
            c.add("softstage.vnf.staged", vnf.staged);
            c.add("softstage.vnf.already_cached", vnf.already_cached);
            c.add("softstage.vnf.rejected", vnf.rejected);
            c.add("vnf.bytes_staged", vnf.bytes_staged);
            c.max("softstage.vnf.peak_depth", vnf.peak_depth);
        }
        let origin_store = sim
            .node::<EndHost>(origin)
            .expect("origin host")
            .host()
            .store();
        c.add("origin.hits", origin_store.stats().hits);
        c.add(
            "xcache.lookups",
            origin_store.stats().hits + origin_store.stats().misses,
        );
    }
}

/// Bytes per MB, as everywhere in this repository (`experiments::MB`).
const MIB: f64 = 1024.0 * 1024.0;

/// Nearest-rank percentile, the rule `FleetSummary` uses for its own.
fn percentile(samples: &mut [f64], p: usize) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n => samples[(n - 1) * p / 100],
    }
}

/// The median of a few worlds' samples: the mean of the middle two for an
/// even count, which varies less from seed to seed than either of them.
fn median(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    (percentile(samples, 50) + samples[n / 2]) / 2.0
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs one pass of `workload` at `seed`.
///
/// # Errors
///
/// Fails when `workload` is not a workload name.
pub fn run_pass(
    workload: &str,
    seed: u64,
    quick: bool,
    traced: bool,
) -> Result<PassResult, String> {
    let worlds = workloads::worlds(workload, seed, quick)?;
    Ok(run_worlds(workload, seed, &worlds, traced))
}

/// Builds, runs and reads out `worlds` (pairs adjacent, SoftStage arm
/// first), labelling the result `workload`. [`run_pass`] is this over a
/// named workload's worlds; tests pass their own, smaller ones.
///
/// # Panics
///
/// Panics when `worlds` is empty.
pub fn run_worlds(
    workload: &str,
    seed: u64,
    worlds: &[(Arm, WorldSpec)],
    traced: bool,
) -> PassResult {
    let mut tracer = Tracer::new(traced);
    let mut arms = [ArmTotals::default(), ArmTotals::default()];
    let mut digests = Vec::with_capacity(worlds.len());
    let mut slice_ns: Vec<f64> = Vec::new();
    let mut published_bytes = 0usize;
    let mut nodes = 0usize;

    tracer.span("workload", |tracer| {
        for (arm, spec) in worlds {
            let totals = &mut arms[arm.idx()];
            tracer.span(&format!("arm.{}", arm.label()), |tracer| {
                let t = Instant::now();
                let mut world = tracer.span("build", |_| Built::build(spec));
                totals.build_s += t.elapsed().as_secs_f64();
                published_bytes += spec.published_bytes();
                nodes = nodes.max(world.sim().node_count());

                let heap_before = alloc_counter::snapshot();
                let t = Instant::now();
                let outcome = tracer.span("run", |tracer| {
                    if tracer.is_on() {
                        world.run_sliced(spec, tracer, &mut slice_ns);
                    }
                    // After a sliced run this only reads the result out.
                    world.run(spec)
                });
                totals.run_s += t.elapsed().as_secs_f64();
                totals.heap_ops += alloc_counter::snapshot().since(heap_before).heap_ops();

                tracer.span("collect", |_| world.collect(&mut totals.counts));
                totals.sim_s += world.sim().now().as_secs_f64();
                totals.p50_samples.push(outcome.p50_s);
                totals.p99_samples.push(outcome.p99_s);
                totals.attempted += outcome.attempted;
                totals.verified += outcome.verified;
                digests.push(outcome.digest);
            });
        }
    });

    let sim_p50_s = median(&mut arms[0].p50_samples);
    let sim_p99_s = percentile(&mut arms[0].p99_samples, 99);
    let baseline_p50_s = median(&mut arms[1].p50_samples);
    let [staged, baseline] = &arms;
    let both = |key: &str| {
        let (s, b) = (staged.counts.get(key), baseline.counts.get(key));
        if PEAKS.contains(&key) {
            s.max(b)
        } else {
            s + b
        }
    };

    // --- seed-determined readings ---
    let attempted = staged.attempted + baseline.attempted;
    let verified = staged.verified + baseline.verified;
    let failed = attempted - verified;
    let delivered_staged_arm =
        staged.counts.get("softstage.from_staged") + staged.counts.get("softstage.from_origin");
    let chunks = both("softstage.from_staged") + both("softstage.from_origin");
    let transport_bytes = both("client.bytes_fetched") + both("vnf.bytes_staged");
    // Every fetched chunk is hashed once by its fetcher (the CID check)
    // and every client chunk once more into the running content digest.
    let hashed_bytes = transport_bytes + both("client.bytes_fetched");

    let mut sim: Metrics = vec![
        ("sim_p50_s".into(), sim_p50_s),
        ("sim_p99_s".into(), sim_p99_s),
        ("staging_gain".into(), baseline_p50_s / sim_p50_s),
        (
            "origin_offload".into(),
            1.0 - ratio(staged.counts.get("origin.hits"), delivered_staged_arm),
        ),
        ("fail_ratio".into(), ratio(failed, attempted)),
        (
            "simnet.events_per_chunk".into(),
            ratio(both("simnet.events"), chunks),
        ),
        (
            "simnet.timer_share".into(),
            ratio(both("simnet.timers"), both("simnet.events")),
        ),
        (
            "simnet.link.attempts_per_delivered".into(),
            ratio(both("simnet.link.attempts"), both("simnet.link.delivered")),
        ),
        (
            "xia-transport.segments".into(),
            (transport_bytes / MSS as u64) as f64,
        ),
        ("xia-addr.sha1.run_mb".into(), hashed_bytes as f64 / MIB),
        ("xia-host.published_mb".into(), published_bytes as f64 / MIB),
        (
            "xcache.edge_hit_ratio".into(),
            ratio(both("xcache.edge_hits"), delivered_staged_arm),
        ),
        (
            "xcache.evictions_per_insert".into(),
            ratio(both("xcache.evictions"), both("xcache.insertions")),
        ),
        (
            "xia-router.forwarded_per_chunk".into(),
            ratio(both("xia-router.forwarded"), chunks),
        ),
        (
            "softstage.staged_fetch_ratio".into(),
            ratio(
                staged.counts.get("softstage.from_staged"),
                delivered_staged_arm,
            ),
        ),
        (
            // Staged, then evicted before its client fetched it.
            "softstage.wasted_stage_ratio".into(),
            1.0 - ratio(both("softstage.from_staged"), both("softstage.vnf.staged")),
        ),
    ];
    // Every collected count, the internal ones too: they are exact, so
    // they take part in the pass-to-pass identity check.
    for &key in staged.counts.0.keys() {
        sim.push((key.to_owned(), both(key) as f64));
    }

    // --- host-dependent readings ---
    let usage = HostUsage::now();
    let setup_s = staged.build_s + baseline.build_s;
    let wall_s = staged.run_s + baseline.run_s;
    let ns_per_event =
        |arm: &ArmTotals| arm.run_s * 1e9 / arm.counts.get("simnet.events").max(1) as f64;
    let mut host: Metrics = vec![
        ("setup_s".into(), setup_s),
        ("wall_s".into(), wall_s),
        ("clients_per_s".into(), verified as f64 / wall_s),
        ("peak_rss_mb".into(), peak_rss_mb()),
        ("host.user_s".into(), usage.user_s),
        ("host.sys_s".into(), usage.sys_s),
        ("host.minor_faults".into(), usage.minor_faults as f64),
        ("host.runq_wait_ratio".into(), usage.runq_wait_ratio()),
        (
            "simnet.run_ns_per_event.staged".into(),
            ns_per_event(staged),
        ),
        (
            "simnet.run_ns_per_event.baseline".into(),
            ns_per_event(baseline),
        ),
        (
            "simnet.allocs_per_event".into(),
            ratio(staged.heap_ops + baseline.heap_ops, both("simnet.events")),
        ),
    ];

    let mut kernel_metrics = Metrics::new();
    if traced {
        host.push((
            "simnet.slice_ns_per_event.p50".into(),
            percentile(&mut slice_ns, 50),
        ));
        host.push((
            "simnet.slice_ns_per_event.max".into(),
            percentile(&mut slice_ns, 100),
        ));
        let sim_s = staged.sim_s + baseline.sim_s;
        let params = KernelParams {
            chunk_size: worlds[0].1.chunk_size(),
            // The kernel's timers fire after 0.5 s on average, so half the
            // run's fires per simulated second is the standing population
            // that fires at the run's rate.
            timer_population: (both("simnet.timers") as f64 / sim_s / 2.0).clamp(16.0, 65536.0)
                as u32,
            packet_bytes: ratio(
                both("simnet.link.bytes_delivered"),
                both("simnet.link.delivered"),
            ) as usize,
            residual_loss: ratio(
                both("simnet.link.lost") + both("simnet.link.dropped_queue"),
                both("simnet.link.offered"),
            ),
            routes: nodes,
        };
        kernel_metrics = kernels::run_all(&mut tracer, params);
    }

    PassResult {
        workload: workload.to_owned(),
        seed,
        traced,
        attempted,
        failed,
        digests,
        host,
        sim,
        kernels: kernel_metrics,
        spans: tracer.into_spans(),
    }
}

fn metrics_to_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)))
            .collect(),
    )
}

fn metrics_from_json(v: &Json) -> Result<Metrics, JsonError> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, x)| {
                x.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| JsonError::new(format!("metric `{k}` is not a number")))
            })
            .collect(),
        _ => Err(JsonError::new("metrics is not an object")),
    }
}

impl PassResult {
    /// The pass as the one JSON object a child process prints.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "digests".into(),
                Json::Arr(self.digests.iter().cloned().map(Json::Str).collect()),
            ),
            ("host".into(), metrics_to_json(&self.host)),
            ("sim".into(), metrics_to_json(&self.sim)),
            ("kernels".into(), metrics_to_json(&self.kernels)),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| s.to_json(&self.workload))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses what [`PassResult::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Fails on a missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<PassResult, JsonError> {
        let text = |key: &str| {
            v.field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| JsonError::new(format!("`{key}` is not a string")))
        };
        let int = |key: &str| {
            v.field(key)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("`{key}` is not an integer")))
        };
        let arr = |key: &str| {
            v.field(key)?
                .as_arr()
                .ok_or_else(|| JsonError::new(format!("`{key}` is not an array")))
        };
        Ok(PassResult {
            workload: text("workload")?,
            // A u64 seed can exceed JSON's exact integer range; it travels
            // as a string.
            seed: text("seed")?
                .parse()
                .map_err(|_| JsonError::new("`seed` is not a u64"))?,
            traced: v
                .field("traced")?
                .as_bool()
                .ok_or_else(|| JsonError::new("`traced` is not a boolean"))?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            digests: arr("digests")?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| JsonError::new("digest is not a string"))
                })
                .collect::<Result<_, _>>()?,
            host: metrics_from_json(v.field("host")?)?,
            sim: metrics_from_json(v.field("sim")?)?,
            kernels: metrics_from_json(v.field("kernels")?)?,
            spans: arr("spans")?
                .iter()
                .map(Span::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}
