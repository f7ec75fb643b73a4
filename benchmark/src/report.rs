//! The parent's side: run passes in fresh child processes, check that
//! what must repeat exactly does, and turn passes into the end-to-end and
//! per-layer metrics of [`crate::registry`].

use std::process::{Command, Stdio};

use util::json::Json;

use crate::pass::{Metrics, PassResult};
use crate::registry::{Better, END_TO_END, PER_LAYER};
use crate::spans::Span;

/// A pass whose process waited for a CPU this much of the time it ran had
/// company on the host; it is kept, and listed as disturbed.
const DISTURBED_RUNQ_WAIT_RATIO: f64 = 0.05;

/// Memory touched and released before every pass (see [`back_memory`]):
/// twice the largest workload's peak resident set.
const BACKED_BYTES: usize = 1 << 30;

/// Touches [`BACKED_BYTES`] of fresh memory and frees it again, so the
/// pages the next child faults in are ones the host has already backed.
///
/// On a freshly booted VM the first touch of a guest page the hypervisor
/// has never backed costs ~30 µs instead of ~1 µs; a pass that happens to
/// be handed such pages spends seconds more in the kernel than the next
/// one (`wardrive_replay`: `host.sys_s` 1.2–4.8 s at identical
/// `host.minor_faults`, `wall_s` 7.1–10.7 s). That is the host's start-up
/// cost, not the simulator's, so it is paid here, outside every timed
/// phase and outside the child whose `peak_rss_mb` is read.
fn back_memory() {
    let mut block = vec![0u8; BACKED_BYTES];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// Runs one pass of `workload` in a fresh child process of this binary, so
/// `peak_rss_mb` and the allocator's state start clean.
///
/// # Errors
///
/// Fails when the child cannot be started, exits non-zero, or prints
/// something other than a pass as its last line.
pub fn spawn_pass(
    workload: &str,
    seed: u64,
    quick: bool,
    traced: bool,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // A quick pass is a smoke test, not a measurement.
    if !quick {
        back_memory();
    }
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("child pass of {workload} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .and_then(|v| PassResult::from_json(&v))
        .map_err(|e| format!("child pass of {workload} printed no result: {e}"))
}

/// Median, range and sample count of one metric over the timed passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Samples.
    pub n: usize,
}

impl Stat {
    /// `samples` holds one value per timed pass, so it is never empty.
    fn of(mut samples: Vec<f64>) -> Stat {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Stat {
            median: (samples[(n - 1) / 2] + samples[n / 2]) / 2.0,
            min: samples[0],
            max: samples[n - 1],
            n,
        }
    }
}

/// What `other` reports differently from `first` among the readings the
/// seed determines; empty when they agree bit for bit.
fn differences(which: &str, first: &PassResult, digests: &[String], sim: &Metrics) -> Vec<String> {
    let mut out = Vec::new();
    if digests != first.digests {
        out.push(format!("{which}: world digests differ"));
    }
    for ((name, a), (_, b)) in first.sim.iter().zip(sim) {
        if a.to_bits() != b.to_bits() {
            out.push(format!("{which}: {name} = {b:?}, expected {a:?}"));
        }
    }
    out
}

/// `{"value": .., "unit": .., <extra>}` — how a metric is written in the
/// contract line and in `results.json`.
fn metric_json(value: f64, unit: &str, extra: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("value".to_owned(), Json::Float(value)),
        ("unit".to_owned(), Json::Str(unit.to_owned())),
    ];
    fields.extend(extra);
    Json::Obj(fields)
}

fn lookup(m: &Metrics, name: &str) -> Option<f64> {
    m.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
}

/// One workload's metrics over its timed passes and (optional) traced pass.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Downloads attempted in one pass, both arms.
    pub attempted: u64,
    /// Downloads that did not finish and verify, in one pass.
    pub failed: u64,
    /// What did not repeat exactly between passes (empty = deterministic).
    pub mismatches: Vec<String>,
    /// Indices of timed passes that ran on a busy host.
    pub disturbed: Vec<usize>,
    /// Every end-to-end metric, in registry order.
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Every per-layer metric, in registry order (empty without a traced
    /// pass).
    pub per_layer: Vec<(&'static str, f64)>,
    /// The traced pass's spans.
    pub spans: Vec<Span>,
    /// The first pass, whose seed-determined readings stand for all.
    first: PassResult,
}

impl WorkloadReport {
    /// Outputs are correct: every download finished and verified, and
    /// every pass agreed on everything the seed determines.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Combines the passes of one workload.
    ///
    /// # Panics
    ///
    /// Panics when `timed` is empty, or when a registry metric is missing
    /// from the passes — the registry and [`crate::pass`] disagreeing is a
    /// bug in the benchmark.
    pub fn new(timed: &[PassResult], traced: Option<&PassResult>) -> WorkloadReport {
        let first = &timed[0];
        let mut mismatches = Vec::new();
        for (i, other) in timed.iter().chain(traced).enumerate().skip(1) {
            let which = if i < timed.len() {
                format!("timed pass {i}")
            } else {
                "traced pass".into()
            };
            mismatches.extend(differences(&which, first, &other.digests, &other.sim));
        }
        let disturbed = (0..timed.len())
            .filter(|&i| {
                lookup(&timed[i].host, "host.runq_wait_ratio")
                    .is_some_and(|r| r > DISTURBED_RUNQ_WAIT_RATIO)
            })
            .collect();

        let host_stat = |name: &str| {
            let samples: Option<Vec<f64>> = timed.iter().map(|p| lookup(&p.host, name)).collect();
            samples.map(Stat::of)
        };
        let exact = |name: &str| {
            lookup(&first.sim, name).map(|v| Stat {
                median: v,
                min: v,
                max: v,
                n: timed.len(),
            })
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|&(name, ..)| {
                let stat = host_stat(name)
                    .or_else(|| exact(name))
                    .unwrap_or_else(|| panic!("no pass reports end-to-end metric `{name}`"));
                (name, stat)
            })
            .collect();

        let per_layer = traced.map_or_else(Vec::new, |traced| {
            let mut all: Metrics = first.sim.clone();
            for (name, _) in &first.host {
                all.push((name.clone(), host_stat(name).expect("host metric").median));
            }
            // Slice timings exist only in the traced pass.
            all.extend(
                traced
                    .host
                    .iter()
                    .filter(|(k, _)| k.contains(".slice_"))
                    .cloned(),
            );
            all.extend(traced.kernels.iter().cloned());
            all.extend(shares(
                &all,
                lookup(&traced.host, "wall_s").expect("traced wall_s"),
            ));
            PER_LAYER
                .iter()
                .map(|&(name, ..)| {
                    let v = lookup(&all, name)
                        .unwrap_or_else(|| panic!("no pass reports per-layer metric `{name}`"));
                    (name, v)
                })
                .collect()
        });

        WorkloadReport {
            workload: first.workload.clone(),
            attempted: first.attempted,
            failed: first.failed,
            mismatches,
            disturbed,
            end_to_end,
            per_layer,
            spans: traced.map_or_else(Vec::new, |t| t.spans.clone()),
            first: first.clone(),
        }
    }

    /// What `other` — the same workload at the same seed, run again —
    /// reports differently among the readings the seed determines.
    pub fn differences(&self, other: &WorkloadReport) -> Vec<String> {
        differences(
            "second set",
            &self.first,
            &other.first.digests,
            &other.first.sim,
        )
    }

    /// The one-line result the benchmark contract asks for: the end-to-end
    /// metrics, or with `per_layer` the per-layer ones.
    pub fn contract_line(&self, per_layer: bool) -> String {
        let metrics = if per_layer {
            self.per_layer_json()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(&(name, unit, ..), (_, s))| {
                    (name.to_owned(), metric_json(s.median, unit, Vec::new()))
                })
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }

    fn per_layer_json(&self) -> Vec<(String, Json)> {
        PER_LAYER
            .iter()
            .zip(&self.per_layer)
            .map(|(&(name, unit, _), &(_, v))| (name.to_owned(), metric_json(v, unit, Vec::new())))
            .collect()
    }

    /// The workload's entry in `results.json`.
    pub fn to_json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(&(name, unit, ..), (_, s))| {
                let spread = vec![
                    ("min".to_owned(), Json::Float(s.min)),
                    ("max".to_owned(), Json::Float(s.max)),
                    ("n".to_owned(), Json::Int(s.n as i64)),
                ];
                (name.to_owned(), metric_json(s.median, unit, spread))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "mismatches".into(),
                Json::Arr(self.mismatches.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "disturbed_reps".into(),
                Json::Arr(
                    self.disturbed
                        .iter()
                        .map(|&i| Json::Int(i as i64))
                        .collect(),
                ),
            ),
            ("end_to_end".into(), Json::Obj(end_to_end)),
            ("per_layer".into(), Json::Obj(self.per_layer_json())),
        ])
    }

    /// Every metric by name with its unit, for a terminal.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: attempted {} failed {} correct {}\n",
            self.workload,
            self.attempted,
            self.failed,
            self.correct()
        );
        for m in &self.mismatches {
            out.push_str(&format!("   MISMATCH {m}\n"));
        }
        if !self.disturbed.is_empty() {
            out.push_str(&format!(
                "   disturbed reps (host.runq_wait_ratio > {DISTURBED_RUNQ_WAIT_RATIO}): {:?}\n",
                self.disturbed
            ));
        }
        for (&(name, unit, ..), (_, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            out.push_str(&format!(
                "   {name:<42} {:>16.6} {unit:<6} min {:.6} max {:.6} n {}\n",
                s.median, s.min, s.max, s.n
            ));
        }
        for (&(name, unit, _), &(_, v)) in PER_LAYER.iter().zip(&self.per_layer) {
            out.push_str(&format!("   {name:<42} {v:>16.6} {unit}\n"));
        }
        out
    }
}

/// Each layer's estimated share of the run — its count × its kernel's ns ÷
/// the timed `wall_s` — and what they leave unattributed. The shares are
/// estimates from outside: a kernel times the layer alone, warm, while in
/// the run the layers interleave; the gap is what in-program tracing has
/// to explain.
fn shares(all: &Metrics, traced_wall_s: f64) -> Metrics {
    let g = |name: &str| lookup(all, name).unwrap_or_else(|| panic!("shares: no `{name}`"));
    let wall_ns = g("wall_s") * 1e9;
    let timer_share = g("simnet.timer_share");
    let per_event = timer_share * g("simnet.sched.ns_per_event_timers")
        + (1.0 - timer_share) * g("simnet.sched.ns_per_event_pingpong");
    let run_shares = [
        ("simnet.est_share", g("simnet.events") * per_event),
        (
            "xia-transport.est_share",
            g("xia-transport.segments") * g("xia-transport.ns_per_segment"),
        ),
        (
            "xia-addr.est_share",
            g("xia-addr.sha1.run_mb") * g("xia-addr.sha1.ns_per_mb"),
        ),
        (
            "xcache.est_share",
            g("xcache.lookups") * g("xcache.store.ns_per_get_hit")
                + g("xcache.insertions") * g("xcache.store.ns_per_insert_evict"),
        ),
        (
            "xia-router.est_share",
            g("xia-router.lookups") * g("xia-router.lookup.ns_per_op"),
        ),
    ];
    let mut out: Metrics = run_shares
        .iter()
        .map(|&(name, ns)| (name.to_owned(), ns / wall_ns))
        .collect();
    let attributed: f64 = out.iter().map(|(_, v)| v).sum();
    out.push(("unattributed_share".into(), 1.0 - attributed));
    out.push((
        "xia-host.est_setup_share".into(),
        g("xia-host.published_mb") * g("xia-host.publish.ns_per_mb") / (g("setup_s") * 1e9),
    ));
    out.push(("trace_overhead_ratio".into(), traced_wall_s * 1e9 / wall_ns));
    out
}

/// Relative difference `b` vs `a` in the direction that is worse for the
/// metric (positive = `b` is worse).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let d = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}
