//! Overload suite: a saturating staging-request storm against pinched VNF
//! queues. The invariants under test are the overload-protection design's:
//!
//! - the VNF's staging queue never exceeds its configured cap (bounded
//!   backpressure, not silent queueing),
//! - every shed request is *reported* — client-counted rejects match the
//!   VNF's shed counter, and nothing disappears: the download completes
//!   with a byte-correct content hash,
//! - the whole degraded run is deterministic: same seed, byte-identical
//!   digest across two runs,
//! - a long edge outage drives the client's circuit breaker through
//!   open/probe cycles without stalling the download.
//!
//! Every run finishes with a trace-oracle audit, so the new overload
//! events (`StageReject`, `StageTimeout`, `BreakerTransition`) must also
//! satisfy their ordering invariants (no stage request while the breaker
//! is open; every open preceded by a failure signal).

mod common;

use softstage_suite::experiments::overload::{pinched_vnf, storm_client, storm_params};
use softstage_suite::experiments::{build_with_vnf, ExperimentParams, RunResult, Testbed, MB};
use softstage_suite::simnet::fault::{Fault, FaultPlan};
use softstage_suite::simnet::{BreakerState, SimDuration, SimTime};
use softstage_suite::softstage::{Breaker, BreakerConfig, VnfConfig};

use common::{deadline, Recorded};

const SEEDS: [u64; 3] = [7, 101, 9001];

/// Builds the storm testbed with every VNF capped at `max_depth` jobs and
/// no flight recorder.
fn untraced_storm(seed: u64, max_depth: usize) -> Testbed {
    let params = storm_params(seed);
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
    build_with_vnf(&params, &schedule, storm_client(), |_| {
        pinched_vnf(max_depth)
    })
}

/// Runs the storm testbed with the flight recorder attached.
fn run_storm(seed: u64, max_depth: usize) -> (Testbed, RunResult, Recorded) {
    let mut tb = untraced_storm(seed, max_depth);
    let trace = common::record(&mut tb.sim);
    let result = tb.run(deadline());
    (tb, result, trace.take())
}

#[test]
fn storm_stays_within_queue_cap_and_loses_nothing() {
    for seed in SEEDS {
        let cap = 2usize;
        let (tb, result, _) = run_storm(seed, cap);
        assert!(
            result.content_ok,
            "storm run must complete intact (seed {seed}): {result:?}"
        );
        common::assert_trace_clean(&tb, &format!("storm seed {seed}"));

        let vnfs = tb.vnf_stats();
        assert!(!vnfs.is_empty(), "VNFs deployed");
        let mut total_rejected = 0;
        for (i, v) in vnfs.iter().enumerate() {
            assert!(
                v.peak_depth <= cap as u64,
                "VNF {i} queue must stay within its cap (seed {seed}): {v:?}"
            );
            total_rejected += v.rejected;
        }
        // The deep window versus a depth-2 queue must actually shed work…
        assert!(
            total_rejected > 0,
            "a 16-deep storm against cap 2 must reject (seed {seed}): {vnfs:?}"
        );
        // …and every shed is reported: no lost-but-unreported staging.
        // (Replies can still be in flight at completion, so the client may
        // have seen fewer — never more — rejects than the VNFs sent.)
        assert!(
            result.stats.stage_rejects <= total_rejected,
            "client cannot see more rejects than were sent (seed {seed}): \
             client {} vs vnf {total_rejected}",
            result.stats.stage_rejects
        );
        assert!(
            result.stats.stage_rejects > 0,
            "the client must observe the backpressure (seed {seed}): {result:?}"
        );
        // Backpressure sheds load, it does not strand it: once the
        // download completes every staging queue has drained.
        assert!(
            tb.vnf_queue_depths().iter().all(|&d| d == 0),
            "staging queues must drain by completion (seed {seed}): {:?}",
            tb.vnf_queue_depths()
        );
    }
}

#[test]
fn storm_runs_are_byte_identical_per_seed() {
    for seed in SEEDS {
        let (tb_a, res_a, trace_a) = run_storm(seed, 2);
        let (tb_b, res_b, trace_b) = run_storm(seed, 2);
        assert!(res_a.content_ok && res_b.content_ok, "seed {seed}");
        let a = common::digest_of(&tb_a, "storm", &res_a, &trace_a);
        let b = common::digest_of(&tb_b, "storm", &res_b, &trace_b);
        assert_eq!(
            a, b,
            "same-seed storm runs must be byte-identical (seed {seed})"
        );
    }
}

#[test]
fn the_counters_do_not_depend_on_the_recorder() {
    // Client and VNF counters are folds of the records each emits, and
    // the fold runs whether or not a recorder is attached: a storm run
    // with one counts what the same run without one counts. The storm
    // sheds and trips breakers; the slow edge times requests out.
    let (mut rejects, mut timeouts, mut opens) = (0, 0, 0);
    for seed in SEEDS {
        for world in [|seed| untraced_storm(seed, 2), untraced_slow_edge] {
            let mut traced = world(seed);
            traced.sim.enable_trace(|_| {});
            let mut plain = world(seed);
            let stats = traced.run(deadline()).stats;
            assert_eq!(plain.run(deadline()).stats, stats, "seed {seed}");
            assert_eq!(plain.vnf_stats(), traced.vnf_stats(), "seed {seed}");
            rejects += stats.stage_rejects;
            timeouts += stats.stage_timeouts;
            opens += stats.breaker_opens;
        }
    }
    assert!(rejects > 0 && timeouts > 0 && opens > 0);
}

#[test]
fn unpinched_vnf_sees_no_backpressure() {
    // The generous default bounds must keep existing workloads reject-free:
    // overload protection is inert until something is actually overloaded.
    for seed in SEEDS {
        let (tb, result, _) = run_storm(seed, 64);
        assert!(result.content_ok, "seed {seed}: {result:?}");
        common::assert_trace_clean(&tb, &format!("unpinched seed {seed}"));
        assert_eq!(
            result.stats.stage_rejects, 0,
            "no rejects under generous bounds (seed {seed}): {result:?}"
        );
        assert_eq!(
            result.stats.breaker_opens, 0,
            "breaker must stay closed on a healthy edge (seed {seed}): {result:?}"
        );
        assert_eq!(tb.client_app().breaker_state(), BreakerState::Closed);
        assert!(
            result.stats.dwell_active_us > 0,
            "the staging path must dwell Active (seed {seed}): {result:?}"
        );
        // A healthy run feeds both latency estimators (they drive the
        // staged-ahead depth and the RICH-style usefulness deadlines).
        let coord = tb.client_app().coordinator();
        assert!(
            coord.fetch_estimate().is_some() && coord.stage_estimate().is_some(),
            "healthy staging must feed the latency estimators (seed {seed})"
        );
    }
}

#[test]
fn breaker_walks_the_full_state_machine() {
    // The breaker is a pure state machine on the sim clock. Instead of a
    // hand-enumerated walk, `util::check::walk` drives *every* event
    // sequence of bounded depth — failures, successes, early and late polls,
    // probe sends, probe aborts (a probe lost to a coverage gap must free
    // the slot without a verdict), and edge-switch resets — and compares
    // the real breaker against an independently-coded spec of the
    // documented contract at every step.
    use std::cell::Cell;

    #[derive(Clone, Copy, Debug)]
    enum Ev {
        Failure,
        Success,
        Poll,
        PollLate,
        NoteProbeSent,
        AbortProbe,
        Reset,
    }
    const EVENTS: [Ev; 7] = [
        Ev::Failure,
        Ev::Success,
        Ev::Poll,
        Ev::PollLate,
        Ev::NoteProbeSent,
        Ev::AbortProbe,
        Ev::Reset,
    ];
    const DEPTH: usize = 5;
    const THRESHOLD: u32 = 2;

    // The spec: a line-by-line transcription of the breaker's *documented*
    // contract (module docs + method docs), written without looking at
    // the implementation's structure.
    struct Spec {
        state: BreakerState,
        consecutive: u32,
        opened_at: SimTime,
        probe_inflight: bool,
    }
    impl Spec {
        fn can_request(&self) -> bool {
            match self.state {
                BreakerState::Closed => true,
                BreakerState::Open => false,
                BreakerState::HalfOpen => !self.probe_inflight,
            }
        }
        fn goto(&mut self, next: BreakerState) -> Option<BreakerState> {
            if self.state == next {
                return None;
            }
            self.state = next;
            Some(next)
        }
    }

    // Coverage accumulated across all explored sequences: states seen,
    // transitions taken, and the aborted-probe-frees-the-slot path.
    let seen = Cell::new(0u32);
    let mark = |bit: u32| seen.set(seen.get() | 1 << bit);
    const COVERAGE_BITS: u32 = 9;

    let open_for = SimDuration::from_secs(3);

    let sequences = util::check::walk(|w| {
        let mut b = Breaker::new(BreakerConfig {
            threshold: THRESHOLD,
            open_for,
        });
        let mut spec = Spec {
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
            probe_inflight: false,
        };
        let mut now = SimTime::ZERO;
        for step in 0..DEPTH {
            now = now + SimDuration::from_secs(1);
            let ev = EVENTS[w.choice(EVENTS.len())];
            let before = spec.state;
            let (got, want) = match ev {
                Ev::Failure => (
                    b.on_failure(now),
                    match spec.state {
                        BreakerState::HalfOpen => {
                            spec.probe_inflight = false;
                            spec.opened_at = now;
                            spec.goto(BreakerState::Open)
                        }
                        BreakerState::Closed => {
                            spec.consecutive = spec.consecutive.saturating_add(1);
                            if spec.consecutive >= THRESHOLD {
                                spec.opened_at = now;
                                spec.goto(BreakerState::Open)
                            } else {
                                None
                            }
                        }
                        BreakerState::Open => None,
                    },
                ),
                Ev::Success => (b.on_success(), {
                    spec.consecutive = 0;
                    spec.probe_inflight = false;
                    spec.goto(BreakerState::Closed)
                }),
                Ev::Poll | Ev::PollLate => {
                    if matches!(ev, Ev::PollLate) {
                        // Jump the clock to the end of the open window
                        // (monotonically — never backwards).
                        let end = spec.opened_at + open_for;
                        if end > now {
                            now = end;
                        }
                    }
                    (
                        b.poll(now),
                        if spec.state == BreakerState::Open && now >= spec.opened_at + open_for {
                            spec.probe_inflight = false;
                            spec.goto(BreakerState::HalfOpen)
                        } else {
                            None
                        },
                    )
                }
                Ev::NoteProbeSent => (
                    {
                        b.note_probe_sent();
                        None
                    },
                    {
                        if spec.state == BreakerState::HalfOpen {
                            spec.probe_inflight = true;
                        }
                        None
                    },
                ),
                Ev::AbortProbe => {
                    if spec.state == BreakerState::HalfOpen && spec.probe_inflight {
                        mark(8); // an in-flight probe was genuinely aborted
                    }
                    b.abort_probe();
                    spec.probe_inflight = false;
                    (None, None)
                }
                Ev::Reset => (b.reset(), {
                    spec.consecutive = 0;
                    spec.probe_inflight = false;
                    spec.goto(BreakerState::Closed)
                }),
            };
            assert_eq!(got, want, "step {step}: {ev:?} transition diverged");
            assert_eq!(b.state(), spec.state, "step {step}: {ev:?} state");
            assert_eq!(
                b.can_request(),
                spec.can_request(),
                "step {step}: {ev:?} can_request (state {:?}, probe {})",
                spec.state,
                spec.probe_inflight
            );
            assert_eq!(
                b.is_probe(),
                spec.state == BreakerState::HalfOpen,
                "step {step}: {ev:?} is_probe"
            );
            match spec.state {
                BreakerState::Closed => mark(0),
                BreakerState::Open => mark(1),
                BreakerState::HalfOpen => mark(2),
            }
            match (before, spec.state) {
                (BreakerState::Closed, BreakerState::Open) => mark(3),
                (BreakerState::Open, BreakerState::HalfOpen) => mark(4),
                (BreakerState::HalfOpen, BreakerState::Open) => mark(5),
                (BreakerState::HalfOpen, BreakerState::Closed) => mark(6),
                (BreakerState::Open, BreakerState::Closed) => mark(7),
                _ => {}
            }
        }
    });

    assert_eq!(
        sequences,
        (EVENTS.len() as u64).pow(DEPTH as u32),
        "the walk must visit every depth-5 event sequence"
    );
    assert_eq!(
        seen.get(),
        (1 << COVERAGE_BITS) - 1,
        "every state, every transition and the probe-abort path must be \
         covered, got bitmap {:#b}",
        seen.get()
    );
}

/// A storm-sized client on default VNFs whose replies are all held back
/// 30 s from 0.5 s to 10.5 s, with no flight recorder.
fn untraced_slow_edge(seed: u64) -> Testbed {
    let params = ExperimentParams {
        file_size: 24 * MB,
        chunk_size: MB,
        seed,
        ..ExperimentParams::default()
    };
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
    let mut tb = build_with_vnf(&params, &schedule, storm_client(), |_| VnfConfig::default());
    let mut plan = FaultPlan::new();
    for &edge in &tb.edges.clone() {
        plan.push(Fault::SlowEdge {
            node: edge,
            at: SimTime::ZERO + SimDuration::from_millis(500),
            lasting: SimDuration::from_secs(10),
            delay: SimDuration::from_secs(30),
        });
    }
    plan.apply(&mut tb.sim);
    tb
}

#[test]
fn slow_edge_trips_breaker_and_download_survives() {
    // A `SlowEdge` fault stalls every VNF's replies for 10 s (each held
    // 30 s, far past the staging back-off) while the radio stays up. The
    // onset at 0.5 s lands before the storm's first origin fetches
    // complete, so every staging ack is held: the pending requests all
    // time out while associated, the breaker must open — health-aware
    // failover to origin fetches — and the download must keep moving.
    // When the fault lifts, the held replies flush, the breaker heals
    // shut, and staging resumes. The download is twice the storm size so
    // the run outlives the fault window with room for the recovery.
    for seed in SEEDS {
        let mut tb = untraced_slow_edge(seed);
        tb.sim.enable_trace(|_| {});
        let result = tb.run(deadline());
        assert!(
            result.content_ok,
            "slow-edge run must complete intact (seed {seed}): {result:?}"
        );
        common::assert_trace_clean(&tb, &format!("slow-edge seed {seed}"));
        assert!(
            result.stats.breaker_opens > 0,
            "repeated staging timeouts must trip the breaker (seed {seed}): {result:?}"
        );
        let app = tb.client_app();
        assert!(
            app.stats().stage_timeouts > 0,
            "timeouts are the breaker's evidence (seed {seed}): {:?}",
            app.stats()
        );
        // The fault lifts 10.5 s in, long before the download can finish
        // over the origin path; the flushed replies and resumed staging
        // must heal the breaker shut by completion.
        assert_eq!(
            app.breaker_state(),
            BreakerState::Closed,
            "breaker must heal once the edge recovers (seed {seed})"
        );
    }
}
