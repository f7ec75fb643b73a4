//! Engine tests: detection power (known-bad fixtures must be flagged),
//! exhaustive byte-identity of known-good structures, and the DFS
//! machinery itself (choice coverage, preemption bounding, deadlock
//! detection, trace dumps).

use std::collections::BTreeMap;

use ssmc::sync::{scope, AtomicUsize, Mutex, Ordering, RaceCell};
use ssmc::{choice, explore, Config, Failure};

fn quiet(name: &str) -> Config {
    let mut cfg = Config::new(name);
    // Tests assert on the returned Failure; never write trace files
    // into the environment-configured CI directory.
    cfg.trace_dir = Some(std::env::temp_dir().join("ssmc-test-traces"));
    cfg
}

/// The PR-9-style plain-map memo: check-then-insert on a shared map
/// with no synchronization. The detector must flag it as a data race
/// and report both racing source paths.
#[test]
fn plain_map_memo_races_and_reports_both_sites() {
    let result = explore(quiet("plain-map-memo"), || {
        let memo: RaceCell<BTreeMap<String, u64>> = RaceCell::new(BTreeMap::new());
        scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let cached = memo.with(|m| m.get("fig6a").copied());
                    if cached.is_none() {
                        let value = 42; // "run the simulation"
                        memo.with_mut(|m| {
                            m.insert("fig6a".to_owned(), value);
                        });
                    }
                });
            }
        });
    });
    let failure = result.expect_err("the unsynchronized memo must be flagged");
    match failure {
        Failure::Race { first, second } => {
            assert!(
                first.site.contains("model.rs") && second.site.contains("model.rs"),
                "both racing paths must point into this fixture: {first} vs {second}"
            );
            assert!(
                first.write || second.write,
                "at least one side of a race is a write: {first} vs {second}"
            );
            assert_ne!(
                first.thread, second.thread,
                "the race is between two distinct threads"
            );
        }
        other => panic!("expected a race, got: {other}"),
    }
}

/// The detector is happens-before based: it flags the memo race even on
/// the very first (serial, race-"winning") schedule, before any racy
/// interleaving is actually executed.
#[test]
fn race_detection_does_not_require_the_racy_schedule() {
    let mut cfg = quiet("race-hb-not-schedule");
    cfg.preemption_bound = Some(0);
    let result = explore(cfg, || {
        let cell = RaceCell::new(0u32);
        scope(|s| {
            s.spawn(|| cell.with_mut(|v| *v = 1));
            s.spawn(|| {
                cell.with(|v| *v);
            });
        });
    });
    assert!(
        matches!(result, Err(Failure::Race { .. })),
        "zero preemptions still finds the race through vector clocks"
    );
}

/// The work-stealing pool shape (`util::sync::parallel_map`): an atomic
/// cursor hands out indices, a mutex-guarded slot table collects
/// results. Byte-identical merged output across every explored
/// schedule (enforced by the engine's result check).
#[test]
fn work_stealing_cursor_merges_identically_across_schedules() {
    let stats = explore(quiet("work-stealing-pool"), || {
        let slots = Mutex::new(vec![0u64; 4]);
        let next = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= 4 {
                        break;
                    }
                    let value = (i as u64 + 1) * 10;
                    slots.lock()[i] = value;
                });
            }
        });
        slots.into_inner()
    })
    .expect("the pool must merge identically under every schedule");
    assert!(stats.schedules >= 2, "got {stats:?}");
}

/// A genuinely schedule-dependent result is a Mismatch failure, not a
/// silent pass — this is the byte-identity contract's teeth.
#[test]
fn schedule_dependent_results_are_rejected() {
    let result = explore(quiet("order-dependent"), || {
        let log = Mutex::new(Vec::new());
        scope(|s| {
            for id in 0..2u32 {
                let log = &log;
                s.spawn(move || log.lock().push(id));
            }
        });
        log.into_inner()
    });
    assert!(
        matches!(result, Err(Failure::Mismatch { .. })),
        "append order depends on the schedule and must be rejected: {result:?}"
    );
}

/// Classic lock-order inversion deadlocks; the report names every
/// blocked thread.
#[test]
fn lock_order_inversion_deadlocks() {
    let result = explore(quiet("lock-inversion"), || {
        let a = Mutex::new(());
        let b = Mutex::new(());
        scope(|s| {
            s.spawn(|| {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            s.spawn(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        });
    });
    match result {
        Err(Failure::Deadlock { waiting }) => {
            assert_eq!(waiting.len(), 3, "two workers plus the joining scope owner");
            assert!(waiting.iter().any(|w| w.contains("lock")), "{waiting:?}");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

/// `choice(n)` explores every branch across schedules and costs no
/// preemption budget.
#[test]
fn choice_covers_every_branch() {
    let mask = std::cell::Cell::new(0u8);
    let mut cfg = quiet("choice-coverage");
    cfg.check_results = false; // the branch index is returned
    let stats = explore(cfg, || {
        let c = choice(3);
        mask.set(mask.get() | (1 << c));
        c
    })
    .expect("pure data choice cannot fail");
    assert_eq!(stats.schedules, 3);
    assert_eq!(mask.get(), 0b111, "all three branches must run");
}

/// A panic inside checked code surfaces as Failure::Panic with the
/// message, not as a test-process abort.
#[test]
fn checked_code_panics_are_reported() {
    let result = explore(quiet("panicky"), || {
        if choice(2) == 1 {
            panic!("boom at branch 1");
        }
    });
    match result {
        Err(Failure::Panic { msg, .. }) => assert!(msg.contains("boom"), "{msg}"),
        other => panic!("expected a panic report, got {other:?}"),
    }
}

/// Raising the preemption bound strictly widens the explored schedule
/// space; the unbounded run is the full interleaving count.
#[test]
fn preemption_bound_controls_schedule_count() {
    let run = |bound| {
        let mut cfg = quiet("bound-scaling");
        cfg.preemption_bound = bound;
        explore(cfg, || {
            let counter = AtomicUsize::new(0);
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            counter.load(Ordering::SeqCst)
        })
        .expect("a commutative counter passes at any bound")
    };
    let strict = run(Some(0));
    let loose = run(Some(2));
    let unbounded = run(None);
    assert!(strict.schedules >= 1);
    assert!(
        strict.schedules < loose.schedules,
        "bound 0 ({strict:?}) must explore fewer schedules than bound 2 ({loose:?})"
    );
    assert!(
        loose.schedules <= unbounded.schedules,
        "bound 2 ({loose:?}) cannot exceed unbounded ({unbounded:?})"
    );
}

/// A failing exploration dumps the schedule trace (JSON lines, failure
/// summary first) into the configured directory.
#[test]
fn failing_run_dumps_a_schedule_trace() {
    let dir = std::env::temp_dir().join(format!("ssmc-trace-{}", std::process::id()));
    let mut cfg = Config::new("trace-dump");
    cfg.trace_dir = Some(dir.clone());
    let result = explore(cfg, || {
        let cell = RaceCell::new(0u32);
        scope(|s| {
            s.spawn(|| cell.with_mut(|v| *v = 1));
            s.spawn(|| cell.with_mut(|v| *v = 2));
        });
    });
    assert!(result.is_err());
    let trace = std::fs::read_to_string(dir.join("trace-dump.jsonl"))
        .expect("failure must write a trace file");
    let first = trace.lines().next().expect("trace has a header line");
    assert!(
        first.contains("\"failure\"") && first.contains("data race"),
        "header names the failure: {first}"
    );
    assert!(
        trace.lines().count() > 1,
        "trace lists the executed schedule steps"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Outside a model run the primitives are plain pass-throughs and
/// `choice` always takes branch 0.
#[test]
fn primitives_work_outside_exploration() {
    assert_eq!(choice(5), 0);
    let m = Mutex::new(7u32);
    *m.lock() += 1;
    assert_eq!(m.into_inner(), 8);
    let a = AtomicUsize::new(1);
    a.store(5, Ordering::SeqCst);
    assert_eq!(a.fetch_add(1, Ordering::SeqCst), 5);
    assert_eq!(a.load(Ordering::SeqCst), 6);
    let c = RaceCell::new(vec![1u8]);
    c.with_mut(|v| v.push(2));
    assert_eq!(c.with(Vec::len), 2);
    assert_eq!(c.into_inner(), vec![1, 2]);
    let done = std::cell::Cell::new(false);
    scope(|s| {
        s.spawn(|| {});
        let _ = &done;
    });
    done.set(true);
    assert!(done.get());
}
