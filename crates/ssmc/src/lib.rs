//! `ssmc` — the SoftStage model checker.
//!
//! A hermetic, loom-style stateless model checker for the concurrency
//! primitives the workspace actually uses (`util::sync`). [`explore`]
//! runs a closure over and over, each time forcing a different thread
//! interleaving, until every schedule reachable under the configured
//! preemption budget has been seen:
//!
//! - **Controlled scheduling.** The primitives in [`sync`] are drop-in
//!   twins of their `std` counterparts, but inside an [`explore`] run
//!   every operation first parks the thread and hands a scheduling
//!   token to a DFS driver. Exactly one thread runs at a time, so each
//!   execution is a deterministic function of the decision vector.
//! - **DFS with sleep-set pruning.** Schedule decisions form a stack;
//!   after each execution the deepest non-exhausted decision is
//!   advanced. Sleep sets (a DPOR-style reduction) skip schedules that
//!   only commute independent operations, and a bounded-preemption
//!   budget (default 2) keeps the suite fast while catching the
//!   overwhelming majority of real interleaving bugs.
//! - **Happens-before race detection.** A vector-clock engine tracks
//!   the release/acquire edges of every mutex, atomic and spawn/join.
//!   Plain-memory accesses ([`sync::RaceCell`]) that are not ordered by
//!   those edges are reported as a [`Failure::Race`] carrying both
//!   racing source locations — the detector finds the race even when
//!   the explored schedule happened to "win" it.
//! - **Result checking.** The closure's return value must be identical
//!   across every explored schedule (the workspace's byte-identity
//!   contract); any divergence is a [`Failure::Mismatch`]. Runs with
//!   deliberate data nondeterminism ([`choice`]) can disable this via
//!   [`Config::check_results`].
//!
//! The crate has zero dependencies and performs no I/O besides an
//! optional failure trace dump (`SSMC_TRACE_DIR`). Explored closures
//! must create all shared state *inside* the closure: primitive values
//! persist across executions (only the model bookkeeping resets), just
//! like loom.
//!
//! ```
//! use ssmc::sync::{scope, Mutex};
//!
//! let stats = ssmc::explore(ssmc::Config::new("doc-counter"), || {
//!     let total = Mutex::new(0u32);
//!     scope(|s| {
//!         for _ in 0..2 {
//!             s.spawn(|| {
//!                 *total.lock() += 1;
//!             });
//!         }
//!     });
//!     total.into_inner()
//! })
//! .unwrap();
//! assert!(stats.schedules >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;

mod rt;
pub mod sync;
mod vc;

pub use rt::explore;

/// Configuration of one [`explore`] run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Name of the checked scenario — becomes the trace file stem.
    pub name: String,
    /// Maximum preemptive context switches per schedule (`None` =
    /// unbounded). A switch is preemptive when the running thread could
    /// have continued but another was scheduled instead; switches at
    /// blocking or exit points are always free.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored executions; hitting it sets
    /// [`Stats::capped`] instead of failing.
    pub max_schedules: u64,
    /// Hard cap on scheduling decisions per execution; exceeding it is
    /// a [`Failure::DepthExceeded`] (almost always a livelock in the
    /// checked code).
    pub max_depth: usize,
    /// Require the closure's return value to be identical across all
    /// explored schedules. Disable for walks that use [`choice`] to
    /// inject data nondeterminism.
    pub check_results: bool,
    /// Where to dump the failing schedule trace (falls back to the
    /// `SSMC_TRACE_DIR` environment variable; `None` and no variable =
    /// no dump).
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    /// The CI defaults: preemption bound 2, result checking on.
    pub fn new(name: &str) -> Self {
        Config {
            name: name.to_owned(),
            preemption_bound: Some(2),
            max_schedules: 100_000,
            max_depth: 10_000,
            check_results: true,
            trace_dir: None,
        }
    }
}

/// What an exhaustive (or capped) exploration covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Complete executions explored (distinct schedules).
    pub schedules: u64,
    /// Executions abandoned early by sleep-set or preemption-budget
    /// pruning (their behaviors are covered elsewhere or out of
    /// budget).
    pub pruned: u64,
    /// `true` when [`Config::max_schedules`] stopped the search before
    /// the decision space was exhausted.
    pub capped: bool,
}

/// One side of a data race: who accessed, how, and where.
#[derive(Clone, Debug)]
pub struct AccessSite {
    /// Model thread id (0 is the thread that called [`explore`]).
    pub thread: usize,
    /// `true` for a write access.
    pub write: bool,
    /// Source location (`file:line:column`) of the access.
    pub site: String,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {} {} at {}",
            self.thread,
            if self.write { "write" } else { "read" },
            self.site
        )
    }
}

/// Why an exploration failed. The failing schedule is dumped to the
/// trace file (if configured) before this is returned.
#[derive(Clone, Debug)]
pub enum Failure {
    /// Two accesses to the same unsynchronized location are unordered
    /// by happens-before.
    Race {
        /// The earlier access in the explored schedule.
        first: AccessSite,
        /// The later, concurrent access.
        second: AccessSite,
    },
    /// Every live thread is blocked.
    Deadlock {
        /// One line per blocked thread: what it waits on and where.
        waiting: Vec<String>,
    },
    /// A thread panicked (a real panic in the checked code, not a
    /// model-internal control-flow unwind).
    Panic {
        /// Model thread id of the panicking thread.
        thread: usize,
        /// The panic payload, if it was a string.
        msg: String,
    },
    /// The closure's return value differed between two schedules.
    Mismatch {
        /// Debug rendering of the first schedule's value.
        expected: String,
        /// Debug rendering of the diverging value.
        got: String,
    },
    /// Replaying a decision prefix diverged — the checked code consults
    /// inputs outside the model (time, ambient randomness, OS state).
    Nondeterminism {
        /// What diverged.
        detail: String,
    },
    /// An execution exceeded [`Config::max_depth`] decisions.
    DepthExceeded {
        /// The configured cap that was hit.
        depth: usize,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Race { first, second } => {
                write!(f, "data race: {first} is concurrent with {second}")
            }
            Failure::Deadlock { waiting } => {
                write!(f, "deadlock: {}", waiting.join("; "))
            }
            Failure::Panic { thread, msg } => {
                write!(f, "thread {thread} panicked: {msg}")
            }
            Failure::Mismatch { expected, got } => {
                write!(
                    f,
                    "schedule-dependent result: first schedule returned {expected}, \
                     a later schedule returned {got}"
                )
            }
            Failure::Nondeterminism { detail } => {
                write!(f, "nondeterministic replay: {detail}")
            }
            Failure::DepthExceeded { depth } => {
                write!(f, "execution exceeded {depth} scheduling decisions")
            }
        }
    }
}

/// A data-nondeterminism decision point: inside an [`explore`] run the
/// DFS explores every branch in `0..n` (across schedules); outside a
/// run it returns 0. Branching on `choice` costs no preemption budget.
pub fn choice(n: usize) -> usize {
    match rt::handle() {
        None => 0,
        Some((rt, me)) => rt.choice(me, n),
    }
}
