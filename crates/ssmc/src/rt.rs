//! The controlled scheduler behind [`explore`](crate::explore).
//!
//! Exactly one model thread runs at a time. Every synchronization
//! operation first *declares* itself (so the scheduler always knows
//! each thread's next op), then parks until it holds the scheduling
//! token. Token hand-offs are the decision points of a DFS over
//! schedules: each decision records the enabled set, the pending ops
//! and a sleep set, and after every execution the deepest
//! non-exhausted decision is advanced and the prefix replayed.
//!
//! Aborting an execution (race found, prune, deadlock) wakes every
//! parked thread, which unwinds with a private [`AbortToken`] via
//! `resume_unwind` — not `panic!` — so the panic hook stays quiet and
//! real panics in checked code remain distinguishable.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::vc::VClock;
use crate::{AccessSite, Config, Failure, Stats};

/// Distinguishes the model's control-flow unwind from real panics.
struct AbortToken;

/// Per-primitive identity. Ids are (re)bound per execution, in first-use
/// order, so replayed prefixes assign identical ids to the objects
/// created at the same program points.
pub(crate) struct ObjToken {
    epoch: AtomicU64,
    id: AtomicU64,
}

impl ObjToken {
    pub(crate) const fn new() -> Self {
        ObjToken {
            epoch: AtomicU64::new(0),
            id: AtomicU64::new(0),
        }
    }
}

/// Execution epochs, global so concurrently running explorations (e.g.
/// parallel tests) can never alias each other's object ids.
static EXEC_EPOCH: AtomicU64 = AtomicU64::new(0);

/// What kind of operation a primitive is about to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    Lock,
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    CellRead,
    CellWrite,
}

impl OpKind {
    fn op(self, id: u64) -> Op {
        match self {
            OpKind::Lock => Op::Lock(id),
            OpKind::AtomicLoad => Op::AtomicLoad(id),
            OpKind::AtomicStore => Op::AtomicStore(id),
            OpKind::AtomicRmw => Op::AtomicRmw(id),
            OpKind::CellRead => Op::CellRead(id),
            OpKind::CellWrite => Op::CellWrite(id),
        }
    }
}

/// A declared operation. The first group are schedule points (a thread
/// parks on them); the rest appear in traces only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Start,
    Lock(u64),
    AtomicLoad(u64),
    AtomicStore(u64),
    AtomicRmw(u64),
    CellRead(u64),
    CellWrite(u64),
    Join(Vec<usize>),
    // Trace-only (never pending):
    Unlock(u64),
    Spawn(usize),
    Exit,
    Choice(usize, usize),
}

impl Op {
    fn obj(&self) -> Option<u64> {
        match self {
            Op::Lock(o)
            | Op::AtomicLoad(o)
            | Op::AtomicStore(o)
            | Op::AtomicRmw(o)
            | Op::CellRead(o)
            | Op::CellWrite(o)
            | Op::Unlock(o) => Some(*o),
            _ => None,
        }
    }

    fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Lock(_) | Op::AtomicStore(_) | Op::AtomicRmw(_) | Op::CellWrite(_)
        )
    }

    fn name(&self) -> &'static str {
        match self {
            Op::Start => "start",
            Op::Lock(_) => "lock",
            Op::AtomicLoad(_) => "atomic-load",
            Op::AtomicStore(_) => "atomic-store",
            Op::AtomicRmw(_) => "atomic-rmw",
            Op::CellRead(_) => "cell-read",
            Op::CellWrite(_) => "cell-write",
            Op::Join(_) => "join",
            Op::Unlock(_) => "unlock",
            Op::Spawn(_) => "spawn",
            Op::Exit => "exit",
            Op::Choice(_, _) => "choice",
        }
    }
}

/// Two ops commute unless they touch the same object and at least one
/// writes; ops without an object (spawn boundaries, joins) are
/// conservatively dependent with everything.
fn dependent(a: &Op, b: &Op) -> bool {
    match (a.obj(), b.obj()) {
        (Some(x), Some(y)) => x == y && (a.is_write() || b.is_write()),
        _ => true,
    }
}

#[derive(Clone, Debug)]
struct Access {
    tid: usize,
    clock: u64,
    site: String,
}

#[derive(Default)]
struct ObjState {
    /// Release clock: joined into acquirers.
    vc: VClock,
    locked_by: Option<usize>,
    write: Option<Access>,
    reads: BTreeMap<usize, Access>,
}

struct ThreadInfo {
    finished: bool,
    pending: Option<Op>,
    loc: Option<&'static Location<'static>>,
    vc: VClock,
}

impl ThreadInfo {
    fn new(vc: VClock, pending: Option<Op>) -> Self {
        ThreadInfo {
            finished: false,
            pending,
            loc: None,
            vc,
        }
    }
}

enum Decision {
    Sched {
        enabled: Vec<usize>,
        /// Pending op of each enabled thread, same order as `enabled`.
        ops: Vec<Op>,
        /// Threads asleep on arrival plus alternatives already explored.
        sleep: BTreeMap<usize, Op>,
        chosen: usize,
        prev: usize,
        prev_enabled: bool,
        preemptions_before: usize,
    },
    Data {
        n: usize,
        chosen: usize,
    },
}

struct TraceStep {
    tid: usize,
    op: Op,
    loc: Option<&'static Location<'static>>,
}

#[derive(Default)]
struct SchedState {
    threads: Vec<ThreadInfo>,
    current: usize,
    abort: bool,
    pruned: bool,
    failure: Option<Failure>,
    objs: BTreeMap<u64, ObjState>,
    next_obj_id: u64,
    epoch: u64,
    decisions: Vec<Decision>,
    depth: usize,
    preemptions: usize,
    cur_sleep: BTreeMap<usize, Op>,
    trace: Vec<TraceStep>,
}

/// The shared model runtime of one [`explore`](crate::explore) call.
pub(crate) struct Rt {
    state: Mutex<SchedState>,
    cv: Condvar,
    cfg: Config,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

/// The runtime and model thread id bound to this OS thread, if any.
pub(crate) fn handle() -> Option<(Arc<Rt>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

struct InstallGuard {
    prev: Option<(Arc<Rt>, usize)>,
}

fn install(rt: Arc<Rt>, tid: usize) -> InstallGuard {
    CURRENT.with(|c| InstallGuard {
        prev: c.borrow_mut().replace((rt, tid)),
    })
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| {
            *c.borrow_mut() = prev;
        });
    }
}

impl Rt {
    fn new(cfg: Config) -> Self {
        Rt {
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
            cfg,
        }
    }

    fn st(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resets per-execution state; exploration state (the decision
    /// stack) persists across executions.
    fn begin(&self) {
        let mut st = self.st();
        st.threads.clear();
        st.threads.push(ThreadInfo::new(VClock::new(), None));
        st.current = 0;
        st.abort = false;
        st.pruned = false;
        st.failure = None;
        st.objs.clear();
        st.next_obj_id = 0;
        st.epoch = EXEC_EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
        st.depth = 0;
        st.preemptions = 0;
        st.cur_sleep.clear();
        st.trace.clear();
    }

    fn fail(&self, st: &mut SchedState, f: Failure) {
        if st.failure.is_none() {
            st.failure = Some(f);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    fn abort_unwind(&self) -> ! {
        std::panic::resume_unwind(Box::new(AbortToken))
    }

    /// Binds (or re-binds, in a new execution) `token` to a
    /// per-execution object id.
    fn obj_id(st: &mut SchedState, token: &ObjToken) -> u64 {
        // Relaxed is enough: binding only happens while the binder
        // holds both the scheduling token and the state lock.
        if token.epoch.load(Ordering::Relaxed) == st.epoch {
            token.id.load(Ordering::Relaxed)
        } else {
            st.next_obj_id += 1;
            let id = st.next_obj_id;
            token.epoch.store(st.epoch, Ordering::Relaxed);
            token.id.store(id, Ordering::Relaxed);
            id
        }
    }

    /// Declares `op`, schedules, waits for the token and applies the op's
    /// happens-before effects.
    fn run_op(&self, me: usize, op: Op, loc: Option<&'static Location<'static>>) {
        let mut st = self.st();
        {
            let t = &mut st.threads[me];
            t.pending = Some(op.clone());
            t.loc = loc;
        }
        if st.current == me && !st.abort {
            self.decide(&mut st, me);
        }
        loop {
            if st.abort {
                drop(st);
                self.abort_unwind();
            }
            if st.current == me && st.threads[me].pending.is_some() {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.threads[me].pending = None;
        st.trace.push(TraceStep {
            tid: me,
            op: op.clone(),
            loc,
        });
        if let Err(f) = self.apply(&mut st, me, &op, loc) {
            self.fail(&mut st, f);
            drop(st);
            self.abort_unwind();
        }
    }

    /// Entry point for primitives: one scheduled operation on `token`.
    pub(crate) fn op_on(
        &self,
        me: usize,
        token: &ObjToken,
        kind: OpKind,
        loc: &'static Location<'static>,
    ) {
        let id = {
            let mut st = self.st();
            Self::obj_id(&mut st, token)
        };
        self.run_op(me, kind.op(id), Some(loc));
    }

    /// Whether thread `t`'s declared op can execute right now.
    fn op_enabled(st: &SchedState, t: usize) -> bool {
        match &st.threads[t].pending {
            Some(Op::Lock(o)) => st.objs.get(o).map_or(true, |s| s.locked_by.is_none()),
            Some(Op::Join(children)) => children.iter().all(|&c| st.threads[c].finished),
            Some(_) => true,
            None => false,
        }
    }

    /// Picks the next thread to run; called by the token holder after
    /// declaring its op (or on exit). Pushes or replays one decision.
    fn decide(&self, st: &mut SchedState, prev: usize) {
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&t| !st.threads[t].finished && Self::op_enabled(st, t))
            .collect();
        if enabled.is_empty() {
            let waiting = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.finished && t.pending.is_some())
                .map(|(tid, t)| {
                    let op = t.pending.as_ref().map_or("?", Op::name);
                    let site = t
                        .loc
                        .map_or_else(|| "<unknown>".to_owned(), Location::to_string);
                    format!("thread {tid} blocked on {op} at {site}")
                })
                .collect();
            self.fail(st, Failure::Deadlock { waiting });
            return;
        }
        let ops: Vec<Op> = enabled
            .iter()
            .filter_map(|&t| st.threads[t].pending.clone())
            .collect();
        let prev_enabled = enabled.contains(&prev);
        let chosen;
        let depth = st.depth;
        if depth < st.decisions.len() {
            match &st.decisions[depth] {
                Decision::Sched {
                    enabled: e,
                    ops: o,
                    sleep,
                    chosen: c,
                    ..
                } => {
                    if *e != enabled || *o != ops {
                        self.fail(
                            st,
                            Failure::Nondeterminism {
                                detail: format!(
                                    "replay diverged at decision {}: enabled set or pending \
                                     ops changed between executions",
                                    st.depth
                                ),
                            },
                        );
                        return;
                    }
                    chosen = *c;
                    st.cur_sleep = sleep.clone();
                }
                Decision::Data { .. } => {
                    self.fail(
                        st,
                        Failure::Nondeterminism {
                            detail: format!(
                                "replay diverged at decision {}: expected a data choice, \
                                 hit a schedule point",
                                st.depth
                            ),
                        },
                    );
                    return;
                }
            }
        } else {
            let sleep = st.cur_sleep.clone();
            let budget_left = self
                .cfg
                .preemption_bound
                .map_or(true, |b| st.preemptions < b);
            let mut order: Vec<usize> = Vec::new();
            if prev_enabled {
                order.push(prev);
            }
            order.extend(enabled.iter().copied().filter(|&t| t != prev));
            let pick = order
                .into_iter()
                .find(|&t| !sleep.contains_key(&t) && (t == prev || !prev_enabled || budget_left));
            let Some(p) = pick else {
                // Everything runnable is asleep (covered elsewhere) or
                // over the preemption budget: abandon this branch.
                st.pruned = true;
                st.abort = true;
                self.cv.notify_all();
                return;
            };
            chosen = p;
            st.decisions.push(Decision::Sched {
                enabled,
                ops,
                sleep,
                chosen,
                prev,
                prev_enabled,
                preemptions_before: st.preemptions,
            });
        }
        if prev_enabled && chosen != prev {
            st.preemptions += 1;
        }
        // Sleep maintenance: executing the chosen op wakes every
        // sleeper whose op depends on it.
        if let Some(op) = st.threads[chosen].pending.clone() {
            st.cur_sleep.retain(|_, s| !dependent(s, &op));
        }
        st.cur_sleep.remove(&chosen);
        st.depth += 1;
        if st.depth > self.cfg.max_depth {
            self.fail(
                st,
                Failure::DepthExceeded {
                    depth: self.cfg.max_depth,
                },
            );
            return;
        }
        st.current = chosen;
        self.cv.notify_all();
    }

    /// Applies `op`'s happens-before and race-detection effects. The
    /// caller holds the token.
    fn apply(
        &self,
        st: &mut SchedState,
        me: usize,
        op: &Op,
        loc: Option<&'static Location<'static>>,
    ) -> Result<(), Failure> {
        let site = || loc.map_or_else(|| "<unknown>".to_owned(), Location::to_string);
        st.threads[me].vc.bump(me);
        match op {
            Op::Start => {}
            Op::Lock(o) => {
                let ovc = {
                    let obj = st.objs.entry(*o).or_default();
                    obj.locked_by = Some(me);
                    obj.vc.clone()
                };
                st.threads[me].vc.join(&ovc);
            }
            Op::AtomicLoad(o) => {
                let ovc = st.objs.entry(*o).or_default().vc.clone();
                st.threads[me].vc.join(&ovc);
            }
            Op::AtomicStore(o) => {
                let vc = st.threads[me].vc.clone();
                st.objs.entry(*o).or_default().vc.join(&vc);
            }
            Op::AtomicRmw(o) => {
                let ovc = st.objs.entry(*o).or_default().vc.clone();
                st.threads[me].vc.join(&ovc);
                let vc = st.threads[me].vc.clone();
                st.objs.entry(*o).or_default().vc.join(&vc);
            }
            Op::CellRead(o) => {
                let my_vc = st.threads[me].vc.clone();
                let obj = st.objs.entry(*o).or_default();
                if let Some(w) = &obj.write {
                    if w.tid != me && w.clock > my_vc.get(w.tid) {
                        return Err(Failure::Race {
                            first: AccessSite {
                                thread: w.tid,
                                write: true,
                                site: w.site.clone(),
                            },
                            second: AccessSite {
                                thread: me,
                                write: false,
                                site: site(),
                            },
                        });
                    }
                }
                obj.reads.insert(
                    me,
                    Access {
                        tid: me,
                        clock: my_vc.get(me),
                        site: site(),
                    },
                );
            }
            Op::CellWrite(o) => {
                let my_vc = st.threads[me].vc.clone();
                let obj = st.objs.entry(*o).or_default();
                let prior = obj
                    .write
                    .iter()
                    .map(|w| (w, true))
                    .chain(obj.reads.values().map(|r| (r, false)))
                    .find(|(a, _)| a.tid != me && a.clock > my_vc.get(a.tid));
                if let Some((a, was_write)) = prior {
                    return Err(Failure::Race {
                        first: AccessSite {
                            thread: a.tid,
                            write: was_write,
                            site: a.site.clone(),
                        },
                        second: AccessSite {
                            thread: me,
                            write: true,
                            site: site(),
                        },
                    });
                }
                obj.write = Some(Access {
                    tid: me,
                    clock: my_vc.get(me),
                    site: site(),
                });
                obj.reads.clear();
            }
            Op::Join(children) => {
                let mut acc = VClock::new();
                for &c in children {
                    acc.join(&st.threads[c].vc);
                }
                st.threads[me].vc.join(&acc);
            }
            // Trace-only ops are never scheduled.
            Op::Unlock(_) | Op::Spawn(_) | Op::Exit | Op::Choice(_, _) => {}
        }
        Ok(())
    }

    /// Mutex release: a non-yielding release edge (the next decision
    /// point is the owner's next declared op).
    pub(crate) fn unlock(&self, me: usize, token: &ObjToken) {
        let mut st = self.st();
        if st.abort {
            return;
        }
        let id = Self::obj_id(&mut st, token);
        st.threads[me].vc.bump(me);
        let vc = st.threads[me].vc.clone();
        let obj = st.objs.entry(id).or_default();
        obj.vc.join(&vc);
        obj.locked_by = None;
        st.trace.push(TraceStep {
            tid: me,
            op: Op::Unlock(id),
            loc: None,
        });
        self.cv.notify_all();
    }

    /// Registers a child thread (caller holds the token). The child
    /// becomes schedulable immediately; its clock inherits the parent's.
    pub(crate) fn spawn_register(&self, parent: usize) -> usize {
        let mut st = self.st();
        st.threads[parent].vc.bump(parent);
        let pvc = st.threads[parent].vc.clone();
        let tid = st.threads.len();
        st.threads.push(ThreadInfo::new(pvc, Some(Op::Start)));
        st.trace.push(TraceStep {
            tid: parent,
            op: Op::Spawn(tid),
            loc: None,
        });
        tid
    }

    /// A child thread's first schedule point (its `Start` op was
    /// declared by the parent at registration).
    fn thread_start(&self, me: usize) {
        let mut st = self.st();
        loop {
            if st.abort {
                drop(st);
                self.abort_unwind();
            }
            if st.current == me {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.threads[me].pending = None;
        st.threads[me].vc.bump(me);
        st.trace.push(TraceStep {
            tid: me,
            op: Op::Start,
            loc: None,
        });
    }

    /// Scope-owner barrier: schedulable only once every child in
    /// `children` has exited; joins their final clocks.
    pub(crate) fn await_children(&self, me: usize, children: Vec<usize>) {
        if children.is_empty() {
            return;
        }
        self.run_op(me, Op::Join(children), None);
    }

    /// Normal child exit: hand the token on.
    fn exit(&self, me: usize) {
        let mut st = self.st();
        st.threads[me].vc.bump(me);
        st.threads[me].finished = true;
        st.threads[me].pending = None;
        st.trace.push(TraceStep {
            tid: me,
            op: Op::Exit,
            loc: None,
        });
        if !st.abort && st.current == me {
            self.decide(&mut st, me);
        }
        self.cv.notify_all();
    }

    /// Child unwound: either model control flow (abort) or a real panic
    /// in checked code.
    fn child_failed(&self, me: usize, payload: Box<dyn Any + Send>) {
        let mut st = self.st();
        st.threads[me].finished = true;
        st.threads[me].pending = None;
        if payload.downcast_ref::<AbortToken>().is_none() {
            let msg = panic_msg(payload.as_ref());
            self.fail(&mut st, Failure::Panic { thread: me, msg });
        } else {
            // Model unwind outside an abort cannot happen; be safe.
            st.abort = true;
        }
        self.cv.notify_all();
    }

    /// A data-nondeterminism decision: explores each branch in `0..n`.
    pub(crate) fn choice(&self, me: usize, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let mut st = self.st();
        if st.abort {
            drop(st);
            self.abort_unwind();
        }
        let c;
        let depth = st.depth;
        if depth < st.decisions.len() {
            match &st.decisions[depth] {
                Decision::Data { n: dn, chosen } if *dn == n => c = *chosen,
                _ => {
                    let detail = format!(
                        "replay diverged at decision {}: data choice arity changed",
                        st.depth
                    );
                    self.fail(&mut st, Failure::Nondeterminism { detail });
                    drop(st);
                    self.abort_unwind();
                }
            }
        } else {
            st.decisions.push(Decision::Data { n, chosen: 0 });
            c = 0;
        }
        st.depth += 1;
        st.trace.push(TraceStep {
            tid: me,
            op: Op::Choice(n, c),
            loc: None,
        });
        c
    }

    /// Advances the DFS to the next unexplored schedule; `false` when
    /// the (bounded) decision space is exhausted.
    fn advance(&self) -> bool {
        let mut st = self.st();
        loop {
            let budget = self.cfg.preemption_bound;
            let Some(last) = st.decisions.last_mut() else {
                return false;
            };
            match last {
                Decision::Data { n, chosen } => {
                    if *chosen + 1 < *n {
                        *chosen += 1;
                        return true;
                    }
                }
                Decision::Sched {
                    enabled,
                    ops,
                    sleep,
                    chosen,
                    prev,
                    prev_enabled,
                    preemptions_before,
                } => {
                    if let Some(pos) = enabled.iter().position(|t| t == chosen) {
                        sleep.insert(*chosen, ops[pos].clone());
                    }
                    let budget_left = budget.map_or(true, |b| *preemptions_before < b);
                    let mut order: Vec<usize> = Vec::new();
                    if *prev_enabled {
                        order.push(*prev);
                    }
                    order.extend(enabled.iter().copied().filter(|t| t != prev));
                    let next = order.into_iter().find(|t| {
                        !sleep.contains_key(t) && (t == prev || !*prev_enabled || budget_left)
                    });
                    if let Some(nx) = next {
                        *chosen = nx;
                        return true;
                    }
                }
            }
            st.decisions.pop();
        }
    }

    /// Takes the post-execution verdict: `(failure, pruned)`.
    fn post_exec(&self) -> (Option<Failure>, bool) {
        let mut st = self.st();
        (st.failure.take(), st.pruned)
    }

    fn trace_path(&self) -> Option<std::path::PathBuf> {
        let file = format!("{}.jsonl", self.cfg.name);
        if let Some(dir) = &self.cfg.trace_dir {
            return Some(dir.join(file));
        }
        std::env::var_os("SSMC_TRACE_DIR").map(|d| std::path::PathBuf::from(d).join(file))
    }

    /// Best-effort dump of the failing schedule as JSON lines.
    fn dump_trace(&self, fail: &Failure) {
        let Some(path) = self.trace_path() else {
            return;
        };
        let st = self.st();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"scenario\":\"{}\",\"failure\":\"{}\"}}\n",
            json_escape(&self.cfg.name),
            json_escape(&fail.to_string())
        ));
        for step in &st.trace {
            let obj = step
                .op
                .obj()
                .map_or_else(String::new, |o| format!(",\"obj\":{o}"));
            let loc = step.loc.map_or_else(String::new, |l| {
                format!(",\"loc\":\"{}\"", json_escape(&l.to_string()))
            });
            out.push_str(&format!(
                "{{\"thread\":{},\"op\":\"{}\"{obj}{loc}}}\n",
                step.tid,
                step.op.name()
            ));
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, out);
    }
}

/// Child-thread trampoline: binds the model identity, runs the user
/// closure under the scheduler, and reports how it ended.
pub(crate) fn run_child<F: FnOnce()>(rt: Arc<Rt>, tid: usize, f: F) {
    let _bind = install(rt.clone(), tid);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        rt.thread_start(tid);
        f();
    }));
    match result {
        Ok(()) => rt.exit(tid),
        Err(payload) => rt.child_failed(tid, payload),
    }
}

fn panic_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Explores every thread interleaving of `f` reachable under
/// [`Config::preemption_bound`], checking for data races, deadlocks,
/// panics and schedule-dependent results. `f` must create all shared
/// state inside the closure: primitive *values* persist across
/// executions, only the model bookkeeping resets.
pub fn explore<R, F>(cfg: Config, f: F) -> Result<Stats, Failure>
where
    R: PartialEq + std::fmt::Debug,
    F: Fn() -> R,
{
    let rt = Arc::new(Rt::new(cfg));
    let _bind = install(rt.clone(), 0);
    let mut stats = Stats::default();
    let mut expected: Option<R> = None;
    loop {
        rt.begin();
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f()));
        let (failure, pruned) = rt.post_exec();
        if let Some(fail) = failure {
            rt.dump_trace(&fail);
            return Err(fail);
        }
        match out {
            Ok(val) => {
                stats.schedules += 1;
                if rt.cfg.check_results {
                    match &expected {
                        None => expected = Some(val),
                        Some(e) => {
                            if *e != val {
                                let fail = Failure::Mismatch {
                                    expected: format!("{e:?}"),
                                    got: format!("{val:?}"),
                                };
                                rt.dump_trace(&fail);
                                return Err(fail);
                            }
                        }
                    }
                }
            }
            Err(payload) => {
                if payload.downcast_ref::<AbortToken>().is_some() {
                    // Abort without a recorded failure: a pruned branch.
                    let _ = pruned;
                    stats.pruned += 1;
                } else {
                    let fail = Failure::Panic {
                        thread: 0,
                        msg: panic_msg(payload.as_ref()),
                    };
                    rt.dump_trace(&fail);
                    return Err(fail);
                }
            }
        }
        if stats.schedules + stats.pruned >= rt.cfg.max_schedules {
            stats.capped = true;
            break;
        }
        if !rt.advance() {
            break;
        }
    }
    Ok(stats)
}
