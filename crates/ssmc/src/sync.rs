//! Model-aware twins of the `std::sync` / `std::thread` primitives the
//! workspace uses, surfaced to checked code through `util::sync`.
//!
//! Inside an [`explore`](crate::explore) run every operation routes
//! through the controlled scheduler; outside a run (including statics
//! touched before or after exploration) each primitive delegates
//! straight to its inner `std` counterpart. Two deliberate
//! simplifications, both documented in DESIGN.md §8:
//!
//! - The model upgrades every atomic ordering to `SeqCst`: the
//!   workspace's determinism contract requires results to be
//!   independent of scheduling altogether, so weak-memory behaviors a
//!   relaxed ordering would admit are already contract violations when
//!   they matter — and the happens-before engine still treats a
//!   `Relaxed` load as an acquire edge, which only *under*-reports
//!   ordering, never races.
//! - Lock APIs are non-poisoning (`lock()` returns the guard
//!   directly); a panic on another thread aborts the whole model run,
//!   so poison states are unobservable anyway.

use std::panic::Location;
use std::sync::PoisonError;

pub use std::sync::atomic::Ordering;

use crate::rt::{self, ObjToken, OpKind};

/// A mutual-exclusion lock; [`lock`](Mutex::lock) is a schedule point
/// and an acquire edge, guard drop a release edge.
pub struct Mutex<T> {
    token: ObjToken,
    real: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            token: ObjToken::new(),
            real: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking (in model time) until it is free.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let release = match rt::handle() {
            None => None,
            Some((rt, me)) => {
                rt.op_on(me, &self.token, OpKind::Lock, Location::caller());
                Some((rt, me))
            }
        };
        MutexGuard {
            inner: self.real.lock().unwrap_or_else(PoisonError::into_inner),
            token: &self.token,
            release,
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.real
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard of a [`Mutex`]; releases (a happens-before edge) on drop.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    token: &'a ObjToken,
    release: Option<(std::sync::Arc<crate::rt::Rt>, usize)>,
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((rt, me)) = self.release.take() {
            rt.unlock(me, self.token);
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Atomic `usize` — the work-stealing cursor type.
pub struct AtomicUsize {
    token: ObjToken,
    real: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// A new atomic with the given initial value.
    pub const fn new(v: usize) -> Self {
        AtomicUsize {
            token: ObjToken::new(),
            real: std::sync::atomic::AtomicUsize::new(v),
        }
    }

    /// Loads the value (an acquire edge in the model; the requested
    /// ordering is upgraded to `SeqCst`).
    #[track_caller]
    pub fn load(&self, _order: Ordering) -> usize {
        if let Some((rt, me)) = rt::handle() {
            rt.op_on(me, &self.token, OpKind::AtomicLoad, Location::caller());
        }
        self.real.load(Ordering::SeqCst)
    }

    /// Stores a value (a release edge in the model).
    #[track_caller]
    pub fn store(&self, v: usize, _order: Ordering) {
        if let Some((rt, me)) = rt::handle() {
            rt.op_on(me, &self.token, OpKind::AtomicStore, Location::caller());
        }
        self.real.store(v, Ordering::SeqCst);
    }

    /// Atomically adds, returning the previous value (an acquire and
    /// release edge — read-modify-write).
    #[track_caller]
    pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
        if let Some((rt, me)) = rt::handle() {
            rt.op_on(me, &self.token, OpKind::AtomicRmw, Location::caller());
        }
        self.real.fetch_add(v, Ordering::SeqCst)
    }
}

/// A deliberately *unsynchronized* shared cell: the model treats every
/// access as plain memory, so two accesses not ordered by
/// happens-before — at least one writing — are reported as a
/// [`Failure::Race`](crate::Failure::Race). Outside the model it is an
/// ordinary mutex, so the value itself never corrupts; only the model
/// semantics are "no synchronization". Exists to write known-bad
/// fixtures and to assert that a structure *would* race without its
/// locking.
pub struct RaceCell<T> {
    token: ObjToken,
    real: std::sync::Mutex<T>,
}

impl<T> RaceCell<T> {
    /// A new cell.
    pub const fn new(value: T) -> Self {
        RaceCell {
            token: ObjToken::new(),
            real: std::sync::Mutex::new(value),
        }
    }

    /// Reads through the cell (a plain, non-atomic read in the model).
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        if let Some((rt, me)) = rt::handle() {
            rt.op_on(me, &self.token, OpKind::CellRead, Location::caller());
        }
        f(&self.real.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Writes through the cell (a plain, non-atomic write in the
    /// model).
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        if let Some((rt, me)) = rt::handle() {
            rt.op_on(me, &self.token, OpKind::CellWrite, Location::caller());
        }
        f(&mut self.real.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Consumes the cell, returning the value.
    pub fn into_inner(self) -> T {
        self.real
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Scoped threads: the model twin of [`std::thread::scope`]. Exiting
/// the scope is a schedule point that blocks until every spawned
/// thread finished and joins their clocks (the join edge).
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    let rt = rt::handle();
    std::thread::scope(|inner| {
        let sc = Scope {
            inner,
            rt: rt.clone(),
            spawned: std::sync::Mutex::new(Vec::new()),
        };
        let out = f(&sc);
        if let Some((rt, me)) = &sc.rt {
            let children = sc
                .spawned
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            rt.await_children(*me, children);
        }
        out
    })
}

/// Handle for spawning threads inside a [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    rt: Option<(std::sync::Arc<crate::rt::Rt>, usize)>,
    spawned: std::sync::Mutex<Vec<usize>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread running `f`. Unlike
    /// [`std::thread::Scope::spawn`] no join handle is returned — the
    /// scope's end is the only join point the model tracks.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        match &self.rt {
            None => {
                self.inner.spawn(f);
            }
            Some((rt, me)) => {
                let tid = rt.spawn_register(*me);
                self.spawned
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(tid);
                let rt2 = rt.clone();
                self.inner.spawn(move || rt::run_child(rt2, tid, f));
            }
        }
    }
}
