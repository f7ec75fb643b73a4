//! A counting global allocator for allocs/event instrumentation.
//!
//! [`CountingAlloc`] forwards every call to the system allocator and
//! bumps thread-local counters. Counters are per-thread so parallel test
//! threads don't contaminate each other's measurements, and
//! const-initialized so reading them never allocates (a lazily
//! initialized thread-local would recurse into the allocator).
//!
//! Install it in a binary or test crate root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: softstage_bench::alloc_counter::CountingAlloc =
//!     softstage_bench::alloc_counter::CountingAlloc;
//! ```
//!
//! then bracket the measured region with [`snapshot`]:
//!
//! ```ignore
//! let before = snapshot();
//! hot_loop();
//! let delta = snapshot().since(before);
//! assert_eq!(delta.allocs, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bumps a thread-local counter, tolerating TLS teardown (allocations
/// during thread destruction are simply not counted).
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "allocation counters are per-thread so parallel test threads do not see each other's heap traffic; they measure, and never feed, a run"
)]
fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    let _ = cell.try_with(|c| c.set(c.get() + by));
}

/// A [`GlobalAlloc`] that counts this thread's heap traffic on its way
/// through to [`System`].
pub struct CountingAlloc;

#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; counting allocations needs an allocator"
)]
// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter bumps touch only thread-local Cells
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        // SAFETY: `layout` is the caller's, forwarded unchanged to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS, 1);
        // SAFETY: `ptr`/`layout` are the caller's, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS, 1);
        bump(&BYTES, new_size as u64);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // unchanged to System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of this thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Calls to `alloc` on this thread so far.
    pub allocs: u64,
    /// Calls to `dealloc` on this thread so far.
    pub deallocs: u64,
    /// Calls to `realloc` on this thread so far.
    pub reallocs: u64,
    /// Bytes requested through `alloc` + `realloc` on this thread so far.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counter deltas accumulated since `earlier` was taken.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            reallocs: self.reallocs.saturating_sub(earlier.reallocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }

    /// Total allocator entries (alloc + realloc) — the "allocs" a hot
    /// loop should drive to zero.
    pub fn heap_ops(self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// Reads this thread's counters. Only meaningful when [`CountingAlloc`]
/// is installed as the `#[global_allocator]`; otherwise all zeros.
#[expect(
    clippy::disallowed_methods,
    reason = "reads the per-thread allocation counters bump() writes; they measure, and never feed, a run"
)]
pub fn snapshot() -> AllocSnapshot {
    let read =
        |cell: &'static std::thread::LocalKey<Cell<u64>>| cell.try_with(Cell::get).unwrap_or(0);
    AllocSnapshot {
        allocs: read(&ALLOCS),
        deallocs: read(&DEALLOCS),
        reallocs: read(&REALLOCS),
        bytes: read(&BYTES),
    }
}
