/// Reads through a raw pointer without stating why that is sound.
pub fn read(v: &u64) -> u64 {
    let p: *const u64 = v;
    unsafe { *p }
}

use std::alloc::{GlobalAlloc, Layout, System};

/// Forwards to the system allocator.
pub struct Forward;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Forward {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    // The trait dictates this signature, so the impl's contract covers it
    // even this far below the SAFETY comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
