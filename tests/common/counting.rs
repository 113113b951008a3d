//! The system allocator, counting the allocations of the calling thread —
//! what the `*_allocations.rs` guards measure. Each includes this file by
//! path, so only their test binaries run under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s that neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout, as the caller guarantees for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded under the caller's `realloc` guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread has allocated so far, a reallocation counting its new
/// size whole.
#[allow(dead_code)]
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The largest single allocation, in bytes, this thread has made since
/// `forget_largest`: a column buffer over N rows is at least N bytes.
#[allow(dead_code)]
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}

#[allow(dead_code)]
pub fn forget_largest() {
    LARGEST.with(|l| l.set(0));
}
