//! Heap accounting behind `mem_mb`: a global allocator that tags every
//! block with who allocated it, so that the tracker's own peak heap can be
//! told apart from the benchmark's streams, runs and oracle.
//!
//! A block is the tracker's when it is allocated (or resized) on a thread
//! that has not marked itself as the benchmark's, or on the driver thread
//! inside [`tracker_call`]. Every thread the tracker spawns is therefore
//! the tracker's, and the driver thread is the benchmark's between its
//! tracker calls. Freeing a block subtracts it from the count it was
//! added to, whoever frees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

thread_local! {
    /// The current thread's allocations are the benchmark's.
    static BENCH: Cell<bool> = const { Cell::new(false) };
}

/// Bytes live in tracker blocks.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Most bytes live in tracker blocks since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Tag of a tracker block; benchmark blocks carry 0.
const TRACKER: usize = 1;

/// The allocator: `System`, with a tag word in front of every block.
pub struct Tagging;

#[global_allocator]
static ALLOCATOR: Tagging = Tagging;

/// Bytes in front of a block of `layout`: room for the tag, keeping the
/// block's alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout handed to `System` for a block of `size` bytes.
///
/// # Safety
/// `align` is a power of two and `size + header` does not overflow
/// `isize`, as for any layout the standard library hands an allocator
/// plus at most one alignment.
unsafe fn outer(size: usize, layout: Layout) -> Layout {
    Layout::from_size_align_unchecked(size + header(layout), header(layout))
}

fn current_tag() -> usize {
    // During thread teardown the flag may be gone; such blocks are the
    // tracker's, like everything else off the driver thread.
    match BENCH.try_with(Cell::get) {
        Ok(true) => 0,
        _ => TRACKER,
    }
}

fn add(tag: usize, bytes: i64) {
    if tag == TRACKER {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

/// Stamp `tag` in front of the block at `base` and return the block.
///
/// # Safety
/// `base` is a live `System` block of `outer(_, layout)`.
unsafe fn stamp(base: *mut u8, layout: Layout, tag: usize) -> *mut u8 {
    let block = base.add(header(layout));
    (block.sub(std::mem::size_of::<usize>()) as *mut usize).write(tag);
    block
}

/// # Safety
/// `block` was returned by [`stamp`] for `layout`.
unsafe fn tag_of(block: *mut u8) -> usize {
    (block.sub(std::mem::size_of::<usize>()) as *const usize).read()
}

unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let base = System.alloc(outer(layout.size(), layout));
        if base.is_null() {
            return base;
        }
        let tag = current_tag();
        add(tag, layout.size() as i64);
        stamp(base, layout, tag)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let base = System.alloc_zeroed(outer(layout.size(), layout));
        if base.is_null() {
            return base;
        }
        let tag = current_tag();
        add(tag, layout.size() as i64);
        stamp(base, layout, tag)
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        add(tag_of(block), -(layout.size() as i64));
        System.dealloc(block.sub(header(layout)), outer(layout.size(), layout));
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old_tag = tag_of(block);
        let base = System.realloc(
            block.sub(header(layout)),
            outer(layout.size(), layout),
            new_size + header(layout),
        );
        if base.is_null() {
            return base;
        }
        // A resized block belongs to whoever resized it.
        let tag = current_tag();
        add(old_tag, -(layout.size() as i64));
        add(tag, new_size as i64);
        stamp(base, layout, tag)
    }
}

/// Mark the calling thread's allocations as the benchmark's.
pub fn bench_thread() {
    BENCH.with(|b| b.set(true));
}

/// Run `f` with the calling thread's allocations counted as the
/// tracker's.
pub fn tracker_call<T>(f: impl FnOnce() -> T) -> T {
    let outer = BENCH.with(|b| b.replace(false));
    let value = f();
    BENCH.with(|b| b.set(outer));
    value
}

/// Bytes now live in tracker blocks.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the peak from the bytes now live.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Most bytes live in tracker blocks since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
