//! The process heap, tuned for tiles.
//!
//! Two settings, both for every program that links this crate:
//! * the global allocator, `LineAligned`, starts every block of
//!   [`LINE_FROM`] bytes or more on a [`LINE`]-byte cache line, so a tile,
//!   a factor buffer, a frame or a kernel's scratch never straddles one
//!   line more than its length needs;
//! * `keep_freed_tile_pages` keeps freed tile pages in the process for
//!   the next matrix.

use std::alloc::{GlobalAlloc, Layout, System};

/// Bytes in a cache line.
pub const LINE: usize = 64;

/// Smallest block the global allocator starts on a line. Below it the 64 bytes
/// a carved block costs would be more than 6 % of the block.
pub const LINE_FROM: usize = 1024;

/// Largest alignment the system allocator's plain blocks already have.
const PLAIN_ALIGN: usize = 16;

/// The global allocator: [`System`], except that a block of at least
/// [`LINE_FROM`] bytes whose alignment is at most 16 is carved out of a
/// plain 16-aligned block [`LINE`] bytes longer, at the first line
/// boundary past its start. The plain block's address is kept in the word
/// just before the carved one. Blocks with a larger alignment go to
/// [`System`] as they are. A carved block that stays carved is resized
/// through its plain block, so it grows in place where glibc can, and its
/// bytes move only when the plain block's line boundary does.
///
/// A `Layout` with alignment 64 would get the same addresses from
/// `posix_memalign`, but glibc does not reuse those chunks size for size
/// once freed, and a paged run, which frees and reallocates tiles on every
/// eviction, grew its peak resident memory by 6–8 % on it. Plain blocks
/// are reused as before.
pub(crate) struct LineAligned;

#[global_allocator]
static HEAP: LineAligned = LineAligned;

/// Whether blocks of `layout` are carved.
fn carved(layout: Layout) -> bool {
    layout.size() >= LINE_FROM && layout.align() <= PLAIN_ALIGN
}

/// The plain block a carved block of `size` bytes is cut from.
fn plain(size: usize) -> Option<Layout> {
    Layout::from_size_align(size.checked_add(LINE)?, PLAIN_ALIGN).ok()
}

/// Carve a block of `size` bytes out of the plain block `get` returns.
///
/// # Safety
///
/// `get` must return null or a block of `plain(size)`.
unsafe fn carve(size: usize, get: impl FnOnce(Layout) -> *mut u8) -> *mut u8 {
    let Some(outer) = plain(size) else { return std::ptr::null_mut() };
    let base = get(outer);
    if base.is_null() {
        return base;
    }
    // `base` is 16-aligned, so the next line boundary is 16 to 64 bytes
    // on: room for the address word before it, and `size` bytes after it
    // end within the plain block's `size + LINE`.
    let skip = LINE - base as usize % LINE;
    // SAFETY: `skip <= LINE`, so `start` and `start + size` lie in the
    // plain block, and `start - 8 >= base + 8` is a word of it that is
    // 8-aligned (both `base` and `start` are) and not handed out.
    unsafe {
        let start = base.add(skip);
        start.cast::<*mut u8>().sub(1).write(base);
        start
    }
}

// SAFETY: every block comes from `System` with a valid layout. A carved
// block is `size` bytes inside a live plain block of `plain(size)`, starts
// on a line (so it meets any alignment up to 64), and is returned to
// `System` through the address word `carve` stored before it, with the
// same `plain(size)` layout it was allocated with.
unsafe impl GlobalAlloc for LineAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !carved(layout) {
            // SAFETY: the caller's layout is valid and non-zero-sized.
            return unsafe { System.alloc(layout) };
        }
        // SAFETY: `System.alloc` returns null or a block of the layout.
        unsafe { carve(layout.size(), |outer| System.alloc(outer)) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !carved(layout) {
            // SAFETY: as in `alloc`.
            return unsafe { System.alloc_zeroed(layout) };
        }
        // SAFETY: as in `alloc`; the carved bytes lie in the zeroed block.
        unsafe { carve(layout.size(), |outer| System.alloc_zeroed(outer)) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !carved(layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            return unsafe { System.dealloc(ptr, layout) };
        }
        // SAFETY: `ptr` was carved for this layout, so the word before it
        // holds its plain block, which was allocated as `plain(size)`
        // (`Some`, or the allocation would have failed).
        unsafe {
            let base = ptr.cast::<*mut u8>().sub(1).read();
            System.dealloc(base, plain(layout.size()).unwrap_unchecked());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size` with `layout.align()` is
        // a valid layout.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        if !carved(layout) && !carved(new) {
            // SAFETY: `ptr` came from `System` with `layout`.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        if !carved(layout) || !carved(new) {
            // SAFETY: `new` is valid and non-zero-sized; the old block is
            // live for `layout.size()` bytes, the new one for `new_size`,
            // and they are distinct blocks.
            unsafe {
                let moved = self.alloc(new);
                if !moved.is_null() {
                    std::ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
                    self.dealloc(ptr, layout);
                }
                return moved;
            }
        }
        // Both carved: resize the plain block (in place when the system
        // can), then move the bytes if its line boundary moved. A fresh
        // block plus a copy would hold both blocks at once and lose glibc's
        // in-place growth: the `serve` benchmark's daemon read 4 % more
        // peak memory that way.
        // SAFETY: as in `dealloc`, the word before `ptr` is its plain block,
        // allocated as `plain(layout.size())`; `System.realloc` keeps the
        // first `min(old, new) + LINE` bytes, which cover the carved bytes
        // at their old offset, and `carve`'s layout argument holds for the
        // new plain block.
        unsafe {
            let Some(outer) = plain(new_size) else { return std::ptr::null_mut() };
            let base = ptr.cast::<*mut u8>().sub(1).read();
            let old_skip = ptr.offset_from(base) as usize;
            let old_outer = plain(layout.size()).unwrap_unchecked();
            let base = System.realloc(base, old_outer, outer.size());
            if base.is_null() {
                return base;
            }
            let skip = LINE - base as usize % LINE;
            if skip != old_skip {
                std::ptr::copy(base.add(old_skip), base.add(skip), layout.size().min(new_size));
            }
            let start = base.add(skip);
            start.cast::<*mut u8>().sub(1).write(base);
            start
        }
    }
}

/// Keep freed tile pages in the process for the next matrix.
///
/// A `b = 128` tile is 128 KiB, glibc's initial mmap threshold. glibc then
/// moves its thresholds with the allocation history: the same program
/// either reuses a dropped matrix's pages or returns them to the system and
/// takes one page fault per 4 KiB re-creating the next, depending on which
/// small allocations happen to sit above the tiles. Regenerating a 3072²
/// input read 0.025 s warm and 0.05 s cold on a 2-core KVM host. Fixing the
/// mmap threshold at glibc's own ceiling (32 MiB) keeps tiles on the heap,
/// and a 256 MiB trim threshold keeps up to that much freed memory mapped.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn keep_freed_tile_pages() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    // `mallopt` parameters from glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters, under its own lock.
    ONCE.call_once(|| unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn keep_freed_tile_pages() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_line(p: *const u8) -> bool {
        (p as usize).is_multiple_of(LINE)
    }

    #[test]
    fn blocks_from_one_kib_start_on_a_line() {
        for size in [1023, 1024, 1025, 131_072] {
            for _ in 0..16 {
                let v = vec![0u8; size];
                assert_eq!(v.as_ptr() as usize % PLAIN_ALIGN, 0, "{size}");
                if size >= LINE_FROM {
                    assert!(on_line(v.as_ptr()), "{size} B at {:p}", v.as_ptr());
                }
            }
        }
    }

    #[test]
    fn zeroed_blocks_read_zero() {
        for size in [1024, 4096, 131_072] {
            let layout = Layout::from_size_align(size, 8).unwrap();
            // Dirty the heap first so a reused block would show.
            drop(vec![0xa5u8; size + LINE]);
            // SAFETY: a valid non-zero layout, freed with the same layout.
            unsafe {
                let p = LineAligned.alloc_zeroed(layout);
                assert!(!p.is_null() && on_line(p));
                assert!(std::slice::from_raw_parts(p, size).iter().all(|&x| x == 0), "{size}");
                LineAligned.dealloc(p, layout);
            }
        }
    }

    #[test]
    fn realloc_across_the_threshold_keeps_the_prefix() {
        let pattern = |n: usize| (0..n).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>();
        for (from, to) in
            [(512, 4096), (4096, 512), (1023, 1024), (1024, 1023), (2048, 65_536), (65_536, 2048)]
        {
            let layout = Layout::from_size_align(from, 8).unwrap();
            // SAFETY: valid layouts; each block is written within its size
            // and freed with the layout it has at that point.
            unsafe {
                let p = LineAligned.alloc(layout);
                std::ptr::copy_nonoverlapping(pattern(from).as_ptr(), p, from);
                let q = LineAligned.realloc(p, layout, to);
                assert!(!q.is_null());
                if to >= LINE_FROM {
                    assert!(on_line(q), "{from} -> {to}");
                }
                let kept = from.min(to);
                assert_eq!(
                    std::slice::from_raw_parts(q, kept),
                    &pattern(from)[..kept],
                    "{from} -> {to}"
                );
                LineAligned.dealloc(q, Layout::from_size_align(to, 8).unwrap());
            }
        }
    }

    #[test]
    fn a_larger_alignment_is_honoured() {
        for size in [64, 1024, 8192] {
            let layout = Layout::from_size_align(size, 4096).unwrap();
            // SAFETY: a valid non-zero layout, freed with the same layout.
            unsafe {
                let p = LineAligned.alloc(layout);
                assert!(!p.is_null());
                assert_eq!(p as usize % 4096, 0, "{size}");
                LineAligned.dealloc(p, layout);
            }
        }
    }

    #[test]
    fn a_growing_vec_keeps_its_contents() {
        let mut v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        for i in 100..200_000 {
            v.push(i as f64);
            if v.len() * 8 >= LINE_FROM {
                assert!(on_line(v.as_ptr().cast()), "{} doubles", v.len());
            }
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));
        v.truncate(50);
        v.shrink_to_fit();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));
    }
}
