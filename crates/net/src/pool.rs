//! A worker's recycled tile buffers.
//!
//! Every slot a worker holds is a `Box<[f64]>`: a `b*b` tile, a V copy of
//! `v_len(b)` doubles, or a T factor of `t_len(b, ib)` doubles. A received tile is decoded in place into its
//! slot's buffer, so a slot takes a buffer once, on first arrival (or as a
//! zero-filled factor output), and keeps it for the run — except a V copy,
//! whose buffer comes back here when its last pending reader has
//! completed. Without a pool
//! each of those is fresh memory the kernel has to fault in page by page;
//! with it, the previous run's shard is handed to the next run's slots of
//! the same length. The pool lives in the worker's state, not in a run, so
//! it survives runs, and it never holds more buffers than the largest shard
//! the worker has held, so it does not raise the worker's peak memory. This
//! is the one place a tile buffer is allocated.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Free buffers by length; a leaf lock (nothing is locked while it is held).
#[derive(Default)]
pub(crate) struct TilePool(Mutex<Free>);

#[derive(Default)]
struct Free {
    shelves: BTreeMap<usize, Vec<Box<[f64]>>>,
    /// Buffers on all shelves.
    count: usize,
    /// The largest shard the worker has held: the most `count` may reach.
    cap: usize,
    /// The most buffers ever held.
    #[cfg(test)]
    peak: usize,
}

/// A new zero-filled buffer of `n` doubles.
pub(crate) fn fresh(n: usize) -> Box<[f64]> {
    vec![0.0; n].into_boxed_slice()
}

impl TilePool {
    fn free(&self) -> std::sync::MutexGuard<'_, Free> {
        self.0.lock().expect("pool lock: a holder panicked")
    }

    /// A buffer of `n` doubles with unspecified contents: the caller
    /// overwrites all of it.
    pub(crate) fn take(&self, n: usize) -> Box<[f64]> {
        let reused = {
            let mut free = self.free();
            let buf = free.shelves.get_mut(&n).and_then(Vec::pop);
            free.count -= usize::from(buf.is_some());
            buf
        };
        reused.unwrap_or_else(|| fresh(n))
    }

    /// [`TilePool::take`], zero-filled.
    pub(crate) fn zeroed(&self, n: usize) -> Box<[f64]> {
        let mut buf = self.take(n);
        buf.fill(0.0);
        buf
    }

    /// Return buffers that left a shard of `held` slots (0 when they never
    /// entered one); what does not fit under the cap is freed.
    pub(crate) fn give(&self, bufs: impl IntoIterator<Item = Box<[f64]>>, held: usize) {
        let mut free = self.free();
        free.cap = free.cap.max(held);
        for buf in bufs.into_iter().take(free.cap.saturating_sub(free.count)) {
            free.shelves.entry(buf.len()).or_default().push(buf);
            free.count += 1;
        }
        #[cfg(test)]
        {
            free.peak = free.peak.max(free.count);
        }
    }

    /// Free every buffer whose length is not in `lens` (a new run's slot
    /// lengths: what an earlier run's sizes left behind is never taken).
    pub(crate) fn keep(&self, lens: &[usize]) {
        let mut free = self.free();
        free.shelves.retain(|len, _| lens.contains(len));
        free.count = free.shelves.values().map(Vec::len).sum();
    }

    /// The most buffers the pool has held at once.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> usize {
        self.free().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_no_more_than_the_largest_shard_and_drops_other_sizes() {
        let pool = TilePool::default();
        pool.give((0..5).map(|_| fresh(4)), 3);
        assert_eq!(pool.peak(), 3, "capped at the shard the buffers came from");
        let buf = pool.take(4);
        assert_eq!(buf.len(), 4);
        pool.give([buf], 0);
        assert_eq!(pool.peak(), 3, "a buffer that never entered a shard raises no cap");
        let mut dirty = pool.take(4);
        dirty.fill(7.0);
        pool.give([dirty], 3);
        assert!(pool.zeroed(4).iter().all(|&x| x == 0.0));
        // Tiles and T factors share the cap and keep their lengths.
        pool.give([fresh(2)], 3);
        assert_eq!((pool.take(2).len(), pool.take(4).len()), (2, 4));
        // A run with other sizes: the old buffers go, the new ones are fresh.
        pool.keep(&[9, 3]);
        assert_eq!(pool.free().count, 0);
        assert_eq!(pool.take(9).len(), 9);
    }
}
