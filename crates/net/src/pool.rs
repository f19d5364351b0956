//! A worker's recycled tile buffers.
//!
//! Every slot a worker holds is a `Box<[f64]>`: a `b*b` tile, a V copy of
//! `v_len(b)` doubles, or a T factor of `t_len(b, ib)` doubles (a gather
//! sends a T's τ from a `tau_len(b)` scratch buffer it takes here too). A
//! received tile is decoded in place into its slot's buffer, so a slot
//! takes a buffer on arrival (or as a zero-filled factor output) and holds
//! it while it is in the shard. A V copy leaves the shard when its last
//! pending reader has completed, and so does a version a peer pushed (a
//! tile or a T) once no task of the worker touches it; either buffer
//! comes back here at once, and a run's whole shard at the next run's
//! `Hello`. Without a pool each of those is fresh memory the kernel has to
//! fault in page by page; with it, a spent slot's buffer is the next
//! arrival's. The pool lives in the worker's state, not in a run, so it
//! survives runs. It frees nothing it may hand out again: a buffer is made
//! only when the shelf of its length is empty, so per length the pool and
//! the shard never hold more buffers than the worker had in use at once.
//! (Freeing and making them again would move them between the connection
//! threads' malloc arenas, where freed memory stays resident.) This is the
//! one place a tile buffer is allocated.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Free buffers by length; a leaf lock (nothing is locked while it is held).
#[derive(Default)]
pub(crate) struct TilePool(Mutex<Free>);

#[derive(Default)]
struct Free {
    shelves: BTreeMap<usize, Vec<Box<[f64]>>>,
    /// Per length: buffers handed out and not given back, and the most
    /// at once.
    #[cfg(test)]
    out: BTreeMap<usize, (usize, usize)>,
    /// Buffers made.
    #[cfg(test)]
    made: usize,
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
        let mut free = self.free();
        let reused = free.shelves.get_mut(&n).and_then(Vec::pop);
        #[cfg(test)]
        {
            free.made += usize::from(reused.is_none());
            let (out, most) = free.out.entry(n).or_default();
            *out += 1;
            *most = (*most).max(*out);
        }
        drop(free);
        reused.unwrap_or_else(|| fresh(n))
    }

    /// [`TilePool::take`], zero-filled.
    pub(crate) fn zeroed(&self, n: usize) -> Box<[f64]> {
        let mut buf = self.take(n);
        buf.fill(0.0);
        buf
    }

    /// Return buffers [`TilePool::take`] handed out.
    pub(crate) fn give(&self, bufs: impl IntoIterator<Item = Box<[f64]>>) {
        let mut free = self.free();
        for buf in bufs {
            #[cfg(test)]
            {
                free.out.get_mut(&buf.len()).expect("a buffer of the pool").0 -= 1;
            }
            free.shelves.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Free every buffer whose length is not in `lens` (a new run's slot
    /// lengths: what an earlier run's sizes left behind is never taken).
    pub(crate) fn keep(&self, lens: &[usize]) {
        self.free().shelves.retain(|len, _| lens.contains(len));
    }

    /// Buffers of `n` doubles on the shelf, and the most handed out at once.
    #[cfg(test)]
    pub(crate) fn count(&self, n: usize) -> (usize, usize) {
        let free = self.free();
        (free.shelves.get(&n).map_or(0, Vec::len), free.out.get(&n).map_or(0, |o| o.1))
    }

    /// Buffers made so far.
    #[cfg(test)]
    pub(crate) fn made(&self) -> usize {
        self.free().made
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makes_a_buffer_only_when_its_shelf_is_empty_and_drops_other_sizes() {
        let pool = TilePool::default();
        let three: Vec<_> = (0..3).map(|_| pool.take(4)).collect();
        pool.give(three);
        assert_eq!((pool.count(4), pool.made()), ((3, 3), 3));
        // Two out and back again: nothing made, nothing freed.
        let two = [pool.take(4), pool.take(4)];
        pool.give(two);
        assert_eq!((pool.count(4), pool.made()), ((3, 3), 3));
        // A fourth in use at once is the one buffer made.
        let four: Vec<_> = (0..4).map(|_| pool.take(4)).collect();
        pool.give(four.into_iter().map(|mut dirty| {
            dirty.fill(7.0);
            dirty
        }));
        assert_eq!((pool.count(4), pool.made()), ((4, 4), 4));
        let zeroed = pool.zeroed(4);
        assert!(zeroed.iter().all(|&x| x == 0.0));
        pool.give([zeroed]);
        // Lengths keep their own shelves: spare T-length buffers make no
        // tile-length one, and none is freed to make room.
        let t: Vec<_> = (0..5).map(|_| pool.take(2)).collect();
        pool.give(t);
        let _ = (pool.take(2), pool.take(4));
        assert_eq!((pool.count(2), pool.count(4), pool.made()), ((4, 5), (3, 4), 9));
        // A run with other sizes: the old buffers go, the new ones are fresh.
        pool.keep(&[9, 3]);
        assert_eq!((pool.count(2).0, pool.count(4).0), (0, 0));
        assert_eq!(pool.take(9).len(), 9);
        assert_eq!(pool.made(), 10);
    }
}
