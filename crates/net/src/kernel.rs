//! Worker-side kernel dispatch over an owned slot map.
//!
//! A worker holds its shard as `Mutex<HashMap<Slot, Box<[f64]>>>`. To run
//! a task it takes the task's write and read slots *out* of the map, in
//! `Task::writes()` / `Task::reads()` order, hands them to
//! `hqr_kernels::run_kernel` — the one task→kernel dispatcher, the same
//! call `hqr_runtime::store::TileStore::run_task` makes with the same
//! operand order — and reinserts the buffers. The lock is held to take and
//! to return buffers, never across the kernel, so a peer's push never waits
//! behind one. Bitwise parity with the in-process backends is by
//! construction: there is no kernel sequence here to keep in step with
//! another copy. Distinct slots are distinct boxes, so the dispatch is safe
//! code: no raw pointers, no aliasing argument to make.

use crate::error::NetError;
use crate::pool::TilePool;
use hqr_kernels::{run_kernel, Trans};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Task;
use std::collections::HashMap;
use std::sync::Mutex;

pub use hqr_runtime::Slot;

/// A worker's shard: every slot version it currently holds.
pub type Shard = Mutex<HashMap<Slot, Box<[f64]>>>;

/// Execute `t` against `shard`. Factor-family *write* slots are created
/// zero-filled on demand (matching `TFactors::allocate_for`) from buffers
/// `pool` recycles; a missing `A`-family operand, or a buffer that is not
/// its slot's `SlotFamily::slot_len` long, is a typed error — an input was
/// never staged or pushed. On error the map holds every buffer it held
/// before.
pub(crate) fn run_task_on_map(
    shard: &Shard,
    pool: &TilePool,
    t: &Task,
    b: usize,
    ib: usize,
) -> Result<(), NetError> {
    // Take the operands out of the map as owned buffers: writes first,
    // then reads (a task's read and write slots are pairwise distinct).
    let (writes, reads) = (t.writes(), t.reads());
    let mut held: Vec<(Slot, Box<[f64]>)> = Vec::with_capacity(writes.len() + reads.len());
    let mut slots = shard.lock().expect("shard lock: a holder panicked");
    let mut missing = None;
    for (n, s) in writes.iter().chain(&reads).enumerate() {
        let len = s.0.slot_len(b, ib);
        // Factor outputs start life zeroed, exactly as
        // TFactors::allocate_for zero-fills them.
        let output = n < writes.len() && s.0 != SlotFamily::A;
        let zeroed = || output.then(|| pool.zeroed(len));
        let buf = slots.remove(s).or_else(zeroed);
        let fits = buf.as_ref().is_some_and(|buf| buf.len() == len);
        held.extend(buf.map(|buf| (*s, buf)));
        if !fits {
            missing = Some((*s, len));
            break;
        }
    }
    drop(slots);
    if missing.is_none() {
        let (w, r) = held.split_at_mut(writes.len());
        let reads: Vec<&[f64]> = r.iter().map(|(_, buf)| &**buf).collect();
        let mut writes: Vec<&mut [f64]> = w.iter_mut().map(|(_, buf)| &mut **buf).collect();
        run_kernel(t.kind, b, ib, Trans::Trans, &reads, &mut writes);
    }
    shard.lock().expect("shard lock: a holder panicked").extend(held);
    missing.map_or(Ok(()), |((fam, i, j), len)| {
        let task = t.label();
        Err(NetError::Remote(format!("task {task} needs {fam:?}({i},{j}) of {len} doubles here")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_runtime::{execute_serial_ib, ElimOp, TaskGraph};
    use hqr_tile::TiledMatrix;

    /// Running a whole DAG through the map dispatcher must match the
    /// serial reference bit for bit, on the `ib = b` side and with the tile
    /// split into even and ragged panels.
    #[test]
    fn map_dispatch_matches_tilestore_bitwise() {
        let (mt, nt, b) = (4, 3, 8);
        let mut elims = Vec::new();
        for k in 0..nt {
            for i in (k + 1)..mt {
                elims.push(ElimOp::new(k as u32, i as u32, k as u32, i % 2 == 0));
            }
        }
        let g = TaskGraph::build(mt, nt, b, &elims);
        let input = TiledMatrix::random(mt, nt, b, 3);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ib in [b, b / 2, 3] {
            let mut reference = input.clone();
            let f = execute_serial_ib(&g, &mut reference, ib);

            let mut slots: HashMap<Slot, Box<[f64]>> = HashMap::new();
            for j in 0..nt {
                for i in 0..mt {
                    let tile = input.tile(i, j).to_vec().into_boxed_slice();
                    slots.insert((SlotFamily::A, i, j), tile);
                }
            }
            let shard = Mutex::new(slots);
            for t in g.tasks() {
                run_task_on_map(&shard, &TilePool::default(), t, b, ib).unwrap();
            }
            let slots = shard.into_inner().unwrap();
            for j in 0..nt {
                for i in 0..mt {
                    assert_eq!(
                        bits(&slots[&(SlotFamily::A, i, j)]),
                        bits(reference.tile(i, j)),
                        "ib={ib}: tile ({i},{j}) diverged"
                    );
                }
            }
            // The factor families too.
            for t in g.tasks() {
                for (fam, i, k) in t.writes() {
                    let truth = match fam {
                        SlotFamily::A => continue,
                        SlotFamily::Vg => f.vg(i, k).unwrap(),
                        SlotFamily::Tg => f.tg(i, k).unwrap(),
                        SlotFamily::Tk => f.tk(i, k).unwrap(),
                    };
                    assert_eq!(
                        bits(&slots[&(fam, i, k)]),
                        bits(truth),
                        "ib={ib}: {fam:?}({i},{k}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn missing_a_operand_is_a_typed_error_and_map_unchanged() {
        let shard = Shard::default();
        let t = Task::geqrt(0, 0);
        let err = run_task_on_map(&shard, &TilePool::default(), &t, 4, 4).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        assert!(shard.lock().unwrap().is_empty());
    }

    #[test]
    fn wrong_sized_slot_rejected() {
        let shard = Shard::default();
        shard.lock().unwrap().insert((SlotFamily::A, 0, 0), vec![0.0; 5].into_boxed_slice());
        let err =
            run_task_on_map(&shard, &TilePool::default(), &Task::geqrt(0, 0), 4, 4).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        assert_eq!(shard.lock().unwrap().len(), 1, "buffer must be reinserted");
    }
}
