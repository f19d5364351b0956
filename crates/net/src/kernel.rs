//! Worker-side kernel dispatch over an owned slot map.
//!
//! A worker holds its shard as `HashMap<Slot, Box<[f64]>>`. To run a
//! task it takes the task's write and read slots *out* of the map, in
//! `Task::writes()` / `Task::reads()` order, hands them to
//! `hqr_kernels::run_kernel` — the one task→kernel dispatcher, the same
//! call `hqr_runtime::store::TileStore::run_task` makes with the same
//! operand order — and reinserts the buffers. Bitwise parity with the
//! in-process backends is therefore by construction: there is no kernel
//! sequence here to keep in step with another copy. Distinct slots are
//! distinct boxes, so the dispatch is safe code: no raw pointers, no
//! aliasing argument to make.

use crate::error::NetError;
use hqr_kernels::{run_kernel, Trans};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Task;
use std::collections::HashMap;

/// A slot coordinate, as in `hqr_runtime::lineage`.
pub type Slot = (SlotFamily, usize, usize);

/// Execute `t` against `slots`. Factor-family *write* slots are created
/// zero-filled on demand (matching `TFactors::allocate_for`); a missing
/// `A`-family operand is a typed error — the coordinator failed to stage
/// an input. On error the map holds every buffer it held before.
pub fn run_task_on_map(
    slots: &mut HashMap<Slot, Box<[f64]>>,
    t: &Task,
    b: usize,
    ib: usize,
) -> Result<(), NetError> {
    // Take the operands out of the map as owned buffers: writes first,
    // then reads (a task's read and write slots are pairwise distinct).
    let (writes, reads) = (t.writes(), t.reads());
    let mut held: Vec<(Slot, Box<[f64]>)> = Vec::with_capacity(writes.len() + reads.len());
    let mut failure = None;
    for (n, s) in writes.iter().chain(&reads).enumerate() {
        let buf = match slots.remove(s) {
            Some(buf) => buf,
            // Factor outputs start life zeroed, exactly as
            // TFactors::allocate_for zero-fills them.
            None if n < writes.len() && s.0 != SlotFamily::A => vec![0.0; b * b].into_boxed_slice(),
            None => {
                failure = Some(format!(
                    "task {} needs slot {:?}({},{}) which this worker does not hold",
                    t.label(),
                    s.0,
                    s.1,
                    s.2
                ));
                break;
            }
        };
        let sized = buf.len() == b * b;
        held.push((*s, buf));
        if !sized {
            failure =
                Some(format!("slot {:?}({},{}) has wrong size for tile size {b}", s.0, s.1, s.2));
            break;
        }
    }
    if failure.is_none() {
        let (w, r) = held.split_at_mut(writes.len());
        let reads: Vec<&[f64]> = r.iter().map(|(_, buf)| &**buf).collect();
        let mut writes: Vec<&mut [f64]> = w.iter_mut().map(|(_, buf)| &mut **buf).collect();
        run_kernel(t.kind, b, ib, Trans::Trans, &reads, &mut writes);
    }
    slots.extend(held);
    failure.map_or(Ok(()), |message| Err(NetError::Remote(message)))
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
            for t in g.tasks() {
                run_task_on_map(&mut slots, t, b, ib).unwrap();
            }
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
        let mut slots: HashMap<Slot, Box<[f64]>> = HashMap::new();
        let t = Task::geqrt(0, 0);
        let err = run_task_on_map(&mut slots, &t, 4, 4).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        assert!(slots.is_empty());
    }

    #[test]
    fn wrong_sized_slot_rejected() {
        let mut slots: HashMap<Slot, Box<[f64]>> = HashMap::new();
        slots.insert((SlotFamily::A, 0, 0), vec![0.0; 5].into_boxed_slice());
        let err = run_task_on_map(&mut slots, &Task::geqrt(0, 0), 4, 4).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        assert_eq!(slots.len(), 1, "buffer must be reinserted");
    }
}
