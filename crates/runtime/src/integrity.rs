//! Executor-side silent-data-corruption (SDC) defense.
//!
//! Every tile-sized buffer the engine touches (matrix tiles and the
//! `Vg`/`Tg`/`Tk` factor slots) gets a guard: one [`checksum64`] word over
//! the buffer's bits, the same checksum that closes every container in the
//! workspace. A buffer's doubles are its words, so any change confined to
//! one element — every single-bit flip among them — changes the digest.
//! The lifecycle per task, under [`IntegrityMode::Spot`] or
//! [`IntegrityMode::Full`]:
//!
//! 1. *(full only)* before launch, verify the guards of the task's
//!    read set and of its write-set pre-images — corruption of data at
//!    rest is caught before it can propagate;
//! 2. run the kernel;
//! 3. **postcondition hook**: refresh the write-set guards from the fresh
//!    output while it is still "hot" (the trusted production boundary);
//! 4. verify the write set at *commit* time — the window between the
//!    hook and the commit is where an SDC strike lands, so a flipped bit
//!    surfaces as a digest mismatch before the task's successors are
//!    released.
//!
//! A commit-time mismatch routes into the existing write-set
//! snapshot/rollback retry path (detect-recompute); a pre-launch mismatch
//! cannot be healed by re-running the *current* task (its inputs are the
//! damaged data) and surfaces as a typed
//! [`crate::ExecError::SdcDetected`].

use std::cell::UnsafeCell;

use hqr_tile::io::{checksum64, f64s_le};

use crate::store::TileStore;
use crate::task::{SlotFamily, Task, SLOT_FAMILIES};

/// How much guard-based SDC checking the executor performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No guards, no verification cost — corruption propagates silently.
    #[default]
    Off,
    /// Commit-time checking only: refresh and verify each task's
    /// write-set guards when it completes.
    Spot,
    /// [`IntegrityMode::Spot`] plus pre-launch verification of each
    /// task's read set and write-set pre-images (data-at-rest coverage).
    Full,
}

impl IntegrityMode {
    /// Parse a CLI spelling (`off` / `spot` / `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(IntegrityMode::Off),
            "spot" => Some(IntegrityMode::Spot),
            "full" => Some(IntegrityMode::Full),
            _ => None,
        }
    }

    /// True unless the mode is [`IntegrityMode::Off`].
    pub fn is_on(self) -> bool {
        self != IntegrityMode::Off
    }
}

impl std::fmt::Display for IntegrityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Spot => "spot",
            IntegrityMode::Full => "full",
        })
    }
}

/// A guard verification failure: the slot, the digest its last writer
/// left, and the digest of the buffer as found.
pub(crate) struct SlotMismatch {
    pub slot: (SlotFamily, usize, usize),
    pub expected: u64,
    pub found: u64,
}

impl SlotMismatch {
    /// `"A(2,1)"`-style location label.
    pub(crate) fn label(&self) -> String {
        let (fam, i, j) = self.slot;
        format!("{}({i},{j})", fam.name())
    }
}

impl std::fmt::Display for SlotMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile guard mismatch: digest {:#018x} != stored {:#018x}",
            self.found, self.expected
        )
    }
}

/// The guard of one buffer.
fn digest(data: &[f64]) -> u64 {
    checksum64(&f64s_le(data))
}

/// One digest per store slot (4 families × `mt·nt` coordinates),
/// populated lazily: a slot is guarded from its first writer's commit on.
///
/// Concurrency contract: a slot's guard is written at its writer task's
/// commit and read at dependent tasks' launches — the same DAG
/// exclusive-writer ordering that makes [`TileStore`]'s raw views sound,
/// hence the same `UnsafeCell` + `unsafe fn` shape.
pub(crate) struct GuardStore {
    slots: Vec<UnsafeCell<Option<u64>>>,
    per_family: usize,
    mt: usize,
}

// SAFETY: access is ordered by the task DAG exactly like the tile buffers
// themselves (see the struct docs).
unsafe impl Sync for GuardStore {}

impl GuardStore {
    pub(crate) fn new(mt: usize, nt: usize) -> Self {
        let per_family = mt * nt;
        GuardStore {
            slots: (0..SLOT_FAMILIES * per_family).map(|_| UnsafeCell::new(None)).collect(),
            per_family,
            mt,
        }
    }

    fn idx(&self, (fam, i, j): (SlotFamily, usize, usize)) -> usize {
        fam as usize * self.per_family + i + j * self.mt
    }

    /// The kernel-postcondition hook: recompute the guards of `t`'s
    /// write set from the freshly produced output.
    ///
    /// # Safety
    /// Same contract as [`TileStore::run_task`]: `t` has not completed, so
    /// no concurrent task touches its write set (or those slots' guards).
    pub(crate) unsafe fn refresh_task(&self, store: &TileStore, t: &Task) {
        for s in t.writes() {
            *self.slots[self.idx(s)].get() = Some(digest(store.slot_data(s)));
        }
    }

    /// Commit-time verification of `t`'s write-set guards against the
    /// buffers as found (after the SDC-vulnerable window).
    ///
    /// # Safety
    /// Same contract as [`GuardStore::refresh_task`].
    pub(crate) unsafe fn verify_outputs(
        &self,
        store: &TileStore,
        t: &Task,
    ) -> Option<SlotMismatch> {
        self.verify_slots(store, t.writes())
    }

    /// Pre-launch verification of `t`'s read set and write-set pre-images.
    /// Unguarded slots (no writer has committed them yet — e.g. pristine
    /// input tiles) are skipped.
    ///
    /// # Safety
    /// `t` is about to run: DAG order guarantees no concurrent writer of
    /// any slot in its read or write set.
    pub(crate) unsafe fn verify_inputs(&self, store: &TileStore, t: &Task) -> Option<SlotMismatch> {
        self.verify_slots(store, t.reads()).or_else(|| self.verify_slots(store, t.writes()))
    }

    unsafe fn verify_slots(
        &self,
        store: &TileStore,
        slots: Vec<(SlotFamily, usize, usize)>,
    ) -> Option<SlotMismatch> {
        slots.into_iter().find_map(|slot| {
            let expected = (*self.slots[self.idx(slot)].get())?;
            let found = digest(store.slot_data(slot));
            (found != expected).then_some(SlotMismatch { slot, expected, found })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{factor_slots, TSet};
    use crate::fault::{SdcFault, SdcPattern};
    use crate::graph::TaskGraph;
    use hqr_tile::TiledMatrix;

    /// A one-tile GEQRT run at `ib < b` with its write set guarded: the
    /// `b × b` tile A(0,0), its `b × b` V copy and its T factor of
    /// `t_len(b, ib)` doubles.
    fn with_guarded_geqrt(seed: u64, check: impl FnOnce(&TileStore, &Task, &GuardStore)) {
        let (b, ib) = (8, 4);
        let graph = TaskGraph::build(1, 1, b, &[]);
        let mut a = TiledMatrix::random(1, 1, b, seed);
        let store = TileStore::new(&mut a, ib, TSet::zeroed(&graph, ib, factor_slots(&graph)));
        let t = &graph.tasks()[0];
        let guards = GuardStore::new(1, 1);
        // SAFETY: one thread runs the one task.
        unsafe {
            assert!(guards.verify_outputs(&store, t).is_none(), "unguarded slots are skipped");
            store.run_task(t, graph.trans());
            guards.refresh_task(&store, t);
            assert_eq!(store.slot_data((SlotFamily::Tg, 0, 0)).len(), hqr_kernels::t_len(b, ib));
        }
        check(&store, t, &guards);
    }

    #[test]
    fn every_single_bit_flip_is_caught_by_the_digest() {
        // SAFETY: one thread, and no task is in flight.
        with_guarded_geqrt(13, |store, t, guards| unsafe {
            assert!(guards.verify_outputs(store, t).is_none());
            for (w, slot) in t.writes().into_iter().enumerate() {
                for element in 0..store.slot_data(slot).len() as u32 {
                    for bit in 0..64 {
                        let pattern = SdcPattern::BitFlip(bit);
                        let flip = SdcFault { slot: w as u32, element, pattern };
                        store.apply_sdc(t, &flip);
                        let m = guards.verify_outputs(store, t).expect("flip must be detected");
                        assert_eq!(m.slot, slot);
                        assert_ne!(m.found, m.expected);
                        store.apply_sdc(t, &flip);
                    }
                }
            }
            assert!(guards.verify_outputs(store, t).is_none(), "restored buffers verify again");
        });
    }

    #[test]
    fn refresh_tracks_legitimate_updates() {
        // SAFETY: one thread, and no task is in flight.
        with_guarded_geqrt(23, |store, t, guards| unsafe {
            let update = SdcFault { slot: 0, element: 0, pattern: SdcPattern::Scale };
            store.apply_sdc(t, &update);
            let m = guards.verify_outputs(store, t).expect("a stale guard flags the update");
            assert_eq!(m.label(), "A(0,0)");
            let text = m.to_string();
            assert!(text.contains(&format!("{:#018x}", m.expected)), "{text}");
            assert!(text.contains(&format!("{:#018x}", m.found)), "{text}");
            guards.refresh_task(store, t);
            assert!(guards.verify_outputs(store, t).is_none(), "the refreshed guard accepts it");
        });
    }

    #[test]
    fn mode_parses_and_displays() {
        for (s, m) in [
            ("off", IntegrityMode::Off),
            ("spot", IntegrityMode::Spot),
            ("full", IntegrityMode::Full),
        ] {
            assert_eq!(IntegrityMode::parse(s), Some(m));
            assert_eq!(m.to_string(), s);
        }
        assert_eq!(IntegrityMode::parse("paranoid"), None);
        assert_eq!(IntegrityMode::default(), IntegrityMode::Off);
        assert!(!IntegrityMode::Off.is_on());
        assert!(IntegrityMode::Spot.is_on());
        assert!(IntegrityMode::Full.is_on());
    }
}
