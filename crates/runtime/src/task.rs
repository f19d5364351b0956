//! Kernel tasks and their data-access footprints.

use hqr_kernels::{t_len, v_len, KernelKind};

/// A single kernel invocation in the factorization DAG.
///
/// Fields are `u16` tile indices — tiled matrices beyond 65k×65k tiles are
/// far outside the paper's regime (the largest experiment is 1024 tile
/// rows) and the compact layout keeps multi-million-task DAGs in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Kernel to run.
    pub kind: KernelKind,
    /// Panel index.
    pub k: u16,
    /// Row operated on (the triangularized row for GEQRT/UNMQR, the victim
    /// row for kill/update kernels).
    pub i: u16,
    /// Pivot (killer) row; unused (= `i`) for GEQRT/UNMQR.
    pub piv: u16,
    /// Trailing column for update kernels; unused (= `k`) for factor kernels.
    pub j: u16,
}

/// Slot families used for data-flow dependency tracking. Each family holds
/// one slot per tile coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotFamily {
    /// The matrix tile itself.
    A = 0,
    /// The copy of GEQRT's V factor (its strict lower triangle, packed
    /// column by column), copied out so UNMQRs can read it while kill
    /// kernels rewrite the tile's R part — the same logical-tile split
    /// DAGuE expresses through its data-flow descriptions.
    Vg = 1,
    /// GEQRT's T factor.
    Tg = 2,
    /// TSQRT/TTQRT's T factor (one per victim tile).
    Tk = 3,
}

/// Number of slot families.
pub const SLOT_FAMILIES: usize = 4;

impl SlotFamily {
    /// Short display name, e.g. for slot labels in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SlotFamily::A => "A",
            SlotFamily::Vg => "Vg",
            SlotFamily::Tg => "Tg",
            SlotFamily::Tk => "Tk",
        }
    }

    /// Doubles in one slot of this family at tile size `b` and inner
    /// block size `ib`: a full tile for `A`, [`v_len`] for `Vg`, [`t_len`]
    /// for the T families.
    pub fn slot_len(self, b: usize, ib: usize) -> usize {
        match self {
            SlotFamily::A => b * b,
            SlotFamily::Vg => v_len(b),
            SlotFamily::Tg | SlotFamily::Tk => t_len(b, ib),
        }
    }
}

impl Task {
    /// GEQRT task.
    pub fn geqrt(k: u16, i: u16) -> Self {
        Task { kind: KernelKind::Geqrt, k, i, piv: i, j: k }
    }

    /// UNMQR task (apply row `i`'s GEQRT to trailing column `j`).
    pub fn unmqr(k: u16, i: u16, j: u16) -> Self {
        Task { kind: KernelKind::Unmqr, k, i, piv: i, j }
    }

    /// TSQRT or TTQRT kill task.
    pub fn kill(k: u16, victim: u16, piv: u16, ts: bool) -> Self {
        let kind = if ts { KernelKind::Tsqrt } else { KernelKind::Ttqrt };
        Task { kind, k, i: victim, piv, j: k }
    }

    /// TSMQR or TTMQR update task.
    pub fn update(k: u16, victim: u16, piv: u16, j: u16, ts: bool) -> Self {
        let kind = if ts { KernelKind::Tsmqr } else { KernelKind::Ttmqr };
        Task { kind, k, i: victim, piv, j }
    }

    /// Human-readable label, `KERNEL(coords)` — the same naming the DOT
    /// export and the Chrome-trace export use, so a node in a Graphviz dump
    /// and a span in a Perfetto timeline can be matched by eye.
    pub fn label(&self) -> String {
        match self.kind {
            KernelKind::Geqrt => format!("GEQRT({},{})", self.i, self.k),
            KernelKind::Unmqr => format!("UNMQR({},{};{})", self.i, self.k, self.j),
            KernelKind::Tsqrt => format!("TSQRT({}<-{};{})", self.i, self.piv, self.k),
            KernelKind::Ttqrt => format!("TTQRT({}<-{};{})", self.i, self.piv, self.k),
            KernelKind::Tsmqr => format!("TSMQR({},{};{})", self.i, self.piv, self.j),
            KernelKind::Ttmqr => format!("TTMQR({},{};{})", self.i, self.piv, self.j),
        }
    }

    /// The tile whose owner node executes this task (owner-computes rule,
    /// matching DAGuE's data/task affinity: the task runs where its dominant
    /// output lives).
    pub fn affinity_tile(&self) -> (usize, usize) {
        match self.kind {
            KernelKind::Geqrt | KernelKind::Tsqrt | KernelKind::Ttqrt => {
                (self.i as usize, self.k as usize)
            }
            KernelKind::Unmqr | KernelKind::Tsmqr | KernelKind::Ttmqr => {
                (self.i as usize, self.j as usize)
            }
        }
    }

    /// Slots read by this task (excluding read-write slots listed in
    /// [`Task::writes`]); each entry is `(family, row, col)`.
    pub fn reads(&self) -> Vec<(SlotFamily, usize, usize)> {
        let (k, i) = (self.k as usize, self.i as usize);
        match self.kind {
            KernelKind::Geqrt => vec![],
            KernelKind::Unmqr => vec![(SlotFamily::Vg, i, k), (SlotFamily::Tg, i, k)],
            KernelKind::Tsqrt | KernelKind::Ttqrt => vec![],
            KernelKind::Tsmqr | KernelKind::Ttmqr => {
                vec![(SlotFamily::A, i, k), (SlotFamily::Tk, i, k)]
            }
        }
    }

    /// Slots written (or read-written) by this task.
    pub fn writes(&self) -> Vec<(SlotFamily, usize, usize)> {
        let (k, i, piv, j) = (self.k as usize, self.i as usize, self.piv as usize, self.j as usize);
        match self.kind {
            KernelKind::Geqrt => {
                vec![(SlotFamily::A, i, k), (SlotFamily::Vg, i, k), (SlotFamily::Tg, i, k)]
            }
            KernelKind::Unmqr => vec![(SlotFamily::A, i, j)],
            KernelKind::Tsqrt | KernelKind::Ttqrt => {
                vec![(SlotFamily::A, piv, k), (SlotFamily::A, i, k), (SlotFamily::Tk, i, k)]
            }
            KernelKind::Tsmqr | KernelKind::Ttmqr => {
                vec![(SlotFamily::A, piv, j), (SlotFamily::A, i, j)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_is_compact() {
        // Multi-million-task DAGs depend on this staying small.
        assert!(
            std::mem::size_of::<Task>() <= 12,
            "Task grew to {} bytes",
            std::mem::size_of::<Task>()
        );
    }

    #[test]
    fn affinity_follows_owner_computes() {
        assert_eq!(Task::geqrt(1, 3).affinity_tile(), (3, 1));
        assert_eq!(Task::kill(0, 5, 2, true).affinity_tile(), (5, 0));
        assert_eq!(Task::update(0, 5, 2, 4, false).affinity_tile(), (5, 4));
        assert_eq!(Task::unmqr(2, 2, 7).affinity_tile(), (2, 7));
    }

    #[test]
    fn kill_selects_kernel_family() {
        assert_eq!(Task::kill(0, 1, 0, true).kind, KernelKind::Tsqrt);
        assert_eq!(Task::kill(0, 1, 0, false).kind, KernelKind::Ttqrt);
        assert_eq!(Task::update(0, 1, 0, 1, true).kind, KernelKind::Tsmqr);
        assert_eq!(Task::update(0, 1, 0, 1, false).kind, KernelKind::Ttmqr);
    }

    #[test]
    fn geqrt_reads_nothing_but_rewrites_its_tile() {
        let t = Task::geqrt(0, 0);
        assert!(t.reads().is_empty());
        assert!(t.writes().contains(&(SlotFamily::A, 0, 0)));
        assert!(t.writes().contains(&(SlotFamily::Vg, 0, 0)));
    }

    #[test]
    fn update_reads_v_and_t_of_its_kill() {
        let t = Task::update(1, 4, 2, 3, true);
        let r = t.reads();
        assert!(r.contains(&(SlotFamily::A, 4, 1)));
        assert!(r.contains(&(SlotFamily::Tk, 4, 1)));
        let w = t.writes();
        assert!(w.contains(&(SlotFamily::A, 2, 3)));
        assert!(w.contains(&(SlotFamily::A, 4, 3)));
    }

    #[test]
    fn unmqr_reads_vg_copy_not_tile() {
        // The V copy is what lets UNMQR run concurrently with kills that
        // rewrite the pivot tile's R part.
        let t = Task::unmqr(0, 0, 2);
        let r = t.reads();
        assert!(r.contains(&(SlotFamily::Vg, 0, 0)));
        assert!(!r.iter().any(|&(f, _, _)| f == SlotFamily::A));
    }
}
