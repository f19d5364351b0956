//! DAG construction: from an elimination list to kernel tasks and
//! data-flow dependencies.
//!
//! Dependencies are discovered exactly the way DAGuE's symbolic data-flow
//! representation does: every task declares the tile slots it reads and
//! writes; a task depends on the last writer of each slot it touches. The
//! slot model (see [`crate::task::SlotFamily`]) splits a panel tile's V and
//! R parts so that trailing updates and kill kernels overlap, matching the
//! parallelism a real dataflow runtime extracts.

use crate::elim::ElimOp;
use crate::error::GraphError;
use crate::task::{SlotFamily, Task, SLOT_FAMILIES};
use hqr_kernels::{KernelKind, Trans};

/// An immutable task DAG in CSR form.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    mt: usize,
    nt: usize,
    b: usize,
    /// Direction every task's kernel applies its reflectors in: `Trans`
    /// for a factorization (and for Qᵀ·C), `NoTrans` for Q·C.
    trans: Trans,
    tasks: Vec<Task>,
    /// CSR offsets into `succ`, length `tasks.len() + 1`.
    succ_off: Vec<u32>,
    /// Successor task ids (with multiplicity; a successor depending on two
    /// outputs of the same predecessor appears twice, and its in-degree
    /// counts both).
    succ: Vec<u32>,
    /// Number of incoming dependency edges per task.
    in_degree: Vec<u32>,
}

impl TaskGraph {
    /// Build the full task DAG for an `mt × nt` tiled matrix (tile size `b`)
    /// from an elimination list ordered panel-major (all panel-k operations
    /// before panel-k+1 operations, and in execution-priority order within
    /// a panel).
    ///
    /// # Panics
    /// Panics if the shape or elimination list is rejected by
    /// [`TaskGraph::try_build`], with that error's message.
    pub fn build(mt: usize, nt: usize, b: usize, elims: &[ElimOp]) -> Self {
        match Self::try_build(mt, nt, b, elims) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`TaskGraph::build`] with validated input: a malformed shape or
    /// elimination list (empty matrix, zero tile size, unsorted panels, a
    /// TS victim used as a killer, indices out of range) is reported as a
    /// [`GraphError`] instead of a panic.
    pub fn try_build(mt: usize, nt: usize, b: usize, elims: &[ElimOp]) -> Result<Self, GraphError> {
        check_shape(mt, nt, b)?;
        let tasks = generate_tasks(mt, nt, elims)?;
        Ok(Self::from_ordered(mt, nt, b, Trans::Trans, tasks))
    }

    /// The DAG that applies op(Q) of the factorization `elims` describes
    /// (on an `mt × nt`-tile matrix) to an `mt × ntc`-tile matrix C: the
    /// update tasks the factorization of `[A | C]` would run on C's
    /// columns — Qᵀ·C is exactly what factoring A does to columns right of
    /// it. The graph is over the `mt × (nt + ntc)` shape: columns `< nt`
    /// are the factored tiles, read-only here, and columns `≥ nt` are C.
    /// For `NoTrans` (Q·C, "applying the reverse trees", §V-A) the task
    /// list is reversed, which reverses each C tile's kernel sequence; the
    /// kernels get `trans` from [`TaskGraph::trans`].
    pub fn apply_q(
        mt: usize,
        nt: usize,
        ntc: usize,
        b: usize,
        elims: &[ElimOp],
        trans: Trans,
    ) -> Result<Self, GraphError> {
        let ncols = nt.saturating_add(ntc);
        check_shape(mt, ncols, b)?;
        let kmax = mt.min(nt);
        if let Some((index, e)) = elims.iter().enumerate().find(|(_, e)| e.k as usize >= kmax) {
            return Err(GraphError::PanelOutOfRange { index, panel: e.k, kmax });
        }
        let mut tasks: Vec<Task> = generate_tasks(mt, ncols, elims)?
            .into_iter()
            .filter(|t| t.j as usize >= nt && (t.k as usize) < kmax)
            .collect();
        if trans == Trans::NoTrans {
            tasks.reverse();
        }
        Ok(Self::from_ordered(mt, ncols, b, trans, tasks))
    }

    /// This `NoTrans` apply-Q DAG without the updates that would find only
    /// +0 tiles: `last[jc]` is the last tile row of C's column `jc` that
    /// holds a bit pattern other than +0 (`None`: no row does). Panel `k`'s
    /// reflectors touch tile rows `≥ k` only, and Q·C runs every later
    /// panel before panel `k`, so while `k > last[jc]` each update of
    /// column `jc` reads and writes tiles that are still +0 and, with
    /// finite factors, leaves them +0. Dropping those changes no bit: it
    /// is the work LAPACK's `dorgqr` skips when it forms Q.
    pub(crate) fn without_zero_updates(self, last: &[Option<usize>]) -> Self {
        debug_assert_eq!(self.trans, Trans::NoTrans, "Qᵀ·C spreads C's rows upward");
        let nt = self.nt - last.len();
        let mut tasks = self.tasks;
        tasks.retain(|t| last[t.j as usize - nt].is_some_and(|l| t.k as usize <= l));
        Self::from_ordered(self.mt, self.nt, self.b, self.trans, tasks)
    }

    /// Rebuild a DAG from its task list — what a peer that was sent
    /// [`TaskGraph::tasks`] over the wire holds. The list comes from outside
    /// the program, so every index is checked against the shape and every
    /// task against its kernel (a factor kernel sits on its panel column, an
    /// update right of it, a kill's victim is not its pivot — which makes a
    /// task's operand slots pairwise distinct). Edges are last-writer edges
    /// over the list in the order given, so any accepted list is a DAG.
    pub fn try_from_tasks(
        mt: usize,
        nt: usize,
        b: usize,
        tasks: Vec<Task>,
    ) -> Result<Self, GraphError> {
        check_shape(mt, nt, b)?;
        let kmax = mt.min(nt);
        for (index, t) in tasks.iter().enumerate() {
            if t.k as usize >= kmax {
                return Err(GraphError::PanelOutOfRange { index, panel: t.k.into(), kmax });
            }
            if t.i as usize >= mt || t.piv as usize >= mt {
                let (victim, killer) = (t.i.into(), t.piv.into());
                return Err(GraphError::RowOutOfRange { index, victim, killer, mt });
            }
            if t.j as usize >= nt {
                return Err(GraphError::ColumnOutOfRange { index, column: t.j.into(), nt });
            }
            let (factor, paired) = match t.kind {
                KernelKind::Geqrt => (true, false),
                KernelKind::Unmqr => (false, false),
                KernelKind::Tsqrt | KernelKind::Ttqrt => (true, true),
                KernelKind::Tsmqr | KernelKind::Ttmqr => (false, true),
            };
            if (t.j == t.k) != factor || t.j < t.k || (t.piv != t.i) != paired {
                return Err(GraphError::MalformedTask { index, kernel: t.kind });
            }
        }
        Ok(Self::from_ordered(mt, nt, b, Trans::Trans, tasks))
    }

    /// The DAG of `tasks` in the order given, with last-writer edges.
    fn from_ordered(mt: usize, nt: usize, b: usize, trans: Trans, tasks: Vec<Task>) -> Self {
        let (succ_off, succ, in_degree) = build_edges(mt, nt, &tasks);
        TaskGraph { mt, nt, b, trans, tasks, succ_off, succ, in_degree }
    }

    /// Number of tile rows.
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Tile size the DAG was built for.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Direction the kernels apply reflectors in: `Trans` except for a
    /// Q·C graph from [`TaskGraph::apply_q`].
    pub fn trans(&self) -> Trans {
        self.trans
    }

    /// All tasks, in a valid topological (program) order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Successors of task `t` (with multiplicity).
    pub fn successors(&self, t: usize) -> &[u32] {
        &self.succ[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// Predecessors of every task (with multiplicity, ascending), built on
    /// demand from the successor lists: only recovery paths walk the DAG
    /// backwards, so the graph does not store them.
    pub fn predecessor_lists(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.tasks.len()];
        for t in 0..self.tasks.len() {
            for &s in self.successors(t) {
                preds[s as usize].push(t as u32);
            }
        }
        preds
    }

    /// In-degrees (number of dependency edges) per task.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Predecessor count of task `t`.
    pub fn in_degree(&self, t: usize) -> u32 {
        self.in_degree[t]
    }

    /// Sum of kernel floating-point operations over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.kind.flops(self.b)).sum()
    }
}

/// The shape every graph constructor accepts: a non-empty matrix of
/// non-empty tiles whose tile indices fit a [`Task`]'s `u16` fields.
fn check_shape(mt: usize, nt: usize, b: usize) -> Result<(), GraphError> {
    if mt == 0 || nt == 0 {
        return Err(GraphError::EmptyMatrix);
    }
    if b == 0 {
        return Err(GraphError::ZeroTileSize);
    }
    if mt >= u16::MAX as usize || nt >= u16::MAX as usize {
        return Err(GraphError::TileCountOverflow { mt, nt });
    }
    Ok(())
}

/// Expand an elimination list into the full kernel-task list of
/// Algorithms 1+2, in a topological program order.
fn generate_tasks(mt: usize, nt: usize, elims: &[ElimOp]) -> Result<Vec<Task>, GraphError> {
    let kmax = mt.min(nt);
    // Group eliminations by panel, preserving order.
    let mut by_panel: Vec<Vec<&ElimOp>> = vec![Vec::new(); kmax];
    let mut last_k = 0u32;
    for (index, e) in elims.iter().enumerate() {
        if e.k < last_k {
            return Err(GraphError::UnsortedPanels { index, panel: e.k, previous: last_k });
        }
        last_k = e.k;
        if e.k as usize >= kmax {
            return Err(GraphError::PanelOutOfRange { index, panel: e.k, kmax });
        }
        if e.victim as usize >= mt || e.killer as usize >= mt {
            return Err(GraphError::RowOutOfRange {
                index,
                victim: e.victim,
                killer: e.killer,
                mt,
            });
        }
        by_panel[e.k as usize].push(e);
    }
    let mut tasks = Vec::new();
    let mut is_triangle = vec![false; mt];
    for k in 0..kmax {
        let panel = &by_panel[k];
        // Rows needing GEQRT: the diagonal row plus every killer and every
        // TT victim. TS victims are killed as squares and must never be
        // triangularized.
        is_triangle[k..mt].fill(false);
        is_triangle[k] = true;
        for e in panel {
            is_triangle[e.killer as usize] = true;
            if !e.ts {
                is_triangle[e.victim as usize] = true;
            }
        }
        for e in panel {
            if e.ts && is_triangle[e.victim as usize] {
                return Err(GraphError::TsVictimTriangular { panel: k as u32, victim: e.victim });
            }
        }
        for (i, &tri) in is_triangle.iter().enumerate().take(mt).skip(k) {
            if tri {
                tasks.push(Task::geqrt(k as u16, i as u16));
                for j in (k + 1)..nt {
                    tasks.push(Task::unmqr(k as u16, i as u16, j as u16));
                }
            }
        }
        for e in panel {
            tasks.push(Task::kill(e.k as u16, e.victim as u16, e.killer as u16, e.ts));
            for j in (k + 1)..nt {
                tasks.push(Task::update(
                    e.k as u16,
                    e.victim as u16,
                    e.killer as u16,
                    j as u16,
                    e.ts,
                ));
            }
        }
    }
    Ok(tasks)
}

/// Two-pass CSR edge construction from last-writer tracking.
fn build_edges(mt: usize, nt: usize, tasks: &[Task]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    const NONE: u32 = u32::MAX;
    let slots = SLOT_FAMILIES * mt * nt;
    let slot_of = |(f, i, j): (SlotFamily, usize, usize)| (f as usize) * mt * nt + j * mt + i;

    let n = tasks.len();
    let mut out_deg = vec![0u32; n];
    let mut in_degree = vec![0u32; n];
    // Pass 1: count out-degrees.
    {
        let mut writer = vec![NONE; slots];
        let mut preds = [0u32; 8];
        for (tid, t) in tasks.iter().enumerate() {
            let mut np = 0;
            for s in t.reads().into_iter().chain(t.writes()) {
                let w = writer[slot_of(s)];
                if w != NONE {
                    preds[np] = w;
                    np += 1;
                }
            }
            // Dedup (a task may read two slots produced by one predecessor);
            // counted once so in-degree matches completion decrements.
            preds[..np].sort_unstable();
            let mut prev = NONE;
            for &p in &preds[..np] {
                if p != prev {
                    out_deg[p as usize] += 1;
                    in_degree[tid] += 1;
                    prev = p;
                }
            }
            for s in t.writes() {
                writer[slot_of(s)] = tid as u32;
            }
        }
    }
    let mut succ_off = vec![0u32; n + 1];
    for i in 0..n {
        succ_off[i + 1] = succ_off[i] + out_deg[i];
    }
    let mut succ = vec![0u32; succ_off[n] as usize];
    // Pass 2: fill.
    {
        let mut writer = vec![NONE; slots];
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        let mut preds = [0u32; 8];
        for (tid, t) in tasks.iter().enumerate() {
            let mut np = 0;
            for s in t.reads().into_iter().chain(t.writes()) {
                let w = writer[slot_of(s)];
                if w != NONE {
                    preds[np] = w;
                    np += 1;
                }
            }
            preds[..np].sort_unstable();
            let mut prev = NONE;
            for &p in &preds[..np] {
                if p != prev {
                    succ[cursor[p as usize] as usize] = tid as u32;
                    cursor[p as usize] += 1;
                    prev = p;
                }
            }
            for s in t.writes() {
                writer[slot_of(s)] = tid as u32;
            }
        }
    }
    (succ_off, succ, in_degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_kernels::KernelKind;
    use hqr_tile::TiledMatrix;

    /// Flat-tree elimination list for an `mt × nt` matrix (the [BBD+10]
    /// sequence: in every panel, the diagonal row kills all rows below with
    /// TS kernels, top to bottom).
    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    #[test]
    fn single_tile_has_one_task() {
        let g = TaskGraph::build(1, 1, 4, &[]);
        assert_eq!(g.tasks().len(), 1);
        assert_eq!(g.tasks()[0].kind, KernelKind::Geqrt);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn flat_tree_task_counts() {
        // For m×n flat tree: per panel k: 1 GEQRT + (nt-1-k) UNMQR +
        // (mt-1-k) TSQRT + (mt-1-k)(nt-1-k) TSMQR.
        let (mt, nt) = (4, 3);
        let g = TaskGraph::build(mt, nt, 2, &flat_elims(mt, nt));
        let count = |kind: KernelKind| g.tasks().iter().filter(|t| t.kind == kind).count();
        assert_eq!(count(KernelKind::Geqrt), 3);
        assert_eq!(count(KernelKind::Unmqr), 2 + 1); // panels 0,1 (panel 2 has none)
        assert_eq!(count(KernelKind::Tsqrt), 3 + 2 + 1);
        assert_eq!(count(KernelKind::Tsmqr), 3 * 2 + 2); // (mt-1-k)(nt-1-k) per panel
        assert_eq!(count(KernelKind::Ttqrt), 0);
    }

    #[test]
    fn program_order_is_topological() {
        let (mt, nt) = (6, 4);
        let g = TaskGraph::build(mt, nt, 2, &flat_elims(mt, nt));
        // every edge must go forward in task order
        for t in 0..g.tasks().len() {
            for &s in g.successors(t) {
                assert!((s as usize) > t, "edge {t} -> {s} goes backwards");
            }
        }
    }

    #[test]
    fn in_degree_matches_edges() {
        let (mt, nt) = (5, 5);
        let g = TaskGraph::build(mt, nt, 2, &flat_elims(mt, nt));
        let mut indeg = vec![0u32; g.tasks().len()];
        for t in 0..g.tasks().len() {
            for &s in g.successors(t) {
                indeg[s as usize] += 1;
            }
        }
        assert_eq!(indeg, g.in_degrees());
        let preds = g.predecessor_lists();
        assert!(preds.iter().map(|p| p.len() as u32).eq(g.in_degrees().iter().copied()));
        for (t, p) in preds.iter().enumerate() {
            assert!(p.iter().all(|&q| g.successors(q as usize).contains(&(t as u32))));
        }
    }

    #[test]
    fn first_geqrt_has_no_dependencies() {
        let g = TaskGraph::build(3, 3, 2, &flat_elims(3, 3));
        assert_eq!(g.tasks()[0], Task::geqrt(0, 0));
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn kill_chain_serializes_on_pivot() {
        // Flat tree on a single panel: TSQRT(1) -> TSQRT(2) -> TSQRT(3)
        // must form a chain through the pivot tile.
        let g = TaskGraph::build(4, 1, 2, &flat_elims(4, 1));
        let ids: Vec<usize> = g
            .tasks()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == KernelKind::Tsqrt)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ids.len(), 3);
        for w in ids.windows(2) {
            assert!(g.successors(w[0]).contains(&(w[1] as u32)), "kill chain broken");
        }
    }

    #[test]
    fn unmqr_does_not_block_kills() {
        // The V-copy slot means TSQRT(k=0, i=1, piv=0) must NOT depend on
        // UNMQR(0, 0, j) — only on GEQRT(0,0).
        let g = TaskGraph::build(2, 2, 2, &flat_elims(2, 2));
        let tsqrt_id = g.tasks().iter().position(|t| t.kind == KernelKind::Tsqrt).unwrap();
        let unmqr_id = g.tasks().iter().position(|t| t.kind == KernelKind::Unmqr).unwrap();
        assert!(
            !g.successors(unmqr_id).contains(&(tsqrt_id as u32)),
            "UNMQR must not gate the kill chain"
        );
        assert_eq!(g.in_degree(tsqrt_id), 1, "TSQRT depends only on GEQRT");
    }

    #[test]
    fn tt_victim_gets_geqrt() {
        // Binary-tree single panel on 2 rows with TT kernels: both rows
        // triangularized.
        let elims = vec![ElimOp::new(0, 1, 0, false)];
        let g = TaskGraph::build(2, 1, 2, &elims);
        let geqrts = g.tasks().iter().filter(|t| t.kind == KernelKind::Geqrt).count();
        assert_eq!(geqrts, 2);
        assert_eq!(g.tasks().iter().filter(|t| t.kind == KernelKind::Ttqrt).count(), 1);
    }

    #[test]
    #[should_panic(expected = "must stay square")]
    fn ts_victim_that_kills_is_rejected() {
        // Row 1 is TS-killed but also kills row 2 -> invalid.
        let elims = vec![ElimOp::new(0, 2, 1, true), ElimOp::new(0, 1, 0, true)];
        let _ = TaskGraph::build(3, 1, 2, &elims);
    }

    #[test]
    #[should_panic(expected = "sorted by panel")]
    fn unsorted_panels_rejected() {
        let elims = vec![ElimOp::new(1, 2, 1, true), ElimOp::new(0, 1, 0, true)];
        let _ = TaskGraph::build(3, 2, 2, &elims);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        use crate::error::GraphError;
        assert_eq!(TaskGraph::try_build(0, 1, 2, &[]).unwrap_err(), GraphError::EmptyMatrix);
        assert_eq!(TaskGraph::try_build(2, 2, 0, &[]).unwrap_err(), GraphError::ZeroTileSize);
        let unsorted = vec![ElimOp::new(1, 2, 1, true), ElimOp::new(0, 1, 0, true)];
        assert!(matches!(
            TaskGraph::try_build(3, 2, 2, &unsorted).unwrap_err(),
            GraphError::UnsortedPanels { index: 1, .. }
        ));
        let bad_panel = vec![ElimOp::new(5, 1, 0, true)];
        assert!(matches!(
            TaskGraph::try_build(3, 2, 2, &bad_panel).unwrap_err(),
            GraphError::PanelOutOfRange { panel: 5, .. }
        ));
        let bad_row = vec![ElimOp::new(0, 9, 0, true)];
        assert!(matches!(
            TaskGraph::try_build(3, 2, 2, &bad_row).unwrap_err(),
            GraphError::RowOutOfRange { victim: 9, .. }
        ));
        let ts_killer = vec![ElimOp::new(0, 2, 1, true), ElimOp::new(0, 1, 0, true)];
        assert!(matches!(
            TaskGraph::try_build(3, 1, 2, &ts_killer).unwrap_err(),
            GraphError::TsVictimTriangular { victim: 1, .. }
        ));
    }

    #[test]
    fn try_build_accepts_valid_lists() {
        let g = TaskGraph::try_build(4, 3, 2, &flat_elims(4, 3)).unwrap();
        let g2 = TaskGraph::build(4, 3, 2, &flat_elims(4, 3));
        assert_eq!(g.tasks(), g2.tasks());
        assert_eq!(g.in_degrees(), g2.in_degrees());
    }

    #[test]
    fn try_from_tasks_rebuilds_the_same_dag() {
        let g = TaskGraph::build(5, 3, 2, &flat_elims(5, 3));
        let back = TaskGraph::try_from_tasks(5, 3, 2, g.tasks().to_vec()).unwrap();
        assert_eq!(back.tasks(), g.tasks());
        assert_eq!(back.in_degrees(), g.in_degrees());
        for t in 0..g.tasks().len() {
            assert_eq!(back.successors(t), g.successors(t));
        }
    }

    #[test]
    fn try_from_tasks_reports_typed_errors() {
        let from = |t: Task| TaskGraph::try_from_tasks(3, 2, 2, vec![Task::geqrt(0, 0), t]);
        assert_eq!(
            TaskGraph::try_from_tasks(0, 2, 2, vec![]).unwrap_err(),
            GraphError::EmptyMatrix
        );
        assert_eq!(
            TaskGraph::try_from_tasks(3, 2, 0, vec![]).unwrap_err(),
            GraphError::ZeroTileSize
        );
        assert!(matches!(
            from(Task::geqrt(2, 2)).unwrap_err(),
            GraphError::PanelOutOfRange { index: 1, panel: 2, kmax: 2 }
        ));
        assert!(matches!(
            from(Task::geqrt(0, 3)).unwrap_err(),
            GraphError::RowOutOfRange { index: 1, victim: 3, .. }
        ));
        assert!(matches!(
            from(Task::kill(0, 1, 7, true)).unwrap_err(),
            GraphError::RowOutOfRange { index: 1, killer: 7, .. }
        ));
        assert!(matches!(
            from(Task::unmqr(0, 0, 2)).unwrap_err(),
            GraphError::ColumnOutOfRange { index: 1, column: 2, nt: 2 }
        ));
        // Coordinates in range that no task of the kind can have: a kill of
        // the pivot by itself, an update on the panel column, a GEQRT with a
        // pivot, an UNMQR left of its panel.
        for bad in [
            Task::kill(0, 1, 1, false),
            Task::update(0, 1, 0, 0, true),
            Task { piv: 1, ..Task::geqrt(0, 0) },
            Task { k: 1, j: 0, ..Task::unmqr(0, 1, 1) },
        ] {
            assert!(
                matches!(from(bad).unwrap_err(), GraphError::MalformedTask { index: 1, .. }),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn total_flops_matches_weight_invariant() {
        // §II: total weight = 6mn² − 2n³ in b³/3 units, for any list.
        let (mt, nt) = (6, 4);
        let g = TaskGraph::build(mt, nt, 3, &flat_elims(mt, nt));
        let expected_weight = 6.0 * (mt * nt * nt) as f64 - 2.0 * (nt * nt * nt) as f64;
        let expected = expected_weight * 27.0 / 3.0;
        assert!((g.total_flops() - expected).abs() < 1e-9, "{} vs {expected}", g.total_flops());
    }

    /// `graph` run serially on a fresh random `mt × nt` matrix: the factored
    /// tiles and their factors.
    fn factored(graph: &TaskGraph, seed: u64) -> (TiledMatrix, crate::TFactors) {
        let mut a = TiledMatrix::random(graph.mt(), graph.nt(), graph.b(), seed);
        let f = crate::execute_serial(graph, &mut a);
        (a, f)
    }

    fn apply(a: &TiledMatrix, f: &crate::TFactors, ops: &[ElimOp], c: &mut TiledMatrix, t: Trans) {
        let opts = crate::ExecOptions::with_threads(3);
        crate::try_apply_q(a, f, ops, c, t, &opts).unwrap();
    }

    #[test]
    fn apply_q_graph_is_topological_and_complete() {
        let (mt, nt, ntc) = (6usize, 3usize, 2usize);
        let ops = flat_elims(mt, nt);
        for trans in [Trans::Trans, Trans::NoTrans] {
            let g = TaskGraph::apply_q(mt, nt, ntc, 2, &ops, trans).unwrap();
            assert_eq!((g.nt(), g.trans()), (nt + ntc, trans));
            // One task per (GEQRT row, column of C) + (kill, column of C).
            assert_eq!(g.tasks().len(), nt * ntc + ops.len() * ntc);
            assert!(g.tasks().iter().all(|t| t.j as usize >= nt));
            for t in 0..g.tasks().len() {
                for &s in g.successors(t) {
                    assert!((s as usize) > t, "edge {t}->{s} backwards");
                }
            }
        }
        // A kill in a panel the factored matrix does not have.
        let beyond = [ElimOp::new(nt as u32, nt as u32 + 1, nt as u32, true)];
        assert!(matches!(
            TaskGraph::apply_q(mt, nt, ntc, 2, &beyond, Trans::Trans).unwrap_err(),
            GraphError::PanelOutOfRange { index: 0, .. }
        ));
    }

    #[test]
    fn apply_q_roundtrips() {
        let (mt, nt, b) = (6usize, 2usize, 4usize);
        let ops = flat_elims(mt, nt);
        let (a, f) = factored(&TaskGraph::build(mt, nt, b, &ops), 73);
        let c0 = TiledMatrix::random(mt, 1, b, 74);
        let mut c = c0.clone();
        apply(&a, &f, &ops, &mut c, Trans::Trans);
        apply(&a, &f, &ops, &mut c, Trans::NoTrans);
        let diff = c.to_dense().sub(&c0.to_dense()).frob_norm();
        assert!(diff < 1e-11, "Q Qᵀ C != C: {diff}");
    }

    #[test]
    fn apply_q_columns_are_independent() {
        // Applying to a 2-column C equals applying to each column alone.
        let (mt, nt, b) = (5usize, 2usize, 3usize);
        let ops = flat_elims(mt, nt);
        let (a, f) = factored(&TaskGraph::build(mt, nt, b, &ops), 75);
        let c0 = TiledMatrix::random(mt, 2, b, 76);
        let mut whole = c0.clone();
        apply(&a, &f, &ops, &mut whole, Trans::Trans);
        for col in 0..2 {
            let mut single = TiledMatrix::zeros(mt, 1, b);
            for i in 0..mt {
                single.tile_mut(i, 0).copy_from_slice(c0.tile(i, col));
            }
            apply(&a, &f, &ops, &mut single, Trans::Trans);
            for i in 0..mt {
                assert_eq!(single.tile(i, 0), whole.tile(i, col), "column {col}, row {i}");
            }
        }
    }

    /// At the check's shape of 64 x 16 tiles (one TS domain, so panel
    /// `k` has `mt − k` factor tasks), applying Q to [R; 0] or [I; 0] —
    /// column `jc` nonzero down to tile row `jc` — keeps 8 024 of the
    /// 14 464 updates: `Σ_jc Σ_{k ≤ jc} (mt − k)`.
    #[test]
    fn zero_updates_are_dropped_by_panel_and_column() {
        let (mt, nt) = (64usize, 16usize);
        let g = TaskGraph::apply_q(mt, nt, nt, 1, &flat_elims(mt, nt), Trans::NoTrans).unwrap();
        assert_eq!(g.tasks().len(), 14_464);
        let last: Vec<_> = (0..nt).map(Some).collect();
        let kept = g.without_zero_updates(&last);
        assert_eq!(kept.tasks().len(), 8_024);
        assert!(kept.tasks().iter().all(|t| t.k <= t.j - nt as u16));
        for t in 0..kept.tasks().len() {
            assert!(kept.successors(t).iter().all(|&s| s as usize > t), "edges stay forward");
        }
        // An all-+0 column keeps nothing; one nonzero in the last row keeps all.
        let g = TaskGraph::apply_q(mt, nt, 2, 1, &flat_elims(mt, nt), Trans::NoTrans).unwrap();
        let full = g.tasks().len();
        assert_eq!(g.without_zero_updates(&[None, Some(mt - 1)]).tasks().len(), full / 2);
    }

    #[test]
    fn square_matrix_last_panel_only_geqrt() {
        let g = TaskGraph::build(3, 3, 2, &flat_elims(3, 3));
        let last = g.tasks().last().unwrap();
        assert_eq!(*last, Task::geqrt(2, 2));
    }
}
