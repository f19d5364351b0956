//! The comparison algorithms of §V, each expressed as a parametrization of
//! the HQR engine — exactly as the paper does ("Since \[SLHD10\] is a
//! sub-case of the HQR algorithm, we use our DAGUE-based implementation of
//! HQR to execute it", §V-A).

use crate::elim::ElimList;
use crate::hier::HqrConfig;
use crate::schedule::Schedule;
use crate::trees::TreeKind;
use hqr_tile::{Layout, ProcessGrid};

/// An algorithm plus the data layout it runs on — everything the simulator
/// and the real runtime need.
#[derive(Clone, Debug)]
pub struct AlgorithmSetup {
    /// Display name (as in the paper's figure legends).
    pub name: String,
    /// The elimination list.
    pub elims: ElimList,
    /// Tile-to-node mapping.
    pub layout: Layout,
}

/// \[BBD+10\]: "the QR operation currently available in DAGUE" — a plain
/// flat tree (single killer per panel, TS kernels) over a 2D block-cyclic
/// layout, not aware of the distribution (§V-A).
pub fn bbd10(mt: usize, nt: usize, grid: ProcessGrid) -> AlgorithmSetup {
    let cfg = HqrConfig::new(1, 1).with_a(mt.max(1));
    AlgorithmSetup {
        name: "[BBD+10]".into(),
        elims: cfg.elimination_list(mt, nt),
        layout: Layout::Cyclic2D(grid),
    }
}

/// \[SLHD10\]: Song et al.'s communication-avoiding QR — "virtual grid value
/// p = 1, domains of size a = m/r, data distribution CYCLIC(a), low-level
/// binary tree" (§V-A) on a 1D block layout of `r` nodes.
pub fn slhd10(mt: usize, nt: usize, r: usize) -> AlgorithmSetup {
    assert!(r > 0, "need at least one node");
    let a = mt.div_ceil(r).max(1);
    let cfg = HqrConfig::new(1, 1).with_a(a).with_low(TreeKind::Binary);
    AlgorithmSetup {
        name: "[SLHD10]".into(),
        elims: cfg.elimination_list(mt, nt),
        layout: Layout::BlockCyclicRows { nodes: r, block: a },
    }
}

/// HQR with an explicit configuration on a virtual grid mapped 1:1 to the
/// physical grid (§V-A: "All HQR runs use a virtual cluster grid exactly
/// mapping the process grid used for data distribution").
pub fn hqr(mt: usize, nt: usize, grid: ProcessGrid, cfg: HqrConfig) -> AlgorithmSetup {
    assert_eq!((cfg.p, cfg.q), (grid.p, grid.q), "virtual grid must map the process grid");
    AlgorithmSetup {
        name: cfg.describe(),
        elims: cfg.elimination_list(mt, nt),
        layout: Layout::Cyclic2D(grid),
    }
}

/// HQR with a physical data layout *decoupled* from the virtual grid —
/// §IV-A: "The actual (physical) distribution of tiles to clusters needs
/// not obey the virtual p × q cluster grid... This additional flexibility
/// allows us to execute all previously published algorithms simply by
/// tuning the actual distribution parameters."
pub fn hqr_with_layout(mt: usize, nt: usize, cfg: HqrConfig, layout: Layout) -> AlgorithmSetup {
    AlgorithmSetup {
        name: format!("{} on {:?}", cfg.describe(), layout),
        elims: cfg.elimination_list(mt, nt),
        layout,
    }
}

/// The tall-and-skinny tuning of Figure 8: both trees FIBONACCI, a = 4,
/// domino on (§V-C: "we need low and high level trees adapted for tall and
/// skinny matrices so we set both level trees to FIBONACCI ... we set
/// a = 4 ... we activate the domino optimization").
pub fn hqr_tall_skinny(mt: usize, nt: usize, grid: ProcessGrid) -> AlgorithmSetup {
    hqr(mt, nt, grid, tall_config(grid, 4.min(mt.max(1))))
}

/// [`hqr_tall_skinny`]'s trees with TS domains of `a` local rows.
fn tall_config(grid: ProcessGrid, a: usize) -> HqrConfig {
    HqrConfig::new(grid.p, grid.q)
        .with_a(a)
        .with_low(TreeKind::Fibonacci)
        .with_high(TreeKind::Fibonacci)
        .with_domino(true)
}

/// The square-matrix tuning of Figure 9: high-level FLATTREE (fewer
/// inter-node messages once parallelism is abundant), low-level FIBONACCI,
/// a = 4, domino off (§V-C).
pub fn hqr_square(mt: usize, nt: usize, grid: ProcessGrid) -> AlgorithmSetup {
    hqr(mt, nt, grid, square_config(grid, 4.min(mt.max(1))))
}

/// [`hqr_square`]'s trees with TS domains of `a` local rows.
fn square_config(grid: ProcessGrid, a: usize) -> HqrConfig {
    HqrConfig::new(grid.p, grid.q)
        .with_a(a)
        .with_low(TreeKind::Fibonacci)
        .with_high(TreeKind::Flat)
        .with_domino(false)
}

/// Coarse-grain eliminations in flight per node of the grid (§III-A's
/// unit-time model: eliminations over the schedule's makespan, over p·q)
/// that [`hqr_adaptive`]'s square family needs before it takes one TS
/// domain per cluster. It sits between the benchmark's square shapes
/// (0.87–2.07, where the flat chains measured faster on real kernels; 1.00
/// for 240 × 240 tiles on 1 × 60, where the simulator puts them 2.15×
/// ahead) and the paper's other 60-node grids (at most 0.36, where it
/// finds no clear gain) or the 3 × 2 grid of `tests/paper_claims.rs`
/// (0.41–0.43): EXPERIMENTS.md, "Figs 6–7 on real kernels".
const SPARE_PARALLELISM: f64 = 0.5;

/// The tall family's [`SPARE_PARALLELISM`]. A tall list's elimination
/// carries at most nt − 1 updates, so it needs more coarse eliminations in
/// flight to keep the cores fed. It sits between the benchmark's tall
/// shapes (3.78 for 256 × 4 tiles on 2 × 1, 2.68 for the `--quick` 32 × 4,
/// where one domain measured faster) and the paper-scale tall lists (fig9's
/// 240 × {4…32} on 15 × 4 at 0.45–0.74, ablations' 1024 × 16 at 2.07 on
/// 60 × 1, 1.92 on 15 × 4 and 0.92 on 4 × 15).
const TALL_SPARE_PARALLELISM: f64 = 2.5;

/// The shape-adaptive choice the benchmark and the Figure 9 sweep use: one
/// rule over two tree families.
///
/// * Tall and skinny (`mt ≥ 4·nt`): [`hqr_tall_skinny`]'s trees, both
///   FIBONACCI with the domino (§V-C).
/// * Otherwise [`hqr_square`]'s: FIBONACCI low, flat high, no domino.
///
/// Each family takes one TS domain per cluster (a = ⌈mt/p⌉: a flat TS
/// chain in each cluster, then the family's high tree) while that list
/// keeps the family's spare coarse eliminations in flight per node
/// (`SPARE_PARALLELISM`, 0.5, square; `TALL_SPARE_PARALLELISM`, 2.5, tall),
/// and a = 4 where it does not. TT kernels buy parallelism with slower
/// kernels (§II); where the DAG has parallelism to spare, the TS chain's
/// faster kernels and fewer GEQRT heads win (EXPERIMENTS.md, "Figs 6–7 on
/// real kernels").
pub fn hqr_adaptive(mt: usize, nt: usize, grid: ProcessGrid) -> AlgorithmSetup {
    hqr(mt, nt, grid, adaptive_config(mt, nt, grid))
}

/// The configuration [`hqr_adaptive`] runs.
pub fn adaptive_config(mt: usize, nt: usize, grid: ProcessGrid) -> HqrConfig {
    let (family, spare): (fn(ProcessGrid, usize) -> HqrConfig, f64) = if mt >= 4 * nt {
        (tall_config, TALL_SPARE_PARALLELISM)
    } else {
        (square_config, SPARE_PARALLELISM)
    };
    let one_domain = family(grid, mt.div_ceil(grid.p).max(1));
    if coarse_parallelism(&one_domain.elimination_list(mt, nt), grid) >= spare {
        one_domain
    } else {
        family(grid, 4.min(mt.max(1)))
    }
}

/// Coarse-grain eliminations in flight per node: the list's eliminations
/// over the makespan of its unit-time schedule (§III-A), over the grid's
/// p·q nodes.
pub fn coarse_parallelism(elims: &ElimList, grid: ProcessGrid) -> f64 {
    let steps = Schedule::of_list(elims).makespan().max(1);
    elims.elims().len() as f64 / (steps * grid.p * grid.q) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::Level;

    #[test]
    fn bbd10_is_single_killer_flat() {
        let s = bbd10(8, 3, ProcessGrid::new(2, 2));
        for k in 0..3 {
            for e in s.elims.panel(k) {
                assert_eq!(e.killer as usize, k, "flat tree: diagonal kills everything");
                assert!(e.ts);
            }
        }
        assert_eq!(s.layout.nodes(), 4);
    }

    #[test]
    fn slhd10_has_r_domains_and_binary_combine() {
        let s = slhd10(16, 2, 4);
        // Domain heads: rows 0, 4, 8, 12 in panel 0; the inter-domain
        // reduction is a binary tree of TT kills among the heads.
        let heads: Vec<u32> =
            s.elims.panel(0).filter(|e| e.level == Level::Low).map(|e| e.victim).collect();
        assert_eq!(heads.len(), 3, "3 of 4 heads killed");
        for h in heads {
            assert_eq!(h % 4, 0, "only domain heads are TT victims, got {h}");
        }
        // 1D block layout: rows 0..3 on node 0, 4..7 on node 1, ...
        assert_eq!(s.layout.owner(0, 0), 0);
        assert_eq!(s.layout.owner(5, 1), 1);
        assert_eq!(s.layout.owner(15, 0), 3);
    }

    #[test]
    fn slhd10_ragged_rows() {
        // mt not divisible by r still validates.
        let s = slhd10(13, 3, 4);
        assert_eq!(s.elims.mt(), 13);
    }

    #[test]
    fn hqr_presets_validate_on_many_shapes() {
        let grid = ProcessGrid::new(3, 2);
        for (mt, nt) in [(24, 4), (12, 12), (6, 10), (1, 1)] {
            let _ = hqr_tall_skinny(mt, nt, grid);
            let _ = hqr_square(mt, nt, grid);
            let _ = hqr_adaptive(mt, nt, grid);
        }
    }

    #[test]
    fn adaptive_switches_with_shape() {
        let grid = ProcessGrid::new(3, 2);
        let tall = hqr_adaptive(64, 4, grid);
        let square = hqr_adaptive(16, 16, grid);
        assert!(tall.name.contains("domino=on"));
        assert!(square.name.contains("domino=off"));
        assert!(square.name.contains("high=flat"));
    }

    /// `hqr_adaptive`'s decision on the benchmark's five workload shapes
    /// (`square`, `tall_skinny`, `paged`, `dist`, `serve`, in tiles), and the
    /// paper-scale settings that keep the paper's lists: each family is
    /// [`hqr_tall_skinny`] or [`hqr_square`] wherever its one-domain list
    /// lacks spare parallelism. `fig9` sweeps N on 240 tile rows and
    /// `ablations` sweeps the 60-node grids on 1024 × 16 and 240 × 240, all
    /// at b = 280; `scaling` calls [`hqr_tall_skinny`] directly.
    #[test]
    fn adaptive_decision_table() {
        let name = |mt, nt, (p, q)| hqr_adaptive(mt, nt, ProcessGrid::new(p, q)).name;
        let hqr = |p, q, a, low, high, domino| {
            format!("HQR p={p} q={q} a={a} low={low} high={high} domino={domino}")
        };
        assert_eq!(name(24, 24, (2, 1)), hqr(2, 1, 12, "fibonacci", "flat", "off"));
        assert_eq!(name(256, 4, (2, 1)), hqr(2, 1, 128, "fibonacci", "fibonacci", "on"));
        assert_eq!(name(20, 20, (2, 1)), hqr(2, 1, 10, "fibonacci", "flat", "off"));
        assert_eq!(name(16, 16, (1, 2)), hqr(1, 2, 16, "fibonacci", "flat", "off"));
        assert_eq!(name(8, 4, (2, 1)), hqr(2, 1, 4, "fibonacci", "flat", "off"));
        // The tall boundary on the benchmark's grid: `trees --quick`'s 32 × 4
        // (2.68) takes one domain, 16 × 4 (1.93) keeps a = 4.
        assert_eq!(name(32, 4, (2, 1)), hqr(2, 1, 16, "fibonacci", "fibonacci", "on"));
        assert_eq!(name(16, 4, (2, 1)), hqr(2, 1, 4, "fibonacci", "fibonacci", "on"));

        let paper_list = |mt: usize, nt: usize, grid: ProcessGrid| {
            if mt >= 4 * nt {
                hqr_tall_skinny(mt, nt, grid)
            } else {
                hqr_square(mt, nt, grid)
            }
        };
        let unchanged = |mt, nt, (p, q)| {
            let grid = ProcessGrid::new(p, q);
            hqr_adaptive(mt, nt, grid).elims.to_ops() == paper_list(mt, nt, grid).elims.to_ops()
        };
        assert!(unchanged(8, 4, (2, 1)) && unchanged(16, 4, (2, 1)));
        assert!(!unchanged(256, 4, (2, 1)) && !unchanged(32, 4, (2, 1)));
        for n in [4, 8, 16, 32, 60, 120, 240] {
            assert!(unchanged(240, n, (15, 4)), "fig9 240 x {n}");
        }
        let grids = [(60, 1), (30, 2), (20, 3), (15, 4), (12, 5), (10, 6), (6, 10), (5, 12)];
        for grid in grids.into_iter().chain([(4, 15), (2, 30)]) {
            assert!(unchanged(1024, 16, grid) && unchanged(240, 240, grid), "{grid:?}");
        }
        // The one paper-scale row that moves: 240 × 240 on a 1 × 60 grid is
        // a single row cluster, where the simulator puts one flat TS chain
        // 2.15× ahead of a = 4 (EXPERIMENTS.md, "Figs 6–7 on real kernels").
        assert!(unchanged(1024, 16, (1, 60)) && !unchanged(240, 240, (1, 60)));
    }

    /// The lists of the benchmark's `square`, `paged`, `dist` and `serve`
    /// shapes, pinned by `(ops, fnv1a64 of k | victim | killer | ts)`: a
    /// change to the tall family must leave them byte for byte.
    #[test]
    fn adaptive_square_workload_lists_are_pinned() {
        let digest = |mt, nt, (p, q)| {
            let ops = hqr_adaptive(mt, nt, ProcessGrid::new(p, q)).elims.to_ops();
            let mut bytes = Vec::new();
            for e in &ops {
                [e.k, e.victim, e.killer].iter().for_each(|w| bytes.extend(w.to_le_bytes()));
                bytes.push(e.ts as u8);
            }
            (ops.len(), hqr_tile::io::fnv1a64(&bytes))
        };
        assert_eq!(digest(24, 24, (2, 1)), (276, 6253992385580874339), "square");
        assert_eq!(digest(20, 20, (2, 1)), (190, 1869138354302255043), "paged");
        assert_eq!(digest(16, 16, (1, 2)), (120, 10213063602246716973), "dist");
        assert_eq!(digest(8, 4, (2, 1)), (22, 8196814371300406965), "serve");
    }

    #[test]
    #[should_panic(expected = "virtual grid must map")]
    fn hqr_grid_mismatch_rejected() {
        let cfg = HqrConfig::new(2, 2);
        let _ = hqr(8, 4, ProcessGrid::new(3, 2), cfg);
    }

    #[test]
    fn decoupled_layout_reproduces_slhd10() {
        // §IV-A's worked example: [2] on r processors = virtual p = 1,
        // domains a = m/r, physical CYCLIC(a).
        let (mt, nt, r) = (16usize, 3usize, 4usize);
        let a = mt / r;
        let cfg = HqrConfig::new(1, 1).with_a(a).with_low(crate::trees::TreeKind::Binary);
        let via_general =
            hqr_with_layout(mt, nt, cfg, Layout::BlockCyclicRows { nodes: r, block: a });
        let canonical = slhd10(mt, nt, r);
        assert_eq!(via_general.elims.to_ops(), canonical.elims.to_ops());
        assert_eq!(via_general.layout, canonical.layout);
    }
}
