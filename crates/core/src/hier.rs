//! The hierarchical algorithm HQR (§IV): a four-level reduction tree over a
//! virtual p×q cluster grid.
//!
//! For panel `k` and row-cluster `r` (tile row `i` belongs to cluster
//! `i mod p`, at local row `l = i div p`):
//!
//! * the cluster's **top tile** is its first local row with global index
//!   ≥ k (`l_top = ⌈(k−r)/p⌉`); there are ≤ p top tiles, "located on the
//!   first p diagonals of the matrix" (§IV-B);
//! * the **local diagonal** is local row `l = k` — "a line of slope 1 in
//!   the local view, hence of slope p in the global view";
//! * **level 0 (TS)**: below the local diagonal, every domain of `a`
//!   consecutive local rows is reduced by its first participating row with
//!   cache-friendly TS kernels;
//! * **level 1 (low)**: the domain heads are reduced by the low-level tree,
//!   "the last killer on each panel is the tile on the local diagonal";
//! * **level 2 (coupling/domino)**: the band between the top tile
//!   (excluded) and the local diagonal (included) is a chain — local row
//!   `l` is killed by local row `l−1` (global pivot `i − p`). Readiness
//!   ripples top-down across panels "like a domino";
//! * **level 3 (high)**: the top tiles are reduced across clusters by the
//!   high-level tree, rooted at the cluster owning diagonal row k.
//!
//! With the domino coupling disabled, levels 0–1 extend up to the top tile
//! and level 2 disappears (the low tree is rooted at the top tile).

use crate::elim::{ElimList, Elimination, Level};
use crate::trees::TreeKind;
use hqr_tile::{Layout, ProcessGrid};

/// Configuration of the hierarchical QR algorithm.
///
/// The defaults (`a = 1`, greedy low level, Fibonacci high level, no
/// domino) are safe for any matrix shape; see [`crate::baselines`] for the
/// tuned configurations used in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HqrConfig {
    /// Virtual cluster-grid rows (row clusters).
    pub p: usize,
    /// Virtual cluster-grid columns (only affects the data layout).
    pub q: usize,
    /// TS-domain size: every `a`-th local tile kills the `a−1` below it
    /// with TS kernels. `a = 1` disables the TS level ("the algorithm will
    /// use only TT kernels", §IV-A).
    pub a: usize,
    /// Intra-cluster (low-level) reduction tree.
    pub low: TreeKind,
    /// Inter-cluster (high-level) reduction tree.
    pub high: TreeKind,
    /// Whether the coupling-level ("domino") optimization is active.
    pub domino: bool,
}

impl HqrConfig {
    /// A safe default configuration on a virtual `p × q` grid.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "virtual grid must be non-empty");
        HqrConfig { p, q, a: 1, low: TreeKind::Greedy, high: TreeKind::Fibonacci, domino: false }
    }

    /// Set the TS-domain size `a`.
    pub fn with_a(mut self, a: usize) -> Self {
        assert!(a > 0, "domain size must be positive");
        self.a = a;
        self
    }

    /// Set the low-level (intra-cluster) tree.
    pub fn with_low(mut self, low: TreeKind) -> Self {
        self.low = low;
        self
    }

    /// Set the high-level (inter-cluster) tree.
    pub fn with_high(mut self, high: TreeKind) -> Self {
        self.high = high;
        self
    }

    /// Enable or disable the domino coupling level.
    pub fn with_domino(mut self, domino: bool) -> Self {
        self.domino = domino;
        self
    }

    /// The 2D block-cyclic data layout matching the virtual grid
    /// (CYCLIC(1) in both dimensions, §IV-C).
    pub fn layout(&self) -> Layout {
        Layout::Cyclic2D(ProcessGrid::new(self.p, self.q))
    }

    /// Short description, as reports name a configuration.
    pub fn describe(&self) -> String {
        format!(
            "HQR p={} q={} a={} low={} high={} domino={}",
            self.p,
            self.q,
            self.a,
            self.low.name(),
            self.high.name(),
            if self.domino { "on" } else { "off" }
        )
    }

    /// Build the full hierarchical elimination list for an `mt × nt` tiled
    /// matrix. The result is validated (§II conditions) before returning.
    pub fn elimination_list(&self, mt: usize, nt: usize) -> ElimList {
        assert!(mt > 0 && nt > 0, "matrix must be non-empty");
        let (p, a) = (self.p, self.a);
        let kmax = mt.min(nt);
        let mut elims: Vec<Elimination> = Vec::new();
        for k in 0..kmax {
            let ku = k as u32;
            // Per-cluster geometry.
            let mut top_tiles: Vec<usize> = Vec::with_capacity(p);
            let mut cluster_plan: Vec<(usize, usize, usize)> = Vec::with_capacity(p); // (r, l_top, mt_loc)
            for r in 0..p.min(mt) {
                let mt_loc = (mt - r).div_ceil(p);
                let l_top = if k <= r { 0 } else { (k - r).div_ceil(p) };
                if l_top >= mt_loc {
                    continue; // cluster has no rows in this panel
                }
                top_tiles.push(l_top * p + r);
                cluster_plan.push((r, l_top, mt_loc));
            }
            for &(r, l_top, mt_loc) in &cluster_plan {
                let g = |l: usize| (l * p + r) as u32;
                // The coupling band is only meaningful when the cluster has
                // rows strictly below its local diagonal, i.e. when the
                // local diagonal index k is inside the local range.
                let band_end = if self.domino { k.min(mt_loc - 1) } else { l_top };
                // ---- Levels 0 and 1: domains below `band_end` ----
                let first_domain_row = if self.domino { band_end + 1 } else { l_top };
                // Domains are anchored at the first row below the band
                // (Figure 5: "every a-th tile sequentially kills the a−1
                // tiles below it", counted from the local diagonal).
                let mut heads: Vec<usize> = Vec::new();
                let mut dom_start = first_domain_row;
                while dom_start < mt_loc {
                    let dom_end = (dom_start + a).min(mt_loc);
                    heads.push(dom_start);
                    for l in (dom_start + 1)..dom_end {
                        elims.push(Elimination::new(ku, g(l), g(dom_start), true, Level::TsLevel));
                    }
                    dom_start = dom_end;
                }
                // Low-level tree over the domain heads. With the domino the
                // root is the local diagonal tile (band_end = k); without it
                // the first head *is* the top tile.
                if self.domino {
                    let mut parts = Vec::with_capacity(heads.len() + 1);
                    parts.push(band_end);
                    parts.extend(heads.iter().copied().filter(|&h| h != band_end));
                    for (vpos, upos) in self.low.reduction(parts.len()) {
                        elims.push(Elimination::new(
                            ku,
                            g(parts[vpos]),
                            g(parts[upos]),
                            false,
                            Level::Low,
                        ));
                    }
                } else {
                    for (vpos, upos) in self.low.reduction(heads.len()) {
                        elims.push(Elimination::new(
                            ku,
                            g(heads[vpos]),
                            g(heads[upos]),
                            false,
                            Level::Low,
                        ));
                    }
                }
            }
            // ---- Level 2: the domino chains, bottom-up so every killer is
            // still alive when it kills. ----
            if self.domino {
                for &(r, l_top, mt_loc) in &cluster_plan {
                    let g = |l: usize| (l * p + r) as u32;
                    let band_end = k.min(mt_loc - 1);
                    for l in ((l_top + 1)..=band_end).rev() {
                        elims.push(Elimination::new(ku, g(l), g(l - 1), false, Level::Coupling));
                    }
                }
            }
            // ---- Level 3: reduce the top tiles across clusters. ----
            // Participants ordered by global row so the root is the
            // diagonal row k (owned by cluster k mod p).
            top_tiles.sort_unstable();
            debug_assert!(top_tiles.is_empty() || top_tiles[0] == k);
            for (vpos, upos) in self.high.reduction(top_tiles.len()) {
                elims.push(Elimination::new(
                    ku,
                    top_tiles[vpos] as u32,
                    top_tiles[upos] as u32,
                    false,
                    Level::High,
                ));
            }
        }
        ElimList::new(mt, nt, elims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every combination must produce a list satisfying the §II validity
    /// conditions (ElimList::new panics otherwise).
    #[test]
    fn all_configurations_are_valid() {
        for p in [1usize, 2, 3, 5] {
            for a in [1usize, 2, 4] {
                for domino in [false, true] {
                    for low in TreeKind::ALL {
                        for (mt, nt) in [(1, 1), (7, 3), (12, 12), (16, 4), (5, 9)] {
                            let cfg = HqrConfig::new(p, 1)
                                .with_a(a)
                                .with_low(low)
                                .with_high(TreeKind::Fibonacci)
                                .with_domino(domino);
                            let _ = cfg.elimination_list(mt, nt);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn high_trees_all_valid() {
        for high in TreeKind::ALL {
            let cfg = HqrConfig::new(3, 1).with_a(2).with_high(high).with_domino(true);
            let _ = cfg.elimination_list(24, 10);
        }
    }

    #[test]
    fn p1_full_ts_domain_is_the_flat_tree() {
        // p = 1, a = mt, domino off ⇒ the [BBD+10] flat TS tree: in every
        // panel the diagonal row kills everything below it, top to bottom.
        let cfg = HqrConfig::new(1, 1).with_a(12);
        let l = cfg.elimination_list(12, 4);
        for k in 0..4 {
            let panel: Vec<_> = l.panel(k).collect();
            assert_eq!(panel.len(), 12 - 1 - k);
            for (off, e) in panel.iter().enumerate() {
                assert_eq!(e.killer as usize, k);
                assert_eq!(e.victim as usize, k + 1 + off);
                assert!(e.ts, "flat domain kills use TS kernels");
            }
        }
    }

    #[test]
    fn a1_uses_only_tt_kernels() {
        let cfg = HqrConfig::new(3, 1).with_a(1).with_domino(true);
        let l = cfg.elimination_list(15, 5);
        assert!(l.elims().iter().all(|e| !e.ts), "§IV-A: a=1 ⇒ only TT kernels");
        assert_eq!(l.level_counts()[0], 0, "no TS-level eliminations");
    }

    #[test]
    fn paper_example_grid_geometry() {
        // §IV-B example: m=24, n=10 tiles, p=3, a=2.
        let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(24, 10);
        // Panel 0: top tiles are rows 0,1,2; high tree kills (1,0) and (2,0).
        let highs: Vec<_> = l.panel(0).filter(|e| e.level == Level::High).collect();
        assert_eq!(highs.len(), 2);
        assert!(highs.iter().all(|e| e.victim == 1 || e.victim == 2));
        assert!(highs.iter().all(|e| e.killer < e.victim));
        // Panel 1: the domino tile (4,1) is killed by (1,1) — the §IV-B
        // walk-through.
        let domino: Vec<_> = l.panel(1).filter(|e| e.level == Level::Coupling).collect();
        assert!(
            domino.iter().any(|e| e.victim == 4 && e.killer == 1),
            "elim(4,1,1) expected, got {domino:?}"
        );
        // And (5,1) killed by (2,1) on P2.
        assert!(domino.iter().any(|e| e.victim == 5 && e.killer == 2));
    }

    #[test]
    fn domino_chain_uses_pivot_p_rows_above() {
        // Every coupling-level elimination kills with the tile p rows above.
        let cfg = HqrConfig::new(4, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(32, 12);
        for e in l.elims().iter().filter(|e| e.level == Level::Coupling) {
            assert_eq!(e.killer + 4, e.victim, "domino pivot is i − p");
        }
    }

    #[test]
    fn level_counts_domino_on_vs_off() {
        let on = HqrConfig::new(3, 1).with_a(2).with_domino(true).elimination_list(24, 10);
        let off = HqrConfig::new(3, 1).with_a(2).with_domino(false).elimination_list(24, 10);
        let c_on = on.level_counts();
        let c_off = off.level_counts();
        assert!(c_on[2] > 0, "domino on must produce coupling eliminations");
        assert_eq!(c_off[2], 0, "domino off has no coupling level");
        // Same total number of eliminations either way.
        assert_eq!(c_on.iter().sum::<usize>(), c_off.iter().sum::<usize>());
        // High-level count identical: one tree of ≤p tiles per panel.
        assert_eq!(c_on[3], c_off[3]);
    }

    #[test]
    fn high_level_kills_at_most_p_minus_1_per_panel() {
        let cfg = HqrConfig::new(5, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(30, 8);
        for k in 0..8 {
            let n_high = l.panel(k).filter(|e| e.level == Level::High).count();
            assert!(n_high <= 4, "panel {k} has {n_high} high-level kills");
        }
    }

    #[test]
    fn top_tiles_lie_on_first_p_diagonals() {
        // §IV-B: the p top tiles are located on the first p diagonals.
        let p = 3;
        let cfg = HqrConfig::new(p, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(24, 10);
        for k in 0..10usize {
            for e in l.panel(k).filter(|e| e.level == Level::High) {
                assert!((e.victim as usize) < k + p, "victim {} panel {k}", e.victim);
                assert!((e.killer as usize) < k + p);
            }
        }
    }

    #[test]
    fn ts_level_stays_below_local_diagonal_with_domino() {
        let p = 3;
        let cfg = HqrConfig::new(p, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(24, 10);
        for e in l.elims().iter().filter(|e| e.level == Level::TsLevel) {
            let k = e.k as usize;
            let l_loc = e.victim as usize / p;
            assert!(
                l_loc > k,
                "TS victim {} must be below the local diagonal in panel {k}",
                e.victim
            );
        }
    }

    #[test]
    fn single_cluster_column_equals_whole_matrix() {
        // p larger than mt: every cluster holds at most one row, so the
        // high tree does all the work.
        let cfg = HqrConfig::new(8, 1).with_a(4).with_domino(true);
        let l = cfg.elimination_list(5, 3);
        assert!(l.elims().iter().all(|e| e.level == Level::High));
    }

    #[test]
    fn tall_skinny_ts_fraction_grows_with_a() {
        // §IV-B: "If the matrix is tall and skinny, the proportion of level
        // 0 tiles tends to one half" (a = 2).
        let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(96, 2);
        let c = l.level_counts();
        let total: usize = c.iter().sum();
        let frac = c[0] as f64 / total as f64;
        assert!(frac > 0.4 && frac < 0.55, "TS fraction {frac}");
    }

    #[test]
    fn describe_mentions_parameters() {
        let cfg = HqrConfig::new(15, 4).with_a(4).with_domino(true);
        let d = cfg.describe();
        assert!(d.contains("p=15") && d.contains("a=4") && d.contains("domino=on"));
    }

    #[test]
    fn domino_band_geometry_per_panel() {
        // §IV-B geometry: in panel k, cluster r's coupling band spans
        // local rows (l_top, min(k, mt_loc−1)] — so victims are global
        // rows g with l_top < g div p ≤ k.
        let p = 3usize;
        let cfg = HqrConfig::new(p, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(24, 10);
        for e in l.elims().iter().filter(|e| e.level == Level::Coupling) {
            let k = e.k as usize;
            let (g, r) = (e.victim as usize, e.victim as usize % p);
            let l_loc = g / p;
            let l_top = if k <= r { 0 } else { (k - r).div_ceil(p) };
            assert!(l_loc > l_top, "victim above its cluster's top tile");
            assert!(l_loc <= k, "victim below the local diagonal is not level 2");
        }
        // Panel 0 has no coupling band (the top tile IS the local diagonal).
        assert_eq!(l.panel(0).filter(|e| e.level == Level::Coupling).count(), 0);
        // Band width grows with the panel index until saturation.
        let band = |k: usize| l.panel(k).filter(|e| e.level == Level::Coupling).count();
        assert!(band(1) < band(4), "domino area grows with k: {} vs {}", band(1), band(4));
    }

    #[test]
    fn last_local_killer_is_the_local_diagonal() {
        // §IV-B: "the last killer on each panel is the tile on the local
        // diagonal (e.g., tile (6,2) for panel 2 in cluster P0)".
        let p = 3usize;
        let cfg = HqrConfig::new(p, 1).with_a(2).with_low(TreeKind::Greedy).with_domino(true);
        let l = cfg.elimination_list(24, 10);
        // Panel 2, cluster P0 (rows ≡ 0 mod 3): the low-tree root is
        // global row 6 (local row 2 = k).
        let lows: Vec<_> =
            l.panel(2).filter(|e| e.level == Level::Low && e.victim % 3 == 0).collect();
        assert!(!lows.is_empty());
        for e in &lows {
            assert!(e.killer >= 6, "low-level killers sit at or below the local diagonal");
        }
        // Row 6 itself survives the low level and is killed in the band.
        assert!(lows.iter().all(|e| e.victim != 6));
        let row6_death = l.panel(2).find(|e| e.victim == 6).unwrap();
        assert_eq!(row6_death.level, Level::Coupling);
        assert_eq!(row6_death.killer, 3, "killed by the tile p rows above");
    }

    #[test]
    fn layout_matches_virtual_grid() {
        let cfg = HqrConfig::new(3, 2);
        let lay = cfg.layout();
        assert_eq!(lay.nodes(), 6);
        assert_eq!(lay.owner(4, 3), lay.owner(1, 1));
    }
}
