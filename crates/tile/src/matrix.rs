//! Tiled matrix storage: `mt × nt` tiles of `b × b` doubles.
//!
//! Tiles are stored contiguously (column-major within a tile, tiles indexed
//! in column-major tile order), which is the layout tile algorithms rely on
//! for cache friendliness (§I: "tile algorithms ... naturally enable good
//! data locality for the sequential kernels").

use crate::dense::DenseMatrix;
use crate::heap::keep_freed_tile_pages;
use rand::{Rng, SeedableRng};

/// A tiled `mt × nt` matrix of square `b × b` tiles.
///
/// Each tile is an independently owned boxed slice so that the runtime can
/// hand exclusive references to distinct tiles to concurrent tasks.
#[derive(Clone, Debug)]
pub struct TiledMatrix {
    mt: usize,
    nt: usize,
    b: usize,
    tiles: Vec<Box<[f64]>>,
}

impl TiledMatrix {
    /// All-zero tiled matrix.
    pub fn zeros(mt: usize, nt: usize, b: usize) -> Self {
        assert!(b > 0, "tile size must be positive");
        keep_freed_tile_pages();
        let tiles = (0..mt * nt).map(|_| vec![0.0; b * b].into_boxed_slice()).collect();
        Self { mt, nt, b, tiles }
    }

    /// Identity (ones on the global diagonal).
    pub fn identity(mt: usize, nt: usize, b: usize) -> Self {
        let mut m = Self::zeros(mt, nt, b);
        for t in 0..mt.min(nt) {
            let tile = m.tile_mut(t, t);
            for d in 0..b {
                tile[d + d * b] = 1.0;
            }
        }
        m
    }

    /// Random tiled matrix with entries in `[-0.5, 0.5)`, deterministic from
    /// `seed`. Matches [`DenseMatrix::random`] element-for-element so tiled
    /// and dense test fixtures agree.
    ///
    /// The draws go straight into the tiles, in the dense matrix's stream
    /// order (column-major: each element column runs down through every
    /// tile row), so no dense copy is built and scattered.
    pub fn random(mt: usize, nt: usize, b: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut m = Self::zeros(mt, nt, b);
        for tj in 0..nt {
            for j in 0..b {
                for ti in 0..mt {
                    for x in &mut m.tile_mut(ti, tj)[j * b..(j + 1) * b] {
                        *x = rng.gen::<f64>() - 0.5;
                    }
                }
            }
        }
        m
    }

    /// Scatter a dense matrix into tiles. Dimensions that are not multiples
    /// of `b` are zero-padded up to the next tile boundary, so the tiled
    /// matrix has `rows.div_ceil(b)` × `cols.div_ceil(b)` tiles, and at least
    /// one in each direction.
    pub fn from_dense(dense: &DenseMatrix, b: usize) -> Self {
        assert!(b > 0, "tile size must be positive");
        let (m, n) = (dense.rows(), dense.cols());
        let mut t = Self::zeros(m.div_ceil(b).max(1), n.div_ceil(b).max(1), b);
        for j in 0..n {
            for (ti, col) in dense.data()[j * m..][..m].chunks(b).enumerate() {
                t.tile_mut(ti, j / b)[(j % b) * b..][..col.len()].copy_from_slice(col);
            }
        }
        t
    }

    /// Gather the leading `rows × cols` block into a dense matrix (the
    /// inverse of [`TiledMatrix::from_dense`]'s padding).
    pub fn leading(&self, rows: usize, cols: usize) -> DenseMatrix {
        assert!(rows <= self.rows() && cols <= self.cols(), "{rows} x {cols} exceeds the matrix");
        let b = self.b;
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for ti in 0..rows.div_ceil(b) {
                let len = (rows - ti * b).min(b);
                data.extend_from_slice(&self.tile(ti, j / b)[(j % b) * b..][..len]);
            }
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// Gather the tiles back into a dense matrix (used for verification).
    pub fn to_dense(&self) -> DenseMatrix {
        self.leading(self.rows(), self.cols())
    }

    /// Element `(i, j)` of the matrix.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.tile(i / self.b, j / self.b)[i % self.b + (j % self.b) * self.b]
    }

    /// Overwrite every element `(i, j)` with `f(i, j)`.
    pub fn fill_with(&mut self, f: impl Fn(usize, usize) -> f64) {
        let (mt, nt, b) = (self.mt, self.nt, self.b);
        for (tj, ti) in (0..nt).flat_map(|tj| (0..mt).map(move |ti| (tj, ti))) {
            for (k, x) in self.tile_mut(ti, tj).iter_mut().enumerate() {
                *x = f(ti * b + k % b, tj * b + k / b);
            }
        }
    }

    /// ‖self − E‖_F, where `e(i, j)` is E's element `(i, j)`, summed tile by
    /// tile.
    pub fn distance(&self, e: impl Fn(usize, usize) -> f64) -> f64 {
        let b = self.b;
        let mut sum = 0.0;
        for (tj, ti) in (0..self.nt).flat_map(|tj| (0..self.mt).map(move |ti| (tj, ti))) {
            for (k, x) in self.tile(ti, tj).iter().enumerate() {
                sum += (x - e(ti * b + k % b, tj * b + k / b)).powi(2);
            }
        }
        sum.sqrt()
    }

    /// Number of tile rows.
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Tile size.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Number of element rows (M = mt·b).
    pub fn rows(&self) -> usize {
        self.mt * self.b
    }

    /// Number of element columns (N = nt·b).
    pub fn cols(&self) -> usize {
        self.nt * self.b
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of bounds");
        i + j * self.mt
    }

    /// Immutable view of tile `(i, j)` (column-major `b × b`).
    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &[f64] {
        &self.tiles[self.idx(i, j)]
    }

    /// Mutable view of tile `(i, j)`.
    #[inline]
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut [f64] {
        let idx = self.idx(i, j);
        &mut self.tiles[idx]
    }

    /// Mutable views of two *distinct* tiles at once (kill/update kernels
    /// always touch a pivot tile and a victim tile).
    pub fn tile_pair_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut [f64], &mut [f64]) {
        let ia = self.idx(a.0, a.1);
        let ib = self.idx(b.0, b.1);
        assert_ne!(ia, ib, "tile_pair_mut requires distinct tiles");
        if ia < ib {
            let (lo, hi) = self.tiles.split_at_mut(ib);
            (&mut lo[ia], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(ia);
            (&mut hi[0], &mut lo[ib])
        }
    }

    /// Frobenius norm of the whole matrix.
    pub fn frob_norm(&self) -> f64 {
        self.tiles.iter().flat_map(|t| t.iter()).map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Raw pointers to every tile, for the runtime's shared-tile store.
    /// The caller is responsible for upholding exclusive-writer discipline.
    pub fn tile_ptrs(&mut self) -> Vec<*mut f64> {
        self.tiles.iter_mut().map(|t| t.as_mut_ptr()).collect()
    }

    /// Move tile `(i, j)`'s buffer out of the matrix, leaving an empty
    /// placeholder. Used by the runtime's paged (spill-to-disk) tile store,
    /// which takes ownership of every buffer so it can drop evicted tiles;
    /// the matrix is unusable (hollow) until every buffer is returned with
    /// [`TiledMatrix::put_tile_buf`].
    pub fn take_tile_buf(&mut self, i: usize, j: usize) -> Box<[f64]> {
        let idx = self.idx(i, j);
        std::mem::replace(&mut self.tiles[idx], Box::from([]))
    }

    /// Return a buffer taken by [`TiledMatrix::take_tile_buf`]. The buffer
    /// must hold exactly `b * b` elements.
    pub fn put_tile_buf(&mut self, i: usize, j: usize, buf: Box<[f64]>) {
        assert_eq!(buf.len(), self.b * self.b, "tile buffer length mismatch");
        let idx = self.idx(i, j);
        self.tiles[idx] = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let d = DenseMatrix::random(12, 8, 5);
        let t = TiledMatrix::from_dense(&d, 4);
        assert_eq!(t.mt(), 3);
        assert_eq!(t.nt(), 2);
        assert_eq!(t.rows(), 12);
        assert_eq!(t.cols(), 8);
        let back = t.to_dense();
        assert!(d.sub(&back).frob_norm() == 0.0);
    }

    #[test]
    fn random_matches_dense_random() {
        // Generated tile by tile, yet bit-identical to scattering the dense
        // stream: square, tall, wide and single-tile shapes.
        for (mt, nt, b) in [(3, 3, 4), (5, 2, 3), (2, 4, 5), (1, 1, 7), (1, 1, 1)] {
            let t = TiledMatrix::random(mt, nt, b, 77);
            let d = DenseMatrix::random(mt * b, nt * b, 77);
            let scattered = TiledMatrix::from_dense(&d, b);
            for j in 0..nt {
                for i in 0..mt {
                    let same = t.tile(i, j).iter().zip(scattered.tile(i, j));
                    assert!(same.clone().all(|(x, y)| x.to_bits() == y.to_bits()), "{mt}x{nt}x{b}");
                }
            }
            assert_eq!(t.to_dense().data(), d.data());
        }
    }

    #[test]
    fn identity_gathers_to_identity() {
        let t = TiledMatrix::identity(3, 2, 5);
        let d = t.to_dense();
        for j in 0..10 {
            for i in 0..15 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(d.get(i, j), expect);
            }
        }
    }

    #[test]
    fn tile_indexing_maps_to_dense_blocks() {
        let d = DenseMatrix::random(6, 6, 11);
        let t = TiledMatrix::from_dense(&d, 3);
        // Element (4, 1) lives in tile (1, 0), local (i, j) = (1, 1),
        // i.e. offset i + j*b = 4.
        assert_eq!(t.tile(1, 0)[4], d.get(4, 1));
    }

    #[test]
    fn tile_pair_mut_gives_disjoint_tiles() {
        let mut t = TiledMatrix::zeros(2, 2, 2);
        {
            let (a, b) = t.tile_pair_mut((0, 0), (1, 1));
            a[0] = 1.0;
            b[0] = 2.0;
        }
        assert_eq!(t.tile(0, 0)[0], 1.0);
        assert_eq!(t.tile(1, 1)[0], 2.0);
        // Also works in reversed index order.
        {
            let (a, b) = t.tile_pair_mut((1, 1), (0, 0));
            assert_eq!(a[0], 2.0);
            assert_eq!(b[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct tiles")]
    fn tile_pair_mut_same_tile_panics() {
        let mut t = TiledMatrix::zeros(2, 2, 2);
        let _ = t.tile_pair_mut((1, 0), (1, 0));
    }

    #[test]
    fn frob_norm_matches_dense() {
        let t = TiledMatrix::random(4, 4, 3, 123);
        let d = t.to_dense();
        assert!((t.frob_norm() - d.frob_norm()).abs() < 1e-12);
    }

    #[test]
    fn from_dense_pads_ragged_to_whole_tiles() {
        let d = DenseMatrix::random(10, 7, 6);
        let t = TiledMatrix::from_dense(&d, 4);
        assert_eq!((t.mt(), t.nt()), (3, 2));
        assert_eq!(t.leading(10, 7).data(), d.data());
        let pad = t.distance(|i, j| if i < 10 && j < 7 { t.get(i, j) } else { 0.0 });
        assert_eq!(pad, 0.0, "the padding is zero");
        assert_eq!(t.distance(|i, j| if i < 10 && j < 7 { d.get(i, j) } else { 0.0 }), 0.0);
    }

    #[test]
    fn fill_with_and_distance_address_global_elements() {
        let mut t = TiledMatrix::zeros(3, 2, 4);
        t.fill_with(|i, j| (i * 100 + j) as f64);
        assert_eq!(t.get(9, 6), 906.0);
        assert_eq!(t.distance(|i, j| (i * 100 + j) as f64), 0.0);
        assert_eq!(
            t.distance(|i, j| if (i, j) == (5, 2) { 500.0 } else { (i * 100 + j) as f64 }),
            2.0
        );
    }
}
