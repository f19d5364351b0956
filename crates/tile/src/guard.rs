//! Per-tile integrity guards for silent-data-corruption (SDC) detection.
//!
//! A [`TileGuard`] summarizes one tile-shaped buffer — a `b × b` tile, or
//! any column-major buffer of `b` columns such as an `ib × b` T factor —
//! with two detectors:
//!
//! * a **bit digest** — FNV-1a over the tile's little-endian `f64` bit
//!   patterns. Bit-exact: any flipped bit in the tile changes the digest
//!   (up to the 2⁻⁶⁴ hash-collision floor). This is the primary detector
//!   for data *at rest*, i.e. between the legitimate kernel update that
//!   refreshed the guard and the next consumer that verifies it.
//! * a **column-sum checksum vector** — one compensated sum per tile
//!   column, in the ABFT tradition of \[BLKD07\]-style tile algorithms.
//!   Column sums survive representation changes that are not bit-exact
//!   (a checkpoint round trip through a different summation order, or a
//!   future distributed reassembly), so they are compared under the
//!   drift tolerance of [`TileGuard::sum_tolerance`] rather than
//!   exactly. They also localize a mismatch to a column for diagnostics.
//!
//! The tolerance model: legitimate floating-point reassembly of a column
//! of `b` entries perturbs its sum by at most `O(b·ε·‖column‖₁)`-ish
//! rounding noise, so the acceptance band scales with `b`, the machine
//! epsilon, and the checksum magnitude. Corruption that stays inside the
//! band (a flip in the lowest mantissa bits) escapes the *sum* check by
//! design — which is exactly why the bit digest exists and is what the
//! executor's integrity mode uses for detection.

use crate::io::{fnv1a64_update, FNV1A64_INIT};

/// Integrity summary of one column-major buffer of `b` columns:
/// column-sum checksums plus an FNV-1a digest over its bit pattern. See the
/// module docs for the two-detector scheme and the tolerance model.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGuard {
    b: usize,
    /// Rows per column: `b` for a tile, `ib` for a T factor.
    rows: usize,
    digest: u64,
    col_sums: Box<[f64]>,
}

impl TileGuard {
    /// Compute the guard of a column-major buffer of `b` columns
    /// (`tile.len()` must be a nonzero multiple of `b`: `b * b` for a tile).
    pub fn compute(b: usize, tile: &[f64]) -> Self {
        assert!(
            b > 0 && !tile.is_empty() && tile.len().is_multiple_of(b),
            "tile guard needs whole columns of a {b}-column buffer, got {} elements",
            tile.len()
        );
        let rows = tile.len() / b;
        Self { b, rows, digest: digest_of(tile), col_sums: col_sums_of(b, rows, tile) }
    }

    /// Column count this guard was computed for.
    pub fn b(&self) -> usize {
        self.b
    }

    fn check_shape(&self, tile: &[f64]) {
        let n = self.rows * self.b;
        assert_eq!(tile.len(), n, "tile guard covers {n} elements, got {}", tile.len());
    }

    /// The FNV-1a digest over the tile's bits.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The per-column checksum vector (`b` entries).
    pub fn col_sums(&self) -> &[f64] {
        &self.col_sums
    }

    /// Recompute both detectors from the tile's current content — called
    /// after every legitimate kernel update of the tile.
    pub fn refresh(&mut self, tile: &[f64]) {
        self.check_shape(tile);
        self.digest = digest_of(tile);
        self.col_sums = col_sums_of(self.b, self.rows, tile);
    }

    /// Bit-exact verification: the tile must hash to the stored digest.
    /// On mismatch the column sums localize the damage when they can.
    pub fn verify(&self, tile: &[f64]) -> Result<(), GuardMismatch> {
        self.check_shape(tile);
        let found = digest_of(tile);
        if found == self.digest {
            return Ok(());
        }
        let sums = col_sums_of(self.b, self.rows, tile);
        let column = sums
            .iter()
            .zip(self.col_sums.iter())
            .enumerate()
            .map(|(j, (s, e))| (j, (s - e).abs()))
            .filter(|&(_, d)| d > 0.0)
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(j, _)| j);
        Err(GuardMismatch { expected_digest: self.digest, found_digest: found, column })
    }

    /// Drift-tolerant verification: each recomputed column sum must land
    /// within [`TileGuard::sum_tolerance`] of the stored checksum. Used
    /// when bit-exactness is not guaranteed (see the module docs); low-
    /// order corruption inside the band escapes this check by design.
    pub fn verify_sums(&self, tile: &[f64]) -> Result<(), GuardMismatch> {
        self.check_shape(tile);
        let sums = col_sums_of(self.b, self.rows, tile);
        for (j, (found, expect)) in sums.iter().zip(self.col_sums.iter()).enumerate() {
            if (found - expect).abs() > Self::sum_tolerance(self.rows, *expect) {
                return Err(GuardMismatch {
                    expected_digest: self.digest,
                    found_digest: digest_of(tile),
                    column: Some(j),
                });
            }
        }
        Ok(())
    }

    /// Acceptance band for one checksum of a column of `b` entries with
    /// magnitude `magnitude`: `64 · ε · b · max(|magnitude|, 1)`. The `b`
    /// factor covers the rounding noise of re-summing `b` entries; the
    /// constant leaves headroom for compensated-vs-naive summation
    /// differences.
    pub fn sum_tolerance(b: usize, magnitude: f64) -> f64 {
        64.0 * f64::EPSILON * (b as f64) * magnitude.abs().max(1.0)
    }
}

/// What a failed guard verification found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardMismatch {
    /// Digest stored in the guard.
    pub expected_digest: u64,
    /// Digest recomputed over the tile as found.
    pub found_digest: u64,
    /// Column whose checksum deviated most (localization hint); `None`
    /// when the damage cancels out of every column sum.
    pub column: Option<usize>,
}

impl std::fmt::Display for GuardMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile guard mismatch: digest {:#018x} != stored {:#018x}",
            self.found_digest, self.expected_digest
        )?;
        if let Some(j) = self.column {
            write!(f, " (worst column {j})")?;
        }
        Ok(())
    }
}

impl std::error::Error for GuardMismatch {}

/// FNV-1a over the concatenated little-endian bit patterns of the tile —
/// identical to [`crate::io::fnv1a64`] over the same byte stream, folded
/// element-wise to avoid staging a byte buffer.
fn digest_of(tile: &[f64]) -> u64 {
    let mut h = FNV1A64_INIT;
    for x in tile {
        h = fnv1a64_update(h, &x.to_bits().to_le_bytes());
    }
    h
}

/// Compensated (Kahan) per-column sums of a column-major `rows × b` buffer.
fn col_sums_of(b: usize, rows: usize, tile: &[f64]) -> Box<[f64]> {
    let mut sums = vec![0.0f64; b].into_boxed_slice();
    for (j, s) in sums.iter_mut().enumerate() {
        let col = &tile[j * rows..(j + 1) * rows];
        let (mut sum, mut c) = (0.0f64, 0.0f64);
        for &x in col {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        *s = sum;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{f64s_le, fnv1a64};
    use crate::matrix::TiledMatrix;

    #[test]
    fn digest_matches_bytewise_fnv() {
        let t = TiledMatrix::random(1, 1, 5, 7);
        let tile = t.tile(0, 0);
        let g = TileGuard::compute(5, tile);
        assert_eq!(g.digest(), fnv1a64(&f64s_le(tile)));
    }

    #[test]
    fn untouched_tile_verifies_both_ways() {
        let t = TiledMatrix::random(1, 1, 6, 11);
        let g = TileGuard::compute(6, t.tile(0, 0));
        assert!(g.verify(t.tile(0, 0)).is_ok());
        assert!(g.verify_sums(t.tile(0, 0)).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_caught_by_the_digest() {
        let b = 4usize;
        let mut t = TiledMatrix::random(1, 1, b, 13);
        let g = TileGuard::compute(b, t.tile(0, 0));
        for e in 0..b * b {
            for bit in 0..64u32 {
                let tile = t.tile_mut(0, 0);
                let orig = tile[e];
                tile[e] = f64::from_bits(orig.to_bits() ^ (1u64 << bit));
                let err = g.verify(t.tile(0, 0)).expect_err("flip must be detected");
                assert_ne!(err.found_digest, err.expected_digest);
                t.tile_mut(0, 0)[e] = orig;
            }
        }
        assert!(g.verify(t.tile(0, 0)).is_ok(), "restored tile verifies again");
    }

    #[test]
    fn mismatch_localizes_the_corrupt_column() {
        let b = 3usize;
        let mut t = TiledMatrix::random(1, 1, b, 17);
        let g = TileGuard::compute(b, t.tile(0, 0));
        t.tile_mut(0, 0)[1 + 2 * b] += 1.0; // element (1, 2)
        let err = g.verify(t.tile(0, 0)).unwrap_err();
        assert_eq!(err.column, Some(2), "{err}");
        assert!(g.verify_sums(t.tile(0, 0)).is_err(), "a +1.0 hit exceeds the drift band");
    }

    #[test]
    fn guards_a_buffer_of_fewer_rows_than_columns() {
        // A T factor is `ib x b`: 2 rows of 4 columns here.
        let b = 4usize;
        let mut t: Vec<f64> = (0..2 * b).map(|x| x as f64 + 0.5).collect();
        let g = TileGuard::compute(b, &t);
        assert_eq!(g.col_sums(), &[2.0, 6.0, 10.0, 14.0]);
        t[1 + 3 * 2] += 1.0; // element (1, 3)
        assert_eq!(g.verify(&t).unwrap_err().column, Some(3));
    }

    #[test]
    fn sum_tolerance_absorbs_reassembly_noise() {
        let b = 8usize;
        let t = TiledMatrix::random(1, 1, b, 19);
        let g = TileGuard::compute(b, t.tile(0, 0));
        // Re-sum each column naively in reverse order: different rounding,
        // same data — must stay inside the band.
        let tile = t.tile(0, 0);
        for j in 0..b {
            let naive: f64 = tile[j * b..(j + 1) * b].iter().rev().sum();
            let d = (naive - g.col_sums()[j]).abs();
            assert!(d <= TileGuard::sum_tolerance(b, g.col_sums()[j]), "column {j} drift {d:e}");
        }
    }

    #[test]
    fn refresh_tracks_legitimate_updates() {
        let b = 4usize;
        let mut t = TiledMatrix::random(1, 1, b, 23);
        let mut g = TileGuard::compute(b, t.tile(0, 0));
        t.tile_mut(0, 0)[0] = 42.0;
        assert!(g.verify(t.tile(0, 0)).is_err(), "stale guard flags the update");
        g.refresh(t.tile(0, 0));
        assert!(g.verify(t.tile(0, 0)).is_ok(), "refreshed guard accepts it");
    }
}
