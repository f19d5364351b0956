//! Output verification. A factorization passes when it is bitwise equal to
//! the serial reference executor on the same graph and input, and when its
//! R factor satisfies `RᵀR = AᵀA` against the original matrix, checked from
//! outside with seeded vectors. A failure counts as a failed operation.

use hqr_runtime::TFactors;
use hqr_tile::TiledMatrix;

/// Relative tolerance of the R-check (`‖RᵀRx − AᵀAx‖ / ‖AᵀAx‖`).
pub const R_CHECK_TOL: f64 = 1e-10;
/// Seeded vectors per R-check.
pub const R_CHECK_VECTORS: u64 = 3;

/// A factorization: the factored tiles and the Householder factors.
pub struct Factored<'a> {
    pub a: &'a TiledMatrix,
    pub factors: &'a TFactors,
}

/// Bit-exact equality of two tiled matrices (`-0.0 != 0.0`, NaNs by payload).
pub fn tiles_bitwise_eq(x: &TiledMatrix, y: &TiledMatrix) -> bool {
    (x.mt(), x.nt(), x.b()) == (y.mt(), y.nt(), y.b())
        && (0..x.nt()).all(|j| {
            (0..x.mt()).all(|i| {
                x.tile(i, j).iter().zip(y.tile(i, j)).all(|(p, q)| p.to_bits() == q.to_bits())
            })
        })
}

/// Bitwise parity of `out` with the serial reference `reference`.
pub fn check_parity(out: &Factored, reference: &Factored) -> Result<(), String> {
    if !tiles_bitwise_eq(out.a, reference.a) {
        return Err("factored matrix differs bitwise from the serial reference".into());
    }
    if !out.factors.bitwise_eq(reference.factors) {
        return Err("T factors differ bitwise from the serial reference".into());
    }
    Ok(())
}

/// SplitMix64: the harness's own generator for check vectors, so that the
/// check does not share code with the program it checks.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Visit every entry `(row, col, value)` of `m`, or with `upper` only its
/// global upper triangle (the R factor of a factored matrix; what lies
/// below holds Householder vectors).
fn for_each_entry(m: &TiledMatrix, upper: bool, mut f: impl FnMut(usize, usize, f64)) {
    let b = m.b();
    for j in 0..m.nt() {
        let tile_rows = if upper { (j + 1).min(m.mt()) } else { m.mt() };
        for i in 0..tile_rows {
            let tile = m.tile(i, j);
            for c in 0..b {
                let rows = if upper && i == j { c + 1 } else { b };
                for r in 0..rows {
                    f(i * b + r, j * b + c, tile[r + c * b]);
                }
            }
        }
    }
}

/// `Mᵀ(M x)` for `M = m`, or for its upper triangle with `upper`.
fn gram_apply(m: &TiledMatrix, upper: bool, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.rows()];
    let mut z = vec![0.0; m.cols()];
    for_each_entry(m, upper, |r, c, v| y[r] += v * x[c]);
    for_each_entry(m, upper, |r, c, v| z[c] += v * y[r]);
    z
}

/// The R-check: for [`R_CHECK_VECTORS`] vectors seeded from `seed`,
/// `‖RᵀRx − AᵀAx‖ / ‖AᵀAx‖ ≤` [`R_CHECK_TOL`]. Holds for any orthogonal Q,
/// so it needs neither Q nor the elimination tree. Returns the worst ratio.
pub fn r_check(original: &TiledMatrix, factored: &TiledMatrix, seed: u64) -> Result<f64, String> {
    if (original.mt(), original.nt(), original.b()) != (factored.mt(), factored.nt(), factored.b())
    {
        return Err("factored matrix has a different shape from the input".into());
    }
    let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
    let mut worst = 0.0f64;
    for _ in 0..R_CHECK_VECTORS {
        let x: Vec<f64> = (0..original.cols()).map(|_| splitmix(&mut state)).collect();
        let want = gram_apply(original, false, &x);
        let got = gram_apply(factored, true, &x);
        let norm = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>().sqrt();
        let diff: Vec<f64> = got.iter().zip(&want).map(|(g, w)| g - w).collect();
        let ratio = norm(&diff) / norm(&want);
        // A NaN ratio (non-finite output) must fail too.
        if ratio.is_nan() || ratio > R_CHECK_TOL {
            return Err(format!("R-check failed: |RtRx - AtAx| / |AtAx| = {ratio:e}"));
        }
        worst = worst.max(ratio);
    }
    Ok(worst)
}

/// Full verification of one output: parity with the reference, then the
/// R-check against the original input.
pub fn verify(
    original: &TiledMatrix,
    out: &Factored,
    reference: &Factored,
    seed: u64,
) -> Result<(), String> {
    check_parity(out, reference)?;
    r_check(original, out.a, seed).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SERVE;
    use crate::problem::{build, workload};
    use crate::spans::Spans;
    use hqr_runtime::{execute_serial, try_execute_parallel};

    /// The acceptance criterion "the verification is shown to bite": one
    /// corrupted element of one output tile turns a passing operation into
    /// a failed one, in both the parity check and the R-check.
    #[test]
    fn a_corrupted_output_tile_is_a_failed_op() {
        let (p, _) = build(workload(SERVE).unwrap().shape, 11, &mut Spans::new(false)).unwrap();
        let mut a_ref = p.input.clone();
        let f_ref = execute_serial(&p.graph, &mut a_ref);
        let reference = Factored { a: &a_ref, factors: &f_ref };
        let mut a_out = p.input.clone();
        let f_out = try_execute_parallel(&p.graph, &mut a_out, 2).unwrap();
        verify(&p.input, &Factored { a: &a_out, factors: &f_out }, &reference, 11).unwrap();

        // Corrupt one element of R: off by one part in a thousand.
        let mut bad = a_out.clone();
        bad.tile_mut(1, 2)[5] *= 1.0 + 1e-3;
        let corrupted = Factored { a: &bad, factors: &f_out };
        assert!(check_parity(&corrupted, &reference).unwrap_err().contains("factored matrix"));
        assert!(r_check(&p.input, &bad, 11).unwrap_err().contains("R-check failed"));
        assert!(verify(&p.input, &corrupted, &reference, 11).is_err());

        // A flipped low bit is below the R-check's tolerance; parity sees it.
        let mut flipped = a_out.clone();
        let e = &mut flipped.tile_mut(0, 0)[0];
        *e = f64::from_bits(e.to_bits() ^ 1);
        assert!(r_check(&p.input, &flipped, 11).is_ok());
        assert!(check_parity(&Factored { a: &flipped, factors: &f_out }, &reference).is_err());

        // A corrupted V block (below the diagonal) is outside R: the
        // R-check cannot see it, parity does.
        let mut bad_v = a_out.clone();
        bad_v.tile_mut(6, 0)[9] += 1.0;
        assert!(r_check(&p.input, &bad_v, 11).is_ok());
        assert!(check_parity(&Factored { a: &bad_v, factors: &f_out }, &reference).is_err());

        // Non-finite output fails the R-check instead of passing by NaN.
        let mut nan = a_out.clone();
        nan.tile_mut(0, 1)[0] = f64::NAN;
        assert!(r_check(&p.input, &nan, 11).is_err());
    }

    #[test]
    fn r_check_rejects_an_unfactored_matrix() {
        let (p, _) = build(workload(SERVE).unwrap().shape, 3, &mut Spans::new(false)).unwrap();
        assert!(r_check(&p.input, &p.input, 3).is_err());
    }
}
