//! Reference implementations, used only for verification.
//!
//! [`dense_householder_qr`] is the textbook unblocked algorithm (LAPACK
//! `dgeqr2` followed by an explicit Q build); [`geqrt_level2`] and
//! [`stacked_qrt_level2`] are the column-at-a-time tile kernels the
//! production recursive panel routine replaced. All are deliberately
//! independent of the production kernels so that tests comparing the two
//! catch mistakes in either. They agree with them up to rounding and the
//! signs of R's rows, not bitwise.

use hqr_tile::DenseMatrix;

/// Textbook reflector: scales `x` to the tail of `v` and returns `(β, τ)`.
fn reflector(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let sigma: f64 = x.iter().map(|v| v * v).sum();
    if sigma == 0.0 {
        return (alpha, 0.0);
    }
    let mu = (alpha * alpha + sigma).sqrt();
    let beta = if alpha <= 0.0 { mu } else { -mu };
    let scale = 1.0 / (alpha - beta);
    x.iter_mut().for_each(|v| *v *= scale);
    (beta, (beta - alpha) / beta)
}

/// Offset of `T[i, j]` (`i ≤ j`) in a packed upper triangle.
fn tix(i: usize, j: usize) -> usize {
    i + j * (j + 1) / 2
}

/// `T[0..j, j] = −τ·T[0..j, 0..j]·z` in place, `z` stored in `T[0..j, j]`.
fn t_column(t: &mut [f64], j: usize, tau: f64) {
    for i in 0..j {
        let y: f64 = (i..j).map(|r| t[tix(i, r)] * t[tix(r, j)]).sum();
        t[tix(i, j)] = -tau * y;
    }
    t[tix(j, j)] = tau;
}

/// Level-2 GEQRT: one reflector at a time, applied at once to every later
/// column. Same storage as [`crate::geqrt`].
pub fn geqrt_level2(b: usize, a: &mut [f64], t: &mut [f64]) {
    t.fill(0.0);
    for j in 0..b {
        let cj = j * b;
        let (head, tail) = a.split_at_mut(cj + j + 1);
        let (beta, tau) = reflector(head[cj + j], &mut tail[..b - j - 1]);
        a[cj + j] = beta;
        for l in (j + 1)..b {
            let cl = l * b;
            let dot: f64 = ((j + 1)..b).map(|i| a[cj + i] * a[cl + i]).sum();
            let w = tau * (a[cl + j] + dot);
            a[cl + j] -= w;
            for i in (j + 1)..b {
                a[cl + i] -= w * a[cj + i];
            }
        }
        for i in 0..j {
            let dot: f64 = ((j + 1)..b).map(|r| a[i * b + r] * a[cj + r]).sum();
            t[tix(i, j)] = a[i * b + j] + dot;
        }
        t_column(t, j, tau);
    }
}

/// Level-2 TSQRT (`tri` unset) / TTQRT (`tri` set). Same storage as
/// [`crate::tsqrt`] / [`crate::ttqrt`].
pub fn stacked_qrt_level2(b: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64], tri: bool) {
    let support = |col: usize| if tri { col + 1 } else { b };
    t.fill(0.0);
    for j in 0..b {
        let cj = j * b;
        let blen = support(j);
        let (beta, tau) = reflector(a1[j + cj], &mut a2[cj..cj + blen]);
        a1[j + cj] = beta;
        for l in (j + 1)..b {
            let cl = l * b;
            let dot: f64 = (0..blen).map(|i| a2[cj + i] * a2[cl + i]).sum();
            let w = tau * (a1[j + cl] + dot);
            a1[j + cl] -= w;
            for i in 0..blen {
                a2[cl + i] -= w * a2[cj + i];
            }
        }
        for i in 0..j {
            t[tix(i, j)] = (0..support(i).min(blen)).map(|r| a2[i * b + r] * a2[cj + r]).sum();
        }
        t_column(t, j, tau);
    }
}

/// Dense Householder QR of an `m × n` matrix with `m ≥ n`.
///
/// Returns `(Q, R)` with Q an `m × m` orthogonal matrix and R an `m × n`
/// upper-triangular (trapezoidal) matrix such that `A = Q·R`.
pub fn dense_householder_qr(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "reference QR requires m >= n");
    let mut r = a.clone();
    // Store reflectors (v, tau) to build Q afterwards.
    let mut vs: Vec<(usize, Vec<f64>, f64)> = Vec::with_capacity(n);
    for k in 0..n {
        // Build the reflector annihilating r[k+1.., k].
        let mut v: Vec<f64> = ((k + 1)..m).map(|i| r.get(i, k)).collect();
        let (beta, tau) = reflector(r.get(k, k), &mut v);
        // Apply H to the trailing matrix r[k.., k..].
        for j in k..n {
            let mut w = r.get(k, j);
            for (off, vi) in v.iter().enumerate() {
                w += vi * r.get(k + 1 + off, j);
            }
            w *= tau;
            r.set(k, j, r.get(k, j) - w);
            for (off, vi) in v.iter().enumerate() {
                let i = k + 1 + off;
                r.set(i, j, r.get(i, j) - w * vi);
            }
        }
        r.set(k, k, beta);
        for i in (k + 1)..m {
            r.set(i, k, 0.0);
        }
        vs.push((k, v, tau));
    }
    // Q = H_0 · H_1 ⋯ H_{n-1} applied to the identity (apply in reverse).
    let mut q = DenseMatrix::identity(m, m);
    for (k, v, tau) in vs.iter().rev() {
        if *tau == 0.0 {
            continue;
        }
        for j in 0..m {
            let mut w = q.get(*k, j);
            for (off, vi) in v.iter().enumerate() {
                w += vi * q.get(*k + 1 + off, j);
            }
            w *= tau;
            q.set(*k, j, q.get(*k, j) - w);
            for (off, vi) in v.iter().enumerate() {
                let i = *k + 1 + off;
                q.set(i, j, q.get(i, j) - w * vi);
            }
        }
    }
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_a() {
        let a = DenseMatrix::random(10, 6, 99);
        let (q, r) = dense_householder_qr(&a);
        let qr = q.matmul(&r);
        assert!(a.sub(&qr).frob_norm() < 1e-12 * a.frob_norm().max(1.0));
    }

    #[test]
    fn q_is_orthogonal() {
        let a = DenseMatrix::random(8, 8, 100);
        let (q, _) = dense_householder_qr(&a);
        assert!(q.orthogonality_error() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = DenseMatrix::random(9, 5, 101);
        let (_, r) = dense_householder_qr(&a);
        assert_eq!(r.max_abs_below_diagonal(), 0.0);
    }

    #[test]
    fn square_identity_fixed_point() {
        let a = DenseMatrix::identity(5, 5);
        let (q, r) = dense_householder_qr(&a);
        assert!(q.sub(&DenseMatrix::identity(5, 5)).frob_norm() < 1e-14);
        assert!(r.sub(&DenseMatrix::identity(5, 5)).frob_norm() < 1e-14);
    }

    #[test]
    fn tall_skinny_shapes() {
        let a = DenseMatrix::random(20, 3, 102);
        let (q, r) = dense_householder_qr(&a);
        assert_eq!(q.rows(), 20);
        assert_eq!(q.cols(), 20);
        assert_eq!(r.rows(), 20);
        assert_eq!(r.cols(), 3);
        assert!(a.sub(&q.matmul(&r)).frob_norm() < 1e-12);
    }
}
