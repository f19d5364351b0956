//! Helpers shared by the kernel test binaries.

/// `t`, a T factor as the kernels store it (each `ib` panel's upper
/// triangle packed column by column, `t_len(b, ib)` doubles), expanded to
/// the layout they stored before: `ib` rows by `b` columns at leading
/// dimension `ib`, the panel starting at column `s` in rows `0..w` of
/// columns `s..s + w`, zeros below each triangle.
pub fn expand_t(b: usize, ib: usize, t: &[f64]) -> Vec<f64> {
    let (mut old, mut tri) = (Vec::new(), t.iter());
    for s in (0..b).step_by(ib) {
        for j in 0..ib.min(b - s) {
            old.extend(tri.by_ref().take(j + 1));
            old.resize(old.len() + ib - (j + 1), 0.0);
        }
    }
    old
}
