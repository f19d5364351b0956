//! Layer `hqr-kernels`: each tile kernel called directly, alone, on one
//! thread, on tile-shaped inputs that are restored outside the timed span.
//! These isolated rates are what the executor's busy time is compared
//! with (`exec.kernel_inflation`) and what the simulator is fed.

use crate::metrics::{Metrics, KERNEL_NAMES};
use crate::problem::Shape;
use crate::spans::Spans;
use crate::stats::median;
use hqr_kernels::blas::gemm;
use hqr_kernels::blocked::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib, unmqr_ib};
use hqr_kernels::{geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, KernelKind, Trans};
use hqr_tile::DenseMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Kernel kinds in `hqr_runtime::analysis::kind_index` order.
const KINDS: [KernelKind; 6] = [
    KernelKind::Geqrt,
    KernelKind::Unmqr,
    KernelKind::Tsqrt,
    KernelKind::Tsmqr,
    KernelKind::Ttqrt,
    KernelKind::Ttmqr,
];

/// Individually timed calls per kernel (after [`WARM_CALLS`] untimed).
pub const TIMED_CALLS: usize = 31;
const WARM_CALLS: usize = 3;

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        u[j * b..=j + j * b].copy_from_slice(&a[j * b..=j + j * b]);
    }
    u
}

/// The six kernels as the executors dispatch them: the inner-blocked
/// variant when `ib < b`, the plain one otherwise.
struct Dispatch {
    b: usize,
    ib: usize,
}

impl Dispatch {
    fn geqrt(&self, a: &mut [f64], t: &mut [f64]) {
        if self.ib < self.b {
            geqrt_ib(self.b, self.ib, a, t)
        } else {
            geqrt(self.b, a, t)
        }
    }

    fn unmqr(&self, v: &[f64], t: &[f64], c: &mut [f64]) {
        if self.ib < self.b {
            unmqr_ib(self.b, self.ib, v, t, c, Trans::Trans)
        } else {
            unmqr(self.b, v, t, c, Trans::Trans)
        }
    }

    fn kill(&self, tt: bool, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
        match (self.ib < self.b, tt) {
            (true, false) => tsqrt_ib(self.b, self.ib, a1, a2, t),
            (true, true) => ttqrt_ib(self.b, self.ib, a1, a2, t),
            (false, false) => tsqrt(self.b, a1, a2, t),
            (false, true) => ttqrt(self.b, a1, a2, t),
        }
    }

    fn update(&self, tt: bool, v2: &[f64], t: &[f64], a1: &mut [f64], a2: &mut [f64]) {
        match (self.ib < self.b, tt) {
            (true, false) => tsmqr_ib(self.b, self.ib, v2, t, a1, a2, Trans::Trans),
            (true, true) => ttmqr_ib(self.b, self.ib, v2, t, a1, a2, Trans::Trans),
            (false, false) => tsmqr(self.b, v2, t, a1, a2, Trans::Trans),
            (false, true) => ttmqr(self.b, v2, t, a1, a2, Trans::Trans),
        }
    }
}

/// Median of `calls` individually timed calls. `call` restores its inputs,
/// then runs the kernel once and returns the seconds of that call alone.
fn median_call_seconds(
    spans: &mut Spans,
    name: &str,
    calls: usize,
    mut call: impl FnMut() -> f64,
) -> f64 {
    let (samples, _) = spans.time(name, "hqr-kernels", None, |_| {
        for _ in 0..WARM_CALLS.min(calls) {
            call();
        }
        (0..calls).map(|_| call()).collect::<Vec<f64>>()
    });
    median(&samples)
}

/// Isolated GF/s of the six kernels at tile size `b` and inner block `ib`
/// (`ib == b`: the plain kernels), in [`KINDS`] order.
pub fn kernel_rates(b: usize, ib: usize, calls: usize, spans: &mut Spans) -> [f64; 6] {
    let d = Dispatch { b, ib };
    let zeros = || vec![0.0; b * b];
    // Factored operands for the apply kernels, built once.
    let (mut vg, mut tg) = (tile(b, 1), zeros());
    d.geqrt(&mut vg, &mut tg);
    let r = upper(b, &vg);
    let kill_operands = |tt: bool| {
        let (mut a1, mut t) = (r.clone(), zeros());
        let mut a2 = if tt { upper(b, &tile(b, 2)) } else { tile(b, 2) };
        d.kill(tt, &mut a1, &mut a2, &mut t);
        (a2, t)
    };
    let ((v2_ts, t_ts), (v2_tt, t_tt)) = (kill_operands(false), kill_operands(true));

    let (x0, y0) = (tile(b, 3), tile(b, 4));
    let y0_upper = upper(b, &y0);
    let (mut x, mut y, mut t) = (zeros(), zeros(), zeros());
    let mut rates = [0.0; 6];
    for (slot, kind) in KINDS.iter().enumerate() {
        let name = format!("{}{}", KERNEL_NAMES[slot], if ib < b { "_ib" } else { "" });
        // The kill kernels take a triangle on top; TTQRT also below.
        let (x_init, y_init) = match kind {
            KernelKind::Tsqrt => (&r, &y0),
            KernelKind::Ttqrt => (&r, &y0_upper),
            _ => (&x0, &y0),
        };
        let seconds = median_call_seconds(spans, &name, calls, || {
            x.copy_from_slice(x_init);
            y.copy_from_slice(y_init);
            let t0 = Instant::now();
            match kind {
                KernelKind::Geqrt => d.geqrt(&mut x, &mut t),
                KernelKind::Unmqr => d.unmqr(&vg, &tg, &mut x),
                KernelKind::Tsqrt => d.kill(false, &mut x, &mut y, &mut t),
                KernelKind::Ttqrt => d.kill(true, &mut x, &mut y, &mut t),
                KernelKind::Tsmqr => d.update(false, &v2_ts, &t_ts, &mut x, &mut y),
                KernelKind::Ttmqr => d.update(true, &v2_tt, &t_tt, &mut x, &mut y),
            }
            black_box(&x[0]);
            t0.elapsed().as_secs_f64()
        });
        rates[slot] = kind.flops(b) / seconds / 1e9;
    }
    rates
}

/// GF/s of one `b x b x b` gemm (`C := C − A·B`): the practical peak the
/// kernels are built on, measured in the same run.
pub fn gemm_rate(b: usize, calls: usize, spans: &mut Spans) -> f64 {
    let (a, bm, c0) = (tile(b, 5), tile(b, 6), tile(b, 7));
    let mut c = c0.clone();
    let seconds = median_call_seconds(spans, "gemm", calls, || {
        c.copy_from_slice(&c0);
        let t0 = Instant::now();
        gemm(b, b, b, -1.0, &a, Trans::NoTrans, &bm, Trans::NoTrans, 1.0, &mut c);
        black_box(&c[0]);
        t0.elapsed().as_secs_f64()
    });
    2.0 * (b as f64).powi(3) / seconds / 1e9
}

/// Measure and record the kernel set a workload of `shape` executes: the
/// `ib32_b128` set with the gemm peak, or the `plain_b64` set. (The metric
/// names carry the sizes of the full workloads; `--quick` keeps `b`, `ib`.)
pub fn record_kernel_metrics(
    metrics: &mut Metrics,
    shape: &Shape,
    calls: usize,
    spans: &mut Spans,
) -> [f64; 6] {
    let rates = kernel_rates(shape.b, shape.ib_or_b(), calls, spans);
    let suffix = if shape.ib.is_some() { "ib32_b128" } else { "plain_b64" };
    for (name, rate) in KERNEL_NAMES.iter().zip(rates) {
        metrics.set(format!("kernels.{name}_{suffix}_gflops"), rate);
    }
    if shape.ib.is_some() {
        metrics.set("kernels.gemm_b128_gflops", gemm_rate(shape.b, calls, spans));
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_positive_for_both_variants() {
        let mut spans = Spans::new(true);
        for (b, ib) in [(32, 8), (32, 32)] {
            let rates = kernel_rates(b, ib, 2, &mut spans);
            assert!(rates.iter().all(|&r| r > 0.0 && r.is_finite()), "{rates:?}");
        }
        assert!(gemm_rate(32, 2, &mut spans) > 0.0);
        assert_eq!(spans.spans().len(), 13);
        let mut m = Metrics::default();
        let shape = Shape { rows: 64, cols: 64, b: 32, ib: None, grid: (1, 1) };
        let rates = record_kernel_metrics(&mut m, &shape, 1, &mut spans);
        assert_eq!(m.get("kernels.ttqrt_plain_b64_gflops"), Some(rates[4]));
        assert_eq!(m.get("kernels.gemm_b128_gflops"), None);
    }
}
