//! Problem definitions: what each workload factors, and the set-up stages
//! (input generation, elimination list, task graph) that build it.

use crate::metrics::{DIST, PAGED, SERVE, SQUARE, TALL_SKINNY};
use crate::spans::Spans;
use hqr::baselines;
use hqr_runtime::{ElimOp, TaskGraph};
use hqr_tile::{ProcessGrid, TiledMatrix};

/// Worker threads (and client connections) of every workload: this
/// sandbox's core count. Results from another count are not comparable.
pub const THREADS: usize = 2;

/// Matrix shape, tiling and the grid the elimination list is built for.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub rows: usize,
    pub cols: usize,
    /// Tile size.
    pub b: usize,
    /// Inner block size; `None` runs the plain (unblocked) kernels.
    pub ib: Option<usize>,
    /// Virtual process grid `p x q` handed to `hqr_adaptive`.
    pub grid: (usize, usize),
}

impl Shape {
    pub fn mt(&self) -> usize {
        self.rows / self.b
    }

    pub fn nt(&self) -> usize {
        self.cols / self.b
    }

    /// Inner block size as the executors take it (`b` means unblocked).
    pub fn ib_or_b(&self) -> usize {
        self.ib.unwrap_or(self.b)
    }

    /// Useful flops of a QR factorization, `2n²(m − n/3)`, whatever tree
    /// (and however many extra flops) the algorithm uses.
    pub fn useful_flops(&self) -> f64 {
        let (m, n) = (self.rows as f64, self.cols as f64);
        2.0 * n * n * (m - n / 3.0)
    }
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    /// `--quick` smoke size: same path, tiny problem.
    pub quick_shape: Shape,
    /// Untimed operations before the timed ones.
    pub warm_ops: usize,
    /// Floor on timed operations, whatever `--seconds` says.
    pub min_timed_ops: usize,
    /// Timed operations per requested second, for a workload that runs a
    /// fixed number of operations instead of a fixed time. `serve` does:
    /// the daemon keeps every job's outcome in memory until a client waits
    /// for it, which a socket client cannot, so its high-water mark grows
    /// with each job and is only comparable at an equal job count.
    pub ops_per_second: Option<f64>,
}

const fn shape(
    rows: usize,
    cols: usize,
    b: usize,
    ib: Option<usize>,
    grid: (usize, usize),
) -> Shape {
    Shape { rows, cols, b, ib, grid }
}

/// `DistConfig::for_workers(2).grid` is 1 x 2; the in-process workloads
/// use the 2 x 1 grid of the issue.
pub const WORKLOAD_TABLE: [Workload; 5] = [
    Workload {
        name: SQUARE,
        why: "3072x3072 in-process: update kernels are >85% of busy time, so gemm and update-kernel work shows here and factor-kernel or scheduler work should not",
        shape: shape(3072, 3072, 128, Some(32), (2, 1)),
        quick_shape: shape(512, 512, 128, Some(32), (2, 1)),
        warm_ops: 2,
        min_timed_ops: 7,
        ops_per_second: None,
    },
    Workload {
        name: TALL_SKINNY,
        why: "32768x512 in-process, the paper's headline shape: factor kernels sit on the critical path, so tree and factor-kernel changes show here and barely on square",
        shape: shape(32768, 512, 128, Some(32), (2, 1)),
        quick_shape: shape(2048, 256, 128, Some(32), (2, 1)),
        warm_ops: 2,
        min_timed_ops: 7,
        ops_per_second: None,
    },
    Workload {
        name: PAGED,
        why: "2560x2560 with a resident budget of a quarter of the matrix: same executor and kernels, but the store pages, so pin/fault-path costs show only here",
        shape: shape(2560, 2560, 128, Some(32), (2, 1)),
        quick_shape: shape(1024, 1024, 128, Some(32), (2, 1)),
        warm_ops: 2,
        min_timed_ops: 7,
        ops_per_second: None,
    },
    Workload {
        name: DIST,
        why: "2048x2048 over two loopback tile workers: wire framing and coordinator relay dominate, so data-plane changes show here and nowhere else",
        shape: shape(2048, 2048, 128, Some(32), (1, 2)),
        quick_shape: shape(512, 512, 128, Some(32), (1, 2)),
        warm_ops: 2,
        min_timed_ops: 7,
        ops_per_second: None,
    },
    Workload {
        name: SERVE,
        why: "closed loop of 512x256 plain-kernel jobs from two clients through the hqr serve daemon: pool scheduling, journal, result store and socket framing are the cost",
        shape: shape(512, 256, 64, None, (2, 1)),
        quick_shape: shape(512, 256, 64, None, (2, 1)),
        warm_ops: 50,
        min_timed_ops: 7,
        // The seed commit serves about 34 such jobs a second here.
        ops_per_second: Some(30.0),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOAD_TABLE.iter().find(|w| w.name == name)
}

/// A generated problem: everything the program under test is handed.
pub struct Problem {
    pub shape: Shape,
    pub elims: Vec<ElimOp>,
    pub graph: TaskGraph,
    pub input: TiledMatrix,
}

/// Seconds spent in each set-up stage of one [`build`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSeconds {
    pub generate: f64,
    pub elim_list: f64,
    pub graph_build: f64,
}

/// The elimination list of `shape`: `hqr_adaptive` picks the paper's
/// tall-skinny tuning (Fibonacci/Fibonacci, a = 4, domino) at `mt >= 4 nt`
/// and its square tuning (Fibonacci low, flat high, a = 4) otherwise.
fn elimination_list(shape: &Shape) -> Vec<ElimOp> {
    let grid = ProcessGrid::new(shape.grid.0, shape.grid.1);
    baselines::hqr_adaptive(shape.mt(), shape.nt(), grid).elims.to_ops()
}

/// Generate the input from `seed` and build the plan, one span per stage.
pub fn build(
    shape: Shape,
    seed: u64,
    spans: &mut Spans,
) -> Result<(Problem, StageSeconds), String> {
    let (mt, nt, b) = (shape.mt(), shape.nt(), shape.b);
    let (input, generate) =
        spans.time("generate input", "hqr-tile", None, |_| TiledMatrix::random(mt, nt, b, seed));
    let (elims, elim_list) =
        spans.time("elimination list", "hqr-core", None, |_| elimination_list(&shape));
    let (graph, graph_build) =
        spans.time("TaskGraph::try_build", "hqr-runtime::graph", None, |_| {
            TaskGraph::try_build(mt, nt, b, &elims)
        });
    let graph = graph.map_err(|e| format!("task graph: {e}"))?;
    Ok((Problem { shape, elims, graph, input }, StageSeconds { generate, elim_list, graph_build }))
}

/// Overwrite `dst` with `src` tile by tile, so that repeated operations
/// reuse one working matrix instead of reallocating it.
pub fn copy_tiles(dst: &mut TiledMatrix, src: &TiledMatrix) {
    for j in 0..src.nt() {
        for i in 0..src.mt() {
            dst.tile_mut(i, j).copy_from_slice(src.tile(i, j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn table_covers_every_workload_with_valid_shapes() {
        assert_eq!(WORKLOAD_TABLE.map(|w| w.name), WORKLOADS);
        for w in &WORKLOAD_TABLE {
            for s in [w.shape, w.quick_shape] {
                assert_eq!(s.rows % s.b, 0);
                assert_eq!(s.cols % s.b, 0);
                assert!(s.rows >= s.cols);
                assert!(s.ib.is_none_or(|ib| ib < s.b && s.b % ib == 0));
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.min_timed_ops >= 7);
        }
        assert_eq!(hqr_net::DistConfig::for_workers(THREADS).grid, ProcessGrid::new(1, 2));
    }

    #[test]
    fn build_is_deterministic_in_the_seed() {
        let shape = workload(SERVE).unwrap().shape;
        let mut spans = Spans::new(true);
        let (p1, stages) = build(shape, 5, &mut spans).unwrap();
        let (p2, _) = build(shape, 5, &mut spans).unwrap();
        let (p3, _) = build(shape, 6, &mut spans).unwrap();
        assert_eq!(p1.input.tile(3, 1), p2.input.tile(3, 1));
        assert_ne!(p1.input.tile(3, 1), p3.input.tile(3, 1));
        assert_eq!(p1.elims, p2.elims);
        assert_eq!(spans.spans().len(), 9);
        assert!(stages.generate > 0.0 && stages.elim_list > 0.0 && stages.graph_build > 0.0);
        assert_eq!(shape.useful_flops(), 2.0 * 256.0 * 256.0 * (512.0 - 256.0 / 3.0));
    }
}
