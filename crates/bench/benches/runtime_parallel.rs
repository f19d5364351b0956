//! Criterion benchmark of the shared-memory DAG executor: serial versus
//! multithreaded factorization of the same tile matrix (the intra-node
//! half of the paper's runtime story).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hqr::prelude::*;
use hqr_runtime::{execute_serial, try_execute_with, ExecOptions, TaskGraph};

fn bench_runtime(c: &mut Criterion) {
    let (mt, nt, b) = (16usize, 8usize, 32usize);
    let cfg = HqrConfig::new(1, 1).with_a(4).with_low(TreeKind::Greedy);
    let elims = cfg.elimination_list(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims.to_ops());
    let a0 = TiledMatrix::random(mt, nt, b, 42);

    let mut g = c.benchmark_group("runtime");
    g.bench_function(BenchmarkId::new("factorize-serial", format!("{mt}x{nt}x{b}")), |bench| {
        bench.iter_batched(
            || a0.clone(),
            |mut a| execute_serial(&graph, &mut a),
            criterion::BatchSize::LargeInput,
        );
    });
    for threads in [2usize, 4] {
        g.bench_function(BenchmarkId::new("factorize-parallel", threads), |bench| {
            bench.iter_batched(
                || a0.clone(),
                |mut a| try_execute_with(&graph, &mut a, &ExecOptions::with_threads(threads)),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_runtime
}
criterion_main!(benches);
