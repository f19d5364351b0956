//! Run-to-run bitwise determinism of the full factorization stack.
//!
//! The gemm core selects its dispatch arm (scalar or AVX2/FMA) once per
//! process and every arm uses a fixed, input-independent accumulation
//! order, so repeating a factorization on the same machine must reproduce
//! every output f64 bit-for-bit. Checkpoint resume (which compares
//! recomputed tiles against stored ones) and the multi-job service's
//! solo-parity invariant both depend on this property — a kernel that
//! drifted between runs would make both report corruption that isn't
//! there.

use hqr::prelude::*;

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn factor_once(exec: Execution, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let (mt, nt, b) = (8usize, 3usize, 8usize);
    let elims = HqrConfig::new(2, 1).with_a(2).with_domino(true).elimination_list(mt, nt);
    let mut a = TiledMatrix::random(mt, nt, b, seed);
    let fac = qr_factorize(&mut a, &elims, exec);
    let r = fac.r_dense().data().to_vec();
    let v = fac.factored().to_dense().data().to_vec();
    (r, v)
}

#[test]
fn serial_factorization_is_bitwise_reproducible() {
    let (r1, v1) = factor_once(Execution::Serial, 2024);
    let (r2, v2) = factor_once(Execution::Serial, 2024);
    assert!(bits_equal(&r1, &r2), "R drifted between identical serial runs");
    assert!(bits_equal(&v1, &v2), "V storage drifted between identical serial runs");
}

#[test]
fn parallel_factorization_is_bitwise_reproducible() {
    // Thread interleaving may reorder independent tasks, but every
    // per-tile kernel sequence is fixed by the DAG, so outputs must not
    // drift across runs.
    let (r1, v1) = factor_once(Execution::Parallel(4), 2025);
    let (r2, v2) = factor_once(Execution::Parallel(4), 2025);
    assert!(bits_equal(&r1, &r2), "R drifted between identical parallel runs");
    assert!(bits_equal(&v1, &v2), "V storage drifted between identical parallel runs");
}

#[test]
fn parallel_matches_serial_bitwise() {
    // Solo parity: the multi-job service asserts a job running alongside
    // others produces the same bits as running alone; that only holds if
    // parallel == serial at the kernel level to begin with.
    let (rs, vs) = factor_once(Execution::Serial, 2026);
    let (rp, vp) = factor_once(Execution::Parallel(3), 2026);
    assert!(bits_equal(&rs, &rp), "parallel R differs from serial R");
    assert!(bits_equal(&vs, &vp), "parallel V differs from serial V");
}

#[test]
fn least_squares_solve_is_bitwise_reproducible() {
    let solve = || {
        let (mt, nt, b) = (6usize, 2usize, 8usize);
        let elims = HqrConfig::new(2, 1).with_a(2).with_domino(true).elimination_list(mt, nt);
        let mut a = TiledMatrix::random(mt, nt, b, 77);
        let fac = qr_factorize(&mut a, &elims, Execution::Serial);
        let rhs = DenseMatrix::random(mt * b, 2, 78);
        fac.solve_least_squares(&rhs).data().to_vec()
    };
    let x1 = solve();
    let x2 = solve();
    assert!(bits_equal(&x1, &x2), "solve drifted between identical runs");
}

// ---------------------------------------------------------------------
// Absolute bits: golden digests across every execution backend.
// ---------------------------------------------------------------------
//
// Every other parity suite in the repository is *relative* — a backend
// against `execute_serial` built from the same commit — so a change to
// the kernel dispatcher all backends share would pass them all. These
// digests pin the absolute bit patterns of A/Vg/Tg/Tk for one fixed
// problem, per dispatch arm and per side of the `ib = b` / `ib < b`
// choice.

mod golden {
    use hqr::prelude::*;
    use hqr_kernels::{simd_arm, t_len, KernelKind, SimdArm};
    use hqr_net::{factorize, shutdown_workers, spawn_local, DistConfig, WorkerOptions};
    use hqr_runtime::{
        execute_serial_ib, resume_from_checkpoint, try_execute_checkpointed, try_execute_with,
        CheckpointPolicy, CheckpointSpec, ElimOp, ExecOptions, JobPool, JobSpec, JobState,
        PoolConfig, TFactors, TaskGraph,
    };

    const MT: usize = 6;
    const NT: usize = 4;
    const B: usize = 16;
    const SEED: u64 = 20120521;

    /// Digest of the serial run at the commit before the execution core
    /// was unified, indexed by `(arm, ib)`.
    fn expected(arm: SimdArm, ib: usize) -> u64 {
        match (arm, ib) {
            (SimdArm::Avx2, 16) => 0x28d9_1364_22df_8c18,
            (SimdArm::Avx2, 4) => 0x7907_b2a1_7683_bfe6,
            (SimdArm::Scalar, 16) => 0xe227_2967_cbca_593a,
            (SimdArm::Scalar, 4) => 0xf5a0_8c7a_cd2b_9bc5,
            _ => unreachable!("no golden digest for {arm:?}, ib = {ib}"),
        }
    }

    fn elims() -> Vec<ElimOp> {
        HqrConfig::new(2, 1).with_a(2).with_domino(true).elimination_list(MT, NT).to_ops()
    }

    /// FNV-1a over the bit patterns of every A tile (column-major tile
    /// order), then every allocated Vg, Tg and Tk buffer in the same order.
    /// A T factor is stored `ib x b`; it is hashed as the zero-padded
    /// `b x b` tile it used to be stored as, so the constants predate the
    /// packed layout.
    fn digest(a: &TiledMatrix, f: &TFactors) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |buf: &[f64]| {
            for x in buf {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        };
        for j in 0..NT {
            for i in 0..MT {
                eat(a.tile(i, j));
            }
        }
        let ib = f.ib();
        let padded = |t: &[f64]| -> Vec<f64> {
            assert_eq!(t.len(), t_len(B, ib), "a T factor is t_len(b, ib) long");
            let mut tile = vec![0.0; B * B];
            for (col, src) in tile.chunks_exact_mut(B).zip(t.chunks_exact(ib)) {
                col[..ib].copy_from_slice(src);
            }
            tile
        };
        type Family = fn(&TFactors, usize, usize) -> Option<&[f64]>;
        for (family, is_t) in
            [(TFactors::vg as Family, false), (TFactors::tg, true), (TFactors::tk, true)]
        {
            for k in 0..NT {
                for i in 0..MT {
                    match family(f, i, k) {
                        Some(t) if is_t => eat(&padded(t)),
                        Some(v) => eat(v),
                        None => {}
                    }
                }
            }
        }
        h
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hqr_golden_{name}_{}", std::process::id()))
    }

    fn check_all_backends(ib: usize) {
        let want = expected(simd_arm(), ib);
        let elims = elims();
        let graph = TaskGraph::build(MT, NT, B, &elims);
        for kind in [KernelKind::Tsqrt, KernelKind::Ttqrt] {
            assert!(graph.tasks().iter().any(|t| t.kind == kind), "tree must mix TS and TT");
        }
        let input = TiledMatrix::random(MT, NT, B, SEED);

        let mut a = input.clone();
        let f = execute_serial_ib(&graph, &mut a, ib);
        assert_eq!(digest(&a, &f), want, "serial, ib = {ib}: {:#018x}", digest(&a, &f));

        let engine = ExecOptions { nthreads: 2, ib: Some(ib), ..Default::default() };
        let mut a = input.clone();
        let (f, _) = try_execute_with(&graph, &mut a, &engine).unwrap();
        assert_eq!(digest(&a, &f), want, "2-thread engine, ib = {ib}");

        let paged = ExecOptions {
            resident_budget: Some(4 * (B * B * 8) as u64),
            spill_dir: Some(std::env::temp_dir()),
            ..engine.clone()
        };
        let mut a = input.clone();
        let (f, _) = try_execute_with(&graph, &mut a, &paged).unwrap();
        assert_eq!(digest(&a, &f), want, "paged engine, ib = {ib}");

        let pool = JobPool::new(PoolConfig { nthreads: 2, ..Default::default() });
        let spec = JobSpec { ib: Some(ib), ..JobSpec::fresh(elims.clone(), input.clone()) };
        let out = pool.wait(pool.submit(spec).unwrap()).unwrap();
        pool.shutdown();
        assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
        let res = out.result.unwrap();
        assert_eq!(digest(&res.a, &res.factors), want, "JobPool, ib = {ib}");

        let path = tmp(&format!("ib{ib}.ckpt"));
        let spec = CheckpointSpec {
            path: &path,
            elims: &elims,
            policy: CheckpointPolicy::default(),
            input_seed: SEED,
            stop_after_panel: Some(1),
        };
        let mut a = input.clone();
        let run = try_execute_checkpointed(&graph, &mut a, &engine, &spec, false).unwrap();
        assert!(run.interrupted);
        let resumed = resume_from_checkpoint(&path, &engine, false).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(digest(&resumed.a, &resumed.factors), want, "checkpoint -> resume, ib = {ib}");

        let workers: Vec<_> =
            (0..2).map(|_| spawn_local(WorkerOptions::default()).expect("spawn worker")).collect();
        let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
        let result = factorize(&addrs, &graph, &input, ib, &DistConfig::for_workers(2));
        shutdown_workers(&addrs);
        for w in workers {
            let _ = w.join();
        }
        let (a, f, _) = result.expect("distributed factorization");
        assert_eq!(digest(&a, &f), want, "2-worker fleet, ib = {ib}");
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn golden_digests_plain_kernels() {
        check_all_backends(B);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn golden_digests_inner_blocked_kernels() {
        check_all_backends(4);
    }
}
