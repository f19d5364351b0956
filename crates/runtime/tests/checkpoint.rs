//! Checkpoint integration tests: a mid-run checkpoint taken by the pool at
//! a quiescent point resumes to bitwise-identical factors, the file format
//! reports truncation and corruption as typed errors, a checkpoint is bound
//! to its plan by its fingerprint, and the pool refuses a resume spec that
//! is not a valid mid-run state before any kernel runs.

mod support;

use std::path::PathBuf;

use hqr_kernels::KernelKind;
use hqr_runtime::{
    execute_serial_ib, read_checkpoint, write_checkpoint, Checkpoint, CheckpointError, JobPool,
    JobSpec, JobState, PoolConfig, SubmitError, TFactors, Task, TaskGraph,
};
use hqr_tile::io::sibling_tmp_path;
use hqr_tile::TiledMatrix;
use support::{binary_elims, flat_elims, suspended_checkpoint};

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hqr_ckpt_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

#[test]
fn suspended_checkpoint_resumes_bitwise_on_another_pool() {
    let (mt, nt, b) = (6, 4, 8);
    let elims = binary_elims(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let a0 = TiledMatrix::random(mt, nt, b, 77);
    let mut a_ref = a0.clone();
    let f_ref = execute_serial_ib(&graph, &mut a_ref, b);

    // Stall on the first task of panel 2: panels 0 and 1 are behind it.
    let stall = graph.tasks().iter().position(|t| t.k == 2).unwrap() as u32;
    let dir = tmp("resume");
    let ckpt = suspended_checkpoint(&dir, &elims, &a0, b, stall);
    assert!(
        ckpt.completed_tasks() >= stall as usize && ckpt.completed_tasks() < graph.tasks().len()
    );

    // The library recipe: write it anywhere, read it back, submit it.
    let path = dir.join("copy.ckpt");
    write_checkpoint(&path, &Checkpoint { job: 77, ..ckpt }).unwrap();
    assert!(!sibling_tmp_path(&path).exists(), "temp file must not survive");
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.job, 77, "the job word round-trips");
    let pool = JobPool::new(PoolConfig { nthreads: 3, ..PoolConfig::default() });
    let out = pool.wait(pool.submit(JobSpec::resume(ckpt)).expect("submit resume")).unwrap();
    pool.shutdown();
    assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
    let r = out.result.unwrap();
    assert!(r.factors.bitwise_eq(&f_ref), "resumed factors differ from an uninterrupted run");
    assert_eq!(r.a.to_dense().data(), a_ref.to_dense().data(), "resumed tiles differ");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume `ckpt` on another pool, resident and paged (a quarter of the
/// matrix resident), and require the bits of `execute_serial_ib`'s `a_ref`
/// and `f_ref`.
fn resumes_bitwise(ckpt: &Checkpoint, a_ref: &TiledMatrix, f_ref: &TFactors) {
    let quarter = (ckpt.mt * ckpt.nt * ckpt.b * ckpt.b * 8 / 4) as u64;
    for resident_budget in [None, Some(quarter)] {
        let pool = JobPool::new(PoolConfig { nthreads: 2, resident_budget, ..Default::default() });
        let id = pool.submit(JobSpec::resume(ckpt.clone())).expect("submit resume");
        let out = pool.wait(id).unwrap();
        pool.shutdown();
        let label = format!("b = {}, budget {resident_budget:?}", ckpt.b);
        assert_eq!(out.state, JobState::Completed, "{label}: {:?}", out.error);
        let r = out.result.unwrap();
        assert!(r.factors.bitwise_eq(f_ref), "{label}: resumed factors differ");
        assert_eq!(r.a.to_dense().data(), a_ref.to_dense().data(), "{label}: tiles differ");
    }
}

/// A job suspended while a V copy is live — GEQRT(0,0) done, an UNMQR
/// that reads its V pending — resumes on another pool bitwise equal to
/// `execute_serial_ib`, resident and paged, at b = 8 and at b = 1 (where
/// a V copy holds no double). The checkpoint holds no V copy: the resumed
/// run rebuilds it from the factored tile A(0,0).
#[test]
fn a_job_suspended_with_a_live_v_copy_resumes_bitwise() {
    let (mt, nt) = (6, 4);
    let elims = binary_elims(mt, nt);
    for (b, ib) in [(8, 4), (1, 1)] {
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let a0 = TiledMatrix::random(mt, nt, b, 78);
        let mut a_ref = a0.clone();
        let f_ref = execute_serial_ib(&graph, &mut a_ref, ib);
        let tasks = graph.tasks();
        let at = |kind: KernelKind| move |t: &Task| t.kind == kind && (t.i, t.k) == (0, 0);
        let geqrt = tasks.iter().position(at(KernelKind::Geqrt)).unwrap();
        let stall = tasks.iter().rposition(at(KernelKind::Unmqr)).unwrap();
        let dir = tmp(&format!("live_v_{b}"));
        let ckpt = suspended_checkpoint(&dir, &elims, &a0, ib, stall as u32);
        assert!(ckpt.completed[geqrt] && !ckpt.completed[stall], "V(0,0) is live at b = {b}");
        resumes_bitwise(&ckpt, &a_ref, &f_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A job suspended with a done kill whose last update is pending — the
/// kill's T still read — resumes on another pool bitwise equal to
/// `execute_serial_ib`, resident and paged, at b = 8 and at b = 1. The
/// checkpoint keeps the kill's τ only: the resumed run rebuilds its T from
/// τ and the victim tile, which holds V2.
#[test]
fn a_job_suspended_with_a_live_kill_t_resumes_bitwise() {
    let (mt, nt) = (6, 4);
    let elims = binary_elims(mt, nt);
    let kill = |t: &Task| matches!(t.kind, KernelKind::Tsqrt | KernelKind::Ttqrt);
    let update = |t: &Task| matches!(t.kind, KernelKind::Tsmqr | KernelKind::Ttmqr);
    for (b, ib) in [(8, 4), (1, 1)] {
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let a0 = TiledMatrix::random(mt, nt, b, 79);
        let mut a_ref = a0.clone();
        let f_ref = execute_serial_ib(&graph, &mut a_ref, ib);
        let tasks = graph.tasks();
        let k = tasks.iter().position(|t| kill(t) && t.k == 0).unwrap();
        let (i, piv) = (tasks[k].i, tasks[k].piv);
        let reads_it = |t: &Task| update(t) && (t.i, t.piv, t.k) == (i, piv, 0);
        let stall = tasks.iter().rposition(reads_it).unwrap();
        let dir = tmp(&format!("live_t_{b}"));
        let ckpt = suspended_checkpoint(&dir, &elims, &a0, ib, stall as u32);
        assert!(ckpt.completed[k] && !ckpt.completed[stall], "Tk({i},0) is live at b = {b}");
        let tau = ckpt.factors.tk(i as usize, 0).map(<[f64]>::len);
        assert_eq!(tau, Some(hqr_kernels::tau_len(b)), "the checkpoint keeps τ");
        resumes_bitwise(&ckpt, &a_ref, &f_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A job suspended after a kill's last update completed — its T given
/// back to the store, so its τ lives only in the capture — while another
/// kill's T is still read resumes on another pool bitwise equal to
/// `execute_serial_ib`, resident and paged, at b = 8 and at b = 1.
#[test]
fn a_job_suspended_after_a_t_release_resumes_bitwise() {
    let (mt, nt) = (6, 4);
    let elims = binary_elims(mt, nt);
    let kill = |t: &Task| matches!(t.kind, KernelKind::Tsqrt | KernelKind::Ttqrt);
    // The updates that read kill `k`'s T.
    let reads = |k: Task| {
        move |t: &&Task| {
            matches!(t.kind, KernelKind::Tsmqr | KernelKind::Ttmqr)
                && (t.i, t.piv, t.k) == (k.i, k.piv, k.k)
        }
    };
    for (b, ib) in [(8, 4), (1, 1)] {
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let a0 = TiledMatrix::random(mt, nt, b, 80);
        let mut a_ref = a0.clone();
        let f_ref = execute_serial_ib(&graph, &mut a_ref, ib);
        let tasks = graph.tasks();
        let id = |t: &Task| tasks.iter().position(|u| u == t).unwrap();
        let live = *tasks.iter().find(|t| kill(t) && t.k == 1).unwrap();
        let stall = id(tasks.iter().rfind(reads(live)).unwrap());
        let dir = tmp(&format!("released_t_{b}"));
        let ckpt = suspended_checkpoint(&dir, &elims, &a0, ib, stall as u32);
        assert!(ckpt.completed[id(&live)] && !ckpt.completed[stall], "a T is live at b = {b}");
        let done = |t: &Task| ckpt.completed[id(t)];
        let released: Vec<&Task> = tasks
            .iter()
            .filter(|k| kill(k) && done(k) && tasks.iter().filter(reads(**k)).all(done))
            .collect();
        assert!(!released.is_empty(), "a T is released at b = {b}");
        for k in released {
            let (i, j) = (k.i as usize, k.k as usize);
            let bits = |tau: Option<&[f64]>| {
                tau.map(|t| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(ckpt.factors.tk(i, j)), bits(f_ref.tk(i, j)), "τ of Tk({i},{j})");
        }
        resumes_bitwise(&ckpt, &a_ref, &f_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_is_rejected_for_a_different_plan() {
    let (mt, nt, b) = (5, 3, 4);
    let elims = flat_elims(mt, nt);
    let dir = tmp("fingerprint");
    let ckpt = suspended_checkpoint(&dir, &elims, &TiledMatrix::random(mt, nt, b, 3), b, 4);
    // Same shape, different elimination order → different fingerprint.
    let other = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    match ckpt.validate_against(&other, ckpt.ib) {
        Err(CheckpointError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // Same graph, different ib → also rejected.
    let same = TaskGraph::build(mt, nt, b, &elims);
    match ckpt.validate_against(&same, ckpt.ib + 1) {
        Err(CheckpointError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch on ib change, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_corrupt_checkpoints_are_typed_errors() {
    let (mt, nt, b) = (4, 3, 4);
    let dir = tmp("truncate");
    let a = TiledMatrix::random(mt, nt, b, 11);
    let ckpt = suspended_checkpoint(&dir, &flat_elims(mt, nt), &a, b, 3);
    let path = dir.join("copy.ckpt");
    write_checkpoint(&path, &ckpt).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    // Truncate mid-file (inside the tile section).
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match read_checkpoint(&path) {
        Err(CheckpointError::Format(_)) => {}
        other => panic!("expected Format error on truncation, got {other:?}"),
    }
    // Flip one payload byte: checksum must catch it.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&path, &corrupt).unwrap();
    match read_checkpoint(&path) {
        Err(CheckpointError::Format(hqr_tile::BinFormatError::ChecksumMismatch { .. })) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_conflicting_ib_and_open_bitmap_at_submit() {
    let (mt, nt, b) = (4, 3, 4);
    let dir = tmp("bad_resume");
    let a = TiledMatrix::random(mt, nt, b, 13);
    let ckpt = suspended_checkpoint(&dir, &flat_elims(mt, nt), &a, 2, 3);
    let pool = JobPool::new(PoolConfig { nthreads: 1, ..PoolConfig::default() });

    // Factors computed with one ib cannot be extended with another.
    let conflicting = JobSpec { ib: Some(4), ..JobSpec::resume(ckpt.clone()) };
    match pool.submit(conflicting) {
        Err(SubmitError::Invalid { .. }) => {}
        other => panic!("expected Invalid on ib conflict, got {:?}", other.map(|id| id.0)),
    }

    // A bitmap not closed under dependencies: the final task "done" with
    // pending predecessors.
    let mut open = ckpt;
    let n = open.completed.len();
    open.completed[n - 1] = true;
    match pool.submit(JobSpec::resume(open)) {
        Err(SubmitError::Invalid { .. }) => {}
        other => panic!("expected Invalid on open bitmap, got {:?}", other.map(|id| id.0)),
    }
    assert!(pool.jobs().is_empty(), "a refused spec never becomes a job");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
