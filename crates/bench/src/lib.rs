//! Shared plumbing for the figure- and table-regenerating bench harnesses.
//!
//! Every table and figure of the paper's evaluation (§V) has a bench target
//! in `benches/`:
//!
//! | target | regenerates |
//! |---|---|
//! | `table_schedules` | Tables I–IV, Figures 1–4 |
//! | `fig6_highlevel`  | Figure 6 (a)+(b) |
//! | `fig7_domino`     | Figure 7 |
//! | `fig8_compare_m`  | Figure 8 |
//! | `fig9_compare_n`  | Figure 9 |
//!
//! Set `HQR_QUICK=1` to shrink the sweeps (useful in CI); the default runs
//! the paper-scale parameter sets.

use hqr::baselines::AlgorithmSetup;
use hqr::experiments::simulate_setup;
use hqr_sim::Platform;

/// The paper's tile size: "Choosing b = 280 and a process grid p × q of
/// 15 × 4 leads to values that consistently provide good performance".
pub const B: usize = 280;

/// The paper's process grid.
pub const GRID_P: usize = 15;
/// The paper's process grid.
pub const GRID_Q: usize = 4;

/// True when `HQR_QUICK=1` (reduced sweeps).
pub fn quick() -> bool {
    std::env::var("HQR_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The edel platform of §V-A.
pub fn platform() -> Platform {
    Platform::edel()
}

/// Figure 6/8 row-dimension sweep (elements): 4480 → 286720, i.e. square
/// 16×16 tiles to tall-skinny 1024×16 tiles.
pub fn m_sweep() -> Vec<usize> {
    let all = [4480, 8960, 17920, 35840, 71680, 143360, 286720];
    if quick() {
        all[..4].to_vec()
    } else {
        all.to_vec()
    }
}

/// Figure 9 column-dimension sweep (elements) at fixed M = 67200.
pub fn n_sweep() -> Vec<usize> {
    let all = [1120, 2240, 4480, 8960, 16800, 33600, 67200];
    if quick() {
        all[..4].to_vec()
    } else {
        all.to_vec()
    }
}

/// Simulate a setup at the paper's tile size and print one markdown row.
pub fn run_point(setup: &AlgorithmSetup, label: &str, m: usize, n: usize) -> f64 {
    let p = platform();
    let rep = simulate_setup(setup, B, &p);
    println!(
        "| {m:>7} | {n:>6} | {label:<34} | {:>8.1} | {:>5.1}% | {:>9} |",
        rep.gflops,
        100.0 * rep.efficiency,
        rep.messages
    );
    rep.gflops
}

/// Print the markdown header used by all figure harnesses.
pub fn print_header(title: &str) {
    println!("\n## {title}");
    println!("| M | N | algorithm | GFlop/s | % peak | messages |");
    println!("|---|---|---|---|---|---|");
}
