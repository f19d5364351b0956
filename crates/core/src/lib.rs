//! **HQR** — hierarchical tile QR factorization for clusters of multi-core
//! nodes, reproducing Dongarra, Faverge, Herault, Langou & Robert,
//! *"Hierarchical QR factorization algorithms for multi-core cluster
//! systems"* (IPDPS 2012).
//!
//! A tile QR algorithm is entirely characterized by its *elimination list*
//! (§II). This crate provides:
//!
//! * [`elim`] — elimination lists with the paper's validity conditions;
//! * [`trees`] — the per-panel reduction trees (FLATTREE, BINARYTREE,
//!   GREEDY, FIBONACCI);
//! * [`hier`] — the paper's contribution: the four-level hierarchical tree
//!   (TS level / low level / domino coupling level / high level) over a
//!   virtual p×q cluster grid ([`HqrConfig`]);
//! * [`schedule`] — coarse-grain unit-time schedules reproducing the
//!   paper's Tables I–IV and the critical-path reasoning of §III;
//! * [`factor`] — the numerical driver: factorize a [`hqr_tile::TiledMatrix`]
//!   through the task-DAG runtime, rebuild Q, and run the paper's checks
//!   (‖QᵀQ−I‖, ‖A−QR‖);
//! * [`baselines`] — the comparison algorithms of §V as parametrizations
//!   of the same engine (\[BBD+10\], \[SLHD10\], plus the ScaLAPACK model in
//!   `hqr-sim`);
//! * [`model`] — analytic formulas (flop counts, §III-C load-balance
//!   bounds);
//! * [`experiments`] — the paper's evaluation as one row-producing function
//!   per table, figure and extension study, over the cluster simulator;
//!   what `hqr experiments` prints and `tests/paper_claims.rs` asserts on.
//!
//! # Quickstart
//!
//! ```
//! use hqr::prelude::*;
//!
//! // An 8×4-tile matrix of 8×8 tiles, factored with HQR on a virtual
//! // 2×1 grid, TS domains of 2, default trees, domino coupling on.
//! let config = HqrConfig::new(2, 1).with_a(2).with_domino(true);
//! let elims = config.elimination_list(8, 4);
//! let mut a = TiledMatrix::random(8, 4, 8, 42);
//! let a0 = a.to_dense();
//! let fac = qr_factorize(&mut a, &elims, Execution::Serial);
//! let check = fac.check(&a0);
//! assert!(check.is_satisfactory());
//! ```

pub mod baselines;
pub mod driver;
pub mod elim;
pub mod experiments;
pub mod factor;
pub mod hier;
pub mod model;
pub mod schedule;
pub mod solve;
pub mod trees;

pub use driver::DenseQr;
pub use elim::{ElimList, Elimination, Level};
pub use factor::{qr_factorize, qr_factorize_ib, Execution, QrCheck, QrFactorization};
pub use hier::HqrConfig;
pub use trees::TreeKind;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::baselines;
    pub use crate::driver::DenseQr;
    pub use crate::elim::{ElimList, Elimination, Level};
    pub use crate::factor::{qr_factorize, qr_factorize_ib, Execution, QrCheck, QrFactorization};
    pub use crate::hier::HqrConfig;
    pub use crate::schedule::Schedule;
    pub use crate::trees::TreeKind;
    pub use hqr_tile::{DenseMatrix, Layout, ProcessGrid, TiledMatrix};
}
