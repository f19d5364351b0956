//! Tiled matrix storage and data layouts for the HQR reproduction.
//!
//! A tiled matrix of `mt × nt` tiles, each tile a dense `b × b` column-major
//! block, is the data structure all tile QR algorithms of the paper operate
//! on (§II: "we have square b × b tiles, where b is the block size. Thus the
//! actual size of the matrix is M × N, with M = m∗b and N = n∗b").
//!
//! This crate also provides:
//! * [`DenseMatrix`] — a plain column-major matrix used for numerical
//!   verification (gathering a tiled matrix, computing ‖A−QR‖, ‖QᵀQ−I‖);
//! * [`ProcessGrid`] and [`Layout`] — the p×q process grids and the data
//!   distributions of the paper (2D block-cyclic, 1D block, 1D cyclic,
//!   CYCLIC(a) row block-cyclic);
//! * [`heap`] — the global allocator, which starts every block of 1 KiB or
//!   more (tiles, factor buffers, frames, kernel scratch) on a cache line.

pub mod dense;
pub mod heap;
pub mod io;
pub mod layout;
pub mod matrix;

pub use dense::DenseMatrix;
pub use io::{BinFormatError, SectionList, SectionReader};
pub use layout::{Layout, ProcessGrid};
pub use matrix::TiledMatrix;
