//! The repo benchmark. See `README.md` in this directory.

pub mod compare;
pub mod dist;
pub mod exec;
pub mod guards;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod problem;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sysinfo;
pub mod verify;
