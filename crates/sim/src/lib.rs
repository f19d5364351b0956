//! Discrete-event simulator of a cluster of multi-core nodes.
//!
//! This crate substitutes for the paper's experimental platform — 60
//! Grid'5000 *edel* nodes (2× Nehalem E5520, 8 cores) with Infiniband 20G —
//! which we obviously cannot access. The simulator replays a
//! [`hqr_runtime::TaskGraph`] under the owner-computes rule of the data
//! layout, with:
//!
//! * per-node multi-core execution (list scheduling with the panel-first
//!   priority heuristic DAGuE-style runtimes use);
//! * per-kernel sequential rates calibrated from the paper's own
//!   measurements (§V-A: dTSMQR 7.21 GFlop/s, dTTMQR 6.28 GFlop/s,
//!   9.08 GFlop/s theoretical peak per core);
//! * a latency/bandwidth link model with per-NIC send/receive
//!   serialization, which is what makes flat trees latency-bound and
//!   hierarchical trees "communication-avoiding";
//! * node crashes with lineage recovery, and link degradations, from a
//!   [`hqr_runtime::FaultPlan`];
//! * opt-in schedule recording into the real executor's own record,
//!   [`hqr_runtime::ExecTrace`] — node-major core lanes, inter-node
//!   transfers, crash and degrade instants — so both backends render
//!   through [`hqr_runtime::chrome_trace_from_exec`].
//!
//! There are two entry points. [`simulate`] replays a DAG fault-free under
//! the panel-first policy and panics on invalid input. [`simulate_with`]
//! takes [`SimOptions`] (policy, fault plan, tracing) and returns
//! [`SimError`] instead.
//!
//! The absolute GFlop/s numbers are a model, but the *shape* of the results
//! (which tree wins for which matrix shape, the effect of `a` and of the
//! domino coupling, the ranking against ScaLAPACK/\[BBD+10\]/\[SLHD10\]) is
//! determined by work, critical path and message structure — which the
//! simulator reproduces faithfully from the real DAGs.

pub mod des;
pub mod fault;
pub mod platform;
pub mod scalapack;

pub use des::{simulate, simulate_with, SchedPolicy, SimOptions, SimReport};
pub use fault::{FaultOverhead, SimError};
pub use platform::{KernelRates, LinkModel, Platform};
