//! # hexcute-sim
//!
//! Functional and performance simulation of synthesized Hexcute kernels.
//!
//! The paper evaluates generated CUDA kernels on A100/H100 GPUs; this
//! reproduction substitutes a simulator (documented in `DESIGN.md`):
//!
//! * [`FunctionalSim`] executes one thread block of a synthesized program
//!   element by element, using the synthesized thread-value layouts, shared
//!   memory layouts and swizzles verbatim. Incorrect or inconsistent layouts
//!   produce numerically wrong results, so reference comparisons in the test
//!   suite validate the "correct by construction" claim.
//! * [`estimate_kernel`] models the device-level latency of a launch: the
//!   per-block instruction timeline (via the analytical cost model), shared
//!   memory bank conflicts, occupancy and wave quantization across SMs, DRAM
//!   and Tensor-Core rooflines, and kernel-launch overhead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod functional;
mod perf;

pub use error::{Result, SimError};
pub use functional::{quantize, FunctionalSim};
pub use perf::{
    bank_conflict_penalty, estimate_kernel, global_memory_efficiency, PerfEvaluator, PerfReport,
};
