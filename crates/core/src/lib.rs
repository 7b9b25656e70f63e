//! # hexcute-core
//!
//! The Hexcute compiler driver: ties the tile-level IR, the layout-synthesis
//! engine, the analytical cost model, lowering and the simulator into the
//! compilation workflow of Fig. 6(c) of the paper:
//!
//! 1. the program's thread-value layout constraints are built and solved;
//! 2. instruction selection expands a search tree of candidate programs;
//! 3. shared-memory layouts (and swizzles) are synthesized per candidate;
//! 4. the analytical cost model ranks the candidates and the cheapest one is
//!    lowered to a kernel.
//!
//! ```
//! use hexcute_arch::{DType, GpuArch};
//! use hexcute_core::Compiler;
//! use hexcute_ir::KernelBuilder;
//! use hexcute_layout::Layout;
//!
//! let mut kb = KernelBuilder::new("scale", 128);
//! let x = kb.global_view("x", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let y = kb.global_view("y", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let r = kb.register_tensor("r", DType::F32, &[64, 64]);
//! kb.copy(x, r);
//! let doubled = kb.elementwise(hexcute_ir::ElementwiseOp::MulScalar(2.0), &[r]);
//! kb.copy(doubled, y);
//! let program = kb.build()?;
//!
//! let compiler = Compiler::new(GpuArch::a100());
//! let kernel = compiler.compile(&program)?;
//! assert!(kernel.stats.candidates_explored >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Compilation results can be persisted across processes through the
//! [`cache`] module: [`Compiler::compile_with_cache`] answers repeat
//! requests from a [`KernelCache`] of versioned, checksummed binary files
//! keyed by a stable fingerprint of (program, architecture, options),
//! bit-identically to a fresh synthesis. The serving layer (`hexcute-e2e`)
//! builds its batched `CompileService` on top of it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod compiler;
pub mod faults;
pub mod json;

pub use cache::{
    artifact_fingerprint, ArtifactError, ArtifactSource, KernelArtifact, KernelCache,
    KernelCacheConfig, KernelCacheStats, StableHasher, ARTIFACT_VERSION,
};
pub use compiler::{CompileError, CompileStats, CompiledKernel, Compiler, CompilerOptions};
pub use faults::{FaultInjector, FaultKind, FaultSpec};

pub use hexcute_costmodel::CostBreakdown;
pub use hexcute_sim::PerfReport;
pub use hexcute_synthesis::{CancelReason, CancelToken, Candidate, SynthesisOptions};
