//! # Hexcute (Rust reproduction)
//!
//! Facade crate re-exporting the whole Hexcute workspace: the CuTe-style
//! layout algebra, the tile-level IR and DSL, constraint-based layout
//! synthesis, the analytical cost model, code generation, the GPU simulator,
//! the kernel library, baselines, and the end-to-end serving simulator.
//!
//! See the individual crates for details:
//!
//! * [`layout`] — layout algebra (shapes, strides, composition, inverses,
//!   swizzles, thread-value layouts).
//! * [`arch`] — GPU architecture models, data types, instruction catalog.
//! * [`ir`] — the tile-level IR and program builder (Table I of the paper).
//! * [`synthesis`] — thread-value and shared-memory layout synthesis.
//! * [`costmodel`] — the analytical latency model (Section VI).
//! * [`codegen`] — lowering to per-thread kernels and CUDA-like text.
//! * [`sim`] — functional and performance GPU simulation.
//! * [`core`] — the compiler driver tying everything together, plus the
//!   persistent kernel-artifact cache (`core::cache`).
//! * [`kernels`] — GEMM, attention, mixed-type MoE and Mamba-scan kernels.
//! * [`baselines`] — Triton-style compiler, Marlin and library models.
//! * [`e2e`] — vLLM-style end-to-end serving simulation and the batched
//!   compile service.
//! * [`parallel`] — the persistent worker pool (`par_map`) and the sharded
//!   concurrent memo maps the search shares across workers.
//!
//! `docs/ARCHITECTURE.md` maps the paper's sections onto these crates and
//! walks the synthesis pipeline end to end; `docs/TUNING.md` documents the
//! one environment variable (`HEXCUTE_THREADS`) and every option field.

#![warn(missing_docs)]

pub use hexcute_arch as arch;
pub use hexcute_baselines as baselines;
pub use hexcute_codegen as codegen;
pub use hexcute_core as core;
pub use hexcute_costmodel as costmodel;
pub use hexcute_e2e as e2e;
pub use hexcute_ir as ir;
pub use hexcute_kernels as kernels;
pub use hexcute_layout as layout;
pub use hexcute_parallel as parallel;
pub use hexcute_sim as sim;
pub use hexcute_synthesis as synthesis;
