//! Candidate programs: the output of layout synthesis.
//!
//! A [`Candidate`] assigns every register tensor a thread-value layout, every
//! shared-memory tensor a (possibly swizzled) memory layout, and every
//! operation a concrete collective instruction. The DFS search tree of
//! Section IV-B produces several candidates; the analytical cost model picks
//! the final one.

use std::collections::BTreeMap;
use std::fmt;

use hexcute_arch::{CopyAtom, MmaAtom};
use hexcute_ir::{OpId, Program, TensorId};
use hexcute_layout::{SwizzledLayout, TvLayout};

/// The instruction choice for a `copy` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyChoice {
    /// The selected copy instruction atom.
    pub atom: CopyAtom,
    /// Elements of the tensor's dtype moved per thread per invocation.
    pub elements_per_thread: usize,
    /// Number of collective invocations needed to move the whole tile once.
    pub invocations: usize,
    /// The tile dimension the per-thread vector runs along.
    pub vector_dim: usize,
    /// The per-thread coverage of the tile (which elements each thread
    /// touches), used for coalescing and bank-conflict analysis.
    pub coverage: TvLayout,
}

impl CopyChoice {
    /// Bytes moved per instruction per thread — the quantity reported in
    /// Table III and Table IV of the paper.
    pub fn bytes_per_thread_per_instruction(&self, dtype: hexcute_arch::DType) -> usize {
        dtype.bytes_for(self.elements_per_thread)
    }
}

/// The instruction choice for a `gemm` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct MmaChoice {
    /// The selected Tensor Core atom.
    pub atom: MmaAtom,
    /// Number of warp (or warp-group) tiles along M.
    pub unit_m: usize,
    /// Number of warp (or warp-group) tiles along N.
    pub unit_n: usize,
    /// Instruction invocations per warp (or warp group) to cover the tile.
    pub invocations: usize,
}

/// A register-layout conversion inserted to resolve a conflict between two
/// constraint-derived layouts (Section IV-B, "Conflict Handling").
#[derive(Debug, Clone, PartialEq)]
pub struct RearrangeFix {
    /// The tensor whose producer and consumer disagree on distribution.
    pub tensor: TensorId,
    /// The distribution produced upstream.
    pub producer: TvLayout,
    /// The distribution required downstream.
    pub consumer: TvLayout,
    /// Bytes exchanged through shared memory to convert.
    pub bytes: usize,
}

/// A fully synthesized candidate program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Candidate {
    /// Thread-value layouts of register tensors.
    pub tv_layouts: BTreeMap<TensorId, TvLayout>,
    /// Instruction choices for `copy` operations.
    pub copy_choices: BTreeMap<OpId, CopyChoice>,
    /// Instruction choices for `gemm` operations.
    pub mma_choices: BTreeMap<OpId, MmaChoice>,
    /// Per-thread widths (in elements) chosen for SIMT operations
    /// (`cast`, `elementwise`, `reduce`, `fill`).
    pub simt_widths: BTreeMap<OpId, usize>,
    /// Synthesized shared-memory layouts.
    pub smem_layouts: BTreeMap<TensorId, SwizzledLayout>,
    /// Register-layout conversions inserted by the compiler.
    pub rearranges: Vec<RearrangeFix>,
    /// Human-readable notes about fallbacks and heuristic decisions.
    pub notes: Vec<String>,
}

impl Candidate {
    /// A short per-operation summary (instruction + bytes per thread) used by
    /// the Table III / Table IV harnesses.
    pub fn instruction_summary(&self, program: &Program) -> Vec<(OpId, String, usize)> {
        let mut rows = Vec::new();
        for op in program.ops() {
            if let Some(choice) = self.copy_choices.get(&op.id) {
                let dtype = program.tensor(op.inputs()[0]).dtype;
                rows.push((
                    op.id,
                    choice.atom.name.clone(),
                    choice.bytes_per_thread_per_instruction(dtype),
                ));
            } else if let Some(choice) = self.mma_choices.get(&op.id) {
                rows.push((op.id, choice.atom.name.clone(), 0));
            }
        }
        rows
    }

    /// Whether any copy fell back to scalar instructions.
    pub fn uses_scalar_fallback(&self) -> bool {
        self.copy_choices
            .values()
            .any(|c| c.elements_per_thread <= 1)
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "candidate:")?;
        for (op, choice) in &self.copy_choices {
            writeln!(
                f,
                "  {op}: {} x{} ({} elems/thread)",
                choice.atom.name, choice.invocations, choice.elements_per_thread
            )?;
        }
        for (op, choice) in &self.mma_choices {
            writeln!(
                f,
                "  {op}: {} warps {}x{} x{}",
                choice.atom.name, choice.unit_m, choice.unit_n, choice.invocations
            )?;
        }
        for (tensor, layout) in &self.smem_layouts {
            writeln!(f, "  smem {tensor}: {layout}")?;
        }
        if !self.rearranges.is_empty() {
            writeln!(f, "  rearranges: {}", self.rearranges.len())?;
        }
        Ok(())
    }
}
