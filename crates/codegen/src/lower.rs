//! Lowering a (program, candidate) pair to an explicit kernel representation.

use hexcute_arch::MemSpace;
use hexcute_ir::{ElementwiseOp, OpId, OpKind, Program, ReduceOp, TensorId};
use hexcute_layout::SwizzledLayout;
use hexcute_synthesis::Candidate;

/// A shared-memory allocation made by the lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SmemAlloc {
    /// The tensor occupying this allocation.
    pub tensor: TensorId,
    /// Byte offset of the allocation within dynamic shared memory.
    pub offset_bytes: usize,
    /// Size of the allocation in bytes.
    pub size_bytes: usize,
    /// The synthesized (possibly swizzled) layout of the buffer.
    pub layout: SwizzledLayout,
}

/// The scalar flavour of a lowered SIMT operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimtKind {
    /// Data-type conversion.
    Cast,
    /// Elementwise arithmetic.
    Elementwise(ElementwiseOp),
    /// Reduction along a tile dimension.
    Reduce {
        /// The reduced dimension.
        dim: usize,
        /// The reduction operator.
        op: ReduceOp,
    },
    /// Constant fill.
    Fill(f64),
    /// Register redistribution through shared memory.
    Rearrange,
    /// Grouped weight dequantization `(src - zero) * scale` within registers.
    Dequant {
        /// Elements along dimension 1 sharing one scale/zero column.
        group_size: usize,
    },
}

/// One instruction of the lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum LoweredOp {
    /// A data movement implemented by a collective copy instruction.
    Copy {
        /// The originating tile-level operation.
        op: OpId,
        /// Source tensor.
        src: TensorId,
        /// Destination tensor.
        dst: TensorId,
        /// Mnemonic of the selected instruction.
        instruction: String,
        /// Number of collective invocations.
        invocations: usize,
        /// Bytes moved per thread per invocation.
        bytes_per_thread: usize,
        /// Whether the op sits in the main loop.
        in_loop: bool,
    },
    /// A matrix-multiply-accumulate implemented on Tensor Cores.
    Mma {
        /// The originating tile-level operation.
        op: OpId,
        /// A operand.
        a: TensorId,
        /// B operand.
        b: TensorId,
        /// Accumulator.
        c: TensorId,
        /// Mnemonic of the selected instruction.
        instruction: String,
        /// Invocations per warp (or warp group).
        invocations: usize,
        /// Whether the op sits in the main loop.
        in_loop: bool,
    },
    /// A per-thread SIMT operation over register values.
    Simt {
        /// The originating tile-level operation.
        op: OpId,
        /// The flavour.
        kind: SimtKind,
        /// Input tensors.
        inputs: Vec<TensorId>,
        /// Output tensor.
        output: TensorId,
        /// Values processed per thread.
        width: usize,
        /// Whether the op sits in the main loop.
        in_loop: bool,
    },
    /// A block-wide barrier (`__syncthreads()`).
    Sync,
}

/// A lowered kernel: launch configuration, shared-memory plan and the
/// per-block instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    /// Kernel name.
    pub name: String,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Blocks launched for the modelled problem.
    pub grid_blocks: usize,
    /// Main loop trip count.
    pub main_loop_trip_count: usize,
    /// Software pipeline depth.
    pub pipeline_stages: usize,
    /// Whether the kernel is warp specialized.
    pub warp_specialized: bool,
    /// Shared-memory allocations.
    pub smem_allocs: Vec<SmemAlloc>,
    /// Total dynamic shared memory in bytes.
    pub smem_bytes: usize,
    /// Estimated 32-bit registers per thread used by register tensors.
    pub registers_per_thread: usize,
    /// The per-block instruction stream.
    pub body: Vec<LoweredOp>,
}

impl LoweredKernel {
    /// Renders the per-block instruction stream as stable text, one line per
    /// [`LoweredOp`], with tensors referred to by name. This is the
    /// serialization the persistent kernel-artifact cache stores: the lines
    /// are a pure function of the lowered kernel, so two bit-identical
    /// compilations render identical lines.
    pub fn instruction_lines(&self, program: &Program) -> Vec<String> {
        let name = |t: TensorId| program.tensor(t).name.as_str();
        self.body
            .iter()
            .map(|op| match op {
                LoweredOp::Copy {
                    src,
                    dst,
                    instruction,
                    invocations,
                    bytes_per_thread,
                    in_loop,
                    ..
                } => format!(
                    "copy {} -> {} via {instruction} x{invocations} \
                     ({bytes_per_thread} B/thread){}",
                    name(*src),
                    name(*dst),
                    if *in_loop { " [loop]" } else { "" },
                ),
                LoweredOp::Mma {
                    a,
                    b,
                    c,
                    instruction,
                    invocations,
                    in_loop,
                    ..
                } => format!(
                    "mma {} += {} * {} via {instruction} x{invocations}{}",
                    name(*c),
                    name(*a),
                    name(*b),
                    if *in_loop { " [loop]" } else { "" },
                ),
                LoweredOp::Simt {
                    kind,
                    inputs,
                    output,
                    width,
                    in_loop,
                    ..
                } => format!(
                    "simt {kind:?} [{}] -> {} width {width}{}",
                    inputs
                        .iter()
                        .map(|t| name(*t))
                        .collect::<Vec<_>>()
                        .join(", "),
                    name(*output),
                    if *in_loop { " [loop]" } else { "" },
                ),
                LoweredOp::Sync => "sync".to_string(),
            })
            .collect()
    }

    /// Number of barriers in the instruction stream.
    pub fn sync_count(&self) -> usize {
        self.body
            .iter()
            .filter(|op| matches!(op, LoweredOp::Sync))
            .count()
    }
}

/// Lowers a program and a synthesized candidate to a [`LoweredKernel`].
///
/// Barriers are inserted after any run of shared-memory writes that is
/// followed by a shared-memory read (and vice versa), which is the minimal
/// synchronization the tile-level semantics require.
pub fn lower(program: &Program, candidate: &Candidate) -> LoweredKernel {
    // Shared-memory plan.
    let mut smem_allocs = Vec::new();
    let mut offset = 0usize;
    for &tensor in &program.shared_tensors() {
        let decl = program.tensor(tensor);
        let layout = candidate
            .smem_layouts
            .get(&tensor)
            .cloned()
            .unwrap_or_else(|| {
                SwizzledLayout::unswizzled(hexcute_layout::Layout::row_major(&decl.tile_shape_2d()))
            });
        let size_bytes = decl
            .dtype
            .bytes_for(layout.layout().cosize().next_power_of_two());
        smem_allocs.push(SmemAlloc {
            tensor,
            offset_bytes: offset,
            size_bytes,
            layout,
        });
        // 128-byte align each buffer.
        offset += size_bytes.div_ceil(128) * 128;
    }
    let smem_bytes = offset;

    // Register pressure estimate.
    let registers_per_thread: usize = program
        .tensors()
        .iter()
        .filter(|t| t.space == MemSpace::Register)
        .map(|t| {
            let values = candidate
                .tv_layouts
                .get(&t.id)
                .map(|l| l.values_per_thread())
                .unwrap_or_else(|| t.tile_elements_2d().div_ceil(program.threads_per_block));
            (values * t.dtype.bits()).div_ceil(32)
        })
        .sum();

    // Instruction stream with barrier insertion.
    let mut body = Vec::new();
    let mut pending_smem_write = false;
    let mut pending_smem_read = false;
    for op in program.ops() {
        let touches_smem_read;
        let touches_smem_write;
        match &op.kind {
            OpKind::Copy { src, dst } => {
                touches_smem_read = program.tensor(*src).space == MemSpace::Shared;
                touches_smem_write = program.tensor(*dst).space == MemSpace::Shared;
            }
            OpKind::Gemm { a, b, .. } => {
                touches_smem_read = program.tensor(*a).space == MemSpace::Shared
                    || program.tensor(*b).space == MemSpace::Shared;
                touches_smem_write = false;
            }
            _ => {
                touches_smem_read = false;
                touches_smem_write = false;
            }
        }
        // A read after pending writes (or a write after pending reads) needs
        // a barrier.
        if (touches_smem_read && pending_smem_write) || (touches_smem_write && pending_smem_read) {
            body.push(LoweredOp::Sync);
            pending_smem_write = false;
            pending_smem_read = false;
        }
        if touches_smem_write {
            pending_smem_write = true;
        }
        if touches_smem_read {
            pending_smem_read = true;
        }

        match &op.kind {
            OpKind::Copy { src, dst } => {
                let choice = candidate.copy_choices.get(&op.id);
                let dtype = program.tensor(*src).dtype;
                body.push(LoweredOp::Copy {
                    op: op.id,
                    src: *src,
                    dst: *dst,
                    instruction: choice
                        .map(|c| c.atom.name.clone())
                        .unwrap_or_else(|| "ld/st".to_string()),
                    invocations: choice.map(|c| c.invocations).unwrap_or(1),
                    bytes_per_thread: choice
                        .map(|c| dtype.bytes_for(c.elements_per_thread))
                        .unwrap_or_else(|| dtype.bytes_for(1)),
                    in_loop: op.in_main_loop,
                });
            }
            OpKind::Gemm { c, a, b } => {
                let choice = candidate.mma_choices.get(&op.id);
                body.push(LoweredOp::Mma {
                    op: op.id,
                    a: *a,
                    b: *b,
                    c: *c,
                    instruction: choice
                        .map(|m| m.atom.name.clone())
                        .unwrap_or_else(|| "mma".to_string()),
                    invocations: choice.map(|m| m.invocations).unwrap_or(1),
                    in_loop: op.in_main_loop,
                });
            }
            OpKind::Cast { src, dst } => body.push(simt(
                program,
                candidate,
                op.id,
                SimtKind::Cast,
                vec![*src],
                *dst,
                op.in_main_loop,
            )),
            OpKind::Rearrange { src, dst } => {
                body.push(LoweredOp::Sync);
                body.push(simt(
                    program,
                    candidate,
                    op.id,
                    SimtKind::Rearrange,
                    vec![*src],
                    *dst,
                    op.in_main_loop,
                ));
                body.push(LoweredOp::Sync);
            }
            OpKind::Elementwise {
                inputs,
                output,
                op: eop,
            } => body.push(simt(
                program,
                candidate,
                op.id,
                SimtKind::Elementwise(*eop),
                inputs.clone(),
                *output,
                op.in_main_loop,
            )),
            OpKind::Reduce {
                src,
                dst,
                dim,
                op: rop,
            } => body.push(simt(
                program,
                candidate,
                op.id,
                SimtKind::Reduce {
                    dim: *dim,
                    op: *rop,
                },
                vec![*src],
                *dst,
                op.in_main_loop,
            )),
            OpKind::Fill { dst, value } => body.push(simt(
                program,
                candidate,
                op.id,
                SimtKind::Fill(*value),
                vec![],
                *dst,
                op.in_main_loop,
            )),
            OpKind::Dequant {
                src,
                scale,
                zero,
                dst,
                group_size,
            } => {
                let mut inputs = vec![*src, *scale];
                inputs.extend(zero.iter().copied());
                body.push(simt(
                    program,
                    candidate,
                    op.id,
                    SimtKind::Dequant {
                        group_size: *group_size,
                    },
                    inputs,
                    *dst,
                    op.in_main_loop,
                ));
            }
        }
    }

    LoweredKernel {
        name: program.name.clone(),
        threads_per_block: program.threads_per_block,
        grid_blocks: program.grid_blocks,
        main_loop_trip_count: program.main_loop_trip_count,
        pipeline_stages: program.schedule.pipeline_stages,
        warp_specialized: program.schedule.warp_specialized,
        smem_allocs,
        smem_bytes,
        registers_per_thread,
        body,
    }
}

fn simt(
    program: &Program,
    candidate: &Candidate,
    op: OpId,
    kind: SimtKind,
    inputs: Vec<TensorId>,
    output: TensorId,
    in_loop: bool,
) -> LoweredOp {
    let width = candidate.simt_widths.get(&op).copied().unwrap_or_else(|| {
        program
            .tensor(output)
            .tile_elements_2d()
            .div_ceil(program.threads_per_block)
    });
    LoweredOp::Simt {
        op,
        kind,
        inputs,
        output,
        width,
        in_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::{DType, GpuArch};
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout;
    use hexcute_synthesis::{SynthesisOptions, Synthesizer};

    fn smem_gemm() -> (Program, Candidate) {
        let (bm, bn, bk) = (64, 64, 32);
        let mut kb = KernelBuilder::new("lower_gemm", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[bm, bk], &[bk, 1]),
            &[bm, bk],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[bn, bk], &[bk, 1]),
            &[bn, bk],
        );
        let gc = kb.global_view("c", DType::F16, Layout::row_major(&[bm, bn]), &[bm, bn]);
        let sa = kb.shared_tensor("sa", DType::F16, &[bm, bk]);
        let sb = kb.shared_tensor("sb", DType::F16, &[bn, bk]);
        let ra = kb.register_tensor("ra", DType::F16, &[bm, bk]);
        let rb = kb.register_tensor("rb", DType::F16, &[bn, bk]);
        let rc = kb.register_tensor("rc", DType::F32, &[bm, bn]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        let rc16 = kb.cast(rc, DType::F16);
        kb.copy(rc16, gc);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        (program, candidate)
    }

    #[test]
    fn lowering_allocates_shared_memory_and_inserts_barriers() {
        let (program, candidate) = smem_gemm();
        let kernel = lower(&program, &candidate);
        assert_eq!(kernel.smem_allocs.len(), 2);
        // Both buffers are 64x32 fp16 = 4 KiB, 128-byte aligned.
        assert!(kernel.smem_bytes >= 2 * 64 * 32 * 2);
        assert_eq!(kernel.smem_allocs[0].offset_bytes, 0);
        assert!(kernel.smem_allocs[1].offset_bytes >= 64 * 32 * 2);
        // A barrier separates the global→shared writes from the shared→register reads.
        assert!(kernel.sync_count() >= 1);
        // The instruction stream contains the gemm and all copies.
        assert_eq!(
            kernel
                .body
                .iter()
                .filter(|o| matches!(o, LoweredOp::Mma { .. }))
                .count(),
            1
        );
        assert_eq!(
            kernel
                .body
                .iter()
                .filter(|o| matches!(o, LoweredOp::Copy { .. }))
                .count(),
            5
        );
        assert!(kernel.registers_per_thread > 0);
    }

    #[test]
    fn lowering_records_instruction_names() {
        let (program, candidate) = smem_gemm();
        let kernel = lower(&program, &candidate);
        let names: Vec<&str> = kernel
            .body
            .iter()
            .filter_map(|o| match o {
                LoweredOp::Copy { instruction, .. } => Some(instruction.as_str()),
                LoweredOp::Mma { instruction, .. } => Some(instruction.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.iter().any(|n| n.contains("cp.async")));
        assert!(names.iter().any(|n| n.contains("ldmatrix")));
        assert!(names.iter().any(|n| n.contains("mma")));
    }
}
