//! The performance simulator: device-level latency estimation for a
//! synthesized kernel.
//!
//! Where the analytical cost model of `hexcute-costmodel` ranks candidate
//! programs at compile time, this module plays the role of the *measurement*
//! in the reproduction: it additionally models shared-memory bank conflicts,
//! occupancy and wave quantization across SMs, the DRAM and Tensor Core
//! rooflines of the whole device, and kernel-launch overhead.

use hexcute_arch::{GpuArch, MemSpace};
use hexcute_costmodel::{CostBreakdown, CostModel};
use hexcute_ir::{OpKind, Program};
use hexcute_synthesis::{bank_conflict_degree, Candidate};

/// The estimated execution profile of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// End-to-end latency of the launch in microseconds (including launch
    /// overhead).
    pub latency_us: f64,
    /// Cycles for one thread block, including bank-conflict penalties.
    pub block_cycles: f64,
    /// Latency component if the kernel were purely DRAM-bandwidth bound.
    pub dram_us: f64,
    /// Latency component if the kernel were purely Tensor-Core bound.
    pub compute_us: f64,
    /// Latency component from executing the blocks over the SMs.
    pub sm_us: f64,
    /// Number of waves of thread blocks across the device.
    pub waves: usize,
    /// Extra cycles per block charged to shared-memory bank conflicts.
    pub bank_conflict_cycles: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
}

impl PerfReport {
    /// Achieved fraction of the DRAM-bandwidth roofline (1.0 = perfectly
    /// bandwidth bound).
    pub fn bandwidth_efficiency(&self) -> f64 {
        if self.latency_us <= 0.0 {
            return 0.0;
        }
        (self.dram_us / self.latency_us).min(1.0)
    }
}

/// Estimates the device-level latency of one launch of the program with the
/// given synthesized candidate.
///
/// This is the one-shot entry point: it derives the instruction timeline
/// with a fresh cost model. A caller that already holds the candidate's
/// [`CostBreakdown`] uses [`PerfEvaluator::evaluate`] instead — the results
/// are bit-identical.
pub fn estimate_kernel(program: &Program, candidate: &Candidate, arch: &GpuArch) -> PerfReport {
    let cost = CostModel::new(arch).estimate(program, candidate);
    PerfEvaluator::new(arch).evaluate(program, candidate, &cost)
}

/// Derives performance reports from cost breakdowns the caller has already
/// computed, so a compile that scored its candidates with the cost model
/// does not derive the instruction timeline a second time.
#[derive(Debug)]
pub struct PerfEvaluator<'a> {
    arch: &'a GpuArch,
}

impl<'a> PerfEvaluator<'a> {
    /// Creates an evaluator for the architecture.
    pub fn new(arch: &'a GpuArch) -> Self {
        PerfEvaluator { arch }
    }

    /// Derives the device-level performance report from an already-computed
    /// cost breakdown. Bit-identical to [`estimate_kernel`] when `cost` came
    /// from [`CostModel::estimate`] on the same inputs.
    pub fn evaluate(
        &self,
        program: &Program,
        candidate: &Candidate,
        cost: &CostBreakdown,
    ) -> PerfReport {
        let bank_conflict_cycles = bank_conflict_penalty(program, candidate, self.arch);
        finish_report(program, candidate, self.arch, cost, bank_conflict_cycles)
    }
}

/// Derives the device-level report from the per-block cost breakdown and the
/// bank-conflict charge (occupancy, rooflines, launch overhead).
fn finish_report(
    program: &Program,
    candidate: &Candidate,
    arch: &GpuArch,
    cost: &CostBreakdown,
    bank_conflict_cycles: f64,
) -> PerfReport {
    let block_cycles = cost.total_cycles + bank_conflict_cycles;
    let block_us = arch.cycles_to_ns(block_cycles) / 1000.0;

    // Occupancy: how many blocks fit on one SM concurrently.
    let max_threads_per_sm = 2048usize;
    let by_threads = (max_threads_per_sm / program.threads_per_block.max(1)).max(1);
    let smem_bytes = program.shared_memory_bytes().max(1);
    let by_smem = (arch.max_smem_per_block / smem_bytes).max(1);
    let blocks_per_sm = by_threads.min(by_smem).min(8);
    let concurrent = (arch.num_sms * blocks_per_sm).max(1);
    let waves = program.grid_blocks.div_ceil(concurrent).max(1);

    // Each SM works through its share of the grid; co-resident blocks hide
    // part of each other's latency, captured by the overlap factor.
    let overlap = if program.schedule.pipeline_stages > 1 || program.schedule.warp_specialized {
        0.85
    } else {
        1.0
    };
    let serial_blocks_per_sm = program.grid_blocks.div_ceil(arch.num_sms.max(1)).max(1);
    let sm_us = serial_blocks_per_sm as f64 * block_us * overlap;

    // Device rooflines. Narrow global accesses waste memory transactions:
    // the achievable bandwidth is scaled by the coalescing efficiency of the
    // selected copy instructions (a warp must touch a full 128-byte segment
    // to reach peak bandwidth). GEMM-like kernels re-read their operand
    // panels from every block along the other dimension; those repeats are
    // served by the L2, so their traffic is charged at L2 bandwidth instead
    // of DRAM bandwidth.
    let total_bytes = program.block_global_bytes() as f64 * program.grid_blocks as f64;
    let mem_eff = global_memory_efficiency(program, candidate);
    let effective_bandwidth = if program.has_gemm() {
        arch.l2_bandwidth_gbs.min(arch.dram_bandwidth_gbs * 2.5)
    } else {
        arch.dram_bandwidth_gbs
    };
    let dram_us = total_bytes / (effective_bandwidth * mem_eff) * 1e-3;
    let total_flops = program.block_flops() as f64 * program.grid_blocks as f64;
    let multiply_dtype = program
        .ops()
        .iter()
        .find_map(|op| match op.kind {
            OpKind::Gemm { a, .. } => Some(program.tensor(a).dtype),
            _ => None,
        })
        .unwrap_or(hexcute_arch::DType::F16);
    let compute_us = if total_flops > 0.0 {
        arch.roofline_latency_us(0.0, total_flops, multiply_dtype)
    } else {
        0.0
    };

    let launch_overhead_us = arch.kernel_launch_overhead_us;
    let latency_us = launch_overhead_us + dram_us.max(compute_us).max(sm_us);

    PerfReport {
        latency_us,
        block_cycles,
        dram_us,
        compute_us,
        sm_us,
        waves,
        bank_conflict_cycles,
        launch_overhead_us,
    }
}

/// The fraction of peak DRAM bandwidth achievable with the candidate's
/// global-memory copy instructions, weighted by the bytes each copy moves.
/// A warp that touches a full 128-byte segment per transaction reaches 1.0;
/// narrow (scalar) accesses waste bandwidth proportionally, with a floor of
/// 25% (the L2 still serves 32-byte sectors).
pub fn global_memory_efficiency(program: &Program, candidate: &Candidate) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0.0f64;
    for op in program.ops() {
        let OpKind::Copy { src, dst } = op.kind else {
            continue;
        };
        let (s, d) = (program.tensor(src), program.tensor(dst));
        let global = if s.space == MemSpace::Global {
            Some(s)
        } else if d.space == MemSpace::Global {
            Some(d)
        } else {
            None
        };
        let Some(global_decl) = global else { continue };
        let Some(choice) = candidate.copy_choices.get(&op.id) else {
            continue;
        };
        let reps = if op.in_main_loop {
            program.main_loop_trip_count
        } else {
            1
        };
        let bytes = global_decl
            .dtype
            .bytes_for(s.tile_elements_2d().min(d.tile_elements_2d())) as f64
            * reps as f64;
        let warp_bytes = (choice
            .atom
            .bytes_per_thread
            .min(global_decl.dtype.bytes_for(choice.elements_per_thread))
            * choice.atom.threads.min(32)) as f64;
        let efficiency = (warp_bytes / 128.0).clamp(0.25, 1.0);
        weighted += bytes * efficiency;
        total += bytes;
    }
    if total <= 0.0 {
        1.0
    } else {
        weighted / total
    }
}

/// Extra per-block cycles caused by shared-memory bank conflicts under the
/// candidate's shared-memory layouts and access patterns.
pub fn bank_conflict_penalty(program: &Program, candidate: &Candidate, arch: &GpuArch) -> f64 {
    let mut penalty = 0.0f64;
    for op in program.ops() {
        let OpKind::Copy { src, dst } = op.kind else {
            continue;
        };
        let Some(choice) = candidate.copy_choices.get(&op.id) else {
            continue;
        };
        if matches!(choice.atom.kind, hexcute_arch::CopyKind::LdMatrix { .. }) {
            // ldmatrix reads whole 16-byte rows; the swizzle selected during
            // shared-memory synthesis already spreads those rows across the
            // banks, and its per-thread *fragment* coverage is not the access
            // pattern, so it is excluded from the conflict charge.
            continue;
        }
        let tensor = if program.tensor(src).space == MemSpace::Shared {
            src
        } else if program.tensor(dst).space == MemSpace::Shared {
            dst
        } else {
            continue;
        };
        let Some(layout) = candidate.smem_layouts.get(&tensor) else {
            continue;
        };
        let accesses: Vec<usize> = (0..32.min(choice.coverage.num_threads()))
            .map(|t| choice.coverage.map(t, 0))
            .collect();
        let bits = program.tensor(tensor).dtype.bits();
        let degree = bank_conflict_degree(layout, &accesses, bits, arch);
        let reps = if op.in_main_loop {
            program.main_loop_trip_count
        } else {
            1
        };
        // Each degree of conflict serializes an extra shared-memory pass.
        penalty += degree as f64 * 2.0 * choice.invocations as f64 * reps as f64;
    }
    penalty
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout;
    use hexcute_synthesis::{SynthesisOptions, Synthesizer};

    fn gemm_program(blocks: usize, stages: usize) -> Program {
        let (bm, bn, bk, k) = (128, 128, 32, 2048);
        let mut kb = KernelBuilder::new("perf_gemm", 128);
        kb.set_grid_blocks(blocks).set_pipeline_stages(stages);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[bm, bk, k / bk], &[k, 1, bk]),
            &[bm, bk, k / bk],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[bn, bk, k / bk], &[k, 1, bk]),
            &[bn, bk, k / bk],
        );
        let gc = kb.global_view("c", DType::F16, Layout::row_major(&[bm, bn]), &[bm, bn]);
        let sa = kb.shared_tensor("sa", DType::F16, &[bm, bk]);
        let sb = kb.shared_tensor("sb", DType::F16, &[bn, bk]);
        let ra = kb.register_tensor("ra", DType::F16, &[bm, bk]);
        let rb = kb.register_tensor("rb", DType::F16, &[bn, bk]);
        let rc = kb.register_tensor("rc", DType::F32, &[bm, bn]);
        kb.fill(rc, 0.0);
        kb.begin_loop(k / bk);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.end_loop();
        let rc16 = kb.cast(rc, DType::F16);
        kb.copy(rc16, gc);
        kb.build().unwrap()
    }

    fn candidate_for(program: &Program, arch: &GpuArch, options: SynthesisOptions) -> Candidate {
        Synthesizer::new(program, arch, options)
            .synthesize_preferred()
            .unwrap()
    }

    #[test]
    fn latency_scales_with_grid_size() {
        let arch = GpuArch::a100();
        let small = gemm_program(8, 2);
        let large = gemm_program(512, 2);
        let small_report = estimate_kernel(
            &small,
            &candidate_for(&small, &arch, SynthesisOptions::default()),
            &arch,
        );
        let large_report = estimate_kernel(
            &large,
            &candidate_for(&large, &arch, SynthesisOptions::default()),
            &arch,
        );
        assert!(large_report.latency_us > small_report.latency_us);
        assert!(large_report.waves >= small_report.waves);
    }

    #[test]
    fn scalar_copies_hurt_device_latency() {
        let arch = GpuArch::a100();
        let program = gemm_program(216, 2);
        let good = estimate_kernel(
            &program,
            &candidate_for(&program, &arch, SynthesisOptions::default()),
            &arch,
        );
        let bad = estimate_kernel(
            &program,
            &candidate_for(&program, &arch, SynthesisOptions::scalar_fallback()),
            &arch,
        );
        // The per-block instruction timeline always gets worse; the
        // device-level latency can only stay equal when the kernel is purely
        // Tensor-Core bound.
        assert!(bad.latency_us >= good.latency_us);
        assert!(bad.block_cycles > good.block_cycles * 1.2);
    }

    #[test]
    fn triton_style_smem_layout_adds_bank_conflicts() {
        let arch = GpuArch::a100();
        let program = gemm_program(216, 2);
        let synthesized = candidate_for(&program, &arch, SynthesisOptions::default());
        let row_major = candidate_for(&program, &arch, SynthesisOptions::triton_smem_layout());
        let good = bank_conflict_penalty(&program, &synthesized, &arch);
        let bad = bank_conflict_penalty(&program, &row_major, &arch);
        assert!(
            bad >= good,
            "row-major shared memory should not have fewer conflicts ({bad} vs {good})"
        );
        let good_report = estimate_kernel(&program, &synthesized, &arch);
        let bad_report = estimate_kernel(&program, &row_major, &arch);
        assert!(bad_report.block_cycles >= good_report.block_cycles);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let arch = GpuArch::h100();
        let mut kb = KernelBuilder::new("tiny", 128);
        kb.set_grid_blocks(1);
        let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
        let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
        let r = kb.register_tensor("r", DType::F16, &[64, 64]);
        kb.copy(src, r);
        kb.copy(r, dst);
        let program = kb.build().unwrap();
        let candidate = candidate_for(&program, &arch, SynthesisOptions::default());
        let report = estimate_kernel(&program, &candidate, &arch);
        assert!(report.launch_overhead_us / report.latency_us > 0.5);
    }

    #[test]
    fn shared_evaluator_matches_estimate_kernel_across_siblings() {
        let arch = GpuArch::a100();
        let program = gemm_program(216, 2);
        let candidates = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize()
            .unwrap();
        assert!(candidates.len() > 1);
        let model = CostModel::new(&arch);
        let evaluator = PerfEvaluator::new(&arch);
        for candidate in &candidates {
            let reference = estimate_kernel(&program, candidate, &arch);
            let cost = model.estimate(&program, candidate);
            let incremental = evaluator.evaluate(&program, candidate, &cost);
            // Bit-identical, not approximately equal: reusing the shared cost
            // model's breakdown must not perturb anything.
            assert_eq!(
                reference.latency_us.to_bits(),
                incremental.latency_us.to_bits()
            );
            assert_eq!(reference, incremental);
        }
    }

    #[test]
    fn report_exposes_roofline_components() {
        let arch = GpuArch::h100();
        let program = gemm_program(1024, 3);
        let candidate = candidate_for(&program, &arch, SynthesisOptions::default());
        let report = estimate_kernel(&program, &candidate, &arch);
        assert!(report.dram_us > 0.0);
        assert!(report.compute_us > 0.0);
        assert!(report.latency_us >= report.dram_us.max(report.compute_us));
        assert!(report.bandwidth_efficiency() <= 1.0);
    }
}
