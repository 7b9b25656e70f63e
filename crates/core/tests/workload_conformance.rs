//! Workload-conformance suite: a randomized differential harness over the
//! *whole* workload zoo — GEMM (FP16/BF16), warp-specialized GEMM, FP8 GEMM,
//! attention, mixed-type MoE, Mamba scan, W4A16 quantized GEMM and grouped
//! GEMM — asserting that the ordered candidate list and every cost-model /
//! performance-simulator score is **bit-identical** across the per-call
//! option matrix:
//!
//! * incremental prefix-shared search on/off
//!   (`SynthesisOptions::incremental`),
//! * worker counts 1 and 4 (`SynthesisOptions::parallel_workers`; one
//!   worker is the serial walk),
//! * branch-and-bound pruning on/off (`SynthesisOptions::prune`): the pruned
//!   winner equals the exhaustive argmin, artifact included,
//! * artifact cache cold vs. warm (memory and disk hits).
//!
//! The deterministic anchor also simulates each family's preferred
//! candidate with the table-driven `FunctionalSim::run` and the
//! element-wise `FunctionalSim::run_reference`, bit for bit.
//!
//! A second oracle checks the memo tiers: for every family, a warm answer
//! from the lossy thread-local tier or the shared sharded tier of
//! `CostModel::estimate` equals a cold call on a fresh instance bit for bit,
//! and so does the `PerfEvaluator::evaluate` report built on it.
//!
//! Every reference is selected by an argument, never by process-wide state,
//! so each cell is isolated from the other tests in this binary. Every new
//! workload family plugs into this harness by construction: adding a
//! variant to [`Workload`] covers it across the whole matrix. The CI
//! `single-thread` and `determinism-mt` legs re-run this file with
//! `HEXCUTE_THREADS=1` and `4`, which moves the default worker count of
//! the cells that do not set one.

use std::collections::HashMap;

use hexcute_arch::{DType, GpuArch, MemSpace};
use hexcute_core::{Compiler, CompilerOptions, KernelCache, KernelCacheConfig};
use hexcute_costmodel::{CostBreakdown, CostModel};
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{
    bf16_gemm, fp16_gemm, fp8_blockwise_gemm, warp_specialized_gemm, GemmConfig, GemmShape,
};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};
use hexcute_sim::{FunctionalSim, PerfEvaluator, PerfReport};
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One sampled workload instance: a family plus its shape/dtype parameters.
#[derive(Debug, Clone, PartialEq)]
enum Workload {
    /// Plain GEMM at the given element type (F16 or BF16).
    Gemm {
        dtype: DType,
        m_tiles: usize,
        k_tiles: usize,
    },
    /// Hopper warp-specialized FP16 GEMM.
    WarpGemm,
    /// Blockwise-scaled FP8 GEMM (Hopper only).
    Fp8Gemm,
    /// Fused attention forward.
    Attention {
        heads: usize,
        seq_tiles: usize,
        head_dim: usize,
    },
    /// Mixed-type FP16×INT4 MoE.
    Moe { tokens: usize, efficient: bool },
    /// Mamba selective scan.
    Mamba { batch: usize },
    /// W4A16 quantized GEMM with grouped dequantization.
    QuantGemm {
        group_size: usize,
        n: usize,
        k: usize,
    },
    /// Fused grouped/batched GEMM over a per-expert problem list.
    GroupedGemm { tokens: Vec<usize> },
}

impl Workload {
    /// Whether the workload is buildable for the architecture.
    fn supports(&self, arch: &GpuArch) -> bool {
        match self {
            Workload::WarpGemm | Workload::Fp8Gemm => arch.has_wgmma,
            _ => true,
        }
    }

    fn build(&self) -> Program {
        match self {
            Workload::Gemm {
                dtype,
                m_tiles,
                k_tiles,
            } => {
                let config = GemmConfig::default();
                let shape = GemmShape::new(
                    m_tiles * config.block_m,
                    config.block_n,
                    k_tiles * config.block_k,
                );
                // Both dtypes go through the one shared GEMM builder in the
                // kernels crate, so the conformance copy cannot drift.
                match dtype {
                    DType::F16 => fp16_gemm(shape, config).unwrap(),
                    _ => bf16_gemm(shape, config).unwrap(),
                }
            }
            Workload::WarpGemm => warp_specialized_gemm(
                GemmShape::new(512, 512, 256),
                GemmConfig::warp_specialized_hopper(),
            )
            .unwrap(),
            Workload::Fp8Gemm => {
                fp8_blockwise_gemm(GemmShape::new(512, 512, 256), GemmConfig::default()).unwrap()
            }
            Workload::Attention {
                heads,
                seq_tiles,
                head_dim,
            } => {
                let config = AttentionConfig::default();
                mha_forward(
                    AttentionShape::forward(1, *heads, seq_tiles * config.block_kv, *head_dim),
                    config,
                )
                .unwrap()
            }
            Workload::Moe { tokens, efficient } => {
                let dataflow = if *efficient {
                    MoeDataflow::Efficient
                } else {
                    MoeDataflow::TritonStyle
                };
                mixed_type_moe(
                    MoeShape::deepseek_r1(*tokens),
                    MoeConfig::default(),
                    dataflow,
                )
                .unwrap()
            }
            Workload::Mamba { batch } => {
                selective_scan(ScanShape::new(*batch, 512, 16, 256), ScanConfig::default()).unwrap()
            }
            Workload::QuantGemm { group_size, n, k } => w4a16_gemm(
                QuantGemmShape::new(16, *n, *k, *group_size),
                QuantGemmConfig::default(),
            )
            .unwrap(),
            Workload::GroupedGemm { tokens } => grouped_gemm(
                &GroupedGemmShape::from_token_counts(tokens.clone(), 256, 512),
                GroupedGemmConfig::default(),
            )
            .unwrap(),
        }
    }
}

type Scored = Vec<(Candidate, CostBreakdown, PerfReport)>;

fn compile_config(
    program: &Program,
    arch: &GpuArch,
    incremental: bool,
    workers: usize,
    depth: Option<usize>,
) -> Scored {
    let options = CompilerOptions {
        synthesis: SynthesisOptions {
            incremental,
            parallel_workers: Some(workers),
            parallel_subtree_depth: depth,
            ..SynthesisOptions::default()
        },
        use_cost_model: true,
    };
    Compiler::with_options(arch.clone(), options)
        .compile_candidates(program)
        .unwrap()
}

fn assert_scored_equal(label: &str, program: &Program, reference: &Scored, other: &Scored) {
    assert_eq!(
        reference.len(),
        other.len(),
        "[{label}] candidate counts diverged for {}",
        program.name
    );
    for (i, ((rc, rcost, rperf), (oc, ocost, operf))) in
        reference.iter().zip(other.iter()).enumerate()
    {
        assert_eq!(
            rc, oc,
            "[{label}] candidate {i} of {} diverged",
            program.name
        );
        assert_same_score(label, program, i, (rcost, rperf), (ocost, operf));
    }
}

/// Asserts that two scores of candidate `i` agree bit for bit.
fn assert_same_score(
    label: &str,
    program: &Program,
    i: usize,
    (rcost, rperf): (&CostBreakdown, &PerfReport),
    (ocost, operf): (&CostBreakdown, &PerfReport),
) {
    assert_eq!(
        rcost.total_cycles.to_bits(),
        ocost.total_cycles.to_bits(),
        "[{label}] cost of candidate {i} of {} diverged",
        program.name
    );
    assert_eq!(rcost, ocost);
    assert_eq!(
        rperf.latency_us.to_bits(),
        operf.latency_us.to_bits(),
        "[{label}] latency of candidate {i} of {} diverged",
        program.name
    );
    assert_eq!(rperf, operf);
}

/// Runs a full compile (selection + lowering) with branch-and-bound pruning
/// forced on or off, returning the compiled kernel.
fn compile_pruned_config(
    program: &Program,
    arch: &GpuArch,
    prune: bool,
    workers: usize,
    depth: Option<usize>,
) -> hexcute_core::CompiledKernel {
    let options = CompilerOptions {
        synthesis: SynthesisOptions {
            prune,
            parallel_workers: Some(workers),
            parallel_subtree_depth: depth,
            ..SynthesisOptions::default()
        },
        use_cost_model: true,
    };
    Compiler::with_options(arch.clone(), options)
        .compile(program)
        .unwrap()
}

/// Asserts that a pruned compile's winner, score and perf are bit-identical
/// to the exhaustive reference compile.
fn assert_winner_equal(
    label: &str,
    program: &Program,
    reference: &hexcute_core::CompiledKernel,
    pruned: &hexcute_core::CompiledKernel,
) {
    assert_eq!(
        reference.candidate, pruned.candidate,
        "[{label}] pruned winner diverged for {}",
        program.name
    );
    assert_eq!(
        reference.cost.total_cycles.to_bits(),
        pruned.cost.total_cycles.to_bits(),
        "[{label}] pruned winner score diverged for {}",
        program.name
    );
    assert_eq!(
        reference.cost, pruned.cost,
        "[{label}] pruned cost breakdown diverged for {}",
        program.name
    );
    assert_eq!(
        reference.perf.latency_us.to_bits(),
        pruned.perf.latency_us.to_bits(),
        "[{label}] pruned latency diverged for {}",
        program.name
    );
    assert_eq!(
        reference.perf, pruned.perf,
        "[{label}] pruned perf report diverged for {}",
        program.name
    );
}

/// The prune axis of the matrix: exact branch-and-bound must pick the same
/// winner — same candidate, same cost bits, same perf bits, same emitted
/// artifact — as the exhaustive ranking, at 1 and 4 workers.
fn assert_prune_conformance(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();
    let reference = compile_pruned_config(&program, arch, false, 1, Some(0));

    for (label, workers, depth) in [("prune/serial", 1, Some(0)), ("prune/4-workers", 4, None)] {
        let pruned = compile_pruned_config(&program, arch, true, workers, depth);
        assert_winner_equal(label, &program, &reference, &pruned);
    }

    // The emitted artifact must be bit-identical too — pruning must be
    // invisible in the persistent cache (same fingerprint, same JSON).
    let pruned_artifact = Compiler::with_options(
        arch.clone(),
        CompilerOptions {
            synthesis: SynthesisOptions {
                prune: true,
                ..SynthesisOptions::default()
            },
            use_cost_model: true,
        },
    )
    .compile_artifact(&program)
    .unwrap();
    let exhaustive_artifact = Compiler::with_options(
        arch.clone(),
        CompilerOptions {
            synthesis: SynthesisOptions {
                prune: false,
                ..SynthesisOptions::default()
            },
            use_cost_model: true,
        },
    )
    .compile_artifact(&program)
    .unwrap();
    assert_eq!(
        pruned_artifact.fingerprint, exhaustive_artifact.fingerprint,
        "the prune toggle must not fragment the artifact fingerprint for {}",
        program.name
    );
    assert_eq!(
        pruned_artifact.to_json(),
        exhaustive_artifact.to_json(),
        "pruned artifact JSON diverged for {}",
        program.name
    );
}

fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-conformance-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The full option matrix for one (workload, arch) pair.
fn assert_conformance(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();

    // Reference: full re-evaluation, one worker, serial walk.
    let reference = compile_config(&program, arch, false, 1, Some(0));

    // Incremental, serial.
    let inc_serial = compile_config(&program, arch, true, 1, Some(0));
    assert_scored_equal("incremental/serial", &program, &reference, &inc_serial);

    // Incremental, 4 workers, auto subtree depth (the HEXCUTE_THREADS=4
    // configuration).
    let inc_parallel = compile_config(&program, arch, true, 4, None);
    assert_scored_equal("incremental/4-workers", &program, &reference, &inc_parallel);

    // Reference evaluation on 4 workers (parallel scoring path).
    let ref_parallel = compile_config(&program, arch, false, 4, None);
    assert_scored_equal("reference/4-workers", &program, &reference, &ref_parallel);

    // Prune axis: exact branch-and-bound vs. the exhaustive ranking.
    assert_prune_conformance(workload, arch);

    // Cache cold vs. warm: a memory hit and a disk hit (fresh cache over the
    // same directory) must both return the cold artifact bit for bit.
    let dir = unique_temp_dir("matrix");
    let cache = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        ..KernelCacheConfig::default()
    });
    let compiler = Compiler::new(arch.clone());
    let (cold, cold_src) = compiler.compile_with_cache(&program, &cache).unwrap();
    assert_eq!(cold_src, hexcute_core::ArtifactSource::Synthesized);
    let (mem, mem_src) = compiler.compile_with_cache(&program, &cache).unwrap();
    assert_eq!(mem_src, hexcute_core::ArtifactSource::Memory);
    assert_eq!(*mem, *cold, "memory hit differs for {}", program.name);
    let fresh = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        ..KernelCacheConfig::default()
    });
    let (disk, disk_src) = compiler.compile_with_cache(&program, &fresh).unwrap();
    assert_eq!(disk_src, hexcute_core::ArtifactSource::Disk);
    assert_eq!(*disk, *cold, "disk hit differs for {}", program.name);
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded random contents for every global buffer of `program`, so the
/// simulator comparisons below see real data rather than zeros.
fn global_inputs(program: &Program, seed: u64) -> HashMap<String, Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    program
        .tensors()
        .iter()
        .filter(|decl| decl.space == MemSpace::Global)
        .map(|decl| {
            let layout = decl
                .global_layout
                .as_ref()
                .expect("global views carry layouts");
            let data = (0..layout.cosize())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            (decl.name.clone(), data)
        })
        .collect()
}

/// The bit patterns of every simulated buffer, ordered by name.
fn buffer_bits(buffers: &HashMap<String, Vec<f32>>) -> Vec<(String, Vec<u32>)> {
    let mut bits: Vec<_> = buffers
        .iter()
        .map(|(name, data)| (name.clone(), data.iter().map(|x| x.to_bits()).collect()))
        .collect();
    bits.sort();
    bits
}

/// The table-driven `FunctionalSim::run` against its element-wise oracle
/// `FunctionalSim::run_reference` on the preferred candidate: every global
/// buffer must agree bit for bit.
fn assert_simulation_matches_reference(workload: &Workload, arch: &GpuArch, seed: u64) {
    let program = workload.build();
    let candidate = Synthesizer::new(&program, arch, SynthesisOptions::default())
        .synthesize_preferred()
        .unwrap();
    let inputs = global_inputs(&program, seed);
    let sim = FunctionalSim::new(&program, &candidate);
    assert_eq!(
        buffer_bits(&sim.run(&inputs).unwrap()),
        buffer_bits(&sim.run_reference(&inputs).unwrap()),
        "table-driven simulation of {} diverged from the reference",
        program.name
    );
}

/// The memo-hit oracle for one (workload, arch) pair: every answer a memo
/// tier serves for `CostModel::estimate` equals, bit for bit, a cold call on
/// a fresh instance (a fresh salt, so no tier can answer it), and so does
/// the `PerfEvaluator::evaluate` report derived from it. Three warm passes
/// run on one model:
///
/// * `sibling-warm`: candidates in enumeration order, so per-operation
///   entries written for one candidate answer its siblings;
/// * `lossy-hit`: an immediate repeat, answered by the lossy thread-local
///   tier (the shared tier's counters must not move);
/// * `shared-hit`: a fresh thread, whose lossy tables are empty, so the
///   shared sharded tier answers (it must record no new miss).
fn assert_memo_hits_match_cold_calls(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();
    let candidates = Synthesizer::new(&program, arch, SynthesisOptions::default())
        .synthesize()
        .unwrap();
    let cold: Vec<(CostBreakdown, PerfReport)> = candidates
        .iter()
        .map(|candidate| {
            let cost = CostModel::new(arch).estimate(&program, candidate);
            let perf = PerfEvaluator::new(arch).evaluate(&program, candidate, &cost);
            (cost, perf)
        })
        .collect();

    let model = CostModel::new(arch);
    let evaluator = PerfEvaluator::new(arch);
    let warm = |label: &str, i: usize| {
        let candidate = &candidates[i];
        let cost = model.estimate(&program, candidate);
        let perf = evaluator.evaluate(&program, candidate, &cost);
        assert_same_score(label, &program, i, (&cold[i].0, &cold[i].1), (&cost, &perf));
    };
    for i in 0..candidates.len() {
        warm("sibling-warm", i);
        let before = model.candidate_cache_stats();
        warm("lossy-hit", i);
        let after = model.candidate_cache_stats();
        assert_eq!(
            (before.hits, before.misses),
            (after.hits, after.misses),
            "the repeat estimate of candidate {i} of {} missed the lossy tier",
            program.name
        );
    }
    let before = model.candidate_cache_stats();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..candidates.len() {
                warm("shared-hit", i);
            }
        });
    });
    let after = model.candidate_cache_stats();
    assert_eq!(
        before.misses, after.misses,
        "a fresh thread recomputed an entry the shared tier holds for {}",
        program.name
    );
    assert!(after.hits > before.hits);
}

/// Every family once (one representative instance each), on its natural
/// architecture — the deterministic anchor of the suite.
#[test]
fn every_family_conforms_across_the_toggle_matrix() {
    let a100 = GpuArch::a100();
    let h100 = GpuArch::h100();
    let cases: Vec<(Workload, &GpuArch)> = vec![
        (
            Workload::Gemm {
                dtype: DType::F16,
                m_tiles: 1,
                k_tiles: 2,
            },
            &a100,
        ),
        (
            Workload::Gemm {
                dtype: DType::BF16,
                m_tiles: 1,
                k_tiles: 2,
            },
            &a100,
        ),
        (Workload::WarpGemm, &h100),
        (Workload::Fp8Gemm, &h100),
        (
            Workload::Attention {
                heads: 4,
                seq_tiles: 2,
                head_dim: 64,
            },
            &a100,
        ),
        (
            Workload::Moe {
                tokens: 4,
                efficient: true,
            },
            &h100,
        ),
        (Workload::Mamba { batch: 4 }, &a100),
        (
            Workload::QuantGemm {
                group_size: 64,
                n: 128,
                k: 256,
            },
            &h100,
        ),
        (
            Workload::GroupedGemm {
                tokens: vec![16, 0, 5, 32],
            },
            &h100,
        ),
    ];
    for (seed, (workload, arch)) in cases.iter().enumerate() {
        assert_conformance(workload, arch);
        assert_simulation_matches_reference(workload, arch, seed as u64);
    }
}

/// Maps a sampled (family index, parameter draws) tuple to a workload
/// instance — the generator of the (family × shape × dtype) dimensions.
fn workload_from(family: usize, a: usize, b: usize, c: usize, tokens: Vec<usize>) -> Workload {
    match family % 8 {
        0 => Workload::Gemm {
            dtype: [DType::F16, DType::BF16][a % 2],
            m_tiles: 1 + b % 2,
            k_tiles: 1 + c % 2,
        },
        1 => Workload::WarpGemm,
        2 => Workload::Fp8Gemm,
        3 => Workload::Attention {
            heads: 1 + a % 4,
            seq_tiles: 1 + b % 2,
            head_dim: [64, 128][c % 2],
        },
        4 => Workload::Moe {
            tokens: [2, 4, 16][a % 3],
            efficient: b.is_multiple_of(2),
        },
        5 => Workload::Mamba { batch: 1 + a % 4 },
        6 => Workload::QuantGemm {
            // Groups below, at, and above block_k (64): the third exercises
            // the shared-scale-column (stride-0) tile→group mapping.
            group_size: [32, 64, 128][a % 3],
            n: [128, 256][b % 2],
            k: 256,
        },
        _ => Workload::GroupedGemm { tokens },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized sweep over (family × shape × dtype × arch): the toggle
    /// matrix must hold for every sampled instance.
    #[test]
    fn random_workloads_conform(
        family in 0usize..8,
        a in 0usize..12,
        b in 0usize..12,
        c in 0usize..12,
        tokens in collection::vec(0usize..=48, 2..=6),
        on_h100 in 0usize..2,
    ) {
        let workload = workload_from(family, a, b, c, tokens);
        let arch = if on_h100 == 1 { GpuArch::h100() } else { GpuArch::a100() };
        assert_conformance(&workload, &arch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The memo-hit oracle over all 8 families at sampled shapes: a warm
    /// answer from any memo tier equals a cold call on a fresh instance.
    #[test]
    fn memo_hits_equal_cold_calls_for_every_family(
        a in 0usize..12,
        b in 0usize..12,
        c in 0usize..12,
        tokens in collection::vec(0usize..=48, 2..=6),
        on_h100 in 0usize..2,
    ) {
        for family in 0..8 {
            let workload = workload_from(family, a, b, c, tokens.clone());
            let a100 = GpuArch::a100();
            let arch = if on_h100 == 1 || !workload.supports(&a100) {
                GpuArch::h100()
            } else {
                a100
            };
            assert_memo_hits_match_cold_calls(&workload, &arch);
        }
    }
}
