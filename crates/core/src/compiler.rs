//! The compiler driver.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{ArtifactSource, KernelArtifact, KernelCache};

use hexcute_arch::GpuArch;
use hexcute_codegen::{emit_cuda_like, lower, LoweredKernel};
use hexcute_costmodel::{CompletionBounds, CostBreakdown, CostModel};
use hexcute_ir::Program;
use hexcute_sim::{estimate_kernel, FunctionalSim, PerfEvaluator, PerfReport, SimError};
use hexcute_synthesis::{
    CancelReason, CancelToken, Candidate, SynthesisError, SynthesisOptions, Synthesizer,
};

/// Options controlling compilation.
#[derive(Debug, Clone, Default)]
pub struct CompilerOptions {
    /// Options forwarded to the layout-synthesis engine.
    pub synthesis: SynthesisOptions,
    /// When `false`, candidate selection bypasses the analytical cost model
    /// and exhaustively evaluates every candidate with the performance
    /// simulator (used by the Fig. 12 accuracy experiment as ground truth).
    pub use_cost_model: bool,
}

impl CompilerOptions {
    /// Default options: full instruction set, cost-model-guided selection.
    pub fn new() -> Self {
        CompilerOptions {
            synthesis: SynthesisOptions::default(),
            use_cost_model: true,
        }
    }
}

/// Statistics about one compilation, including the data needed for the
/// cost-model accuracy study (Section VII-C / Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Number of candidate programs produced by the search tree.
    pub candidates_explored: usize,
    /// Index of the candidate selected by the analytical cost model.
    pub selected_by_cost_model: usize,
    /// Index of the candidate with the lowest simulated latency.
    pub best_by_simulation: usize,
    /// Ratio of the selected candidate's simulated latency to the true
    /// optimum (1.0 = the cost model picked the best candidate).
    pub selection_quality: f64,
    /// Wall-clock compilation time in milliseconds.
    pub compile_time_ms: f64,
}

/// A fully compiled kernel: the selected candidate, its lowering, and its
/// estimated cost and performance.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The source program.
    pub program: Program,
    /// The selected candidate (layouts + instructions).
    pub candidate: Candidate,
    /// The lowered per-block kernel.
    pub lowered: LoweredKernel,
    /// The analytical cost-model estimate for the selected candidate.
    pub cost: CostBreakdown,
    /// The simulated device-level performance of the selected candidate.
    pub perf: PerfReport,
    /// Compilation statistics.
    pub stats: CompileStats,
}

impl CompiledKernel {
    /// The estimated kernel latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.perf.latency_us
    }

    /// Renders the kernel as CUDA-like source text.
    pub fn cuda_source(&self) -> String {
        emit_cuda_like(&self.program, &self.lowered)
    }

    /// Runs the functional simulator on the compiled kernel.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (missing layouts, short buffers).
    pub fn simulate(
        &self,
        inputs: &HashMap<String, Vec<f32>>,
    ) -> Result<HashMap<String, Vec<f32>>, SimError> {
        FunctionalSim::new(&self.program, &self.candidate).run(inputs)
    }
}

/// Errors produced by compilation and by the serving layer on top of it.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Layout synthesis failed.
    Synthesis(SynthesisError),
    /// The serving layer shed this request: its admission queue was full.
    Overloaded {
        /// Requests already waiting for an admission slot.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline elapsed while it was queued or while it
    /// waited on a coalesced in-flight synthesis.
    DeadlineExceeded {
        /// How long the request had been waiting when it gave up.
        elapsed: std::time::Duration,
    },
    /// The synthesis panicked (a worker-job crash, possibly injected). The
    /// kernel itself may be fine — this error is transient and retryable.
    Panicked(String),
    /// The in-flight synthesis was cancelled cooperatively (the request's
    /// deadline, the service watchdog, or a shutdown tripped its
    /// [`CancelToken`]). Cancellation yields this typed error only — never a
    /// partial result, and cancelled compiles are never cached.
    Cancelled {
        /// Which trigger won the cancel.
        reason: CancelReason,
    },
    /// The service watchdog tripped on a runaway compile
    /// (`hexcute_e2e::ServiceConfig::watchdog`).
    SynthesisTimeout {
        /// How long the synthesis had been running when the watchdog fired.
        elapsed: std::time::Duration,
    },
}

impl CompileError {
    /// Whether a retry of the same request could plausibly succeed.
    /// Synthesis failures are deterministic, overload/deadline outcomes are
    /// the caller's backpressure signal, and cancellations/watchdog trips
    /// are deliberate bounds; only a panicked synthesis — a crashed worker,
    /// not a property of the program — is worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, CompileError::Panicked(_))
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Synthesis(e) => write!(f, "layout synthesis failed: {e}"),
            CompileError::Overloaded { queued, capacity } => write!(
                f,
                "request shed: admission queue full ({queued} waiting, capacity {capacity})"
            ),
            CompileError::DeadlineExceeded { elapsed } => {
                write!(
                    f,
                    "deadline exceeded after {:.1}ms",
                    elapsed.as_secs_f64() * 1e3
                )
            }
            CompileError::Panicked(msg) => write!(f, "synthesis panicked: {msg}"),
            CompileError::Cancelled { reason } => {
                write!(f, "compile cancelled ({reason})")
            }
            CompileError::SynthesisTimeout { elapsed } => write!(
                f,
                "watchdog tripped: synthesis still running after {:.1}ms",
                elapsed.as_secs_f64() * 1e3
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SynthesisError> for CompileError {
    fn from(e: SynthesisError) -> Self {
        match e {
            // A cancelled search is not a synthesis *failure*: surface it as
            // the typed cancellation so callers can map it per trigger.
            SynthesisError::Cancelled(reason) => CompileError::Cancelled { reason },
            other => CompileError::Synthesis(other),
        }
    }
}

/// The Hexcute compiler for a fixed target architecture.
#[derive(Debug)]
pub struct Compiler {
    arch: GpuArch,
    /// `arch`'s `{:?}` rendering, which every artifact fingerprint hashes;
    /// rendered once here instead of once per request.
    arch_rendering: Box<str>,
    options: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler targeting the given architecture with default
    /// options.
    pub fn new(arch: GpuArch) -> Self {
        Self::with_options(arch, CompilerOptions::new())
    }

    /// Creates a compiler with explicit options.
    pub fn with_options(arch: GpuArch, options: CompilerOptions) -> Self {
        Compiler {
            arch_rendering: format!("{arch:?}").into(),
            arch,
            options,
        }
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The compiler options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles a program: synthesizes candidate layouts and instructions,
    /// ranks them, and lowers the selected candidate.
    ///
    /// Every call compiles from scratch; the result is a deterministic
    /// function of the program, the architecture and the options. Callers
    /// that repeat compilations go through a [`KernelCache`] (see
    /// [`Compiler::compile_with_cache`]) or the compile service.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when layout synthesis fails.
    pub fn compile(&self, program: &Program) -> Result<CompiledKernel, CompileError> {
        self.compile_cancellable(program, None)
    }

    /// [`Compiler::compile`] with a cooperative [`CancelToken`] (see
    /// [`Compiler::compile_artifact_cancellable`] for the contract).
    fn compile_cancellable(
        &self,
        program: &Program,
        token: Option<&CancelToken>,
    ) -> Result<CompiledKernel, CompileError> {
        let start = Instant::now();
        if self.prunes() {
            if let Some(compiled) = self.compile_pruned(program, token, start)? {
                return Ok(compiled);
            }
        }
        let ranked = self.compile_candidates_cancellable(program, token)?;
        let candidates_explored = ranked.len();

        // Ground truth: the candidate with the lowest simulated latency.
        let best_by_simulation = ranked
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .2.latency_us.total_cmp(&b.1 .2.latency_us))
            .map(|(i, _)| i)
            .unwrap_or(0);
        // Selection: analytical cost model (the paper's approach) or the
        // simulator itself when the cost model is disabled.
        let selected_by_cost_model = if self.options.use_cost_model {
            ranked
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .1.total_cycles.total_cmp(&b.1 .1.total_cycles))
                .map(|(i, _)| i)
                .unwrap_or(0)
        } else {
            best_by_simulation
        };
        let selected_latency = ranked[selected_by_cost_model].2.latency_us;
        let best_latency = ranked[best_by_simulation].2.latency_us;
        let selection_quality = if best_latency > 0.0 {
            selected_latency / best_latency
        } else {
            1.0
        };

        let (candidate, cost, perf) = ranked
            .into_iter()
            .nth(selected_by_cost_model)
            .expect("selected index is valid");
        let lowered = lower(program, &candidate);
        let stats = CompileStats {
            candidates_explored,
            selected_by_cost_model,
            best_by_simulation,
            selection_quality,
            compile_time_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        Ok(CompiledKernel {
            program: program.clone(),
            candidate,
            lowered,
            cost,
            perf,
            stats,
        })
    }

    /// Whether [`Compiler::compile`] takes the branch-and-bound pruned
    /// search. Pruning needs the cost model for scoring (so the Fig. 12
    /// ground-truth mode, `use_cost_model = false`, still exhaustively
    /// simulates every candidate) and rides on the incremental prefix walk.
    fn prunes(&self) -> bool {
        self.options.use_cost_model
            && self.options.synthesis.prune
            && self.options.synthesis.incremental
    }

    /// The branch-and-bound compile path: scores only the leaves the
    /// admissible bound cannot rule out, yielding the same winning candidate
    /// — and the same cost and perf breakdowns, bit for bit — as the
    /// exhaustive ranking. Returns `Ok(None)` when the search declines to
    /// prune (the enumeration exceeds `max_candidates`, a cap only the
    /// exhaustive path applies), in which case the caller falls back to the
    /// exhaustive ranking.
    fn compile_pruned(
        &self,
        program: &Program,
        token: Option<&CancelToken>,
        start: Instant,
    ) -> Result<Option<CompiledKernel>, CompileError> {
        let synthesizer = Synthesizer::new(program, &self.arch, self.options.synthesis.clone());
        let model = CostModel::new(&self.arch);
        let mut bounder = CompletionBounds::new(&model, program);
        let Some(outcome) = synthesizer.synthesize_pruned(&mut bounder, token)? else {
            return Ok(None);
        };
        // Same calls the exhaustive scorer makes for the same candidate, so
        // the breakdowns are bit-identical to the unpruned compile's.
        let cost = model.estimate(program, &outcome.winner);
        let perf = PerfEvaluator::new(&self.arch).evaluate(program, &outcome.winner, &cost);
        let lowered = lower(program, &outcome.winner);
        let stats = CompileStats {
            candidates_explored: outcome.enumerated,
            // The winner is the only candidate scored end to end; the
            // simulated ranking of the pruned non-winners does not exist.
            selected_by_cost_model: 0,
            best_by_simulation: 0,
            selection_quality: 1.0,
            compile_time_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        Ok(Some(CompiledKernel {
            program: program.clone(),
            candidate: outcome.winner,
            lowered,
            cost,
            perf,
            stats,
        }))
    }

    /// The stable cache key for compiling `program` on this compiler (see
    /// [`crate::cache::artifact_fingerprint`]): a fingerprint of the program
    /// structure, the target architecture and every result-affecting option.
    pub fn artifact_fingerprint(&self, program: &Program) -> u64 {
        // `str`'s `Hash` writes the bytes and the `0xff` terminator, exactly
        // what `StableHasher::write_debug(&self.arch)` streams.
        crate::cache::fingerprint_with(program, |h| self.arch_rendering.hash(h), &self.options)
    }

    /// Compiles a program and packages the result as a cacheable
    /// [`KernelArtifact`] (the winning candidate's layouts, the lowered
    /// instruction stream, the emitted pseudo-CUDA and the cost/perf
    /// breakdowns). The artifact is a deterministic function of the
    /// fingerprint inputs: compiling the same program twice yields equal
    /// artifacts bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when layout synthesis fails.
    pub fn compile_artifact(&self, program: &Program) -> Result<KernelArtifact, CompileError> {
        self.compile_artifact_cancellable(program, None)
    }

    /// [`Compiler::compile_artifact`] with a cooperative [`CancelToken`]: the
    /// token is polled at row granularity by the synthesis walks and at job
    /// granularity by the scoring fan-out, so a cancel aborts the compile
    /// promptly with a typed [`CompileError::Cancelled`]. A cancelled
    /// compile leaves nothing behind: reissuing the request yields the exact
    /// same artifact a never-cancelled compile would.
    ///
    /// # Errors
    ///
    /// Same as [`Compiler::compile_artifact`], plus
    /// [`CompileError::Cancelled`] when `token` trips mid-compile.
    pub fn compile_artifact_cancellable(
        &self,
        program: &Program,
        token: Option<&CancelToken>,
    ) -> Result<KernelArtifact, CompileError> {
        let fingerprint = self.artifact_fingerprint(program);
        let compiled = self.compile_cancellable(program, token)?;
        Ok(KernelArtifact::from_compiled(
            fingerprint,
            &compiled,
            &self.arch,
        ))
    }

    /// Compiles through a [`KernelCache`]: a cached artifact (memory or
    /// disk) is returned without synthesizing; a miss synthesizes, stores
    /// the artifact, and reports [`ArtifactSource::Synthesized`].
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when a miss's synthesis fails; cache
    /// defects (corrupt or stale files) never error — they re-synthesize.
    pub fn compile_with_cache(
        &self,
        program: &Program,
        cache: &KernelCache,
    ) -> Result<(Arc<KernelArtifact>, ArtifactSource), CompileError> {
        let fingerprint = self.artifact_fingerprint(program);
        if let Some((artifact, source)) = cache.get(fingerprint) {
            return Ok((artifact, source));
        }
        let artifact = Arc::new(self.compile_artifact(program)?);
        cache.insert(artifact.clone());
        Ok((artifact, ArtifactSource::Synthesized))
    }

    /// Synthesizes every candidate for the program and evaluates each with
    /// both the analytical cost model and the performance simulator.
    ///
    /// The candidates are scored in parallel across CPU cores, sharing one
    /// memoizing cost model; order (and therefore candidate selection) is
    /// identical to the serial walk (`parallel_workers: Some(1)`). With the
    /// incremental search on (the default, see [`hexcute_synthesis::prefix`]),
    /// the performance simulator additionally reuses the shared cost model's
    /// instruction timeline and memoizes per-operation bank-conflict charges
    /// across sibling candidates — bit-identical to the re-evaluating
    /// reference, which stays available behind
    /// `SynthesisOptions::incremental = false`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when layout synthesis fails.
    pub fn compile_candidates(
        &self,
        program: &Program,
    ) -> Result<Vec<(Candidate, CostBreakdown, PerfReport)>, CompileError> {
        self.compile_candidates_cancellable(program, None)
    }

    /// [`Compiler::compile_candidates`] with a cooperative [`CancelToken`]
    /// threaded through both the synthesis walks and the scoring fan-out.
    fn compile_candidates_cancellable(
        &self,
        program: &Program,
        token: Option<&CancelToken>,
    ) -> Result<Vec<(Candidate, CostBreakdown, PerfReport)>, CompileError> {
        let synthesizer = Synthesizer::new(program, &self.arch, self.options.synthesis.clone());
        let (candidates, _) = synthesizer.synthesize_with_stats(token)?;
        let model = CostModel::new(&self.arch);
        let workers = self
            .options
            .synthesis
            .parallel_workers
            .unwrap_or_else(hexcute_parallel::worker_count);
        if self.options.synthesis.incremental {
            let evaluator = PerfEvaluator::new(&self.arch);
            score_all(
                candidates,
                |candidate| {
                    let cost = model.estimate(program, &candidate);
                    let perf = evaluator.evaluate(program, &candidate, &cost);
                    (candidate, cost, perf)
                },
                workers,
                token,
            )
        } else {
            score_all(
                candidates,
                |candidate| {
                    let cost = model.estimate(program, &candidate);
                    let perf = estimate_kernel(program, &candidate, &self.arch);
                    (candidate, cost, perf)
                },
                workers,
                token,
            )
        }
    }
}

/// The typed error for a tripped token (the reason defaults defensively —
/// a token that cancelled a map always carries one).
fn cancelled_error(token: &CancelToken) -> CompileError {
    CompileError::Cancelled {
        reason: token.reason().unwrap_or(CancelReason::Shutdown),
    }
}

/// Scores every candidate on the persistent worker pool (order preserved).
/// `workers` follows [`hexcute_synthesis::SynthesisOptions::parallel_workers`],
/// so an explicit override applies to scoring and to the subtree search
/// alike; one worker scores serially on the calling thread. A carried token
/// cancels between pool items.
fn score_all<F>(
    candidates: Vec<Candidate>,
    score: F,
    workers: usize,
    token: Option<&CancelToken>,
) -> Result<Vec<(Candidate, CostBreakdown, PerfReport)>, CompileError>
where
    F: Fn(Candidate) -> (Candidate, CostBreakdown, PerfReport) + Sync,
{
    match token {
        Some(tok) => hexcute_parallel::par_map_cancellable(candidates, score, workers, tok)
            .ok_or_else(|| cancelled_error(tok)),
        None => Ok(hexcute_parallel::par_map_with_workers(
            candidates, score, workers,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn gemm_program() -> Program {
        let (m, n, k) = (64, 64, 64);
        let mut kb = KernelBuilder::new("core_gemm", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[m, k], &[k, 1]),
            &[m, k],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[n, k], &[k, 1]),
            &[n, k],
        );
        let gc = kb.global_view(
            "c",
            DType::F32,
            Layout::from_flat(&[m, n], &[n, 1]),
            &[m, n],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
        let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
        let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
        let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
        let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.copy(rc, gc);
        kb.build().unwrap()
    }

    #[test]
    fn compiles_selects_and_lowers() {
        let compiler = Compiler::new(GpuArch::a100());
        let kernel = compiler.compile(&gemm_program()).unwrap();
        assert!(kernel.stats.candidates_explored > 1);
        assert!(kernel.stats.selection_quality >= 1.0);
        // The cost model's choice should be close to the true optimum
        // (Fig. 12 reports within 1.01x; allow a little slack here).
        assert!(
            kernel.stats.selection_quality < 1.10,
            "quality {}",
            kernel.stats.selection_quality
        );
        assert!(kernel.latency_us() > 0.0);
        assert!(kernel.cuda_source().contains("__global__"));
        assert!(kernel.lowered.smem_bytes > 0);
    }

    #[test]
    fn compiled_gemm_is_numerically_correct() {
        let compiler = Compiler::new(GpuArch::a100());
        let kernel = compiler.compile(&gemm_program()).unwrap();
        let (m, n, k) = (64usize, 64usize, 64usize);
        let mut rng = StdRng::seed_from_u64(42);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a.clone());
        inputs.insert("b".to_string(), b.clone());
        let out = kernel.simulate(&inputs).unwrap();
        for mi in (0..m).step_by(17) {
            for ni in (0..n).step_by(13) {
                let expect: f32 = (0..k).map(|ki| a[mi * k + ki] * b[ni * k + ki]).sum();
                assert!((out["c"][mi * n + ni] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn cache_returns_identical_results() {
        // The second compile runs warm through the per-thread layout-algebra
        // memo and must repeat the first one exactly.
        let compiler = Compiler::new(GpuArch::h100());
        let program = gemm_program();
        let first = compiler.compile(&program).unwrap();
        let second = compiler.compile(&program).unwrap();
        assert_eq!(first.candidate, second.candidate);
        assert_eq!(
            first.stats.candidates_explored,
            second.stats.candidates_explored
        );
    }

    #[test]
    fn exhaustive_selection_matches_or_beats_cost_model() {
        let program = gemm_program();
        let guided = Compiler::new(GpuArch::a100()).compile(&program).unwrap();
        let exhaustive = Compiler::with_options(
            GpuArch::a100(),
            CompilerOptions {
                use_cost_model: false,
                ..CompilerOptions::new()
            },
        )
        .compile(&program)
        .unwrap();
        assert!(exhaustive.latency_us() <= guided.latency_us() + 1e-9);
    }
}
