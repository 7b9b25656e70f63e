//! The traced compile: `Compiler::compile_artifact` repeated stage by stage
//! through the layers' public calls, with a timer around each call.

use std::time::Instant;

use hexcute_codegen::{emit_cuda_like, lower};
use hexcute_core::{CompileError, CompileStats, CompiledKernel, Compiler, KernelArtifact};
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_ir::Program;
use hexcute_sim::PerfEvaluator;
use hexcute_synthesis::Synthesizer;

use crate::report::{mean, median, ratio, Metrics};

/// Stage times (seconds) and search counters of one staged compile.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub fingerprint: f64,
    /// `Synthesizer::search_space`: the thread-value solve plus copy plans.
    /// A separate probe call; `synthesize_pruned` repeats this work.
    pub tv_solve: f64,
    /// The same probe again after the search, with the memo state the
    /// search's own solve saw: `synthesize - tv_solve_warm` is the walk.
    pub tv_solve_warm: f64,
    /// `Synthesizer::synthesize_pruned` (or the exhaustive ranking when it
    /// declines to prune).
    pub synthesize: f64,
    pub estimate: f64,
    pub perf_eval: f64,
    pub lower: f64,
    /// `emit_cuda_like`, timed on its own; `KernelArtifact::from_compiled`
    /// emits again, so it is not part of the stage sum.
    pub emit: f64,
    pub artifact: f64,
    pub enumerated: usize,
    pub scored: usize,
    pub subtrees_cut: usize,
    pub selections_pruned: usize,
    pub bound_evaluations: usize,
    pub prune_fallback: bool,
    pub instr_lines: usize,
    /// Wall time of the whole staged compile, probes and `emit` included.
    pub wall: f64,
}

impl Stages {
    /// The stages that make up one `compile_artifact` call.
    pub fn sum(&self) -> f64 {
        self.fingerprint
            + self.synthesize
            + self.estimate
            + self.perf_eval
            + self.lower
            + self.artifact
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot = start.elapsed().as_secs_f64();
    out
}

/// Whether `compiler` takes the branch-and-bound path, by the same rule as
/// `Compiler::compile`.
fn prunes(compiler: &Compiler) -> bool {
    let options = compiler.options();
    options.use_cost_model
        && options.synthesis.prune
        && options.synthesis.incremental
        && hexcute_synthesis::prune_enabled()
        && hexcute_synthesis::incremental_enabled()
}

/// Compiles `program` stage by stage. The artifact must equal
/// `compiler.compile_artifact(program)` bit for bit.
pub fn staged_compile(
    compiler: &Compiler,
    program: &Program,
) -> Result<(KernelArtifact, Stages), CompileError> {
    let start = Instant::now();
    let arch = compiler.arch();
    let mut st = Stages::default();
    let fingerprint = timed(&mut st.fingerprint, || {
        compiler.artifact_fingerprint(program)
    });
    let synthesizer = Synthesizer::new(program, arch, compiler.options().synthesis.clone());
    timed(&mut st.tv_solve, || synthesizer.search_space())?;

    let model = CostModel::new(arch);
    let pruned = if prunes(compiler) {
        let mut bounder = CompletionBounds::new(&model, program);
        timed(&mut st.synthesize, || {
            synthesizer.synthesize_pruned(&mut bounder, None)
        })?
    } else {
        None
    };
    let (candidate, cost, perf) = match pruned {
        Some(outcome) => {
            st.enumerated = outcome.enumerated;
            st.scored = outcome.stats.candidates_scored;
            st.subtrees_cut = outcome.stats.subtrees_cut;
            st.selections_pruned = outcome.stats.selections_pruned;
            st.bound_evaluations = outcome.stats.bound_evaluations;
            let winner = outcome.winner;
            let cost = timed(&mut st.estimate, || model.estimate(program, &winner));
            let perf = timed(&mut st.perf_eval, || {
                PerfEvaluator::new(arch).evaluate(program, &winner, &cost)
            });
            (winner, cost, perf)
        }
        None => {
            // The exhaustive ranking, selected as `Compiler::compile` does:
            // the first candidate with the lowest estimated cycle count.
            st.prune_fallback = true;
            let mut extra = 0.0;
            let ranked = timed(&mut extra, || compiler.compile_candidates(program))?;
            st.synthesize += extra;
            st.enumerated = ranked.len();
            st.scored = ranked.len();
            ranked
                .into_iter()
                .reduce(|best, next| {
                    if next.1.total_cycles.total_cmp(&best.1.total_cycles).is_lt() {
                        next
                    } else {
                        best
                    }
                })
                .expect("a successful ranking holds at least one candidate")
        }
    };
    timed(&mut st.tv_solve_warm, || synthesizer.search_space())?;
    let lowered = timed(&mut st.lower, || lower(program, &candidate));
    let source = timed(&mut st.emit, || emit_cuda_like(program, &lowered));
    std::hint::black_box(source);
    st.instr_lines = lowered.instruction_lines(program).len();
    let compiled = CompiledKernel {
        program: program.clone(),
        candidate,
        lowered,
        cost,
        perf,
        stats: CompileStats {
            candidates_explored: st.enumerated,
            selected_by_cost_model: 0,
            best_by_simulation: 0,
            selection_quality: 1.0,
            compile_time_ms: 0.0,
        },
    };
    let artifact = timed(&mut st.artifact, || {
        KernelArtifact::from_compiled(fingerprint, &compiled, arch)
    });
    st.wall = start.elapsed().as_secs_f64();
    Ok((artifact, st))
}

/// Whether two artifacts are equal bit for bit (field equality alone would
/// let `0.0 == -0.0` through).
pub fn same_bits(a: &KernelArtifact, b: &KernelArtifact) -> bool {
    a == b && a.to_json() == b.to_json()
}

/// One traced compile: the staged compile and the whole
/// `compile_artifact` call, in the order `staged_first` says (alternating
/// the order cancels the warm-memo advantage of going second).
#[derive(Debug, Clone)]
pub struct TracedCompile {
    pub artifact: KernelArtifact,
    pub stages: Stages,
    /// Wall time of the whole `compile_artifact` call, in seconds.
    pub whole: f64,
    pub encode: f64,
    pub decode: f64,
    pub bytes: usize,
}

/// Why a traced compile produced no result.
#[derive(Debug)]
pub enum TraceError {
    /// The compile itself failed: a failed request.
    Compile(CompileError),
    /// An output check failed: the run is incorrect.
    Check(String),
}

/// Runs [`staged_compile`] and `compile_artifact` on `program` and checks
/// that both artifacts, and the artifact's JSON round trip, agree bit for
/// bit.
pub fn traced_compile(
    compiler: &Compiler,
    program: &Program,
    staged_first: bool,
) -> Result<TracedCompile, TraceError> {
    let mut whole = 0.0;
    let mut whole_call = || timed(&mut whole, || compiler.compile_artifact(program));
    let (staged, stages, artifact) = if staged_first {
        let (staged, stages) = staged_compile(compiler, program).map_err(TraceError::Compile)?;
        let artifact = whole_call().map_err(TraceError::Compile)?;
        (staged, stages, artifact)
    } else {
        let artifact = whole_call().map_err(TraceError::Compile)?;
        let (staged, stages) = staged_compile(compiler, program).map_err(TraceError::Compile)?;
        (staged, stages, artifact)
    };
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(TraceError::Check(format!("{}: {what}", program.name)))
        }
    };
    check(
        same_bits(&staged, &artifact),
        "the staged artifact differs from compile_artifact's",
    )?;
    let mut encode = 0.0;
    let json = timed(&mut encode, || artifact.to_json());
    let mut decode = 0.0;
    let decoded = timed(&mut decode, || KernelArtifact::from_json(&json));
    check(
        decoded.is_ok_and(|d| same_bits(&d, &artifact)),
        "the artifact JSON round trip changed the artifact",
    )?;
    Ok(TracedCompile {
        artifact,
        stages,
        whole,
        encode,
        decode,
        bytes: json.len(),
    })
}

/// Largest allowed distance of `core.stage_coverage` from 1: the stage
/// timers must account for the whole call within this share, or a layer is
/// missing from the breakdown.
pub const COVERAGE_TOLERANCE: f64 = 0.15;

/// Sets the synthesis, cost-model, simulator, codegen and core metrics from
/// a set of traced compiles. Returns `core.stage_coverage`.
pub fn set_stage_metrics(traced: &[TracedCompile], m: &mut Metrics) -> f64 {
    let per = |f: &dyn Fn(&TracedCompile) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let ms = 1e3;
    let us = 1e6;
    m.set(
        "synthesis.tv_solve_ms",
        median(&per(&|t| t.stages.tv_solve)) * ms,
    );
    m.set(
        "synthesis.walk_ms",
        median(&per(&|t| t.stages.synthesize - t.stages.tv_solve_warm)) * ms,
    );
    m.set(
        "synthesis.enumerated",
        mean(&per(&|t| t.stages.enumerated as f64)),
    );
    m.set("synthesis.scored", mean(&per(&|t| t.stages.scored as f64)));
    m.set(
        "synthesis.subtrees_cut",
        mean(&per(&|t| t.stages.subtrees_cut as f64)),
    );
    m.set(
        "synthesis.selections_pruned",
        mean(&per(&|t| t.stages.selections_pruned as f64)),
    );
    m.set(
        "synthesis.bound_evaluations",
        mean(&per(&|t| t.stages.bound_evaluations as f64)),
    );
    m.set(
        "synthesis.prune_fallbacks",
        traced.iter().filter(|t| t.stages.prune_fallback).count() as f64,
    );
    m.set(
        "costmodel.estimate_us",
        median(&per(&|t| t.stages.estimate)) * us,
    );
    m.set(
        "sim.perf_eval_us",
        median(&per(&|t| t.stages.perf_eval)) * us,
    );
    m.set("codegen.lower_us", median(&per(&|t| t.stages.lower)) * us);
    m.set("codegen.emit_us", median(&per(&|t| t.stages.emit)) * us);
    m.set(
        "codegen.instr_lines",
        mean(&per(&|t| t.stages.instr_lines as f64)),
    );
    let whole = per(&|t| t.whole);
    let staged = per(&|t| t.stages.sum());
    m.set("core.compile_ms", median(&whole) * ms);
    let coverage = ratio(staged.iter().sum(), whole.iter().sum());
    m.set("core.stage_coverage", coverage);
    // The traced compile's median minus the untraced one's: the staged
    // compile's whole wall time, probes included, against the whole call.
    m.set(
        "core.trace_overhead_ms",
        (median(&per(&|t| t.stages.wall)) - median(&whole)) * ms,
    );
    m.set("core.artifact_encode_us", median(&per(&|t| t.encode)) * us);
    m.set("core.artifact_decode_us", median(&per(&|t| t.decode)) * us);
    m.set("core.artifact_bytes", mean(&per(&|t| t.bytes as f64)));
    coverage
}
