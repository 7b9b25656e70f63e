//! Regression tests for the branch-and-bound pruned search: the pruned
//! winner must be the exhaustive argmin bit for bit, a pre-tripped cancel
//! token must yield the typed error, and the `max_candidates` cap must make
//! the search decline (fall back to exhaustive) rather than silently change
//! semantics.

use hexcute_arch::GpuArch;
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_ir::Program;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_synthesis::{
    CancelReason, CancelToken, PrunedOutcome, SearchBounder, SynthesisError, SynthesisOptions,
    Synthesizer,
};

fn gemm() -> Program {
    fp16_gemm(GemmShape::new(128, 128, 128), GemmConfig::default()).unwrap()
}

fn prune_with(program: &Program, arch: &GpuArch, options: SynthesisOptions) -> PrunedOutcome {
    let synth = Synthesizer::new(program, arch, options);
    let model = CostModel::new(arch);
    let mut bounder = CompletionBounds::new(&model, program);
    synth
        .synthesize_pruned(&mut bounder, None)
        .unwrap()
        .expect("the search space fits max_candidates, so pruning must engage")
}

/// The exhaustive argmin exactly as the compiler's selection loop computes
/// it: score every candidate, keep the *first* minimal one.
fn exhaustive_argmin(
    program: &Program,
    arch: &GpuArch,
    options: SynthesisOptions,
) -> (usize, hexcute_synthesis::Candidate, f64) {
    let candidates = Synthesizer::new(program, arch, options)
        .synthesize()
        .unwrap();
    let model = CostModel::new(arch);
    let (idx, candidate) = candidates
        .into_iter()
        .enumerate()
        .min_by(|a, b| {
            model
                .estimate(program, &a.1)
                .total_cycles
                .total_cmp(&model.estimate(program, &b.1).total_cycles)
        })
        .expect("at least one candidate");
    let score = model.estimate(program, &candidate).total_cycles;
    (idx, candidate, score)
}

#[test]
fn pruned_winner_is_the_exhaustive_argmin_bit_for_bit() {
    let program = gemm();
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        let outcome = prune_with(&program, &arch, SynthesisOptions::default());
        let (idx, winner, score) = exhaustive_argmin(&program, &arch, SynthesisOptions::default());
        assert_eq!(outcome.winner, winner, "winner diverged on {}", arch.name);
        assert_eq!(
            outcome.score.to_bits(),
            score.to_bits(),
            "score diverged on {}",
            arch.name
        );
        assert_eq!(outcome.winner_index, idx, "index diverged on {}", arch.name);
        assert!(outcome.enumerated >= 1);
        assert!(outcome.stats.bound_evaluations >= 1);
    }
}

/// A pre-tripped token cancels the pruned search with the typed error —
/// never a partial outcome.
#[test]
fn cancelled_pruned_search_returns_the_typed_error() {
    let program = gemm();
    let arch = GpuArch::a100();
    let token = CancelToken::new();
    token.cancel(CancelReason::Shutdown);
    let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
    let model = CostModel::new(&arch);
    let mut bounder = CompletionBounds::new(&model, &program);
    match synth.synthesize_pruned(&mut bounder, Some(&token)) {
        Err(SynthesisError::Cancelled(CancelReason::Shutdown)) => {}
        other => panic!("expected the typed cancellation, got {other:?}"),
    }
}

/// When the enumeration exceeds `max_candidates` (whose truncation-by-cap
/// semantics belong to the exhaustive path), the pruned search declines with
/// `Ok(None)` instead of guessing.
#[test]
fn pruned_search_declines_when_the_candidate_cap_binds() {
    let program = gemm();
    let arch = GpuArch::a100();
    let options = SynthesisOptions {
        max_candidates: 1,
        ..SynthesisOptions::default()
    };
    let synth = Synthesizer::new(&program, &arch, options);
    let model = CostModel::new(&arch);
    let mut bounder = CompletionBounds::new(&model, &program);
    assert!(synth
        .synthesize_pruned(&mut bounder, None)
        .unwrap()
        .is_none());
}

/// `prepare` really is what makes bounds tight: unprepared bounds still
/// admit the winner (they degrade to exact per-choice costs).
#[test]
fn unprepared_bounder_is_still_admissible() {
    let program = gemm();
    let arch = GpuArch::a100();
    let model = CostModel::new(&arch);
    let bounder = CompletionBounds::new(&model, &program);
    let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
    let space = synth.search_space().unwrap();
    let candidates = synth.synthesize().unwrap();
    let undecided: Vec<_> = space.plans.iter().map(|p| p.op).collect();
    for candidate in &candidates {
        let bound = bounder.completion_bound(candidate, &undecided);
        let score = bounder.exact_score(candidate);
        assert!(bound <= score, "unprepared bound {bound} > score {score}");
    }
}
