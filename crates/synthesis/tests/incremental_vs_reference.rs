//! Cross-checks the incremental prefix-shared candidate evaluation against
//! the full per-candidate re-evaluation through the public API, mirroring
//! `crates/layout/tests/flat_vs_reference.rs`: both paths must produce
//! *identical* ordered candidate lists — layouts, instruction choices,
//! shared-memory layouts, notes — not merely equivalent ones.

use hexcute_arch::{DType, GpuArch};
use hexcute_ir::{KernelBuilder, Program};
use hexcute_layout::Layout;
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};

fn synthesize_with(program: &Program, arch: &GpuArch, incremental: bool) -> Vec<Candidate> {
    let options = SynthesisOptions {
        incremental,
        ..SynthesisOptions::default()
    };
    Synthesizer::new(program, arch, options)
        .synthesize()
        .unwrap()
}

fn assert_paths_agree(program: &Program, arch: &GpuArch) {
    let reference = synthesize_with(program, arch, false);
    let incremental = synthesize_with(program, arch, true);
    assert_eq!(
        reference.len(),
        incremental.len(),
        "candidate counts diverged for {}",
        program.name
    );
    for (i, (r, f)) in reference.iter().zip(incremental.iter()).enumerate() {
        assert_eq!(r, f, "candidate {i} of {} diverged", program.name);
    }
}

fn staged_gemm(m: usize, n: usize, k: usize) -> Program {
    let mut kb = KernelBuilder::new("staged_gemm", 128);
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

fn copy_roundtrip() -> Program {
    let mut kb = KernelBuilder::new("roundtrip", 128);
    let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let stage = kb.shared_tensor("stage", DType::F16, &[64, 64]);
    let tile = kb.register_tensor("tile", DType::F16, &[64, 64]);
    kb.copy(src, stage);
    kb.copy(stage, tile);
    kb.copy(tile, dst);
    kb.build().unwrap()
}

#[test]
fn gemm_candidates_are_bit_identical() {
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        assert_paths_agree(&staged_gemm(64, 64, 32), &arch);
        assert_paths_agree(&staged_gemm(128, 64, 64), &arch);
    }
}

#[test]
fn copy_roundtrip_candidates_are_bit_identical() {
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        assert_paths_agree(&copy_roundtrip(), &arch);
    }
}

#[test]
fn ablation_option_sets_agree_too() {
    let program = staged_gemm(64, 64, 32);
    let arch = GpuArch::a100();
    for base in [
        SynthesisOptions::scalar_fallback(),
        SynthesisOptions::triton_smem_layout(),
        SynthesisOptions {
            disable_swizzles: true,
            ..SynthesisOptions::default()
        },
    ] {
        let reference = Synthesizer::new(
            &program,
            &arch,
            SynthesisOptions {
                incremental: false,
                ..base.clone()
            },
        )
        .synthesize()
        .unwrap();
        let incremental = Synthesizer::new(
            &program,
            &arch,
            SynthesisOptions {
                incremental: true,
                ..base
            },
        )
        .synthesize()
        .unwrap();
        assert_eq!(reference, incremental);
    }
}

/// The parallel subtree walk must be bit-for-bit identical to the serial
/// incremental walk (and therefore to the reference path, by the tests
/// above) for every worker count and split depth — candidate order, layouts,
/// instruction choices, notes.
#[test]
fn parallel_walk_is_bit_identical_across_worker_counts_and_depths() {
    let programs = [
        staged_gemm(64, 64, 32),
        staged_gemm(128, 64, 64),
        copy_roundtrip(),
    ];
    let arch = GpuArch::a100();
    for program in &programs {
        let serial = Synthesizer::new(
            program,
            &arch,
            SynthesisOptions {
                parallel_subtree_depth: Some(0),
                parallel_workers: Some(1),
                ..SynthesisOptions::default()
            },
        )
        .synthesize()
        .unwrap();
        for workers in [1usize, 2, 4, 8] {
            for depth in [None, Some(0), Some(1), Some(2), Some(usize::MAX)] {
                let parallel = Synthesizer::new(
                    program,
                    &arch,
                    SynthesisOptions {
                        parallel_subtree_depth: depth,
                        parallel_workers: Some(workers),
                        ..SynthesisOptions::default()
                    },
                )
                .synthesize()
                .unwrap();
                assert_eq!(
                    serial, parallel,
                    "{}: workers {workers} depth {depth:?} diverged from the serial walk",
                    program.name
                );
            }
        }
    }
}

/// The walk must actually split and run on multiple workers (not silently
/// fall back to serial), which the stats expose.
#[test]
fn parallel_walk_reports_subtrees_and_workers() {
    let program = staged_gemm(64, 64, 32);
    let arch = GpuArch::a100();
    let (candidates, stats) = Synthesizer::new(
        &program,
        &arch,
        SynthesisOptions {
            parallel_workers: Some(4),
            ..SynthesisOptions::default()
        },
    )
    .synthesize_with_stats(None)
    .unwrap();
    let stats = stats.expect("incremental search reports stats");
    assert!(candidates.len() > 1);
    assert_eq!(stats.workers, 4);
    assert!(
        stats.subtrees > 1,
        "auto depth produced a single subtree: {stats:?}"
    );
    // Sharing still happens through the shared memo.
    assert!(stats.tensor_layout_hits > 0, "no sharing: {stats:?}");
    // Concurrent subtrees may race on a key (both compute, one insert wins),
    // so resident entries are bounded by — not necessarily equal to — the
    // number of finishing computations.
    assert!(stats.finished_cache.entries > 0);
    assert!(
        stats.finished_cache.entries <= stats.tensor_layouts_computed,
        "more memo entries than computations: {stats:?}"
    );

    // The explicit serial knobs keep the reference walk reachable.
    let (_, serial_stats) = Synthesizer::new(
        &program,
        &arch,
        SynthesisOptions {
            parallel_subtree_depth: Some(0),
            ..SynthesisOptions::default()
        },
    )
    .synthesize_with_stats(None)
    .unwrap();
    let serial_stats = serial_stats.unwrap();
    assert_eq!(serial_stats.subtrees, 1);
    assert_eq!(serial_stats.workers, 1);
}

#[test]
fn small_max_candidates_returns_the_same_preferred_candidate() {
    let program = staged_gemm(64, 64, 32);
    let arch = GpuArch::a100();
    let full = synthesize_with(&program, &arch, true);
    assert!(full.len() > 1);
    for incremental in [false, true] {
        let options = SynthesisOptions {
            max_candidates: 1,
            incremental,
            ..SynthesisOptions::default()
        };
        let capped = Synthesizer::new(&program, &arch, options)
            .synthesize()
            .unwrap();
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0], full[0]);
    }
}
