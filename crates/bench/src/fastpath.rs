//! Before/after measurements selected by per-call options, and the shared
//! measurement helpers of the `repro_*` binaries.
//!
//! Each entry times a baseline and an improved configuration in one
//! process: the re-evaluating search against the incremental one
//! ([`synthesis_incremental_entries`], `repro_incremental`) and the serial
//! walk against the parallel subtree walk ([`synthesis_parallel_entries`],
//! `repro_parallel`). Both sides are chosen through
//! [`SynthesisOptions`], never through process-wide state.

use std::collections::HashMap;
use std::time::Instant;

use hexcute_arch::{DType, GpuArch};
use hexcute_core::{Compiler, CompilerOptions};
use hexcute_ir::{KernelBuilder, Program};
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_layout::Layout;
use hexcute_synthesis::{SynthesisOptions, Synthesizer};

use crate::report::Report;

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct FastPathEntry {
    /// Benchmark group (e.g. `synthesis_incremental`).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median nanoseconds per iteration of the baseline configuration.
    pub reference_ns: f64,
    /// Median nanoseconds per iteration of the improved configuration.
    pub fast_ns: f64,
}

impl FastPathEntry {
    /// Reference time over fast time.
    pub fn speedup(&self) -> f64 {
        if self.fast_ns > 0.0 {
            self.reference_ns / self.fast_ns
        } else {
            0.0
        }
    }
}

/// Median nanoseconds per iteration of `f`, measured over `samples` samples
/// sized to roughly `sample_ms` milliseconds each.
pub fn measure_ns<F: FnMut()>(mut f: F, samples: usize, sample_ms: f64) -> f64 {
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    let mut warm = 0u64;
    while start.elapsed().as_secs_f64() < 0.05 || warm < 3 {
        f();
        warm += 1;
        if warm >= 1_000_000 {
            break;
        }
    }
    let per_iter = start.elapsed().as_secs_f64() / warm as f64;
    let iters = ((sample_ms / 1e3 / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        medians.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

fn small_gemm_program() -> hexcute_ir::Program {
    let (m, n, k) = (64usize, 64usize, 64usize);
    let mut kb = KernelBuilder::new("bench_gemm", 128);
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

/// Measures `f(false)` (incremental evaluation off, re-evaluating every
/// candidate from scratch) against `f(true)` (the shared-prefix incremental
/// search).
fn incremental_before_after<F: FnMut(bool)>(name: &str, mut f: F) -> FastPathEntry {
    let reference_ns = measure_ns(|| f(false), 5, 20.0);
    let fast_ns = measure_ns(|| f(true), 5, 20.0);
    FastPathEntry {
        group: "synthesis_incremental".to_string(),
        name: name.to_string(),
        reference_ns,
        fast_ns,
    }
}

/// The incremental prefix-shared search group (PR 2): end-to-end candidate
/// synthesis and cost-ranked compilation of the paper's kernel families,
/// with the incremental evaluation toggled via
/// [`SynthesisOptions::incremental`]. Feeds `BENCH_pr2.json`.
pub fn synthesis_incremental_entries() -> Vec<FastPathEntry> {
    let arch = GpuArch::a100();
    let gemm = fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default()).unwrap();
    let attention = mha_forward(
        AttentionShape::forward(8, 32, 2048, 128),
        AttentionConfig::default(),
    )
    .unwrap();
    let moe = mixed_type_moe(
        MoeShape::deepseek_r1(128),
        MoeConfig::default(),
        MoeDataflow::Efficient,
    )
    .unwrap();

    let options_with = |incremental: bool| SynthesisOptions {
        incremental,
        ..SynthesisOptions::default()
    };
    let synthesize_entry = |name: &str, program: &Program| {
        incremental_before_after(name, |incremental| {
            std::hint::black_box(
                Synthesizer::new(program, &arch, options_with(incremental))
                    .synthesize()
                    .unwrap(),
            );
        })
    };
    let compile_entry = |name: &str, program: &Program| {
        incremental_before_after(name, |incremental| {
            let compiler = Compiler::with_options(
                arch.clone(),
                CompilerOptions {
                    synthesis: options_with(incremental),
                    use_cost_model: true,
                },
            );
            std::hint::black_box(compiler.compile(program).unwrap());
        })
    };

    vec![
        synthesize_entry("gemm_synthesize_all_candidates", &gemm),
        synthesize_entry("attention_synthesize_all_candidates", &attention),
        synthesize_entry("moe_synthesize_all_candidates", &moe),
        compile_entry("gemm_compile_uncached", &gemm),
        compile_entry("attention_compile_uncached", &attention),
        compile_entry("moe_compile_uncached", &moe),
    ]
}

/// The serial-incremental options: the PR 2 behaviour (incremental walk, one
/// worker, no subtree split) — the baseline the parallel search is measured
/// against.
fn serial_incremental_options() -> SynthesisOptions {
    SynthesisOptions {
        incremental: true,
        parallel_subtree_depth: Some(0),
        parallel_workers: Some(1),
        ..SynthesisOptions::default()
    }
}

/// Options for the parallel subtree walk at an explicit worker count
/// (auto-tuned split depth).
fn parallel_options(workers: usize) -> SynthesisOptions {
    SynthesisOptions {
        incremental: true,
        parallel_subtree_depth: None,
        parallel_workers: Some(workers),
        ..SynthesisOptions::default()
    }
}

/// Worker counts for the scaling curve: 1, 2, 4 and the machine's
/// `HEXCUTE_THREADS`/auto count when that adds a new point.
pub fn scaling_worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    let n = hexcute_parallel::worker_count();
    if !counts.contains(&n) {
        counts.push(n);
    }
    counts.sort_unstable();
    counts
}

/// The parallel prefix-tree search group (PR 3): end-to-end candidate
/// synthesis and cost-ranked compilation of the paper's kernel families,
/// comparing the PR 2 serial-incremental walk against the parallel subtree
/// walk at 1/2/4/N workers. One group per worker count
/// (`synthesis_parallel_w{N}`), so each group's geomean is one point of the
/// scaling curve. Feeds `BENCH_pr3.json` via the `repro_parallel` binary.
pub fn synthesis_parallel_entries() -> Vec<FastPathEntry> {
    let arch = GpuArch::a100();
    let gemm = fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default()).unwrap();
    let attention = mha_forward(
        AttentionShape::forward(8, 32, 2048, 128),
        AttentionConfig::default(),
    )
    .unwrap();
    let moe = mixed_type_moe(
        MoeShape::deepseek_r1(128),
        MoeConfig::default(),
        MoeDataflow::Efficient,
    )
    .unwrap();
    let kernels: [(&str, &Program); 3] =
        [("gemm", &gemm), ("attention", &attention), ("moe", &moe)];

    let synthesize_with = |program: &Program, options: SynthesisOptions| {
        std::hint::black_box(
            Synthesizer::new(program, &arch, options)
                .synthesize()
                .unwrap(),
        );
    };
    let compile_with = |program: &Program, options: SynthesisOptions| {
        let compiler = Compiler::with_options(
            arch.clone(),
            CompilerOptions {
                synthesis: options,
                use_cost_model: true,
            },
        );
        std::hint::black_box(compiler.compile(program).unwrap());
    };

    let mut entries = Vec::new();
    for (kernel, program) in kernels {
        // The serial baseline is measured once per kernel and shared by
        // every worker-count entry, so the curve has a common denominator.
        let serial_synthesize_ns = measure_ns(
            || synthesize_with(program, serial_incremental_options()),
            5,
            20.0,
        );
        let serial_compile_ns = measure_ns(
            || compile_with(program, serial_incremental_options()),
            5,
            20.0,
        );
        for &workers in &scaling_worker_counts() {
            let group = format!("synthesis_parallel_w{workers}");
            entries.push(FastPathEntry {
                group: group.clone(),
                name: format!("{kernel}_synthesize_all_candidates"),
                reference_ns: serial_synthesize_ns,
                fast_ns: measure_ns(
                    || synthesize_with(program, parallel_options(workers)),
                    5,
                    20.0,
                ),
            });
            entries.push(FastPathEntry {
                group,
                name: format!("{kernel}_compile_uncached"),
                reference_ns: serial_compile_ns,
                fast_ns: measure_ns(|| compile_with(program, parallel_options(workers)), 5, 20.0),
            });
        }
    }
    entries
}

/// Exercises the cost model's shared caches once (sibling candidates of a
/// small GEMM scored twice through one model) and returns their
/// hit/miss/eviction counters: the per-operation cache and the bounded
/// whole-candidate cache. Printed by the `repro_*` binaries.
pub fn shared_cache_stats() -> (
    hexcute_parallel::cache::CacheStats,
    hexcute_parallel::cache::CacheStats,
) {
    let arch = GpuArch::a100();
    let program = small_gemm_program();
    let candidates = Synthesizer::new(&program, &arch, SynthesisOptions::default())
        .synthesize()
        .unwrap();
    let model = hexcute_costmodel::CostModel::new(&arch);
    for _ in 0..2 {
        for candidate in &candidates {
            std::hint::black_box(model.estimate(&program, candidate));
        }
    }
    (model.op_cache_stats(), model.candidate_cache_stats())
}

/// Exercises a (memory-only) kernel-artifact cache once — a small GEMM
/// compiled twice through [`hexcute_core::KernelCache`] — and returns its
/// counters. Printed by the `repro_*` binaries alongside
/// [`shared_cache_stats`].
pub fn artifact_cache_stats() -> hexcute_core::KernelCacheStats {
    let arch = GpuArch::a100();
    let program = small_gemm_program();
    let cache = hexcute_core::KernelCache::new(hexcute_core::KernelCacheConfig::default());
    let compiler = Compiler::new(arch);
    for _ in 0..2 {
        std::hint::black_box(
            compiler
                .compile_with_cache(&program, &cache)
                .expect("small GEMM compiles"),
        );
    }
    cache.stats()
}

/// Geometric-mean speedup per group, in deterministic group order.
pub fn group_speedups(entries: &[FastPathEntry]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_group: HashMap<String, Vec<f64>> = HashMap::new();
    for e in entries {
        if !by_group.contains_key(&e.group) {
            order.push(e.group.clone());
        }
        by_group
            .entry(e.group.clone())
            .or_default()
            .push(e.speedup());
    }
    order
        .into_iter()
        .map(|g| {
            let v = &by_group[&g];
            (g, crate::geomean(v))
        })
        .collect()
}

/// Formats the entries as a human-readable report.
pub fn as_report(entries: &[FastPathEntry]) -> Report {
    let mut report = Report::new(
        "Before/after",
        &["group", "benchmark", "reference", "fast", "speedup"],
    );
    for e in entries {
        report.push_row(vec![
            e.group.clone(),
            e.name.clone(),
            format_ns(e.reference_ns),
            format_ns(e.fast_ns),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    for (group, speedup) in group_speedups(entries) {
        report.push_note(format!("{group}: geomean speedup {speedup:.2}x"));
    }
    report
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Serializes the entries (plus per-group geomeans) as a JSON document
/// under the top-level benchmark name `benchmark`. The document carries a `meta` object recording the worker configuration and host the
/// numbers were measured on (`threads` is the effective
/// `HEXCUTE_THREADS`/auto count).
pub fn to_json_named(benchmark: &str, entries: &[FastPathEntry]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"meta\": {{\n    \
         \"threads\": {},\n    \"host_parallelism\": {},\n    \"os\": \"{}\",\n    \
         \"arch\": \"{}\"\n  }},\n  \"groups\": {{\n",
        hexcute_parallel::worker_count(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    let groups = group_speedups(entries);
    for (gi, (group, speedup)) in groups.iter().enumerate() {
        out.push_str(&format!(
            "    \"{group}\": {{\n      \"geomean_speedup\": {speedup:.3},\n      \"entries\": [\n"
        ));
        let members: Vec<&FastPathEntry> = entries.iter().filter(|e| &e.group == group).collect();
        for (i, e) in members.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"reference_ns\": {:.1}, \"fast_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
                e.name,
                e.reference_ns,
                e.fast_ns,
                e.speedup(),
                if i + 1 == members.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if gi + 1 == groups.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes [`to_json_named`] to `path`, creating the parent directory if
/// missing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json_named(
    path: &str,
    benchmark: &str,
    entries: &[FastPathEntry],
) -> std::io::Result<()> {
    crate::write_output(path, &to_json_named(benchmark, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_returns_positive_medians() {
        let ns = measure_ns(
            || {
                std::hint::black_box((0..100u64).sum::<u64>());
            },
            3,
            1.0,
        );
        assert!(ns > 0.0);
    }

    #[test]
    fn json_round_trip_contains_groups_and_speedups() {
        let entries = vec![
            FastPathEntry {
                group: "layout_algebra".into(),
                name: "compose".into(),
                reference_ns: 900.0,
                fast_ns: 100.0,
            },
            FastPathEntry {
                group: "simulation".into(),
                name: "gemm".into(),
                reference_ns: 5000.0,
                fast_ns: 1000.0,
            },
        ];
        let json = to_json_named("test", &entries);
        assert!(json.contains("\"layout_algebra\""));
        assert!(json.contains("\"geomean_speedup\": 9.000"));
        assert!(json.contains("\"geomean_speedup\": 5.000"));
        let report = as_report(&entries);
        assert!(report.to_string().contains("9.00x"));
        let speedups = group_speedups(&entries);
        assert_eq!(speedups.len(), 2);
        assert_eq!(speedups[0].0, "layout_algebra");
    }
}
