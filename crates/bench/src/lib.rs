//! # hexcute-bench
//!
//! The reproduction harness: one function per table and figure of the
//! Hexcute paper's evaluation (Section VII), each returning a formatted
//! [`Report`] with the same rows/series the paper presents. The `repro_*`
//! binaries in `src/bin/` print them; `EXPERIMENTS.md` records the measured
//! numbers next to the paper's.

#![warn(missing_docs)]

pub mod report;

pub mod ablation;
pub mod checks;
pub mod compile_time;
pub mod cost_model;
pub mod end_to_end;
pub mod fastpath;
pub mod moe_bench;
pub mod per_shape;
pub mod prune;
pub mod robustness_bench;
pub mod scan_bench;
pub mod serving_bench;
pub mod table2;
pub mod tables34;
pub mod traffic;
pub mod workloads_bench;

pub use report::Report;

use hexcute_arch::GpuArch;
use hexcute_core::{CompiledKernel, Compiler};
use hexcute_ir::Program;

/// Compiles a program with the default Hexcute pipeline and returns the
/// compiled kernel (panicking on failure, which is acceptable for a harness).
pub fn compile_hexcute(program: &Program, arch: &GpuArch) -> CompiledKernel {
    Compiler::new(arch.clone())
        .compile(program)
        .unwrap_or_else(|e| panic!("failed to compile {}: {e}", program.name))
}

/// Writes `contents` to `path`, creating the parent directory first when it
/// does not exist (so `repro_* -- out/nested/BENCH.json` works instead of
/// failing with `No such file or directory`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_output(path: &str, contents: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Prints the hit/miss/eviction statistics of every memo tier the synthesis
/// pipeline maintains — the *shared* sharded maps (the cost model's
/// per-operation and whole-candidate estimates), the *lossy* thread-local
/// direct-mapped tables sitting in front of them, and the kernel-artifact
/// cache — each exercised on a small GEMM — plus the process-wide
/// worker-pool counters (jobs, items, cancelled subtrees, deaths/respawns).
/// Every `repro_*` binary calls this in its summary.
///
/// The exercise's cache-hit invariants are *verified*, not just printed:
/// the second pass must hit the per-op cost memo in *some* tier (the
/// thread-local table absorbs the warm hits before the shared map is even
/// consulted), the second compile of the unchanged program must be an
/// artifact-cache memory hit, and the warm repeat must produce a nonzero
/// lossy hit rate. A violation fails the binary through
/// [`checks::exit_if_failed`].
pub fn print_shared_cache_summary() {
    use hexcute_parallel::lossy::{self, LossyPurpose};

    let lossy_before: Vec<_> = lossy::LOSSY_PURPOSES
        .iter()
        .map(|&p| lossy::lossy_stats(p))
        .collect();
    let (op_costs, candidate_costs) = fastpath::shared_cache_stats();
    let artifacts = fastpath::artifact_cache_stats();
    let lossy_delta = |purpose: LossyPurpose| {
        let before = lossy_before[purpose.index()];
        let after = lossy::lossy_stats(purpose);
        hexcute_parallel::cache::CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            entries: after.entries,
        }
    };
    println!("\nShared cache behaviour (synthetic small-GEMM exercise, two passes each):");
    println!("  per-op cost estimates:     {op_costs}");
    println!("  whole-candidate estimates: {candidate_costs}");
    println!("  kernel artifacts:          {artifacts}");
    println!(
        "Worker pool (process lifetime): {}",
        hexcute_parallel::pool_stats()
    );
    println!("Lossy direct-mapped front tier (this exercise only):");
    let mut lossy_exercise = hexcute_parallel::cache::CacheStats::default();
    for &purpose in &lossy::LOSSY_PURPOSES {
        let delta = lossy_delta(purpose);
        println!("  {:<26} {delta}", format!("{}:", purpose.label()));
        lossy_exercise = lossy_exercise.merged(&delta);
    }
    let lossy_ops = lossy_delta(LossyPurpose::OpCost);
    checks::check(
        op_costs.hits + lossy_ops.hits > 0,
        "the second scoring pass produced no per-op cost-cache hits in either tier",
    );
    checks::check(
        artifacts.memory.hits >= 1,
        "the second compile of an unchanged program was not an artifact-cache hit",
    );
    checks::check(
        lossy_exercise.hits > 0,
        "the warm repeat produced no lossy-memo hits",
    );
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn write_output_creates_missing_directories() {
        let dir = std::env::temp_dir().join(format!("hexcute-write-output-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("BENCH_test.json");
        write_output(path.to_str().unwrap(), "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        // Bare filenames (no parent) keep working too.
        write_output("BENCH_write_output_test.tmp", "x").unwrap();
        std::fs::remove_file("BENCH_write_output_test.tmp").ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
