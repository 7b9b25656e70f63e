//! Cold vs. warm serving throughput over the kernel-artifact cache.
//!
//! Reproduces the deployment half of the paper's Fig. 13 setting: a
//! vLLM-style server compiles the same few dozen kernels on every process
//! start. The harness replays one request stream (every model × batch size
//! of the Fig. 13 configurations) three times against a disk-backed
//! [`CompileService`]:
//!
//! 1. **cold** — empty cache: every kernel is synthesized;
//! 2. **memory-warm** — same service: every kernel is an in-memory hit;
//! 3. **disk-warm** — a *fresh* service over the same cache directory
//!    (a simulated process restart): every kernel is loaded from disk.
//!
//! The entries feed `BENCH_pr4.json` via the `repro_serving` binary
//! (`reference_ns` = cold, `fast_ns` = warm, so each group's geomean is the
//! warm-over-cold speedup).

use std::path::Path;
use std::time::Instant;

use hexcute_arch::GpuArch;
use hexcute_core::CompilerOptions;
use hexcute_core::KernelCacheConfig;
use hexcute_e2e::{
    decode_latency_ms_with, CompileService, DecodeReport, KernelBackend, ModelConfig,
};

use crate::fastpath::FastPathEntry;

/// The request stream: one decode-step estimate per (model, batch size).
/// Batch size changes the kernel shapes, so each pair is a distinct set of
/// artifact fingerprints.
fn request_matrix() -> Vec<(ModelConfig, usize)> {
    let models = [
        ModelConfig::deepseek_r1_awq(),
        ModelConfig::jamba_mini(),
        ModelConfig::qwen3_32b(),
        ModelConfig::llama3_70b_awq(),
        ModelConfig::mixtral_8x7b(),
    ];
    let batches = [1usize, 8];
    models
        .iter()
        .flat_map(|m| batches.iter().map(move |b| (m.clone(), *b)))
        .collect()
}

fn short_name(model: &ModelConfig) -> String {
    model
        .name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Serves the whole request stream once, returning per-request wall times
/// (ns) and the reports (used to check warm results are bit-identical).
fn serve_pass(service: &CompileService) -> (Vec<f64>, Vec<DecodeReport>) {
    let mut times = Vec::new();
    let mut reports = Vec::new();
    for (model, batch) in request_matrix() {
        let start = Instant::now();
        let report = decode_latency_ms_with(&model, KernelBackend::Hexcute, batch, 2048, service);
        times.push(start.elapsed().as_secs_f64() * 1e9);
        reports.push(report);
    }
    (times, reports)
}

/// Runs the cold / memory-warm / disk-warm passes against `cache_dir` and
/// returns the bench entries plus human-readable summary notes (throughput
/// and the stats of every shared cache involved). Panics if a warm pass
/// reports different latencies than the cold pass — the cache must be
/// bit-identical to synthesis.
pub fn serving_entries(cache_dir: &Path) -> (Vec<FastPathEntry>, Vec<String>) {
    let arch = GpuArch::h100();
    let config = KernelCacheConfig {
        dir: Some(cache_dir.to_path_buf()),
        ..KernelCacheConfig::default()
    };
    let service = CompileService::with_config(arch.clone(), CompilerOptions::new(), config.clone());

    let cold_start = Instant::now();
    let (cold_ns, cold_reports) = serve_pass(&service);
    let cold_total = cold_start.elapsed().as_secs_f64();
    assert!(
        service.stats().syntheses > 0,
        "the cold pass served entirely from a pre-populated cache at {} — \
         point the harness at a fresh directory for a valid cold measurement",
        cache_dir.display()
    );

    let warm_start = Instant::now();
    let (warm_ns, warm_reports) = serve_pass(&service);
    let warm_total = warm_start.elapsed().as_secs_f64();
    assert_eq!(
        cold_reports, warm_reports,
        "memory-warm serving must be bit-identical to cold serving"
    );

    // A fresh service over the same directory simulates a process restart:
    // the memory front is empty, every artifact loads from disk.
    let restarted = CompileService::with_config(arch, CompilerOptions::new(), config);
    let disk_start = Instant::now();
    let (disk_ns, disk_reports) = serve_pass(&restarted);
    let disk_total = disk_start.elapsed().as_secs_f64();
    assert_eq!(
        cold_reports, disk_reports,
        "disk-warm serving must be bit-identical to cold serving"
    );
    assert_eq!(
        restarted.stats().syntheses,
        0,
        "a warm restart must serve entirely from the artifact cache"
    );

    let mut entries = Vec::new();
    for (i, (model, batch)) in request_matrix().into_iter().enumerate() {
        let name = format!("{}_b{batch}", short_name(&model));
        entries.push(FastPathEntry {
            group: "serving_warm_memory".to_string(),
            name: name.clone(),
            reference_ns: cold_ns[i],
            fast_ns: warm_ns[i],
        });
        entries.push(FastPathEntry {
            group: "serving_warm_disk".to_string(),
            name,
            reference_ns: cold_ns[i],
            fast_ns: disk_ns[i],
        });
    }

    let n = cold_ns.len() as f64;
    let notes = vec![
        format!(
            "throughput: cold {:.2} req/s, memory-warm {:.2} req/s, disk-warm (restart) {:.2} req/s",
            n / cold_total.max(1e-9),
            n / warm_total.max(1e-9),
            n / disk_total.max(1e-9),
        ),
        format!("serving service: {}", service.stats()),
        format!("restarted service: {}", restarted.stats()),
    ];
    (entries, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serving_harness_reports_warm_speedups_and_cleans_up() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hexcute-serving-bench-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let (entries, notes) = serving_entries(&dir);
        // 10 requests (5 models × 2 batch sizes) × 2 warm variants.
        assert_eq!(entries.len(), 20);
        assert!(entries
            .iter()
            .all(|e| e.reference_ns > 0.0 && e.fast_ns > 0.0));
        assert!(notes.iter().any(|n| n.contains("throughput")));
        // The cache directory was populated by the cold pass.
        assert!(std::fs::read_dir(&dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false));
        std::fs::remove_dir_all(&dir).ok();
    }
}
