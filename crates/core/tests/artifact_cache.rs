//! Robustness and bit-identity tests for the persistent kernel-artifact
//! cache (PR 4): a cache hit — memory or disk — must return artifacts
//! bit-identical to a fresh synthesis across all four kernel families, and
//! every defective file (corrupt, stale version, expired) must be rejected
//! and transparently re-synthesized.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hexcute_arch::GpuArch;
use hexcute_core::{
    ArtifactSource, Compiler, FaultInjector, FaultKind, FaultSpec, KernelArtifact, KernelCache,
    KernelCacheConfig, ARTIFACT_VERSION,
};
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};

fn unique_temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-artifact-cache-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn disk_config(dir: &std::path::Path) -> KernelCacheConfig {
    KernelCacheConfig {
        dir: Some(dir.to_path_buf()),
        ..KernelCacheConfig::default()
    }
}

/// One program per kernel family of the paper's evaluation.
fn kernel_families() -> Vec<(&'static str, Program)> {
    vec![
        (
            "gemm",
            fp16_gemm(GemmShape::new(512, 512, 256), GemmConfig::default()).unwrap(),
        ),
        (
            "attention",
            mha_forward(
                AttentionShape::forward(2, 8, 512, 128),
                AttentionConfig::default(),
            )
            .unwrap(),
        ),
        (
            "moe",
            mixed_type_moe(
                MoeShape::deepseek_r1(16),
                MoeConfig::default(),
                MoeDataflow::Efficient,
            )
            .unwrap(),
        ),
        (
            "mamba",
            selective_scan(ScanShape::new(4, 512, 16, 256), ScanConfig::default()).unwrap(),
        ),
        (
            "quant_gemm",
            w4a16_gemm(
                QuantGemmShape::new(16, 128, 256, 64),
                QuantGemmConfig::default(),
            )
            .unwrap(),
        ),
        (
            "grouped_gemm",
            grouped_gemm(
                &GroupedGemmShape::uniform(8, 16, 256, 512),
                GroupedGemmConfig::default(),
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_synthesis_across_families() {
    let dir = unique_temp_dir("bitident");
    let cache = KernelCache::new(disk_config(&dir));
    for (family, program) in kernel_families() {
        let arch = GpuArch::h100();
        // A reference artifact from a compiler that never touches the cache.
        let reference = Compiler::new(arch.clone())
            .compile_artifact(&program)
            .unwrap_or_else(|e| panic!("{family}: reference compilation failed: {e}"));

        // Cold: synthesized and stored.
        let (cold, source) = Compiler::new(arch.clone())
            .compile_with_cache(&program, &cache)
            .unwrap();
        assert_eq!(source, ArtifactSource::Synthesized, "{family}");
        assert_eq!(*cold, reference, "{family}: cold artifact differs");

        // Memory hit: bit-identical.
        let (mem, source) = Compiler::new(arch.clone())
            .compile_with_cache(&program, &cache)
            .unwrap();
        assert_eq!(source, ArtifactSource::Memory, "{family}");
        assert_eq!(*mem, reference, "{family}: memory hit differs");

        // Disk hit through a fresh cache over the same directory (fresh
        // memory front): the JSON round-trip must also be bit-identical —
        // including every f64 in the cost/perf breakdowns.
        let fresh = KernelCache::new(disk_config(&dir));
        let (disk, source) = Compiler::new(arch)
            .compile_with_cache(&program, &fresh)
            .unwrap();
        assert_eq!(source, ArtifactSource::Disk, "{family}");
        assert_eq!(*disk, reference, "{family}: disk hit differs");
    }
    let stats = cache.stats();
    assert_eq!(stats.stores, 6);
    assert_eq!(stats.corrupt + stats.stale_version + stats.expired, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_files_are_rejected_and_resynthesized() {
    let dir = unique_temp_dir("corrupt");
    let cache = KernelCache::new(disk_config(&dir));
    let program = fp16_gemm(GemmShape::new(256, 256, 128), GemmConfig::default()).unwrap();
    let compiler = Compiler::new(GpuArch::a100());
    let (original, _) = compiler.compile_with_cache(&program, &cache).unwrap();

    let path = cache
        .artifact_path(original.fingerprint)
        .expect("disk-backed cache has a path");
    // Current version but wrong types / missing fields: a schema reject, not
    // a stale-version one.
    let wrong_types = format!("{{\"version\": {ARTIFACT_VERSION}, \"fingerprint\": 3}}");
    for garbage in [
        "not json at all",
        "{\"version\": ", // truncated
        wrong_types.as_str(),
        "",
    ] {
        std::fs::write(&path, garbage).unwrap();
        // A fresh cache (empty memory front) must reject the file, delete
        // it, and let the compiler re-synthesize.
        let fresh = KernelCache::new(disk_config(&dir));
        let (artifact, source) = compiler.compile_with_cache(&program, &fresh).unwrap();
        assert_eq!(source, ArtifactSource::Synthesized);
        assert_eq!(*artifact, *original, "re-synthesis must be bit-identical");
        assert!(fresh.stats().corrupt >= 1, "corruption must be counted");
        // The store after re-synthesis replaced the file with a valid one.
        let healed = KernelCache::new(disk_config(&dir));
        let (_, source) = compiler.compile_with_cache(&program, &healed).unwrap();
        assert_eq!(source, ArtifactSource::Disk, "cache must self-heal");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_mismatch_is_rejected_and_resynthesized() {
    let dir = unique_temp_dir("version");
    let cache = KernelCache::new(disk_config(&dir));
    let program = fp16_gemm(GemmShape::new(256, 256, 128), GemmConfig::default()).unwrap();
    let compiler = Compiler::new(GpuArch::a100());
    let (original, _) = compiler.compile_with_cache(&program, &cache).unwrap();

    // Rewrite the stored artifact as if a future (or ancient) schema wrote
    // it: same JSON, different version number.
    let path = cache.artifact_path(original.fingerprint).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let needle = format!("\"version\": {ARTIFACT_VERSION}");
    assert!(text.contains(&needle), "artifact must carry its version");
    std::fs::write(&path, text.replace(&needle, "\"version\": 999")).unwrap();

    let fresh = KernelCache::new(disk_config(&dir));
    let (artifact, source) = compiler.compile_with_cache(&program, &fresh).unwrap();
    assert_eq!(source, ArtifactSource::Synthesized);
    assert_eq!(*artifact, *original);
    let stats = fresh.stats();
    assert_eq!(stats.stale_version, 1, "{stats}");
    assert_eq!(stats.corrupt, 0, "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ttl_expiry_forces_resynthesis() {
    let dir = unique_temp_dir("ttl");
    let config = KernelCacheConfig {
        dir: Some(dir.clone()),
        ttl: Some(Duration::ZERO), // everything is immediately stale
        ..KernelCacheConfig::default()
    };
    let program = fp16_gemm(GemmShape::new(256, 256, 128), GemmConfig::default()).unwrap();
    let compiler = Compiler::new(GpuArch::a100());
    let (original, _) = compiler
        .compile_with_cache(&program, &KernelCache::new(config.clone()))
        .unwrap();

    let expiring = KernelCache::new(config);
    let (artifact, source) = compiler.compile_with_cache(&program, &expiring).unwrap();
    assert_eq!(source, ArtifactSource::Synthesized);
    assert_eq!(*artifact, *original);
    assert_eq!(expiring.stats().expired, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_capacity_prunes_oldest_artifacts() {
    let dir = unique_temp_dir("capacity");
    let cache = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        disk_capacity: 2,
        ..KernelCacheConfig::default()
    });
    // Three distinct fingerprints: three K extents (K changes the main-loop
    // trip count; since PR 5 a different M would also fingerprint
    // differently through the grid).
    let compiler = Compiler::new(GpuArch::a100());
    for k in [128usize, 256, 512] {
        let program = fp16_gemm(GemmShape::new(256, 256, k), GemmConfig::default()).unwrap();
        compiler.compile_with_cache(&program, &cache).unwrap();
    }
    let stats = cache.stats();
    assert!(stats.disk_entries <= 2, "{stats}");
    assert!(stats.file_evictions >= 1, "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_json_round_trips_exactly() {
    let program = mha_forward(
        AttentionShape::decoding(2, 4, 256, 64),
        AttentionConfig::default(),
    )
    .unwrap();
    let artifact = Compiler::new(GpuArch::h100())
        .compile_artifact(&program)
        .unwrap();
    let round = KernelArtifact::from_json(&artifact.to_json()).unwrap();
    assert_eq!(round, artifact);
    // The artifact carries the pieces the issue requires: layouts, the
    // lowered program, the emitted pseudo-CUDA and the cost breakdown.
    assert!(!round.smem_layouts.is_empty() || !round.tv_layouts.is_empty());
    assert!(!round.lowered.is_empty());
    assert!(round.cuda.contains("__global__"));
    assert!(round.cost.total_cycles > 0.0);
    assert!(round.perf.latency_us > 0.0);
}

#[test]
fn fingerprints_sense_quant_groups_and_batch_shapes() {
    use hexcute_core::{artifact_fingerprint, CompilerOptions};
    let defaults = CompilerOptions::new();
    let h100 = GpuArch::h100();
    let fp = |program: &Program| artifact_fingerprint(program, &h100, &defaults);

    // Quantized GEMM: the group size changes the scale-tensor geometry and
    // the dequant operation, so it must change the fingerprint.
    let config = QuantGemmConfig::default();
    let g64 = w4a16_gemm(QuantGemmShape::new(16, 128, 256, 64), config).unwrap();
    let g32 = w4a16_gemm(QuantGemmShape::new(16, 128, 256, 32), config).unwrap();
    let g64_again = w4a16_gemm(QuantGemmShape::new(16, 128, 256, 64), config).unwrap();
    assert_eq!(fp(&g64), fp(&g64_again), "same shape must be stable");
    assert_ne!(
        fp(&g64),
        fp(&g32),
        "group size must fingerprint differently"
    );

    // Grouped GEMM: a different group count changes the batched tile list
    // (the grid), so it must change the fingerprint too.
    let gconfig = GroupedGemmConfig::default();
    let four = grouped_gemm(&GroupedGemmShape::uniform(4, 16, 256, 512), gconfig).unwrap();
    let eight = grouped_gemm(&GroupedGemmShape::uniform(8, 16, 256, 512), gconfig).unwrap();
    let ragged = grouped_gemm(
        &GroupedGemmShape::from_token_counts(vec![16, 16, 16, 32], 256, 512),
        gconfig,
    )
    .unwrap();
    assert_ne!(
        fp(&four),
        fp(&eight),
        "group count must fingerprint differently"
    );
    assert_ne!(
        fp(&four),
        fp(&ragged),
        "token routing must fingerprint differently"
    );
}

/// One compiler shared across the chaos tests: its internal per-kernel memo
/// makes the repeated re-syntheses forced by injected faults cheap, without
/// touching the artifact cache under test.
fn shared_compiler() -> &'static Compiler {
    static COMPILER: OnceLock<Compiler> = OnceLock::new();
    COMPILER.get_or_init(|| Compiler::new(GpuArch::h100()))
}

/// Fault-free reference artifacts for every kernel family, compiled once.
fn reference_artifacts() -> &'static Vec<(&'static str, Program, KernelArtifact)> {
    static REFS: OnceLock<Vec<(&'static str, Program, KernelArtifact)>> = OnceLock::new();
    REFS.get_or_init(|| {
        kernel_families()
            .into_iter()
            .map(|(family, program)| {
                let artifact = shared_compiler()
                    .compile_artifact(&program)
                    .unwrap_or_else(|e| panic!("{family}: reference compilation failed: {e}"));
                (family, program, artifact)
            })
            .collect()
    })
}

/// Satellite (b): a crash can leave a truncated JSON file behind. It must be
/// quarantined (renamed aside, counted) — never served, never fatal — and
/// the cache must heal itself on the next store.
#[test]
fn truncated_artifact_is_quarantined_and_healed() {
    let dir = unique_temp_dir("truncated");
    let cache = KernelCache::new(disk_config(&dir));
    let program = fp16_gemm(GemmShape::new(256, 256, 192), GemmConfig::default()).unwrap();
    let compiler = Compiler::new(GpuArch::a100());
    let (original, _) = compiler.compile_with_cache(&program, &cache).unwrap();

    // Simulate a crash mid-write: keep only the first half of the file.
    let path = cache.artifact_path(original.fingerprint).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    let fresh = KernelCache::new(disk_config(&dir));
    let (artifact, source) = compiler.compile_with_cache(&program, &fresh).unwrap();
    assert_eq!(source, ArtifactSource::Synthesized);
    assert_eq!(*artifact, *original, "re-synthesis must be bit-identical");
    let stats = fresh.stats();
    assert_eq!(stats.corrupt, 1, "{stats}");
    assert_eq!(stats.quarantined, 1, "{stats}");

    // The defective file was renamed aside, not deleted: it is available
    // for post-mortem inspection but invisible to the cache.
    let quarantined = path.with_extension("quarantined");
    assert!(quarantined.exists(), "defective file must be kept aside");
    assert!(
        path.exists(),
        "the store after re-synthesis must heal the slot"
    );

    // A healed cache serves from disk again and never reads the
    // quarantined copy.
    let healed = KernelCache::new(disk_config(&dir));
    let (served, source) = compiler.compile_with_cache(&program, &healed).unwrap();
    assert_eq!(source, ArtifactSource::Disk, "cache must self-heal");
    assert_eq!(*served, *original);
    assert_eq!(healed.stats().corrupt, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Persistent write failures trip the circuit breaker into memory-only
/// mode; once the disk recovers, a probe write closes it again.
#[test]
fn write_failures_trip_breaker_and_probe_recovers() {
    let dir = unique_temp_dir("breaker");
    let injector =
        FaultInjector::new(FaultSpec::default().with_rate(FaultKind::DiskWriteFail, 1.0));
    let config = KernelCacheConfig {
        dir: Some(dir.clone()),
        breaker_threshold: 2,
        breaker_probe_interval: Duration::from_millis(10),
        ..KernelCacheConfig::default()
    };
    let cache = KernelCache::with_faults(config, Some(injector.clone()));

    let base = reference_artifacts()
        .iter()
        .find(|(family, _, _)| *family == "gemm")
        .map(|(_, _, artifact)| artifact.clone())
        .unwrap();
    let variant = |i: u64| {
        let mut a = base.clone();
        a.fingerprint = base.fingerprint.wrapping_add(i);
        Arc::new(a)
    };

    // Two consecutive write failures reach the threshold and trip the
    // breaker; the third insert is skipped without touching the disk.
    cache.insert(variant(1));
    cache.insert(variant(2));
    cache.insert(variant(3));
    let stats = cache.stats();
    assert_eq!(stats.write_failures, 2, "{stats}");
    assert_eq!(stats.breaker_trips, 1, "{stats}");
    assert!(stats.breaker_skips >= 1, "{stats}");
    assert!(stats.breaker_open, "{stats}");
    assert_eq!(stats.stores, 0, "{stats}");
    assert_eq!(stats.disk_entries, 0, "{stats}");

    // Memory-only degradation: the front still serves what it holds.
    let (_, source) = cache.get(base.fingerprint.wrapping_add(1)).unwrap();
    assert_eq!(source, ArtifactSource::Memory);

    // Heal the disk and wait out the probe interval: the next insert is a
    // probe, succeeds, and closes the breaker.
    injector.set_enabled(false);
    std::thread::sleep(Duration::from_millis(20));
    cache.insert(variant(4));
    let stats = cache.stats();
    assert_eq!(stats.breaker_recoveries, 1, "{stats}");
    assert!(!stats.breaker_open, "{stats}");
    assert_eq!(stats.stores, 1, "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}

// Satellite (c): randomized chaos sweep. Under any mix of disk faults —
// read corruption, write failures, stale versions — every compile still
// returns an artifact bit-identical to the fault-free reference, corrupt
// files are always quarantined (never served), and the cache never
// deadlocks or errors out.
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn chaos_sweep_preserves_bit_identity(
        read_corrupt_pct in 0u32..=60,
        write_fail_pct in 0u32..=50,
        stale_pct in 0u32..=30,
        seed in 0u64..=0xFFFF_FFFF,
    ) {
        let dir = unique_temp_dir("chaos");
        let spec = FaultSpec::default()
            .with_rate(FaultKind::DiskReadCorrupt, read_corrupt_pct as f64 / 100.0)
            .with_rate(FaultKind::DiskWriteFail, write_fail_pct as f64 / 100.0)
            .with_rate(FaultKind::StaleVersion, stale_pct as f64 / 100.0)
            .with_seed(seed);
        let injector = FaultInjector::new(spec);
        let compiler = shared_compiler();

        // Pass 1: cold compiles under write faults.
        let cache = KernelCache::with_faults(disk_config(&dir), Some(injector.clone()));
        for (family, program, reference) in reference_artifacts() {
            let (artifact, _) = compiler.compile_with_cache(program, &cache).unwrap();
            proptest::prop_assert_eq!(
                &*artifact, reference,
                "{} diverged under faults (pass 1)", family
            );
        }

        // Pass 2: a fresh memory front forces disk reads under read faults.
        let fresh = KernelCache::with_faults(disk_config(&dir), Some(injector));
        for (family, program, reference) in reference_artifacts() {
            let (artifact, _) = compiler.compile_with_cache(program, &fresh).unwrap();
            proptest::prop_assert_eq!(
                &*artifact, reference,
                "{} diverged under faults (pass 2)", family
            );
        }

        // Every corrupt read was quarantined, and quarantined files are
        // invisible to the cache: re-listing the directory only counts
        // live `.json` entries.
        let stats = fresh.stats();
        proptest::prop_assert_eq!(stats.quarantined, stats.corrupt, "{}", stats);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn fingerprints_separate_programs_arches_and_options() {
    use hexcute_core::{artifact_fingerprint, CompilerOptions, SynthesisOptions};
    let gemm = fp16_gemm(GemmShape::new(256, 256, 128), GemmConfig::default()).unwrap();
    let other = fp16_gemm(GemmShape::new(256, 256, 256), GemmConfig::default()).unwrap();
    let defaults = CompilerOptions::new();
    let a100 = GpuArch::a100();
    let h100 = GpuArch::h100();

    let base = artifact_fingerprint(&gemm, &a100, &defaults);
    // Stable across calls.
    assert_eq!(base, artifact_fingerprint(&gemm, &a100, &defaults));
    // Sensitive to the program, the architecture and the options…
    assert_ne!(base, artifact_fingerprint(&other, &a100, &defaults));
    assert_ne!(base, artifact_fingerprint(&gemm, &h100, &defaults));
    let scalar = CompilerOptions {
        synthesis: SynthesisOptions::scalar_fallback(),
        ..CompilerOptions::new()
    };
    assert_ne!(base, artifact_fingerprint(&gemm, &a100, &scalar));
    // …but deliberately *not* to execution-strategy toggles, which are
    // cross-checked bit-for-bit: one artifact serves every thread count.
    let parallel = CompilerOptions {
        synthesis: SynthesisOptions {
            parallel_workers: Some(7),
            parallel_subtree_depth: Some(2),
            incremental: false,
            ..SynthesisOptions::default()
        },
        ..CompilerOptions::new()
    };
    assert_eq!(base, artifact_fingerprint(&gemm, &a100, &parallel));
}
