//! Multi-tenant bursty serving-traffic replay for the priority-aware,
//! admission-controlled compile front-end (PR 10).
//!
//! Eight tenants replay a bursty request stream — thousands of requests
//! over the per-decode-step kernels of all five Fig. 13 models, each tenant
//! cycling its model's kernels so the stream mixes cold synthesis with warm
//! hits. Roughly one request in ten rides the [`Priority::Background`]
//! class; the rest are latency-critical. Four submitter threads interleave
//! tenant bursts with short jittered lulls, so the submitters drift apart
//! and their bursts overlap in varying ways.
//!
//! Reported per class: p50/p99/p999 client-observed latency, plus the
//! queue-depth, slot-utilization and hit-rate counters that stay meaningful
//! on a 1-CPU host (they count scheduling decisions and cache tiers, not
//! wall-clock parallelism).
//!
//! Four properties are *checked* through [`crate::checks`], so the
//! `repro_serving_traffic` binary exits nonzero on violation:
//!
//! 1. **No priority inversion** — `priority_inversions == 0`: no
//!    background grant ever overtook a parked latency-critical waiter
//!    outside the periodic anti-starvation boost.
//! 2. **No starved tenant** — every tenant completes every one of its
//!    requests.
//! 3. **Bit-identical artifacts** — every served artifact equals a freshly
//!    compiled reference for its fingerprint, so priority/tenant scheduling
//!    (at any `HEXCUTE_THREADS`) never changes what is served.
//! 4. **Queue drained** — no request is left parked in the admission queue
//!    once the submitters have finished.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{Compiler, CompilerOptions, KernelArtifact, KernelCacheConfig};
use hexcute_e2e::{
    decode_step_programs, CompileService, ModelConfig, Priority, ServiceConfig, ServiceStats,
    TenantId,
};
use hexcute_ir::Program;

use crate::checks;

/// Shape of the replay; [`TrafficConfig::default`] is the committed
/// `BENCH_pr10.json` configuration, tests scale it down.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of tenants (tenant `t` replays the kernels of model
    /// `t % 5`).
    pub tenants: usize,
    /// Requests each tenant submits.
    pub requests_per_tenant: usize,
    /// Submitter threads; tenants are dealt round-robin across them.
    pub submitters: usize,
    /// Consecutive same-tenant requests per burst.
    pub burst: usize,
    /// Pause between bursts (plus up to 1 ms of jitter, so the submitters
    /// desynchronize).
    pub lull: Duration,
    /// Admission: concurrent synthesis slots.
    pub max_concurrent: usize,
    /// Per-tenant in-flight cap (0 = no quota).
    pub tenant_quota: usize,
    /// Memory-tier capacity; deliberately smaller than the distinct
    /// working set so warm entries spill to disk and the replay exercises
    /// both cache tiers.
    pub memory_capacity: usize,
    /// Percentage of requests submitted as [`Priority::Background`].
    pub background_percent: u64,
    /// Replay seed (class choice and lull jitter).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 8,
            requests_per_tenant: 250,
            submitters: 4,
            burst: 40,
            lull: Duration::from_millis(2),
            max_concurrent: 2,
            tenant_quota: 1,
            memory_capacity: 8,
            background_percent: 10,
            seed: 0x7261_ffff_5eed,
        }
    }
}

/// Per-class latency summary (client-observed, milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassLatency {
    /// Requests completed in this class.
    pub requests: u64,
    /// Median latency.
    pub p50_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// 99.9th percentile latency.
    pub p999_ms: f64,
}

/// Everything the replay measured.
#[derive(Debug, Clone)]
pub struct TrafficResult {
    /// Total requests submitted.
    pub requests: u64,
    /// Distinct kernel fingerprints in the trace.
    pub distinct: usize,
    /// Latency-critical class summary.
    pub latency_critical: ClassLatency,
    /// Background class summary.
    pub background: ClassLatency,
    /// Requests served from the memory tier.
    pub from_memory: u64,
    /// Requests served from the disk tier.
    pub from_disk: u64,
    /// Requests that ran the synthesis themselves.
    pub from_synthesis: u64,
    /// Requests that joined an in-flight synthesis.
    pub from_coalesced: u64,
    /// Cache-tier hit rate over all requests (memory + disk).
    pub hit_rate: f64,
    /// Fraction of the wall-clock × slots budget spent synthesizing — the
    /// 1-CPU-meaningful utilization figure (scheduling time, not
    /// parallel speedup).
    pub slot_utilization: f64,
    /// Served artifacts that differed from the fresh-compile reference
    /// (must be 0).
    pub mismatches: u64,
    /// Requests per second over the whole replay.
    pub requests_per_sec: f64,
    /// Replay wall-clock seconds.
    pub wall_s: f64,
    /// Service counters after the replay drained.
    pub stats: ServiceStats,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn class_summary(mut ms: Vec<f64>) -> ClassLatency {
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ClassLatency {
        requests: ms.len() as u64,
        p50_ms: percentile(&ms, 0.50),
        p99_ms: percentile(&ms, 0.99),
        p999_ms: percentile(&ms, 0.999),
    }
}

fn unique_temp_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-traffic-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The five Fig. 13 models' decode-step kernels at batch 1 and batch 8 —
/// one program list per model × batch pair; tenant `t` cycles list
/// `t % 10`, so eight tenants cover all five models and mix the batch
/// sizes.
pub fn model_kernel_lists() -> Vec<Vec<Program>> {
    let models = [
        ModelConfig::deepseek_r1_awq(),
        ModelConfig::jamba_mini(),
        ModelConfig::qwen3_32b(),
        ModelConfig::llama3_70b_awq(),
        ModelConfig::mixtral_8x7b(),
    ];
    [1usize, 8]
        .iter()
        .flat_map(|&batch| {
            models
                .iter()
                .map(move |model| decode_step_programs(model, batch, 2048))
        })
        .collect()
}

/// Replays the traffic and verifies the four checked properties.
pub fn run(config: &TrafficConfig) -> TrafficResult {
    let lists = Arc::new(model_kernel_lists());
    let dir = unique_temp_dir();
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig {
            dir: Some(dir.clone()),
            memory_capacity: config.memory_capacity,
            ..KernelCacheConfig::default()
        },
        ServiceConfig {
            max_concurrent: config.max_concurrent,
            queue_capacity: 512,
            background_queue_capacity: 512,
            tenant_quota: config.tenant_quota,
            boost_interval: 4,
            seed: 42,
            ..ServiceConfig::default()
        },
    ));

    let latencies: Arc<[Mutex<Vec<f64>>; 2]> =
        Arc::new([Mutex::new(Vec::new()), Mutex::new(Vec::new())]);
    let served: Arc<Mutex<HashMap<u64, Arc<KernelArtifact>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let tier_counts: Arc<[AtomicU64; 4]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let synth_busy_us = Arc::new(AtomicU64::new(0));
    let scheduling_mismatches = Arc::new(AtomicU64::new(0));
    let completed: Arc<Vec<AtomicU64>> =
        Arc::new((0..config.tenants).map(|_| AtomicU64::new(0)).collect());

    let barrier = Arc::new(Barrier::new(config.submitters));
    let started = Instant::now();
    let workers: Vec<_> = (0..config.submitters)
        .map(|submitter| {
            let config = config.clone();
            let lists = Arc::clone(&lists);
            let service = Arc::clone(&service);
            let latencies = Arc::clone(&latencies);
            let served = Arc::clone(&served);
            let tier_counts = Arc::clone(&tier_counts);
            let synth_busy_us = Arc::clone(&synth_busy_us);
            let scheduling_mismatches = Arc::clone(&scheduling_mismatches);
            let completed = Arc::clone(&completed);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let owned: Vec<usize> = (0..config.tenants)
                    .filter(|t| t % config.submitters == submitter)
                    .collect();
                let mut rng = config.seed ^ (submitter as u64) << 32;
                barrier.wait();
                // Each tenant's stream is consumed in bursts of consecutive
                // requests, with a lull between bursts.
                let mut next = vec![0usize; owned.len()];
                loop {
                    let mut progressed = false;
                    for (slot, &tenant) in owned.iter().enumerate() {
                        let programs = &lists[tenant % lists.len()];
                        let burst_end = (next[slot] + config.burst).min(config.requests_per_tenant);
                        for i in next[slot]..burst_end {
                            progressed = true;
                            let program = &programs[(tenant + i) % programs.len()];
                            let priority = if splitmix64(&mut rng) % 100 < config.background_percent
                            {
                                Priority::Background
                            } else {
                                Priority::LatencyCritical
                            };
                            let begin = Instant::now();
                            let response = service
                                .compile_as(program, priority, TenantId(tenant as u32))
                                .unwrap_or_else(|e| {
                                    panic!("tenant {tenant} request {i} failed: {e}")
                                });
                            let elapsed = begin.elapsed();
                            latencies[priority.index()]
                                .lock()
                                .unwrap()
                                .push(elapsed.as_secs_f64() * 1e3);
                            let tier = match response.served_from {
                                hexcute_e2e::ServedFrom::Memory => 0,
                                hexcute_e2e::ServedFrom::Disk => 1,
                                hexcute_e2e::ServedFrom::Synthesized => {
                                    synth_busy_us
                                        .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
                                    2
                                }
                                hexcute_e2e::ServedFrom::Coalesced => 3,
                            };
                            tier_counts[tier].fetch_add(1, Ordering::Relaxed);
                            let fingerprint = response.artifact.fingerprint;
                            let mut served = served.lock().unwrap();
                            match served.get(&fingerprint) {
                                Some(seen) if **seen != *response.artifact => {
                                    scheduling_mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(_) => {}
                                None => {
                                    served.insert(fingerprint, Arc::clone(&response.artifact));
                                }
                            }
                            completed[tenant].fetch_add(1, Ordering::Relaxed);
                        }
                        next[slot] = burst_end;
                        if burst_end < config.requests_per_tenant {
                            // Jittered lull so the submitters desynchronize.
                            let jitter = splitmix64(&mut rng) % 1000;
                            std::thread::sleep(config.lull + Duration::from_micros(jitter));
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("submitter threads must complete");
    }
    let wall = started.elapsed();
    let stats = service.stats();

    // Bit-identity: every served artifact must equal a fresh compile of its
    // program — scheduling (priority, tenant, thread count) must never
    // change what is served.
    let served = Arc::try_unwrap(served)
        .expect("submitters have exited")
        .into_inner()
        .unwrap();
    let reference = Compiler::new(GpuArch::h100());
    let mut mismatches = scheduling_mismatches.load(Ordering::Relaxed);
    for list in lists.iter() {
        for program in list {
            let fingerprint = reference.artifact_fingerprint(program);
            let Some(artifact) = served.get(&fingerprint) else {
                continue;
            };
            let fresh = reference
                .compile_artifact(program)
                .unwrap_or_else(|e| panic!("reference compile of {} failed: {e}", program.name));
            if **artifact != fresh {
                mismatches += 1;
            }
        }
    }

    let requests = (config.tenants * config.requests_per_tenant) as u64;
    for (tenant, count) in completed.iter().enumerate() {
        let count = count.load(Ordering::Relaxed);
        checks::check(
            count == config.requests_per_tenant as u64,
            &format!(
                "tenant {tenant} must complete all {} requests (starvation check), got {count}",
                config.requests_per_tenant
            ),
        );
    }
    checks::check(
        stats.priority_inversions == 0,
        &format!(
            "no background grant may overtake a parked latency-critical waiter \
             outside a boost, saw {}",
            stats.priority_inversions
        ),
    );
    checks::check(
        mismatches == 0,
        &format!("{mismatches} served artifacts diverged from the fresh-compile reference"),
    );
    checks::check(
        stats.queue_depth == 0,
        &format!(
            "the admission queue must drain, depth {}",
            stats.queue_depth
        ),
    );

    let [latency_ms, background_ms] = Arc::try_unwrap(latencies)
        .expect("submitters have exited")
        .map(|m| m.into_inner().unwrap());
    let from_memory = tier_counts[0].load(Ordering::Relaxed);
    let from_disk = tier_counts[1].load(Ordering::Relaxed);
    let slot_budget = wall.as_secs_f64() * config.max_concurrent.max(1) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    TrafficResult {
        requests,
        distinct: served.len(),
        latency_critical: class_summary(latency_ms),
        background: class_summary(background_ms),
        from_memory,
        from_disk,
        from_synthesis: tier_counts[2].load(Ordering::Relaxed),
        from_coalesced: tier_counts[3].load(Ordering::Relaxed),
        hit_rate: (from_memory + from_disk) as f64 / requests.max(1) as f64,
        slot_utilization: (synth_busy_us.load(Ordering::Relaxed) as f64 / 1e6) / slot_budget,
        mismatches,
        requests_per_sec: requests as f64 / wall.as_secs_f64().max(1e-9),
        wall_s: wall.as_secs_f64(),
        stats,
    }
}

/// Renders the result as the `BENCH_pr10.json` document.
pub fn to_json(config: &TrafficConfig, r: &TrafficResult) -> String {
    let class = |c: &ClassLatency| {
        format!(
            "{{ \"requests\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3} }}",
            c.requests, c.p50_ms, c.p99_ms, c.p999_ms
        )
    };
    let s = &r.stats;
    format!(
        "{{\n  \"benchmark\": \"priority-aware multi-tenant serving traffic\",\n  \
         \"meta\": {{\n    \"threads\": {},\n    \"host_parallelism\": {},\n    \
         \"os\": \"{}\",\n    \"arch\": \"{}\"\n  }},\n  \"trace\": {{\n    \
         \"tenants\": {},\n    \"requests\": {},\n    \"distinct_fingerprints\": {},\n    \
         \"background_percent\": {},\n    \"burst\": {},\n    \"seed\": {}\n  }},\n  \
         \"latency\": {{\n    \"latency_critical\": {},\n    \"background\": {}\n  }},\n  \
         \"serving\": {{\n    \"from_memory\": {},\n    \"from_disk\": {},\n    \
         \"from_synthesis\": {},\n    \"from_coalesced\": {},\n    \"hit_rate\": {:.4},\n    \
         \"slot_utilization\": {:.4},\n    \"requests_per_sec\": {:.1},\n    \
         \"wall_s\": {:.2}\n  }},\n  \"scheduling\": {{\n    \"max_queue_depth\": {},\n    \
         \"background_requests\": {},\n    \"background_boosts\": {},\n    \
         \"priority_inversions\": {},\n    \"shed\": {},\n    \"coalesced\": {},\n    \
         \"syntheses\": {}\n  }},\n  \"determinism\": {{\n    \"mismatches\": {}\n  }},\n  \
         \"checks\": {{ \"passed\": {}, \"failed\": {} }}\n}}\n",
        hexcute_parallel::worker_count(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        std::env::consts::OS,
        std::env::consts::ARCH,
        config.tenants,
        r.requests,
        r.distinct,
        config.background_percent,
        config.burst,
        config.seed,
        class(&r.latency_critical),
        class(&r.background),
        r.from_memory,
        r.from_disk,
        r.from_synthesis,
        r.from_coalesced,
        r.hit_rate,
        r.slot_utilization,
        r.requests_per_sec,
        r.wall_s,
        s.max_queue_depth,
        s.background_requests,
        s.background_boosts,
        s.priority_inversions,
        s.shed,
        s.coalesced,
        s.syntheses,
        r.mismatches,
        checks::passes(),
        checks::failures(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_down_replay_passes_its_invariants() {
        let config = TrafficConfig {
            tenants: 2,
            requests_per_tenant: 30,
            submitters: 2,
            burst: 10,
            lull: Duration::from_millis(1),
            ..TrafficConfig::default()
        };
        let before = checks::failures();
        let result = run(&config);
        assert_eq!(checks::failures(), before, "invariant checks must pass");
        assert_eq!(result.requests, 60);
        assert_eq!(result.mismatches, 0);
        assert!(result.distinct > 0);
        assert_eq!(
            result.latency_critical.requests + result.background.requests,
            60
        );
        let json = to_json(&config, &result);
        for key in [
            "\"latency_critical\"",
            "\"background\"",
            "\"p999_ms\"",
            "\"slot_utilization\"",
            "\"max_queue_depth\"",
            "\"mismatches\"",
        ] {
            assert!(json.contains(key), "JSON must contain {key}: {json}");
        }
    }
}
