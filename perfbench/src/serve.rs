//! The `serve-decode` workload: an open loop of `CompileService::compile_as`
//! requests for decode-step programs at a fixed rate, over a disk-backed
//! artifact cache whose memory tier holds a small part of what its disk
//! holds.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hexcute_core::{Compiler, CompilerOptions, KernelArtifact, KernelCache, KernelCacheConfig};
use hexcute_e2e::{
    decode_step_programs, CompileService, ModelConfig, Priority, ServedFrom, ServiceConfig,
    TenantId,
};
use hexcute_ir::Program;

use crate::compile::LayerCounters;
use crate::draws::{Arch, Rng, Rounds};
use crate::report::{
    geomean, json_string, peak_rss_mb, quantile, ratio, windowed, Metrics, Outcome,
};
use crate::staged::{same_bits, set_stage_metrics, traced_compile, TraceError, COVERAGE_TOLERANCE};
use crate::Params;

/// Offered load, requests per second.
const RATE: f64 = 1000.0;
/// Client threads sending the schedule (the host's core count).
const CLIENTS: usize = 2;
const TENANTS: u32 = 8;
/// Share of decode steps sent as `Priority::Background`.
const BACKGROUND_SHARE: f64 = 0.10;

/// Batch sizes a decode step is padded to: vLLM's default CUDA-graph
/// capture sizes, 1, 2, 4 and every multiple of 8 up to 256
/// (`_BATCH_SIZES_TO_CAPTURE` in vLLM's GPU model runner).
fn batch_buckets() -> Vec<usize> {
    [1, 2, 4].into_iter().chain((8..=256).step_by(8)).collect()
}

/// Batch sizes above the largest capture size run unpadded, at their exact
/// size. An uncaptured step takes a size from this range that the run has
/// not sent for its model before, so its programs are new. Assumed: a
/// server admitting up to 1024 sequences at once.
const UNCAPTURED: std::ops::RangeInclusive<usize> = 257..=1024;

/// Equal slices of [`UNCAPTURED`] that uncaptured sizes are stratified over.
const UNCAPTURED_SLICES: usize = 8;

/// Context-length buckets, equally likely. Only the hybrid model's
/// selective scan depends on the sequence length. Assumed, not taken from
/// a source.
const SEQ_BUCKETS: [usize; 4] = [1024, 2048, 4096, 8192];

/// One decode step in this many has an uncaptured batch size: the few
/// percent of never-seen keys the workload calls for. Assumed, not
/// measured.
const UNCAPTURED_EVERY: usize = 32;

/// Zipf exponent of batch-size popularity: the classic exponent 1,
/// assumed, not measured.
const ZIPF_S: f64 = 1.0;

/// Seed of the fixed shuffle that ranks each model's capture sizes by
/// popularity. Which sizes are popular is not known, so the order is
/// arbitrary, but it is the same in every run.
const POPULARITY_ORDER_SEED: u64 = 0x706f_7075_6c61_7220;

/// Memory-tier capacity in artifacts, about a fourteenth of the ~230
/// programs of the captured steps that fill the disk tier. With 32, about
/// 40% of requests hit memory and `serve_ms.p50` sat on the edge between
/// memory and disk hits; with 16 about 30% do, so the median request is a
/// disk hit, the path artifact decoding is on.
const MEMORY_CAPACITY: usize = 16;

/// Directory for this process's cache directories, inside the working
/// directory; removed when the run ends.
fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(std::process::id().to_string())
}

/// Removes a directory tree when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent().filter(|p| p.ends_with(".perfbench_tmp")) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn models() -> Vec<ModelConfig> {
    vec![
        ModelConfig::deepseek_r1_awq(),
        ModelConfig::jamba_mini(),
        ModelConfig::llama3_70b_awq(),
        ModelConfig::mixtral_8x7b(),
        ModelConfig::qwen3_32b(),
    ]
}

/// One request of the schedule.
#[derive(Debug, Clone, Copy)]
struct Request {
    program: usize,
    priority: Priority,
    tenant: TenantId,
    model: usize,
}

/// The seeded key space and request schedule.
struct Plan {
    programs: Vec<Program>,
    fingerprints: Vec<u64>,
    /// Program indices of the captured steps (the disk fill).
    captured: Vec<usize>,
    requests: Vec<Request>,
    model_names: Vec<String>,
}

/// Interns decode-step programs by artifact fingerprint.
struct KeySpace<'a> {
    compiler: &'a Compiler,
    models: Vec<ModelConfig>,
    programs: Vec<Program>,
    fingerprints: Vec<u64>,
    by_fingerprint: HashMap<u64, usize>,
}

impl KeySpace<'_> {
    /// Program indices of one decode step.
    fn step(&mut self, model: usize, batch: usize, seq_len: usize) -> Vec<usize> {
        decode_step_programs(&self.models[model], batch, seq_len)
            .into_iter()
            .map(|program| {
                let fp = self.compiler.artifact_fingerprint(&program);
                *self.by_fingerprint.entry(fp).or_insert_with(|| {
                    self.programs.push(program);
                    self.fingerprints.push(fp);
                    self.programs.len() - 1
                })
            })
            .collect()
    }
}

/// Cumulative Zipf(`ZIPF_S`) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

fn plan(seed: u64, requests: usize, batches: &[usize], compiler: &Compiler) -> Plan {
    let mut rng = Rng::new(seed ^ 0x7365_7276_6520_6465);
    let models = models();
    let n_models = models.len();
    let model_names = models.iter().map(|m| m.name.clone()).collect();
    let mut keys = KeySpace {
        compiler,
        models,
        programs: Vec::new(),
        fingerprints: Vec::new(),
        by_fingerprint: HashMap::new(),
    };
    // Every captured step of every model; their programs fill the disk.
    for model in 0..n_models {
        for &batch in batches {
            for seq in SEQ_BUCKETS {
                keys.step(model, batch, seq);
            }
        }
    }
    let captured: Vec<usize> = (0..keys.programs.len()).collect();
    // Per model, the capture sizes in popularity order: a fixed shuffle,
    // the same for every seed, so the seed varies the request stream but
    // not which programs are hot.
    let mut order_rng = Rng::new(POPULARITY_ORDER_SEED);
    let popular: Vec<Vec<usize>> = (0..n_models)
        .map(|_| {
            let mut order = batches.to_vec();
            order_rng.shuffle(&mut order);
            order
        })
        .collect();
    let cdf = zipf_cdf(batches.len());

    // Decode steps visit the models in rounds, uncaptured steps in rounds of
    // their own. Every UNCAPTURED_EVERY-th step (from a seeded offset) has
    // an uncaptured batch size; the rest draw a capture size by Zipf
    // popularity. A model's uncaptured sizes visit the UNCAPTURED_SLICES
    // equal slices of the range in rounds, so their mix of small and large
    // barely depends on the seed.
    let offset = rng.below(UNCAPTURED_EVERY);
    let mut rounds = Rounds::new((0..n_models).collect());
    let mut uncaptured_rounds = Rounds::new((0..n_models).collect());
    let mut slices: Vec<Rounds> = (0..n_models)
        .map(|_| Rounds::new((0..UNCAPTURED_SLICES).collect()))
        .collect();
    let width = UNCAPTURED.clone().count() / UNCAPTURED_SLICES;
    let mut uncaptured_sent: Vec<HashSet<usize>> = vec![HashSet::new(); n_models];
    let mut schedule = Vec::with_capacity(requests + 2);
    let mut step_no = 0usize;
    while schedule.len() < requests {
        let uncaptured = step_no % UNCAPTURED_EVERY == offset;
        let model = if uncaptured {
            uncaptured_rounds.next(&mut rng)
        } else {
            rounds.next(&mut rng)
        };
        let seq = SEQ_BUCKETS[rng.below(SEQ_BUCKETS.len())];
        let batch = if uncaptured {
            let lo = UNCAPTURED.start() + slices[model].next(&mut rng) * width;
            let sent = &mut uncaptured_sent[model];
            assert!(
                sent.iter().filter(|b| (lo..lo + width).contains(b)).count() < width,
                "the run is too long for the uncaptured batch sizes"
            );
            loop {
                let batch = lo + rng.below(width);
                if sent.insert(batch) {
                    break batch;
                }
            }
        } else {
            let u = rng.unit();
            popular[model][cdf.partition_point(|&c| c < u).min(cdf.len() - 1)]
        };
        step_no += 1;
        let priority = if rng.unit() < BACKGROUND_SHARE {
            Priority::Background
        } else {
            Priority::LatencyCritical
        };
        let tenant = TenantId(rng.below(TENANTS as usize) as u32);
        for program in keys.step(model, batch, seq) {
            schedule.push(Request {
                program,
                priority,
                tenant,
                model,
            });
        }
    }
    schedule.truncate(requests);
    Plan {
        programs: keys.programs,
        fingerprints: keys.fingerprints,
        captured,
        requests: schedule,
        model_names,
    }
}

/// Compiles the captured steps' programs into a fresh cache directory on
/// the worker pool.
fn fill(plan: &Plan, dir: &Path) -> Result<(), String> {
    let cache = KernelCache::with_faults(
        KernelCacheConfig {
            dir: Some(dir.to_path_buf()),
            memory_capacity: plan.captured.len().max(1),
            disk_capacity: 1 << 16,
            ..KernelCacheConfig::default()
        },
        None,
    );
    let compiler = Compiler::new(Arch::H100.gpu());
    let results = hexcute_parallel::par_map(plan.captured.clone(), |i| -> Result<(), String> {
        let artifact = compiler
            .compile_artifact(&plan.programs[i])
            .map_err(|e| format!("disk fill compile failed: {e}"))?;
        cache.insert(Arc::new(artifact));
        Ok(())
    });
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    if cache.disk_entries() < plan.captured.len() {
        return Err(format!(
            "disk fill stored {} of {} artifacts",
            cache.disk_entries(),
            plan.captured.len()
        ));
    }
    Ok(())
}

fn service(dir: &Path, memory_capacity: usize, seed: u64) -> CompileService {
    CompileService::with_service_config(
        Arch::H100.gpu(),
        CompilerOptions::new(),
        KernelCacheConfig {
            dir: Some(dir.to_path_buf()),
            memory_capacity,
            disk_capacity: 1 << 16,
            ..KernelCacheConfig::default()
        },
        ServiceConfig {
            max_concurrent: crate::host_parallelism(),
            tenant_quota: 1,
            // Off: with speculative prefetch on, per-request latency is not
            // stationary. The Markov model predicts ever more successors as
            // the run goes on (about 11 prefetch jobs per request after
            // 10 s), so within a 30 s run the sub-window p50 rose up to 4x,
            // by a different amount for each seed.
            prefetch: false,
            seed,
            faults: None,
            ..ServiceConfig::default()
        },
    )
}

/// One answered (or failed) request; times in seconds from the first due
/// time.
struct Record {
    request: Request,
    due: f64,
    sent: f64,
    done: f64,
    /// Where the answer came from; `None` for an error.
    served: Option<ServedFrom>,
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What the client threads saw.
struct Driven {
    records: Vec<Record>,
    /// The client threads' summed layout-algebra memo (hits, misses).
    algebra: (u64, u64),
    /// The first artifact served for each program. Every later answer for
    /// the program was compared with it as it arrived.
    first: HashMap<usize, Arc<KernelArtifact>>,
    /// Answers that differed from the first one served for their program.
    mismatches: usize,
}

/// Sends the schedule from `CLIENTS` threads, request `i` due at
/// `i / rate` seconds.
fn drive(service: &CompileService, plan: &Plan, rate: f64) -> Driven {
    let t0 = Instant::now() + Duration::from_millis(5);
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    let per_client: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let before = LayerCounters::algebra_now();
                    let mut out = Driven {
                        records: Vec::new(),
                        algebra: (0, 0),
                        first: HashMap::new(),
                        mismatches: 0,
                    };
                    for i in (c..plan.requests.len()).step_by(CLIENTS) {
                        let request = plan.requests[i];
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        let result = service.compile_as(
                            &plan.programs[request.program],
                            request.priority,
                            request.tenant,
                        );
                        let done = Instant::now();
                        let served = match result {
                            Ok(r) => {
                                let first = out
                                    .first
                                    .entry(request.program)
                                    .or_insert_with(|| r.artifact.clone());
                                if !Arc::ptr_eq(first, &r.artifact) && **first != *r.artifact {
                                    out.mismatches += 1;
                                }
                                Some(r.served_from)
                            }
                            Err(e) => {
                                eprintln!("perfbench: request {i} failed: {e}");
                                None
                            }
                        };
                        out.records.push(Record {
                            request,
                            due: secs(due),
                            sent: secs(sent),
                            done: secs(done),
                            served,
                        });
                    }
                    let after = LayerCounters::algebra_now();
                    out.algebra = (after.0 - before.0, after.1 - before.1);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Driven {
        records: Vec::new(),
        algebra: (0, 0),
        first: HashMap::new(),
        mismatches: 0,
    };
    for client in per_client {
        all.records.extend(client.records);
        all.algebra.0 += client.algebra.0;
        all.algebra.1 += client.algebra.1;
        all.mismatches += client.mismatches;
        for (program, artifact) in client.first {
            let first = all.first.entry(program).or_insert_with(|| artifact.clone());
            if !same_bits(first, &artifact) {
                all.mismatches += 1;
            }
        }
    }
    all.records.sort_by(|a, b| a.due.total_cmp(&b.due));
    all
}

/// Fresh reference artifacts for `programs`, by program index. The traced
/// run compiles them stage by stage and sets the stage metrics.
fn references(
    plan: &Plan,
    programs: &[usize],
    trace: bool,
    m: &mut Metrics,
) -> Result<HashMap<usize, KernelArtifact>, String> {
    let compiler = Compiler::new(Arch::H100.gpu());
    if trace {
        let mut traced = Vec::new();
        let mut out = HashMap::new();
        for (n, &i) in programs.iter().enumerate() {
            match traced_compile(&compiler, &plan.programs[i], n.is_multiple_of(2)) {
                Ok(t) => {
                    out.insert(i, t.artifact.clone());
                    traced.push(t);
                }
                Err(TraceError::Compile(e)) => {
                    return Err(format!("reference compile failed: {e}"))
                }
                Err(TraceError::Check(msg)) => return Err(msg),
            }
        }
        let coverage = set_stage_metrics(&traced, m);
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            return Err(format!(
                "stage times cover {coverage:.3} of compile_artifact, outside 1 ± {COVERAGE_TOLERANCE}"
            ));
        }
        return Ok(out);
    }
    hexcute_parallel::par_map(programs.to_vec(), |i| {
        compiler
            .compile_artifact(&plan.programs[i])
            .map(|a| (i, a))
            .map_err(|e| format!("reference compile failed: {e}"))
    })
    .into_iter()
    .collect()
}

/// Offered rate, capture sizes and memory-tier capacity: full scale, or
/// toy scale for the self-test.
fn scale(p: &Params) -> (f64, Vec<usize>, usize) {
    if p.toy {
        (100.0, batch_buckets().into_iter().step_by(12).collect(), 4)
    } else {
        (RATE, batch_buckets(), MEMORY_CAPACITY)
    }
}

/// What the set-up leaves for the timed window.
struct Setup {
    plan: Plan,
    service: CompileService,
    /// The cache directory; dropped after the service.
    dir: TempDir,
}

/// The set-up: key space and schedule, disk fill, service.
fn set_up(p: &Params, root: &Path) -> Result<Setup, String> {
    let (rate, batches, memory_capacity) = scale(p);
    let requests = (rate * p.seconds).round().max(1.0) as usize;
    let dir = root.join("cache");
    let plan = plan(p.seed, requests, &batches, &Compiler::new(Arch::H100.gpu()));
    fill(&plan, &dir)?;
    Ok(Setup {
        plan,
        service: service(&dir, memory_capacity, p.seed),
        dir: TempDir(dir),
    })
}

/// Runs the set-up alone; its time from process start.
pub fn set_up_only(p: &Params) -> Result<f64, String> {
    let root = scratch_root();
    let _cleanup = TempDir(root.clone());
    let _setup = set_up(p, &root)?;
    Ok(p.process_start.elapsed().as_secs_f64())
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let (rate, _, memory_capacity) = scale(p);
    let root = scratch_root();
    let _cleanup = TempDir(root.clone());
    let Setup {
        plan,
        service: svc,
        dir: _dir,
    } = set_up(p, &root)?;
    let own_setup = p.process_start.elapsed().as_secs_f64();

    let before = LayerCounters::now();
    let driven = drive(&svc, &plan, rate);
    let records = &driven.records;
    let window = records.iter().map(|r| r.done).fold(0.0, f64::max);
    svc.shutdown();
    hexcute_parallel::wait_background_idle(Duration::from_secs(10));
    let stats = svc.stats();

    let mut m = Metrics::default();
    let requested: Vec<usize> = {
        let mut v: Vec<usize> = records.iter().map(|r| r.request.program).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let served: Vec<&Record> = records.iter().filter(|r| r.served.is_some()).collect();
    let failed = (records.len() - served.len()) as u64;

    // Output checks, outside the timed window: every answer equals the
    // first answer for its program (checked as answers arrived), every first
    // answer equals a fresh compile bit for bit, and nothing was
    // quarantined.
    if driven.mismatches > 0 {
        return Err(format!(
            "{} answers differ from the first answer served for their program",
            driven.mismatches
        ));
    }
    let reference = references(&plan, &requested, p.trace, &mut m)?;
    for (program, artifact) in &driven.first {
        if !same_bits(artifact, &reference[program]) {
            return Err(format!(
                "served artifact for {} differs from a fresh compile",
                plan.programs[*program].name
            ));
        }
    }
    if stats.cache.quarantined != 0 {
        return Err(format!(
            "{} cache files were quarantined",
            stats.cache.quarantined
        ));
    }
    crate::numerics::probe(p.seed)?;
    let setup_s = if p.trace {
        own_setup
    } else {
        crate::setup_s(p, own_setup)?
    };

    let from = |what: ServedFrom| -> Vec<&Record> {
        served
            .iter()
            .copied()
            .filter(|r| r.served == Some(what))
            .collect()
    };
    let ms = |rs: &[&Record], f: fn(&Record) -> f64| -> Vec<f64> {
        rs.iter().map(|r| f(r) * 1e3).collect()
    };
    let synthesized = from(ServedFrom::Synthesized);
    let memory = from(ServedFrom::Memory);
    let disk = from(ServedFrom::Disk);
    let synth_ms = ms(&synthesized, |r| r.done - r.sent);
    let span = records.len() as f64 / rate;
    let timed = |rs: &[&Record], f: fn(&Record) -> f64| -> Vec<(f64, f64)> {
        rs.iter().map(|r| (r.due, f(r) * 1e3)).collect()
    };
    let serve_ms = timed(&served, |r| r.done - r.due);
    let late_ms = ms(&records.iter().collect::<Vec<_>>(), |r| r.sent - r.due);
    let kernel_us: Vec<f64> = requested
        .iter()
        .map(|i| reference[i].latency_us())
        .collect();

    m.set("setup_s", setup_s);
    // Misses are a few percent of requests: the p90 takes the whole run, so
    // that ten samples lie beyond it.
    m.set(
        "compile_ms.p50",
        windowed(&timed(&synthesized, |r| r.done - r.sent), span, |v| {
            quantile(v, 0.5)
        }),
    );
    m.set("compile_ms.p90", quantile(&synth_ms, 0.9));
    m.set("compiles_per_s", synthesized.len() as f64 / window);
    m.set("kernel_us.geomean", geomean(&kernel_us));
    m.set(
        "serve_ms.p50",
        windowed(&serve_ms, span, |v| quantile(v, 0.5)),
    );
    m.set(
        "serve_ms.p99",
        windowed(&serve_ms, span, |v| quantile(v, 0.99)),
    );
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("error_rate", ratio(failed as f64, records.len() as f64));
    m.set(
        "cache.memory_hit_ms.p50",
        quantile(&ms(&memory, |r| r.done - r.sent), 0.5),
    );
    m.set(
        "cache.disk_hit_ms.p50",
        quantile(&ms(&disk, |r| r.done - r.sent), 0.5),
    );
    let hits = (memory.len() + disk.len()) as f64;
    m.set("cache.hit_rate", ratio(hits, records.len() as f64));
    m.set(
        "cache.memory_evictions",
        stats.cache.memory.evictions as f64,
    );
    m.set("cache.disk_stores", stats.cache.stores as f64);
    m.set("cache.quarantined", stats.cache.quarantined as f64);
    m.set("service.synth_ms.p50", quantile(&synth_ms, 0.5));
    m.set("service.syntheses", stats.syntheses as f64);
    m.set("service.coalesced", stats.coalesced as f64);
    m.set("service.max_queue_depth", stats.max_queue_depth as f64);
    m.set("service.shed", stats.shed as f64);
    m.set("service.retries", stats.retries as f64);
    m.set("service.prefetch_issued", stats.prefetch_issued as f64);
    m.set("service.prefetch_hits", stats.prefetch_hits as f64);
    m.set(
        "service.prefetch_hit_share",
        ratio(stats.prefetch_hits as f64, hits),
    );
    LayerCounters::set_metrics(&before, records.len(), driven.algebra, &mut m);
    m.set("load.late_ms.p50", quantile(&late_ms, 0.5));
    m.set("load.late_ms.p99", quantile(&late_ms, 0.99));

    print_inputs(&plan, records, memory_capacity, rate, window);
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        metrics: m,
    })
}

/// Writes the input properties of the run: request mix by model, distinct
/// fingerprints, the working set (captured programs requested) against the
/// memory tier, the offered rate, and where requests were served from (the
/// miss share is the synthesized plus coalesced share).
fn print_inputs(plan: &Plan, records: &[Record], memory_capacity: usize, rate: f64, window: f64) {
    let mut mix: BTreeMap<&str, usize> = BTreeMap::new();
    let mut sources: BTreeMap<String, usize> = BTreeMap::new();
    let mut distinct = HashSet::new();
    let mut working = HashSet::new();
    for r in records {
        if r.request.program < plan.captured.len() {
            working.insert(r.request.program);
        }
        *mix.entry(plan.model_names[r.request.model].as_str())
            .or_default() += 1;
        let source = r.served.map_or("failed".to_string(), |s| s.to_string());
        *sources.entry(source).or_default() += 1;
        distinct.insert(plan.fingerprints[r.request.program]);
    }
    let n = records.len() as f64;
    let mix = mix
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let miss = ["synthesized", "coalesced"]
        .iter()
        .map(|k| sources.get(*k).copied().unwrap_or(0))
        .sum::<usize>();
    let sources = sources
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), ratio(*v as f64, n)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "# inputs {{\"workload\": \"serve-decode\", \"loop\": \"open, {CLIENTS} client threads\", \
         \"offered_rate\": {rate}, \"achieved_rate\": {}, \"requests\": {}, \
         \"distinct_fingerprints\": {}, \"working_set\": {}, \"memory_capacity\": {memory_capacity}, \
         \"disk_fill\": {}, \"uncaptured_step_every\": {UNCAPTURED_EVERY}, \"miss_share\": {}, \
         \"served_from\": {{{sources}}}, \"model_mix\": {{{mix}}}}}",
        ratio(n, window),
        records.len(),
        distinct.len(),
        working.len(),
        plan.captured.len(),
        ratio(miss as f64, n),
    );
}
