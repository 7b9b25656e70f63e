//! The `compile-matmul` and `compile-fused` workloads: a closed loop of
//! cold `Compiler::compile_artifact` calls, one client thread, every
//! program distinct and never compiled before in the process.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use hexcute_core::{CompileError, Compiler, KernelArtifact};
use hexcute_ir::Program;
use hexcute_parallel::cache::CacheStats;

use crate::draws::{Arch, Draw, DrawStream, Family, STRATA};
use crate::report::{
    geomean, json_string, peak_rss_mb, quantile, ratio, windowed, windowed_rate, Metrics, Outcome,
};
use crate::staged::{
    same_bits, set_stage_metrics, traced_compile, TraceError, TracedCompile, COVERAGE_TOLERANCE,
};
use crate::{numerics, Params};

/// Draws whose chosen kernels make up `kernel_us.geomean`: the first this
/// many of the seeded sequence, so the value depends on the seed only (an
/// untraced run compiles at least this many). Twelve full Latin-hypercube
/// blocks of the larger workload's cells.
const QUALITY_DRAWS: usize = 12 * STRATA * 14;

/// Timed draws recompiled with fresh compilers after the window; the
/// artifacts must repeat bit for bit.
const RECHECK_DRAWS: usize = 8;

/// One compiler per target architecture.
struct Compilers {
    a100: Compiler,
    h100: Compiler,
}

impl Compilers {
    fn new() -> Self {
        Compilers {
            a100: Compiler::new(Arch::A100.gpu()),
            h100: Compiler::new(Arch::H100.gpu()),
        }
    }

    fn get(&self, arch: Arch) -> &Compiler {
        match arch {
            Arch::A100 => &self.a100,
            Arch::H100 => &self.h100,
        }
    }
}

/// Counters of the worker pool, the lossy memo tier and this thread's
/// layout-algebra memo, for per-layer deltas across a window.
#[derive(Debug, Clone, Copy)]
pub struct LayerCounters {
    pool_jobs: u64,
    pool_items: u64,
    lossy: CacheStats,
    algebra_hits: u64,
    algebra_misses: u64,
}

impl LayerCounters {
    pub fn now() -> Self {
        let pool = hexcute_parallel::pool_stats();
        let algebra = hexcute_layout::fastpath::cache_stats();
        LayerCounters {
            pool_jobs: pool.jobs,
            pool_items: pool.items,
            lossy: hexcute_parallel::lossy::lossy_stats_total(),
            algebra_hits: algebra.hits,
            algebra_misses: algebra.misses,
        }
    }

    /// This thread's layout-algebra memo counters only.
    pub fn algebra_now() -> (u64, u64) {
        let algebra = hexcute_layout::fastpath::cache_stats();
        (algebra.hits, algebra.misses)
    }

    /// Sets the `parallel.*` metrics (per request) and the lossy-tier hit
    /// rate from the change since `before`. `algebra` is the client
    /// threads' summed (hits, misses) change.
    pub fn set_metrics(before: &Self, requests: usize, algebra: (u64, u64), m: &mut Metrics) {
        let after = Self::now();
        let n = requests.max(1) as f64;
        m.set(
            "parallel.pool_jobs",
            (after.pool_jobs - before.pool_jobs) as f64 / n,
        );
        m.set(
            "parallel.pool_items",
            (after.pool_items - before.pool_items) as f64 / n,
        );
        let hits = (after.lossy.hits - before.lossy.hits) as f64;
        let misses = (after.lossy.misses - before.lossy.misses) as f64;
        m.set("parallel.lossy_hit_rate", ratio(hits, hits + misses));
        let (ah, am) = (algebra.0 as f64, algebra.1 as f64);
        m.set("layout.algebra_hit_rate", ratio(ah, ah + am));
    }

    pub fn algebra_since(&self) -> (u64, u64) {
        let (h, m) = Self::algebra_now();
        (h - self.algebra_hits, m - self.algebra_misses)
    }
}

/// One timed compile.
struct Record {
    family: Family,
    arch: Arch,
    tile_key: String,
    /// Completion time, seconds from the start of the timed loop.
    done: f64,
    latency: f64,
    /// The chosen kernel's estimated latency; `None` for a failed compile.
    kernel_us: Option<f64>,
    /// The program and its artifact, kept for the first [`RECHECK_DRAWS`]
    /// successful compiles only.
    recheck: Option<(Program, KernelArtifact)>,
}

/// The next draw whose fingerprint was never compiled in this process.
fn fresh_draw(stream: &mut DrawStream, compilers: &Compilers, seen: &mut HashSet<u64>) -> Draw {
    loop {
        let draw = stream.next_draw();
        if seen.insert(compilers.get(draw.arch).artifact_fingerprint(&draw.program)) {
            return draw;
        }
    }
}

/// The set-up: compilers, the seeded draw stream, and one warm-up compile
/// per cell (programs the timed loop then never draws).
fn set_up(
    workload: &str,
    seed: u64,
    seen: &mut HashSet<u64>,
) -> Result<(Compilers, DrawStream, Vec<String>), String> {
    let compilers = Compilers::new();
    let stream = DrawStream::new(workload, seed);
    let mut warm_keys = Vec::new();
    for draw in stream.warmup_draws() {
        let compiler = compilers.get(draw.arch);
        seen.insert(compiler.artifact_fingerprint(&draw.program));
        compiler
            .compile_artifact(&draw.program)
            .map_err(|e| format!("warm-up compile of {} failed: {e}", draw.tile_key))?;
        warm_keys.push(draw.tile_key);
    }
    Ok((compilers, stream, warm_keys))
}

/// Runs the set-up alone; its time from process start.
pub fn set_up_only(workload: &str, p: &Params) -> Result<f64, String> {
    let _state = set_up(workload, p.seed, &mut HashSet::new())?;
    Ok(p.process_start.elapsed().as_secs_f64())
}

pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    let mut seen = HashSet::new();
    let (compilers, mut stream, warm_keys) = set_up(workload, p.seed, &mut seen)?;
    let own_setup = p.process_start.elapsed().as_secs_f64();

    let quality_draws = match (p.toy, p.trace) {
        (_, true) => 0,
        (true, false) => stream.round_len(),
        (false, false) => QUALITY_DRAWS,
    };
    let before = LayerCounters::now();
    let mut records: Vec<Record> = Vec::new();
    let mut traced: Vec<TracedCompile> = Vec::new();
    let mut failed = 0u64;
    let mut recheck_kept = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < p.seconds || records.len() < quality_draws {
        let draw = fresh_draw(&mut stream, &compilers, &mut seen);
        let compiler = compilers.get(draw.arch);
        let (latency, result) = if p.trace {
            match traced_compile(compiler, &draw.program, records.len().is_multiple_of(2)) {
                Ok(t) => {
                    let out = (t.whole, Ok(t.artifact.clone()));
                    traced.push(t);
                    out
                }
                Err(TraceError::Compile(e)) => (0.0, Err(e)),
                Err(TraceError::Check(msg)) => return Err(msg),
            }
        } else {
            let t = Instant::now();
            let result = compiler.compile_artifact(&draw.program);
            (t.elapsed().as_secs_f64(), result)
        };
        let done = start.elapsed().as_secs_f64();
        let (kernel_us, recheck) = match result {
            Ok(a) => {
                let keep = recheck_kept < RECHECK_DRAWS;
                recheck_kept += usize::from(keep);
                (Some(a.latency_us()), keep.then_some((draw.program, a)))
            }
            Err(e) => {
                report_failure(&draw, &e);
                failed += 1;
                (None, None)
            }
        };
        records.push(Record {
            family: draw.family,
            arch: draw.arch,
            tile_key: draw.tile_key,
            done,
            latency,
            kernel_us,
            recheck,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let algebra = before.algebra_since();

    // Output checks, outside the timed window.
    recheck(&records)?;
    numerics::probe(p.seed)?;
    let setup_s = if p.trace {
        own_setup
    } else {
        crate::setup_s(p, own_setup)?
    };

    let ok: Vec<&Record> = records.iter().filter(|r| r.kernel_us.is_some()).collect();
    let latencies_ms: Vec<f64> = ok.iter().map(|r| r.latency * 1e3).collect();
    let timed_ms: Vec<(f64, f64)> = ok.iter().map(|r| (r.done, r.latency * 1e3)).collect();
    let p50 = windowed(&timed_ms, wall, |ms| quantile(ms, 0.5));
    let kernel_us: Vec<f64> = records[..quality_draws]
        .iter()
        .filter_map(|r| r.kernel_us)
        .collect();
    print_inputs(workload, &records, &warm_keys, quality_draws);

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("compile_ms.p50", p50);
    m.set(
        "compile_ms.p90",
        windowed(&timed_ms, wall, |ms| quantile(ms, 0.9)),
    );
    m.set(
        "compiles_per_s",
        windowed_rate(&ok.iter().map(|r| r.done).collect::<Vec<_>>(), wall),
    );
    m.set("kernel_us.geomean", geomean(&kernel_us));
    // Closed loop: each request is sent when the previous one returns, so
    // it is due when sent and its latency is the compile latency. The p99
    // needs every sample of the run to have ten beyond it.
    m.set("serve_ms.p50", p50);
    m.set("serve_ms.p99", quantile(&latencies_ms, 0.99));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("error_rate", ratio(failed as f64, records.len() as f64));
    LayerCounters::set_metrics(&before, records.len(), algebra, &mut m);
    if p.trace {
        let coverage = set_stage_metrics(&traced, &mut m);
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            return Err(format!(
                "stage times cover {coverage:.3} of compile_artifact, outside 1 ± {COVERAGE_TOLERANCE}"
            ));
        }
    }
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        metrics: m,
    })
}

fn report_failure(draw: &Draw, e: &CompileError) {
    eprintln!(
        "perfbench: compile of {} ({}) failed: {e}",
        draw.tile_key, draw.program.name
    );
}

/// Recompiles the first timed programs with fresh compilers: compiles are
/// deterministic, so the artifacts must repeat bit for bit.
fn recheck(records: &[Record]) -> Result<(), String> {
    let fresh = Compilers::new();
    for r in records {
        let Some((program, artifact)) = &r.recheck else {
            continue;
        };
        let again = fresh
            .get(r.arch)
            .compile_artifact(program)
            .map_err(|e| format!("recompile of {} failed: {e}", r.tile_key))?;
        if !same_bits(&again, artifact) {
            return Err(format!(
                "recompiling {} gave a different artifact",
                r.tile_key
            ));
        }
    }
    Ok(())
}

/// Writes the input properties of the run: family mix (with each
/// family's compile-latency median and p90), distinct fingerprints, and the
/// share of timed compiles whose tile-level problem (family, tile config,
/// dtype, arch) repeats an earlier compile in the process (warm-ups
/// included) — the share a cross-call thread-value-solve memo could serve.
fn print_inputs(workload: &str, records: &[Record], warm_keys: &[String], quality: usize) {
    let mut mix: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut tiles: HashSet<&str> = warm_keys.iter().map(String::as_str).collect();
    let mut repeats = 0usize;
    for r in records {
        mix.entry(format!("{}@{}", r.family.label(), r.arch.label()))
            .or_default()
            .push(r.latency * 1e3);
        if !tiles.insert(&r.tile_key) {
            repeats += 1;
        }
    }
    let mix = mix
        .iter()
        .map(|(k, ms)| {
            format!(
                "{}: {{\"count\": {}, \"compile_ms_p50\": {:.3}, \"compile_ms_p90\": {:.3}}}",
                json_string(k),
                ms.len(),
                quantile(ms, 0.5),
                quantile(ms, 0.9)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "# inputs {{\"workload\": {}, \"loop\": \"closed, 1 client thread\", \
         \"compiles\": {}, \"distinct_fingerprints\": {}, \"quality_draws\": {quality}, \
         \"distinct_tile_problems\": {}, \"tile_repeat_share\": {}, \"family_mix\": {{{mix}}}}}",
        json_string(workload),
        records.len(),
        records.len(),
        tiles.len(),
        ratio(repeats as f64, records.len() as f64),
    );
}
