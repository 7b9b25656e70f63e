//! Deterministic, seedable fault injection for chaos testing.
//!
//! Production serving systems are validated by injecting the failures they
//! claim to survive — disk corruption, failed writes, stale cache schemas,
//! slow I/O, crashing workers — and asserting the system degrades instead of
//! corrupting results. This module is the injection substrate: a
//! [`FaultInjector`] draws a deterministic pseudo-random stream per fault
//! kind from a seed, so any chaos run can be replayed exactly by rerunning
//! with the same [`FaultSpec`].
//!
//! A spec is built in code ([`FaultSpec::with_rate`], [`FaultSpec::with_seed`]
//! and the duration fields) and prints, for reports, as a comma-separated
//! `key=value` string, e.g.:
//!
//! ```text
//! disk_read_corrupt=0.3,disk_write_fail=0.2,stale_version=0.1,io_delay_us=200,seed=7
//! ```
//!
//! | Key | Value | Injected failure |
//! |---|---|---|
//! | `disk_read_corrupt` | probability | artifact file content corrupted on read |
//! | `disk_write_fail` | probability | artifact store fails mid-write (ENOSPC-style) |
//! | `stale_version` | probability | artifact file rewritten with a wrong [`ARTIFACT_VERSION`] |
//! | `synth_panic` | probability | an in-flight synthesis panics |
//! | `worker_panic` | probability | a pool worker panics while running one job item |
//! | `worker_death` | probability | a pool worker thread dies before claiming a job |
//! | `synth_stall` | probability | a synthesis walk stalls for `synth_stall_ms` (interruptibly) |
//! | `cancel_race` | probability | a cancellation poll is delayed ~1 ms, widening the cancel race |
//! | `io_delay_us` | microseconds | artificial latency added to each disk access |
//! | `synth_stall_ms` | milliseconds | how long each injected `synth_stall` lasts (default 0 = no-op) |
//! | `seed` | u64 | the replay seed (default 0) |
//!
//! Zero rates and durations are left out of the printed form. No injector
//! exists by default and none comes from the environment: a component
//! injects faults only when it is handed one.
//!
//! Consumers: `hexcute_core::cache` threads an injector through its disk
//! tier ([`KernelCache::with_faults`]), `hexcute-e2e`'s `CompileService`
//! uses `synth_panic` (via `ServiceConfig::faults`), [`install_pool_hook`]
//! wires `worker_panic`/`worker_death` into the `hexcute_parallel` worker
//! pool, and [`install_synth_hook`] wires `synth_stall`/`cancel_race` into
//! the synthesis walks of `hexcute_synthesis` (exercising the watchdog and
//! cancellation paths).
//!
//! [`ARTIFACT_VERSION`]: crate::cache::ARTIFACT_VERSION
//! [`KernelCache::with_faults`]: crate::cache::KernelCache::with_faults

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hexcute_parallel::{set_pool_fault_hook, PoolFaultPoint};
use hexcute_synthesis::{set_synth_fault_hook, SynthFaultPoint};

/// The failure classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Artifact file content is corrupted when read from disk.
    DiskReadCorrupt,
    /// An artifact store fails mid-write (ENOSPC-style partial write).
    DiskWriteFail,
    /// An artifact file carries a wrong schema version.
    StaleVersion,
    /// An in-flight synthesis panics.
    SynthPanic,
    /// A pool worker panics while running a job item.
    WorkerPanic,
    /// A pool worker thread dies before claiming a job.
    WorkerDeath,
    /// A synthesis walk stalls for [`FaultSpec::synth_stall`] (interruptibly:
    /// the stall re-polls the walk's cancel token every ~1 ms). Exercises
    /// the watchdog and deadline-abort paths deterministically.
    SynthStall,
    /// A cancellation poll inside the walk is delayed ~1 ms before reading
    /// the flag, deterministically widening the window in which a cancel can
    /// land "just before" the poll.
    CancelRace,
}

/// All fault kinds, indexable by `FaultKind as usize`.
pub const FAULT_KINDS: [FaultKind; 8] = [
    FaultKind::DiskReadCorrupt,
    FaultKind::DiskWriteFail,
    FaultKind::StaleVersion,
    FaultKind::SynthPanic,
    FaultKind::WorkerPanic,
    FaultKind::WorkerDeath,
    FaultKind::SynthStall,
    FaultKind::CancelRace,
];

impl FaultKind {
    /// The key naming this kind in a spec's printed form.
    pub fn key(self) -> &'static str {
        match self {
            FaultKind::DiskReadCorrupt => "disk_read_corrupt",
            FaultKind::DiskWriteFail => "disk_write_fail",
            FaultKind::StaleVersion => "stale_version",
            FaultKind::SynthPanic => "synth_panic",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::WorkerDeath => "worker_death",
            FaultKind::SynthStall => "synth_stall",
            FaultKind::CancelRace => "cancel_race",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A fault schedule: per-kind probabilities, I/O latency and the replay
/// seed. See the [module docs](self) for its printed form.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-kind injection probability, indexed by `FaultKind as usize`.
    pub rates: [f64; FAULT_KINDS.len()],
    /// Artificial latency added to each disk access.
    pub io_delay: Duration,
    /// How long each injected [`FaultKind::SynthStall`] lasts. Zero (the
    /// default) makes an injected stall a no-op, so `synth_stall` schedules
    /// must set it explicitly.
    pub synth_stall: Duration,
    /// Seed of the deterministic draw streams.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            rates: [0.0; FAULT_KINDS.len()],
            io_delay: Duration::ZERO,
            synth_stall: Duration::ZERO,
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// The injection probability for one fault kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind as usize]
    }

    /// Sets one kind's probability (clamped to `[0, 1]`); builder-style.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind as usize] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the replay seed; builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            Ok(())
        };
        for kind in FAULT_KINDS {
            if self.rate(kind) > 0.0 {
                sep(f)?;
                write!(f, "{}={}", kind.key(), self.rate(kind))?;
            }
        }
        if !self.io_delay.is_zero() {
            sep(f)?;
            write!(f, "io_delay_us={}", self.io_delay.as_micros())?;
        }
        if !self.synth_stall.is_zero() {
            sep(f)?;
            write!(f, "synth_stall_ms={}", self.synth_stall.as_millis())?;
        }
        sep(f)?;
        write!(f, "seed={}", self.seed)
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of its input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic fault source for one chaos run.
///
/// Each fault kind has its own draw counter: the `n`-th query for a kind
/// fires iff `hash(seed, kind, n) < rate`, so whether one site fires never
/// depends on how many *other* sites were queried — schedules stay replayable
/// even when thread interleavings differ. Per-kind injected-event counters
/// make every chaos run auditable.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    enabled: AtomicBool,
    draws: [AtomicU64; FAULT_KINDS.len()],
    injected: [AtomicU64; FAULT_KINDS.len()],
}

impl FaultInjector {
    /// Creates an injector for the given schedule.
    pub fn new(spec: FaultSpec) -> Arc<Self> {
        Arc::new(FaultInjector {
            spec,
            enabled: AtomicBool::new(true),
            draws: Default::default(),
            injected: Default::default(),
        })
    }

    /// The schedule this injector replays.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Turns injection on or off without losing draw positions — tests use
    /// this to "heal" the system mid-run and assert recovery.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether the next query for `kind` injects a fault. Deterministic in
    /// (seed, kind, per-kind draw index); counts the event when it fires.
    pub fn should(&self, kind: FaultKind) -> bool {
        let rate = self.spec.rate(kind);
        if rate <= 0.0 || !self.enabled.load(Ordering::Acquire) {
            return false;
        }
        let idx = kind as usize;
        let draw = self.draws[idx].fetch_add(1, Ordering::Relaxed);
        let bits = mix(self
            .spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((idx as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(draw));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let fires = unit < rate;
        if fires {
            self.injected[idx].fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Number of injected events of one kind so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize].load(Ordering::Relaxed)
    }

    /// Total injected events across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Corrupts an artifact file's bytes the way a torn read / bad sector
    /// would: truncation to half length (the file ends in a checksum of
    /// everything before it, so the cut file no longer decodes).
    pub fn corrupt_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        bytes[..bytes.len() / 2].to_vec()
    }

    /// Sleeps for the schedule's artificial I/O latency (no-op when zero or
    /// disabled). Called once per disk access by the cache.
    pub fn io_delay(&self) {
        if !self.spec.io_delay.is_zero() && self.enabled.load(Ordering::Acquire) {
            std::thread::sleep(self.spec.io_delay);
        }
    }
}

/// Wires `worker_panic` / `worker_death` into the `hexcute_parallel` worker
/// pool. The hook holds a clone of the injector; [`clear_pool_hook`] (or
/// installing another) releases it. When the injector's schedule has zero
/// rates for both kinds this is a no-op, keeping the pool's fast path free.
pub fn install_pool_hook(injector: &Arc<FaultInjector>) {
    if injector.spec.rate(FaultKind::WorkerPanic) <= 0.0
        && injector.spec.rate(FaultKind::WorkerDeath) <= 0.0
    {
        return;
    }
    let injector = injector.clone();
    set_pool_fault_hook(Some(Arc::new(move |point| match point {
        PoolFaultPoint::JobItem => injector.should(FaultKind::WorkerPanic),
        PoolFaultPoint::WorkerClaim => injector.should(FaultKind::WorkerDeath),
    })));
}

/// Removes any installed pool fault hook.
pub fn clear_pool_hook() {
    set_pool_fault_hook(None);
}

/// Wires `synth_stall` / `cancel_race` into the synthesis walks of
/// `hexcute_synthesis`. The hook holds a clone of the injector;
/// [`clear_synth_hook`] (or installing another) releases it. When both rates
/// are zero this is a no-op, keeping the walks' poll sites on their one-load
/// fast path.
pub fn install_synth_hook(injector: &Arc<FaultInjector>) {
    if injector.spec.rate(FaultKind::SynthStall) <= 0.0
        && injector.spec.rate(FaultKind::CancelRace) <= 0.0
    {
        return;
    }
    let injector = injector.clone();
    set_synth_fault_hook(Some(Arc::new(move |point| match point {
        SynthFaultPoint::Stall => injector
            .should(FaultKind::SynthStall)
            .then_some(injector.spec.synth_stall),
        SynthFaultPoint::CancelPoll => injector
            .should(FaultKind::CancelRace)
            .then_some(Duration::from_millis(1)),
    })));
}

/// Removes any installed synthesis fault hook.
pub fn clear_synth_hook() {
    set_synth_fault_hook(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prints_the_chaos_replay_specs() {
        // `repro_robustness` reports each schedule's spec in this form
        // (`BENCH_pr8.json`'s `spec` strings).
        let disk_chaos = FaultSpec {
            io_delay: Duration::from_micros(200),
            ..FaultSpec::default()
        }
        .with_rate(FaultKind::DiskReadCorrupt, 0.30)
        .with_rate(FaultKind::DiskWriteFail, 0.20)
        .with_rate(FaultKind::StaleVersion, 0.10)
        .with_seed(7);
        assert_eq!(
            disk_chaos.to_string(),
            "disk_read_corrupt=0.3,disk_write_fail=0.2,stale_version=0.1,io_delay_us=200,seed=7"
        );
        let cancellation_storm = FaultSpec {
            synth_stall: Duration::from_millis(5),
            ..FaultSpec::default()
        }
        .with_rate(FaultKind::SynthStall, 0.10)
        .with_rate(FaultKind::CancelRace, 0.10)
        .with_seed(17);
        assert_eq!(
            cancellation_storm.to_string(),
            "synth_stall=0.1,cancel_race=0.1,synth_stall_ms=5,seed=17"
        );
    }

    #[test]
    fn rates_clamp_to_unit_interval() {
        let spec = FaultSpec::default()
            .with_rate(FaultKind::SynthPanic, 3.5)
            .with_rate(FaultKind::WorkerDeath, -1.0);
        assert_eq!(spec.rate(FaultKind::SynthPanic), 1.0);
        assert_eq!(spec.rate(FaultKind::WorkerDeath), 0.0);
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_kind() {
        let spec = FaultSpec::default()
            .with_rate(FaultKind::DiskReadCorrupt, 0.3)
            .with_rate(FaultKind::DiskWriteFail, 0.3)
            .with_seed(42);
        let a = FaultInjector::new(spec.clone());
        let b = FaultInjector::new(spec.clone());
        let stream_a: Vec<bool> = (0..256)
            .map(|_| a.should(FaultKind::DiskReadCorrupt))
            .collect();
        // Interleave queries of another kind on `b`: the per-kind streams
        // must not shift.
        let stream_b: Vec<bool> = (0..256)
            .map(|_| {
                b.should(FaultKind::DiskWriteFail);
                b.should(FaultKind::DiskReadCorrupt)
            })
            .collect();
        assert_eq!(stream_a, stream_b);
        assert!(
            stream_a.iter().any(|&f| f),
            "rate 0.3 must fire in 256 draws"
        );
        assert!(!stream_a.iter().all(|&f| f), "rate 0.3 must also not fire");
        assert_eq!(
            a.injected(FaultKind::DiskReadCorrupt),
            b.injected(FaultKind::DiskReadCorrupt)
        );

        let other_seed = FaultInjector::new(spec.with_seed(43));
        let stream_c: Vec<bool> = (0..256)
            .map(|_| other_seed.should(FaultKind::DiskReadCorrupt))
            .collect();
        assert_ne!(stream_a, stream_c, "different seeds, different schedule");
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let inj = FaultInjector::new(FaultSpec::default().with_rate(FaultKind::SynthPanic, 1.0));
        assert!((0..64).all(|_| inj.should(FaultKind::SynthPanic)));
        assert!((0..64).all(|_| !inj.should(FaultKind::WorkerPanic)));
        assert_eq!(inj.injected(FaultKind::SynthPanic), 64);
        assert_eq!(inj.injected_total(), 64);
    }

    #[test]
    fn disabling_suppresses_without_losing_the_stream() {
        let spec = FaultSpec::default().with_rate(FaultKind::DiskWriteFail, 1.0);
        let inj = FaultInjector::new(spec);
        assert!(inj.should(FaultKind::DiskWriteFail));
        inj.set_enabled(false);
        assert!(!inj.should(FaultKind::DiskWriteFail));
        inj.set_enabled(true);
        assert!(inj.should(FaultKind::DiskWriteFail));
        assert_eq!(inj.injected(FaultKind::DiskWriteFail), 2);
    }

    #[test]
    fn corrupt_bytes_breaks_an_artifact_file() {
        use crate::cache::{CostRecord, KernelArtifact, PerfRecord, ARTIFACT_VERSION};
        let perf = PerfRecord {
            latency_us: 1.5,
            block_cycles: 2.0,
            dram_us: 0.5,
            compute_us: 0.25,
            sm_us: 1.0,
            waves: 1,
            bank_conflict_cycles: 0.0,
            launch_overhead_us: 3.0,
        };
        let artifact = KernelArtifact {
            version: ARTIFACT_VERSION,
            fingerprint: 0xff,
            kernel: "k".into(),
            arch: "A100".into(),
            threads_per_block: 128,
            grid_blocks: 4,
            main_loop_trip_count: 2,
            pipeline_stages: 1,
            warp_specialized: false,
            smem_bytes: 0,
            registers_per_thread: 32,
            tv_layouts: Vec::new(),
            smem_layouts: Vec::new(),
            lowered: vec!["copy".into()],
            cuda: "__global__ void k() {}".into(),
            cost: CostRecord {
                total_cycles: 10.0,
                prologue_cycles: 1.0,
                loop_iteration_cycles: 4.0,
                epilogue_cycles: 1.0,
                rearrange_cycles: 0.0,
                per_op: Vec::new(),
            },
            perf,
        };
        let bytes = artifact.to_bytes();
        assert_eq!(KernelArtifact::from_bytes(&bytes), Ok(artifact));
        let inj = FaultInjector::new(FaultSpec::default());
        let corrupted = inj.corrupt_bytes(&bytes);
        assert_eq!(corrupted, bytes[..bytes.len() / 2]);
        assert!(matches!(
            KernelArtifact::from_bytes(&corrupted),
            Err(crate::cache::ArtifactError::Corrupt { .. })
        ));
    }

    #[test]
    fn pool_hook_installation_skips_zero_rate_schedules() {
        // A schedule with no pool faults must not pay for a hook.
        let inj = FaultInjector::new(FaultSpec::default().with_rate(FaultKind::SynthPanic, 1.0));
        install_pool_hook(&inj);
        // No way to observe the hook directly from here, but clearing is
        // always safe and leaves the pool pristine for other tests.
        clear_pool_hook();
    }
}
