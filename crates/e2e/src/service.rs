//! A compile service over the persistent kernel-artifact cache.
//!
//! The serving loop (see [`crate::decode_latency_ms_with`]) issues the *same* few dozen
//! kernel compilations over and over — per decode step, per process start,
//! per replica. [`CompileService`] turns the PR 1–3 fast search into a
//! servable subsystem:
//!
//! * **Cache first.** Every request is keyed by the stable artifact
//!   fingerprint and answered from the [`KernelCache`] (memory, then disk)
//!   when possible.
//! * **Coalescing.** Concurrent requests for the *same* fingerprint join a
//!   single in-flight synthesis instead of each running the search: the
//!   first requester synthesizes, the rest block on its completion and
//!   share the resulting artifact.
//! * **Admission control & fault tolerance** (PR 6). A [`ServiceConfig`]
//!   bounds concurrent syntheses plus a pending queue (full queue → typed
//!   load shedding via [`CompileError::Overloaded`]), enforces per-request
//!   deadlines while queued, while coalesced *and* — since PR 8 — against
//!   the in-flight synthesis itself
//!   ([`CompileError::DeadlineExceeded`]), and retries transient failures —
//!   a panicked synthesis wakes every coalesced waiter with a retryable
//!   [`CompileError::Panicked`] instead of deadlocking them — with
//!   exponential backoff and deterministic seeded jitter. Cache hits bypass
//!   admission entirely: backpressure protects the expensive synthesis
//!   path, never the cheap one. See `docs/ROBUSTNESS.md` for the full
//!   degradation ladder.
//! * **Cooperative cancellation.** Every synthesis carries a
//!   [`CancelToken`] that the search walks poll at row granularity, so a
//!   deadline that expires *mid-synthesis* aborts the in-flight search —
//!   freeing its admission slot and broadcasting a typed
//!   [`CompileError::DeadlineExceeded`] to every coalesced waiter — instead
//!   of running to completion. The token is a child of one service-wide
//!   root token and expires at the claimant's deadline and at
//!   [`ServiceConfig::watchdog`] after the synthesis starts (a runaway
//!   compile fails with [`CompileError::SynthesisTimeout`]); the polls
//!   check both instants against the clock themselves, so no thread
//!   watches the syntheses. [`CompileService::shutdown`] cancels the root
//!   and drains the admission queue, failing all in-flight work with typed
//!   [`CompileError::Cancelled`] errors. Wall-clock cancellation yields
//!   typed errors only: a cancelled synthesis never produces a partial
//!   artifact and never touches the cache.
//! * **Priority-aware serving front-end** (PR 10). Admission is a
//!   *ticketed* bounded queue per [`Priority`] class, granted strictly in
//!   ticket order within a class (no `notify_one` starvation) with
//!   periodic background boosts so autotune traffic is never starved,
//!   per-[`TenantId`] weighted fair scheduling with optional quotas
//!   ([`ServiceConfig::tenant_quota`]), and per-class load shedding. The
//!   service compiles only what a request asks for; nothing is compiled
//!   speculatively.
//!
//! ```
//! use hexcute_arch::{DType, GpuArch};
//! use hexcute_e2e::{CompileService, ServedFrom};
//! use hexcute_ir::KernelBuilder;
//! use hexcute_layout::Layout;
//!
//! let mut kb = KernelBuilder::new("served_copy", 128);
//! let x = kb.global_view("x", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let y = kb.global_view("y", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let r = kb.register_tensor("r", DType::F32, &[64, 64]);
//! kb.copy(x, r);
//! kb.copy(r, y);
//! let program = kb.build()?;
//!
//! let service = CompileService::new(GpuArch::a100());
//! let cold = service.compile(&program)?;
//! assert_eq!(cold.served_from, ServedFrom::Synthesized);
//! let warm = service.compile(&program)?;
//! assert_eq!(warm.served_from, ServedFrom::Memory);
//! assert_eq!(*cold.artifact, *warm.artifact);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{
    ArtifactSource, CancelReason, CancelToken, CompileError, Compiler, CompilerOptions,
    FaultInjector, FaultKind, KernelArtifact, KernelCache, KernelCacheConfig, KernelCacheStats,
};
use hexcute_ir::Program;

/// How a [`CompileResponse`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The artifact cache's in-memory front.
    Memory,
    /// The artifact cache's disk store.
    Disk,
    /// This request ran the synthesis itself.
    Synthesized,
    /// This request joined another request's in-flight synthesis.
    Coalesced,
}

impl fmt::Display for ServedFrom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServedFrom::Memory => "memory",
            ServedFrom::Disk => "disk",
            ServedFrom::Synthesized => "synthesized",
            ServedFrom::Coalesced => "coalesced",
        })
    }
}

impl From<ArtifactSource> for ServedFrom {
    fn from(source: ArtifactSource) -> Self {
        match source {
            ArtifactSource::Memory => ServedFrom::Memory,
            ArtifactSource::Disk => ServedFrom::Disk,
            ArtifactSource::Synthesized => ServedFrom::Synthesized,
        }
    }
}

/// The scheduling class of a compile request.
///
/// Latency-critical requests (decode-step compiles on the serving path) and
/// background requests (autotune sweeps, warmup, batch precompiles) wait in
/// separate bounded queues; the grant loop prefers the latency class but
/// periodically boosts a background waiter ([`ServiceConfig::boost_interval`])
/// so background traffic makes guaranteed progress under sustained
/// latency-critical load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Serve as soon as a slot frees: decode-path compiles.
    #[default]
    LatencyCritical,
    /// Yield to latency-critical traffic: autotune / warmup compiles.
    Background,
}

impl Priority {
    /// Index into per-class arrays (`[latency, background]`).
    pub fn index(self) -> usize {
        match self {
            Priority::LatencyCritical => LATENCY,
            Priority::Background => BACKGROUND,
        }
    }

    /// A stable lowercase label (bench JSON keys, logs).
    pub fn label(self) -> &'static str {
        match self {
            Priority::LatencyCritical => "latency_critical",
            Priority::Background => "background",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An opaque tenant identity used for weighted fair scheduling and quotas.
///
/// The scheduler grants the eligible waiter whose tenant currently holds the
/// fewest synthesis slots (ties broken by ticket, i.e. arrival order), and
/// [`ServiceConfig::tenant_quota`] caps how many slots one tenant may hold at
/// once. The default `TenantId(0)` is fine for single-tenant callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Queue index of [`Priority::LatencyCritical`].
const LATENCY: usize = 0;
/// Queue index of [`Priority::Background`].
const BACKGROUND: usize = 1;

/// One served compilation: the (shared) artifact plus how it was obtained.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The compiled kernel artifact.
    pub artifact: Arc<KernelArtifact>,
    /// Where the artifact came from.
    pub served_from: ServedFrom,
}

impl CompileResponse {
    /// The estimated kernel latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.artifact.latency_us()
    }
}

/// Admission, deadline and retry policy of a [`CompileService`].
///
/// The defaults are fully permissive — unbounded concurrency, no deadline —
/// so a service constructed without an explicit config behaves exactly like
/// the pre-admission-control service; production deployments opt in by
/// setting fields.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum syntheses running at once. `0` (the default) means
    /// unbounded: no admission accounting at all — no queueing, priorities
    /// or quotas. Bound it (e.g. to the core count) when compiles contend
    /// with serving work for CPU; cache hits always bypass admission.
    pub max_concurrent: usize,
    /// Latency-critical requests allowed to wait for an admission slot
    /// beyond `max_concurrent`; arrivals past this are shed with
    /// [`CompileError::Overloaded`] (a request that can take a free slot is
    /// admitted even at capacity 0). Size it to the burst to absorb:
    /// shedding early beats queueing without bound. Ignored while
    /// `max_concurrent` is 0.
    pub queue_capacity: usize,
    /// The same bound for the background class, so a flood of autotune
    /// requests sheds without consuming latency-critical queue slots.
    pub background_queue_capacity: usize,
    /// Synthesis slots one tenant may hold at once; a tenant at its quota
    /// parks (other tenants overtake it) until it releases a slot. `0` (the
    /// default) means no quota.
    pub tenant_quota: usize,
    /// After this many consecutive latency-critical grants made while a
    /// background waiter was parked, one background waiter is boosted ahead
    /// of the latency queue — bounded starvation for the background class.
    /// `0` disables boosting (strict priority).
    pub boost_interval: u64,
    /// Unused: the service never compiles speculatively.
    // Kept only because `perfbench/src/serve.rs` sets it; remove both
    // together.
    #[doc(hidden)]
    pub prefetch: bool,
    /// Per-request deadline, enforced while queued for admission, while
    /// waiting on a coalesced in-flight synthesis, *and* — since PR 8 —
    /// against the in-flight synthesis itself, which is cooperatively
    /// cancelled when the deadline passes. A synthesis that completes
    /// before it observes the cancel is still served and cached; a cancelled
    /// one never is. `None` disables it.
    pub deadline: Option<Duration>,
    /// Wall-clock watchdog for one synthesis: a search still running this
    /// long after it started is cancelled with
    /// [`CompileError::SynthesisTimeout`]. Unlike `deadline` (which counts
    /// from request arrival, queueing included), the watchdog counts from
    /// synthesis start and so catches runaway searches specifically. In
    /// production it is a backstop against pathological search spaces
    /// (minutes, not milliseconds). Trips are counted in
    /// [`ServiceStats::watchdog_trips`]. `None` disables it.
    pub watchdog: Option<Duration>,
    /// Retries of a *transient* failure (a panicked synthesis) before the
    /// error is returned. `0` disables retrying.
    pub max_retries: usize,
    /// Base of the exponential retry backoff: retry `n` sleeps
    /// `retry_backoff * 2^(n-1)` plus jitter in `[0, retry_backoff)`.
    pub retry_backoff: Duration,
    /// Seed of the deterministic jitter stream (replayable chaos runs).
    pub seed: u64,
    /// Fault injector threaded through the service and its cache. `None`
    /// (the default) injects nothing. Pool and synthesis-walk faults also
    /// need [`faults::install_pool_hook`] / [`faults::install_synth_hook`].
    ///
    /// [`faults::install_pool_hook`]: hexcute_core::faults::install_pool_hook
    /// [`faults::install_synth_hook`]: hexcute_core::faults::install_synth_hook
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 0,
            queue_capacity: 64,
            background_queue_capacity: 64,
            tenant_quota: 0,
            boost_interval: 4,
            prefetch: false,
            deadline: None,
            watchdog: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(2),
            seed: 0,
            faults: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

/// Where a ticketed waiter is in its admission lifecycle. Transitions are
/// made under the waiter's own `phase` mutex, which is only ever taken
/// *after* the admission state lock (lock order: state, then phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaiterPhase {
    /// Parked in a class queue.
    Waiting,
    /// Granted a slot (the grantor already charged `active`); the waiter
    /// owns the slot as soon as it observes this.
    Granted,
    /// Drained by shutdown; the waiter exits with a typed cancellation.
    Drained,
}

/// One parked request in the ticketed admission queue.
#[derive(Debug)]
struct Waiter {
    /// Monotone admission ticket: FIFO order within a class and tenant.
    ticket: u64,
    tenant: TenantId,
    phase: Mutex<WaiterPhase>,
    wake: Condvar,
}

#[derive(Debug)]
struct AdmissionState {
    /// Synthesis slots currently held.
    active: usize,
    /// Slots held per tenant (entries removed at zero) — drives the
    /// weighted-fair grant order and the quota check.
    active_per_tenant: HashMap<TenantId, usize>,
    /// Parked waiters per class (`[LATENCY, BACKGROUND]`), in ticket order.
    queues: [VecDeque<Arc<Waiter>>; 2],
    /// Next admission ticket to issue.
    next_ticket: u64,
    /// Consecutive latency-class grants made while a background waiter was
    /// parked; at [`ServiceConfig::boost_interval`] the next grant boosts
    /// the background class instead.
    latency_run: u64,
}

/// A bounded-concurrency gate with a *ticketed* bounded wait queue per
/// priority class: the synchronous analogue of an async weighted-fair
/// semaphore + listen queues. Cache hits never touch it; only requests
/// about to synthesize (or join a synthesis) pass through. Grants are made
/// by the releasing thread under the state lock — directly to a specific
/// waiter, in ticket order within a class — so a `notify_one` can never
/// wake the "wrong" waiter and strand an older one (the starvation mode of
/// the previous Condvar gate).
#[derive(Debug)]
struct Admission {
    max_concurrent: usize,
    /// Per-class queue capacity (`[LATENCY, BACKGROUND]`).
    queue_capacity: [usize; 2],
    /// Slots one tenant may hold at once (`0` = no quota).
    tenant_quota: usize,
    /// Latency grants between background boosts (`0` = strict priority).
    boost_interval: u64,
    state: Mutex<AdmissionState>,
    max_queue_depth: AtomicU64,
    /// Background waiters granted ahead of a parked latency waiter by the
    /// anti-starvation boost (the only sanctioned reordering).
    background_boosts: AtomicU64,
    /// Background grants that overtook a parked latency waiter *outside* a
    /// boost. Zero by construction; counted (and asserted zero by the
    /// traffic bench) as a defensive scheduling-invariant probe.
    priority_inversions: AtomicU64,
    /// Set by [`CompileService::shutdown`]: new arrivals are rejected on
    /// the fast path and parked waiters drain out with a typed shutdown
    /// cancellation instead of waiting for a slot that will never be used.
    shutdown: AtomicBool,
}

/// RAII admission slot; dropping it releases the slot, re-credits the
/// tenant and grants to the next eligible waiter(s).
struct AdmissionPermit<'a> {
    admission: Option<&'a Admission>,
    tenant: TenantId,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(admission) = self.admission.take() {
            let mut state = admission.state.lock().unwrap_or_else(|p| p.into_inner());
            admission.release_locked(&mut state, self.tenant);
        }
    }
}

impl Admission {
    fn new(config: &ServiceConfig) -> Self {
        Admission {
            max_concurrent: config.max_concurrent,
            queue_capacity: [config.queue_capacity, config.background_queue_capacity],
            tenant_quota: config.tenant_quota,
            boost_interval: config.boost_interval,
            state: Mutex::new(AdmissionState {
                active: 0,
                active_per_tenant: HashMap::new(),
                queues: [VecDeque::new(), VecDeque::new()],
                next_ticket: 0,
                latency_run: 0,
            }),
            max_queue_depth: AtomicU64::new(0),
            background_boosts: AtomicU64::new(0),
            priority_inversions: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Drains both wait queues: every parked waiter wakes and exits with a
    /// typed shutdown cancellation.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        for class in [LATENCY, BACKGROUND] {
            while let Some(waiter) = state.queues[class].pop_front() {
                *waiter.phase.lock().unwrap_or_else(|p| p.into_inner()) = WaiterPhase::Drained;
                waiter.wake.notify_all();
            }
        }
    }

    /// The queue position of the next grantable waiter in `class`, or
    /// `None` when every parked waiter of the class is quota-blocked (or
    /// the queue is empty). Within a tenant only its earliest waiter is
    /// eligible (FIFO per tenant); across tenants the one holding the
    /// fewest slots wins, ties broken by ticket — weighted fair share with
    /// arrival order as the tiebreak.
    fn candidate(&self, state: &AdmissionState, class: usize) -> Option<usize> {
        let mut best: Option<(usize, u64, usize)> = None;
        let mut seen: HashSet<TenantId> = HashSet::new();
        for (pos, waiter) in state.queues[class].iter().enumerate() {
            if !seen.insert(waiter.tenant) {
                continue;
            }
            let held = state
                .active_per_tenant
                .get(&waiter.tenant)
                .copied()
                .unwrap_or(0);
            if self.tenant_quota > 0 && held >= self.tenant_quota {
                continue;
            }
            if best.is_none_or(|(bh, bt, _)| (held, waiter.ticket) < (bh, bt)) {
                best = Some((held, waiter.ticket, pos));
            }
        }
        best.map(|(_, _, pos)| pos)
    }

    /// Grants slots to eligible waiters while capacity remains: latency
    /// class first, a background waiter every `boost_interval` consecutive
    /// latency grants made over its head. Runs under the state lock, on
    /// every enqueue and every release.
    fn grant_ready(&self, state: &mut AdmissionState) {
        while state.active < self.max_concurrent {
            let latency = self.candidate(state, LATENCY);
            let background = self.candidate(state, BACKGROUND);
            let boost = self.boost_interval > 0 && state.latency_run >= self.boost_interval;
            let class = match (latency, background) {
                (None, None) => break,
                (Some(_), None) => LATENCY,
                (None, Some(_)) => BACKGROUND,
                (Some(_), Some(_)) if boost => BACKGROUND,
                (Some(_), Some(_)) => LATENCY,
            };
            if class == BACKGROUND {
                if latency.is_some() {
                    if boost {
                        self.background_boosts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Unreachable by construction; see the field docs.
                        self.priority_inversions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                state.latency_run = 0;
            } else {
                // The run only counts grants made *over a parked background
                // waiter's head*; an empty background queue starves nobody.
                state.latency_run = if background.is_some() {
                    state.latency_run + 1
                } else {
                    0
                };
            }
            let pos = match class {
                LATENCY => latency.expect("latency candidate exists"),
                _ => background.expect("background candidate exists"),
            };
            let waiter = state.queues[class]
                .remove(pos)
                .expect("candidate position is in range");
            state.active += 1;
            *state.active_per_tenant.entry(waiter.tenant).or_insert(0) += 1;
            *waiter.phase.lock().unwrap_or_else(|p| p.into_inner()) = WaiterPhase::Granted;
            waiter.wake.notify_all();
        }
    }

    /// Releases one slot held by `tenant` and grants onward. Caller holds
    /// the state lock.
    fn release_locked(&self, state: &mut AdmissionState, tenant: TenantId) {
        state.active = state.active.saturating_sub(1);
        if let Some(held) = state.active_per_tenant.get_mut(&tenant) {
            *held = held.saturating_sub(1);
            if *held == 0 {
                state.active_per_tenant.remove(&tenant);
            }
        }
        self.grant_ready(state);
    }

    /// Acquires a synthesis slot, waiting (up to `deadline`) in the class's
    /// bounded ticketed queue when no slot can be granted immediately.
    ///
    /// # Errors
    ///
    /// [`CompileError::Overloaded`] when the class's wait queue is already
    /// full, [`CompileError::DeadlineExceeded`] when the deadline passes
    /// first and [`CompileError::Cancelled`] (shutdown) when the service is
    /// shutting down — checked on the fast path too, so a post-shutdown
    /// request can never start a fresh synthesis on a draining service.
    fn acquire(
        &self,
        priority: Priority,
        tenant: TenantId,
        start: Instant,
        deadline: Option<Instant>,
    ) -> Result<AdmissionPermit<'_>, CompileError> {
        // Fast-path shutdown check: without it, a request arriving after
        // `shutdown()` that found `active < max_concurrent` was handed a
        // slot and started synthesizing on a draining service.
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            });
        }
        if self.max_concurrent == 0 {
            // Documented sentinel: admission disabled entirely (no slot
            // accounting, no queues, no quotas). See `docs/TUNING.md`.
            return Ok(AdmissionPermit {
                admission: None,
                tenant,
            });
        }
        let class = priority.index();
        let waiter = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            // Re-check under the lock: a racing `shutdown()` that already
            // swept the queues must not miss this arrival.
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(CompileError::Cancelled {
                    reason: CancelReason::Shutdown,
                });
            }
            let waiter = Arc::new(Waiter {
                ticket: state.next_ticket,
                tenant,
                phase: Mutex::new(WaiterPhase::Waiting),
                wake: Condvar::new(),
            });
            state.next_ticket += 1;
            state.queues[class].push_back(waiter.clone());
            self.grant_ready(&mut state);
            let granted =
                *waiter.phase.lock().unwrap_or_else(|p| p.into_inner()) == WaiterPhase::Granted;
            if !granted && state.queues[class].len() > self.queue_capacity[class] {
                // This arrival would park beyond its class's capacity: shed
                // it. The high-water mark records the depth it was denied at
                // (parked waiters + itself), so fill-and-shed traffic where
                // nobody ever parks still registers.
                let depth = state.queues[LATENCY].len() + state.queues[BACKGROUND].len();
                self.max_queue_depth
                    .fetch_max(depth as u64, Ordering::Relaxed);
                state.queues[class].retain(|w| w.ticket != waiter.ticket);
                return Err(CompileError::Overloaded {
                    queued: state.queues[class].len(),
                    capacity: self.queue_capacity[class],
                });
            }
            let parked = state.queues[LATENCY].len() + state.queues[BACKGROUND].len();
            if parked > 0 {
                self.max_queue_depth
                    .fetch_max(parked as u64, Ordering::Relaxed);
            }
            waiter
        };
        let mut phase = waiter.phase.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match *phase {
                WaiterPhase::Granted => {
                    return Ok(AdmissionPermit {
                        admission: Some(self),
                        tenant,
                    });
                }
                WaiterPhase::Drained => {
                    return Err(CompileError::Cancelled {
                        reason: CancelReason::Shutdown,
                    });
                }
                WaiterPhase::Waiting => match deadline {
                    None => {
                        phase = waiter.wake.wait(phase).unwrap_or_else(|p| p.into_inner());
                    }
                    Some(dl) => {
                        let now = Instant::now();
                        if now >= dl {
                            drop(phase);
                            return self.abandon(&waiter, class, start);
                        }
                        let (p, _) = waiter
                            .wake
                            .wait_timeout(phase, dl - now)
                            .unwrap_or_else(|p| p.into_inner());
                        phase = p;
                    }
                },
            }
        }
    }

    /// Resolves a waiter whose deadline expired: dequeue it, or — when a
    /// grant raced the timeout — hand the already-charged slot onward
    /// instead of serving a request whose deadline has passed.
    fn abandon(
        &self,
        waiter: &Arc<Waiter>,
        class: usize,
        start: Instant,
    ) -> Result<AdmissionPermit<'_>, CompileError> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let phase = *waiter.phase.lock().unwrap_or_else(|p| p.into_inner());
        match phase {
            WaiterPhase::Granted => {
                self.release_locked(&mut state, waiter.tenant);
                Err(CompileError::DeadlineExceeded {
                    elapsed: start.elapsed(),
                })
            }
            WaiterPhase::Drained => Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            }),
            WaiterPhase::Waiting => {
                state.queues[class].retain(|w| w.ticket != waiter.ticket);
                Err(CompileError::DeadlineExceeded {
                    elapsed: start.elapsed(),
                })
            }
        }
    }

    /// Requests currently parked waiting for a slot (both classes).
    fn queue_depth(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.queues[LATENCY].len() + state.queues[BACKGROUND].len()
    }
}

/// Counters describing a [`CompileService`]'s behaviour. Snapshot via
/// [`CompileService::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests served.
    pub requests: u64,
    /// Requests that joined another request's in-flight synthesis.
    pub coalesced: u64,
    /// Syntheses actually executed.
    pub syntheses: u64,
    /// Requests shed because the admission queue was full.
    pub shed: u64,
    /// Requests that gave up on their deadline (queued or coalesced).
    pub deadline_exceeded: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Syntheses that panicked (caught, turned into
    /// [`CompileError::Panicked`] and broadcast to coalesced waiters).
    pub synth_panics: u64,
    /// In-flight syntheses aborted by cooperative cancellation (deadline,
    /// watchdog or shutdown). Each freed its admission slot early and
    /// returned a typed error; none produced or cached an artifact.
    pub cancelled: u64,
    /// Syntheses that ended with their token tripped by the watchdog: the
    /// instant [`ServiceConfig::watchdog`] after they started came before
    /// the claimant's deadline and any shutdown. One that the trip
    /// cancelled failed with [`CompileError::SynthesisTimeout`].
    pub watchdog_trips: u64,
    /// Requests drained with a typed shutdown cancellation — parked
    /// admission waiters woken by [`CompileService::shutdown`], requests
    /// arriving after it, and in-flight syntheses it cancelled.
    pub shutdown_drained: u64,
    /// Deepest the admission queue has ever been. A shed arrival counts at
    /// the depth it was denied (parked waiters + itself), so fill-and-shed
    /// traffic that never parks still registers.
    pub max_queue_depth: u64,
    /// Requests currently parked in the admission queue (both classes).
    pub queue_depth: usize,
    /// Requests submitted in the [`Priority::Background`] class.
    pub background_requests: u64,
    /// Background waiters granted ahead of a parked latency-critical waiter
    /// by the periodic anti-starvation boost.
    pub background_boosts: u64,
    /// Background grants that overtook a parked latency-critical waiter
    /// outside a boost. Zero by construction — a scheduling-invariant probe
    /// asserted by the traffic bench.
    pub priority_inversions: u64,
    /// Always 0: the service never compiles speculatively.
    // Kept only because `perfbench/src/serve.rs` reports it; remove both
    // together.
    #[doc(hidden)]
    pub prefetch_issued: u64,
    /// Always 0: the service never compiles speculatively.
    // Kept only because `perfbench/src/serve.rs` reports it; remove both
    // together.
    #[doc(hidden)]
    pub prefetch_hits: u64,
    /// The artifact cache's counters.
    pub cache: KernelCacheStats,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests ({} coalesced, {} background), {} syntheses, \
             {} shed, {} deadline-exceeded, {} retries, {} synth-panics, \
             {} cancelled ({} watchdog trips, {} shutdown-drained), \
             queue {} (max {}), {} boosts, {} inversions; artifact cache: {}",
            self.requests,
            self.coalesced,
            self.background_requests,
            self.syntheses,
            self.shed,
            self.deadline_exceeded,
            self.retries,
            self.synth_panics,
            self.cancelled,
            self.watchdog_trips,
            self.shutdown_drained,
            self.queue_depth,
            self.max_queue_depth,
            self.background_boosts,
            self.priority_inversions,
            self.cache
        )
    }
}

/// The result slot of one in-flight synthesis.
enum InflightState {
    /// Synthesis still running.
    Pending,
    /// Finished; joiners clone this result.
    Done(Result<Arc<KernelArtifact>, CompileError>),
    /// The claiming request unwound without completing; joiners retry.
    Abandoned,
}

struct Inflight {
    state: Mutex<InflightState>,
    ready: Condvar,
}

impl fmt::Debug for Inflight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inflight").finish_non_exhaustive()
    }
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            state: Mutex::new(InflightState::Pending),
            ready: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<KernelArtifact>, CompileError>) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *state = InflightState::Done(result);
        self.ready.notify_all();
    }

    fn abandon(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if matches!(*state, InflightState::Pending) {
            *state = InflightState::Abandoned;
        }
        self.ready.notify_all();
    }

    /// Blocks until the synthesis finishes or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match &*state {
                InflightState::Pending => match deadline {
                    None => {
                        state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
                    }
                    Some(dl) => {
                        let now = Instant::now();
                        if now >= dl {
                            return WaitOutcome::TimedOut;
                        }
                        let (s, _) = self
                            .ready
                            .wait_timeout(state, dl - now)
                            .unwrap_or_else(|p| p.into_inner());
                        state = s;
                    }
                },
                InflightState::Done(result) => return WaitOutcome::Done(result.clone()),
                InflightState::Abandoned => return WaitOutcome::Abandoned,
            }
        }
    }
}

/// What a coalesced waiter observed.
enum WaitOutcome {
    /// The claimant finished; the shared result (which may be a retryable
    /// [`CompileError::Panicked`]) is cloned to every waiter.
    Done(Result<Arc<KernelArtifact>, CompileError>),
    /// The claimant unwound without completing (defensive backstop — a
    /// panicked synthesis normally completes with `Panicked`): retry.
    Abandoned,
    /// The waiter's deadline passed first.
    TimedOut,
}

/// Removes the in-flight entry (and wakes joiners) even if the claiming
/// request unwinds mid-synthesis, so joiners never block forever.
struct ClaimGuard<'a> {
    service: &'a CompileService,
    fingerprint: u64,
    entry: Arc<Inflight>,
    completed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.entry.abandon();
        }
        self.service
            .inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.fingerprint);
    }
}

/// A compile front-end for one target architecture: an artifact cache, a
/// request-coalescing layer and admission control. The service is `Sync` —
/// one instance serves concurrent requests from many threads.
/// See the [module docs](self) for the serving rationale and an example.
#[derive(Debug)]
pub struct CompileService {
    compiler: Compiler,
    cache: KernelCache,
    config: ServiceConfig,
    admission: Admission,
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
    requests: AtomicU64,
    background_requests: AtomicU64,
    coalesced: AtomicU64,
    syntheses: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    retries: AtomicU64,
    synth_panics: AtomicU64,
    cancelled: AtomicU64,
    shutdown_drained: AtomicU64,
    watchdog_trips: AtomicU64,
    jitter_ticket: AtomicU64,
    /// Parent of every synthesis' token; [`CompileService::shutdown`]
    /// cancels it. A synthesis whose token is made after that reads as
    /// cancelled at its first poll and one in flight at its next, so
    /// shutdown needs no registry of tokens and no ordering handshake with
    /// the claimants: the polls only need the cancel to become visible.
    root: CancelToken,
    /// Cancel-to-worker-free latencies: how long each cancelled synthesis
    /// held its admission slot past the cancel, sampled as the claimant
    /// releases it.
    cancel_free: Mutex<Vec<Duration>>,
}

impl CompileService {
    /// A service for `arch` with default compiler options and a
    /// **memory-only** cache (no files are touched). Use
    /// [`CompileService::with_config`] with [`KernelCacheConfig::dir`] set
    /// for a persistent disk store.
    pub fn new(arch: GpuArch) -> Self {
        Self::with_config(arch, CompilerOptions::new(), KernelCacheConfig::default())
    }

    /// A service with explicit compiler options and cache configuration,
    /// and the default (fully permissive) admission policy.
    pub fn with_config(
        arch: GpuArch,
        options: CompilerOptions,
        cache_config: KernelCacheConfig,
    ) -> Self {
        Self::with_service_config(arch, options, cache_config, ServiceConfig::default())
    }

    /// A service with explicit compiler options, cache configuration and
    /// admission/deadline/retry policy. The policy's fault injector (if
    /// any) is threaded into the artifact cache too, so one schedule drives
    /// both the service and its cache.
    pub fn with_service_config(
        arch: GpuArch,
        options: CompilerOptions,
        cache_config: KernelCacheConfig,
        config: ServiceConfig,
    ) -> Self {
        CompileService {
            compiler: Compiler::with_options(arch, options),
            cache: KernelCache::with_faults(cache_config, config.faults.clone()),
            admission: Admission::new(&config),
            config,
            inflight: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            background_requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            syntheses: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            synth_panics: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shutdown_drained: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            jitter_ticket: AtomicU64::new(0),
            root: CancelToken::new(),
            cancel_free: Mutex::new(Vec::new()),
        }
    }

    /// The active admission/deadline/retry policy.
    pub fn service_config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        self.compiler.arch()
    }

    /// The underlying artifact cache.
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// Serves one compilation: answered from the cache when possible,
    /// coalesced onto an in-flight synthesis of the same fingerprint when
    /// one exists, synthesized (and stored) otherwise — under the service's
    /// admission, deadline and retry policy.
    ///
    /// # Errors
    ///
    /// [`CompileError::Overloaded`] when the admission queue is full,
    /// [`CompileError::DeadlineExceeded`] when the configured deadline
    /// passes while queued or coalesced, [`CompileError::Panicked`] when a
    /// synthesis crashed and the retry budget is exhausted, and the
    /// underlying synthesis error otherwise. Errors are shared by every
    /// coalesced requester of the same fingerprint and are never cached — a
    /// later request retries.
    pub fn compile(&self, program: &Program) -> Result<CompileResponse, CompileError> {
        self.compile_as(program, Priority::LatencyCritical, TenantId::default())
    }

    /// [`CompileService::compile`] with an explicit scheduling class and
    /// tenant identity: background-class requests queue separately and
    /// yield to latency-critical traffic (boosted periodically so they are
    /// never starved), and `tenant` drives the weighted-fair grant order
    /// plus the optional [`ServiceConfig::tenant_quota`]. Scheduling only
    /// reorders *when* a synthesis runs, never what it produces — artifacts
    /// stay bit-identical across classes, tenants and thread counts.
    pub fn compile_as(
        &self,
        program: &Program,
        priority: Priority,
        tenant: TenantId,
    ) -> Result<CompileResponse, CompileError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if priority == Priority::Background {
            self.background_requests.fetch_add(1, Ordering::Relaxed);
        }
        if self.root.is_cancelled() {
            self.shutdown_drained.fetch_add(1, Ordering::Relaxed);
            return Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            });
        }
        let fingerprint = self.compiler.artifact_fingerprint(program);
        let start = Instant::now();
        let deadline = self.config.deadline.map(|d| start + d);
        let mut attempt = 0usize;
        let result = loop {
            match self.compile_attempt(program, fingerprint, start, deadline, priority, tenant) {
                Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.backoff(attempt);
                    if let Some(dl) = deadline {
                        if Instant::now() + backoff >= dl {
                            break Err(CompileError::DeadlineExceeded {
                                elapsed: start.elapsed(),
                            });
                        }
                    }
                    std::thread::sleep(backoff);
                }
                other => break other,
            }
        };
        match &result {
            Err(CompileError::Overloaded { .. }) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(CompileError::DeadlineExceeded { .. }) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            }) => {
                self.shutdown_drained.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        result
    }

    /// Exponential backoff with deterministic seeded jitter: retry `n`
    /// sleeps `base * 2^(n-1) + jitter`, `jitter ∈ [0, base)` drawn from a
    /// SplitMix64 stream over (seed, ticket) so chaos runs replay exactly.
    fn backoff(&self, attempt: usize) -> Duration {
        let base = self.config.retry_backoff;
        if base.is_zero() {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16) as u32);
        let ticket = self.jitter_ticket.fetch_add(1, Ordering::Relaxed);
        let mut z = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ticket)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = Duration::from_nanos(z % base.as_nanos().max(1) as u64);
        exp + jitter
    }

    /// One admission-gated attempt at serving `fingerprint`.
    fn compile_attempt(
        &self,
        program: &Program,
        fingerprint: u64,
        start: Instant,
        deadline: Option<Instant>,
        priority: Priority,
        tenant: TenantId,
    ) -> Result<CompileResponse, CompileError> {
        loop {
            if let Some((artifact, source)) = self.cache.get(fingerprint) {
                return Ok(CompileResponse {
                    artifact,
                    served_from: source.into(),
                });
            }
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                return Err(CompileError::DeadlineExceeded {
                    elapsed: start.elapsed(),
                });
            }
            // Admission bounds the synthesis path only; the cache hit above
            // never queues.
            let permit = self.admission.acquire(priority, tenant, start, deadline)?;
            let claim = {
                let mut inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
                // Re-check under the map lock: a claimant inserts into the
                // cache *before* retiring its in-flight entry, so a request
                // arriving in between must not start a second synthesis.
                if let Some((artifact, source)) = self.cache.get(fingerprint) {
                    return Ok(CompileResponse {
                        artifact,
                        served_from: source.into(),
                    });
                }
                match inflight.get(&fingerprint) {
                    Some(entry) => Err(entry.clone()),
                    None => {
                        let entry = Arc::new(Inflight::new());
                        inflight.insert(fingerprint, entry.clone());
                        Ok(entry)
                    }
                }
            };
            match claim {
                Err(entry) => {
                    // A coalesced waiter consumes no synthesis slot: release
                    // it before parking so admission capacity tracks actual
                    // work, not waiters.
                    drop(permit);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    match entry.wait(deadline) {
                        WaitOutcome::Done(result) => {
                            return result.map(|artifact| CompileResponse {
                                artifact,
                                served_from: ServedFrom::Coalesced,
                            });
                        }
                        // The claimant unwound without a result: retry.
                        WaitOutcome::Abandoned => continue,
                        WaitOutcome::TimedOut => {
                            return Err(CompileError::DeadlineExceeded {
                                elapsed: start.elapsed(),
                            });
                        }
                    }
                }
                Ok(entry) => {
                    let mut guard = ClaimGuard {
                        service: self,
                        fingerprint,
                        entry,
                        completed: false,
                    };
                    self.syntheses.fetch_add(1, Ordering::Relaxed);
                    // The search walks poll this token at row granularity.
                    // It trips at the claimant's deadline, `watchdog` after
                    // the synthesis starts or when `shutdown` cancels the
                    // root, whichever is first; a synthesis that starts
                    // after shutdown reads as cancelled at its first poll.
                    let synth_start = Instant::now();
                    let watchdog = self.config.watchdog.map(|budget| synth_start + budget);
                    let token = self.root.child(
                        [
                            deadline.map(|at| (at, CancelReason::Deadline)),
                            watchdog.map(|at| (at, CancelReason::Watchdog)),
                        ]
                        .into_iter()
                        .flatten(),
                    );
                    // A panicking synthesis (worker-job crash, injected
                    // fault) must not strand coalesced waiters: catch the
                    // unwind and broadcast a retryable error through the
                    // normal completion path. The `ClaimGuard` abandon
                    // remains as a backstop for panics outside this scope.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        if let Some(f) = &self.config.faults {
                            if f.should(FaultKind::SynthPanic) {
                                panic!("injected: synthesis panic");
                            }
                        }
                        self.compiler
                            .compile_artifact_cancellable(program, Some(&token))
                            .map(Arc::new)
                    }))
                    .unwrap_or_else(|payload| {
                        self.synth_panics.fetch_add(1, Ordering::Relaxed);
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        Err(CompileError::Panicked(msg))
                    });
                    // The synthesis is over, so what the token has decided
                    // by now is final for this claim.
                    let ended_by = token.reason();
                    if ended_by == Some(CancelReason::Watchdog) {
                        self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
                    }
                    // Map the raw cancellation onto the trigger's typed
                    // error: a tripped deadline reads as the deadline
                    // error waiters already understand, a watchdog trip as
                    // a synthesis timeout; shutdown keeps its reason.
                    let result = result.map_err(|error| match error {
                        CompileError::Cancelled {
                            reason: CancelReason::Deadline,
                        } => CompileError::DeadlineExceeded {
                            elapsed: start.elapsed(),
                        },
                        CompileError::Cancelled {
                            reason: CancelReason::Watchdog,
                        } => CompileError::SynthesisTimeout {
                            elapsed: synth_start.elapsed(),
                        },
                        other => other,
                    });
                    // A cancelled synthesis yields a typed error only —
                    // the `Err` below never reaches `cache.insert`, so a
                    // cancel can never alter or cache a result.
                    if let Ok(artifact) = &result {
                        self.cache.insert(artifact.clone());
                    }
                    guard.entry.complete(result.clone());
                    guard.completed = true;
                    drop(guard);
                    if matches!(
                        result,
                        Err(CompileError::Cancelled { .. }
                            | CompileError::DeadlineExceeded { .. }
                            | CompileError::SynthesisTimeout { .. })
                    ) {
                        self.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    // Sample cancel-to-worker-free latency at the moment
                    // the slot is released (the permit drops next).
                    if let Some(latency) = ended_by.and_then(|_| token.since_cancelled()) {
                        self.cancel_free
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(latency);
                    }
                    drop(permit);
                    return result.map(|artifact| CompileResponse {
                        artifact,
                        served_from: ServedFrom::Synthesized,
                    });
                }
            }
        }
    }

    /// Gracefully shuts the service down: new requests are rejected with a
    /// typed shutdown cancellation, parked admission waiters drain out with
    /// the same error, every in-flight synthesis is cooperatively
    /// cancelled, and the call waits (bounded) for the in-flight map to
    /// empty so callers can observe "no leaked slots" deterministically.
    /// Idempotent — later calls return immediately.
    pub fn shutdown(&self) {
        if !self.root.cancel(CancelReason::Shutdown) {
            return;
        }
        self.admission.shutdown();
        // Bounded drain: in-flight claimants poll their tokens at row
        // granularity, so they unwind within a poll interval each. The cap
        // only guards against a wedged (non-cooperative) synthesis.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < drain_deadline {
            let drained = self
                .inflight
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty();
            if drained {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Whether [`CompileService::shutdown`] has begun.
    pub fn is_shut_down(&self) -> bool {
        self.root.is_cancelled()
    }

    /// Cancel-to-worker-free latencies observed so far: for each cancelled
    /// synthesis, how long it held its admission slot after its token
    /// tripped (cancel-poll granularity plus unwind time). The robustness
    /// bench asserts a p99 bound over these.
    pub fn cancel_to_free_latencies(&self) -> Vec<Duration> {
        self.cancel_free
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// A snapshot of the service and cache counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            syntheses: self.syntheses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            synth_panics: self.synth_panics.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            shutdown_drained: self.shutdown_drained.load(Ordering::Relaxed),
            max_queue_depth: self.admission.max_queue_depth.load(Ordering::Relaxed),
            queue_depth: self.admission.queue_depth(),
            background_requests: self.background_requests.load(Ordering::Relaxed),
            background_boosts: self.admission.background_boosts.load(Ordering::Relaxed),
            priority_inversions: self.admission.priority_inversions.load(Ordering::Relaxed),
            prefetch_issued: 0,
            prefetch_hits: 0,
            cache: self.cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
    use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
    use hexcute_layout::Layout;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn small_program(name: &str) -> Program {
        let mut kb = KernelBuilder::new(name, 128);
        let x = kb.global_view("x", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
        let y = kb.global_view("y", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
        let r = kb.register_tensor("r", DType::F32, &[64, 64]);
        kb.copy(x, r);
        kb.copy(r, y);
        kb.build().unwrap()
    }

    fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "hexcute-service-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn concurrent_same_key_requests_coalesce_to_one_synthesis() {
        let service = CompileService::new(GpuArch::a100());
        let program = fp16_gemm(GemmShape::new(1024, 1024, 1024), GemmConfig::default()).unwrap();
        let threads = 8;
        let barrier = Barrier::new(threads);
        let artifacts: Vec<Arc<KernelArtifact>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.compile(&program).unwrap().artifact
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = service.stats();
        assert_eq!(stats.requests, threads as u64);
        assert_eq!(
            stats.syntheses, 1,
            "concurrent requests for one fingerprint must coalesce: {stats}"
        );
        for artifact in &artifacts[1..] {
            assert_eq!(**artifact, *artifacts[0]);
        }
    }

    #[test]
    fn distinct_options_get_distinct_artifacts() {
        let arch = GpuArch::a100();
        let program = small_program("options_sensitive");
        let default = CompileService::new(arch.clone());
        let scalar = CompileService::with_config(
            arch,
            CompilerOptions {
                synthesis: hexcute_core::SynthesisOptions::scalar_fallback(),
                use_cost_model: true,
            },
            KernelCacheConfig::default(),
        );
        let d = default.compile(&program).unwrap();
        let s = scalar.compile(&program).unwrap();
        assert_ne!(d.artifact.fingerprint, s.artifact.fingerprint);
    }

    #[test]
    fn disk_store_survives_a_service_restart() {
        let dir = unique_temp_dir("restart");
        let config = KernelCacheConfig {
            dir: Some(dir.clone()),
            ..KernelCacheConfig::default()
        };
        let program = mha_forward(
            AttentionShape::decoding(4, 8, 512, 64),
            AttentionConfig::default(),
        )
        .unwrap();
        let first =
            CompileService::with_config(GpuArch::h100(), CompilerOptions::new(), config.clone());
        let cold = first.compile(&program).unwrap();
        assert_eq!(cold.served_from, ServedFrom::Synthesized);
        drop(first);

        // A fresh service (fresh memory front) over the same directory
        // serves the artifact from disk, bit-identically.
        let second = CompileService::with_config(GpuArch::h100(), CompilerOptions::new(), config);
        let warm = second.compile(&program).unwrap();
        assert_eq!(warm.served_from, ServedFrom::Disk);
        assert_eq!(*warm.artifact, *cold.artifact);
        assert_eq!(second.stats().syntheses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quant_and_grouped_families_serve_through_the_cache_bit_identically() {
        use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
        use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};

        let dir = unique_temp_dir("families");
        let config = KernelCacheConfig {
            dir: Some(dir.clone()),
            ..KernelCacheConfig::default()
        };
        let quant = w4a16_gemm(
            QuantGemmShape::new(16, 128, 256, 64),
            QuantGemmConfig::default(),
        )
        .unwrap();
        let grouped = grouped_gemm(
            &GroupedGemmShape::uniform(8, 16, 256, 512),
            GroupedGemmConfig::default(),
        )
        .unwrap();

        let service =
            CompileService::with_config(GpuArch::h100(), CompilerOptions::new(), config.clone());
        // One synthesis per family.
        let artifacts: Vec<_> = [&quant, &grouped]
            .into_iter()
            .map(|program| service.compile(program).unwrap().artifact)
            .collect();
        assert_eq!(service.stats().syntheses, 2);
        assert_eq!(artifacts[0].kernel, "w4a16_gemm");
        assert_eq!(artifacts[1].kernel, "grouped_gemm");
        // The artifacts carry the new pipeline features end to end.
        assert!(
            artifacts[0].cuda.contains("dequant"),
            "{}",
            artifacts[0].cuda
        );
        assert!(artifacts[0]
            .lowered
            .iter()
            .any(|line| line.contains("unpack")));

        // Warm memory hits are bit-identical.
        let warm = service.compile(&quant).unwrap();
        assert_eq!(warm.served_from, ServedFrom::Memory);
        assert_eq!(*warm.artifact, *artifacts[0]);

        // A restart (fresh memory front, same directory) serves both
        // families from disk, bit-identically, with zero syntheses.
        let restarted =
            CompileService::with_config(GpuArch::h100(), CompilerOptions::new(), config);
        let disk_quant = restarted.compile(&quant).unwrap();
        let disk_grouped = restarted.compile(&grouped).unwrap();
        assert_eq!(disk_quant.served_from, ServedFrom::Disk);
        assert_eq!(disk_grouped.served_from, ServedFrom::Disk);
        assert_eq!(*disk_quant.artifact, *artifacts[0]);
        assert_eq!(*disk_grouped.artifact, *artifacts[1]);
        assert_eq!(restarted.stats().syntheses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_rejects_new_requests_with_a_typed_error() {
        let service = CompileService::new(GpuArch::a100());
        let program = small_program("shutdown_entry");
        service.shutdown();
        match service.compile(&program) {
            Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            }) => {}
            other => panic!("expected a typed shutdown cancellation, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.shutdown_drained, 1, "{stats}");
        assert_eq!(stats.syntheses, 0, "no synthesis may start after shutdown");
        // Idempotent.
        service.shutdown();
        assert!(service.is_shut_down());
    }

    #[test]
    fn synthesis_errors_are_not_cached() {
        // An empty program fails synthesis; the failure must propagate and a
        // subsequent request must retry (not serve a cached error).
        let service = CompileService::new(GpuArch::a100());
        let program = KernelBuilder::new("empty", 128).build();
        if let Ok(program) = program {
            let first = service.compile(&program);
            let second = service.compile(&program);
            match (first, second) {
                (Err(_), Err(_)) => {
                    assert_eq!(service.stats().syntheses, 2, "errors must not be cached");
                }
                (Ok(_), Ok(_)) => {
                    assert_eq!(service.stats().syntheses, 1);
                }
                other => panic!("inconsistent results across identical requests: {other:?}"),
            }
        }
    }

    #[test]
    fn admission_fast_path_rejects_acquire_after_shutdown() {
        // Regression: the old gate only checked `shutdown` inside the wait
        // loop, so a post-shutdown request that found a free slot was
        // granted one and started a fresh synthesis on a draining service.
        let config = ServiceConfig {
            max_concurrent: 2,
            ..ServiceConfig::default()
        };
        let admission = Admission::new(&config);
        let held = admission
            .acquire(Priority::LatencyCritical, TenantId(0), Instant::now(), None)
            .unwrap();
        admission.shutdown();
        match admission.acquire(Priority::LatencyCritical, TenantId(0), Instant::now(), None) {
            Err(CompileError::Cancelled {
                reason: CancelReason::Shutdown,
            }) => {}
            Err(other) => panic!("expected a shutdown cancellation, got {other:?}"),
            Ok(_) => panic!("a free slot must not be granted after shutdown"),
        }
        drop(held);
    }

    #[test]
    fn shed_requests_raise_the_queue_depth_high_water_mark() {
        // Regression: the high-water mark was only sampled when a waiter
        // parked, so a zero-capacity queue that filled and shed reported
        // `max_queue_depth == 0` under overload.
        let config = ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 0,
            ..ServiceConfig::default()
        };
        let admission = Admission::new(&config);
        let held = admission
            .acquire(Priority::LatencyCritical, TenantId(0), Instant::now(), None)
            .unwrap();
        assert_eq!(admission.max_queue_depth.load(Ordering::Relaxed), 0);
        match admission.acquire(Priority::LatencyCritical, TenantId(1), Instant::now(), None) {
            Err(CompileError::Overloaded {
                queued: 0,
                capacity: 0,
            }) => {}
            Err(other) => panic!("expected a typed overload, got {other:?}"),
            Ok(_) => panic!("a full (zero-capacity) queue must shed"),
        }
        assert_eq!(
            admission.max_queue_depth.load(Ordering::Relaxed),
            1,
            "a shed arrival must raise the high-water mark"
        );
        drop(held);
    }

    #[test]
    fn ticketed_queue_grants_fifo_with_periodic_background_boosts() {
        // One slot, held while six waiters queue up in a known ticket
        // order. Grants must be FIFO within each class, with exactly one
        // background boost after `boost_interval` consecutive latency
        // grants made over the parked background waiters' heads.
        let config = ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 16,
            background_queue_capacity: 16,
            boost_interval: 2,
            ..ServiceConfig::default()
        };
        let admission = Admission::new(&config);
        let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let holder = admission
                .acquire(Priority::LatencyCritical, TenantId(0), Instant::now(), None)
                .unwrap();
            let arrivals: [(Priority, &'static str); 6] = [
                (Priority::LatencyCritical, "L0"),
                (Priority::LatencyCritical, "L1"),
                (Priority::Background, "B0"),
                (Priority::LatencyCritical, "L2"),
                (Priority::Background, "B1"),
                (Priority::Background, "B2"),
            ];
            let mut expected_depth = 0usize;
            for (priority, label) in arrivals {
                let admission = &admission;
                let order = &order;
                scope.spawn(move || {
                    let permit = admission
                        .acquire(priority, TenantId(0), Instant::now(), None)
                        .unwrap();
                    order.lock().unwrap_or_else(|p| p.into_inner()).push(label);
                    drop(permit);
                });
                // Serialize arrivals so ticket order matches spawn order.
                expected_depth += 1;
                while admission.queue_depth() < expected_depth {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            drop(holder);
        });
        let order = order.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(
            *order,
            ["L0", "L1", "B0", "L2", "B1", "B2"],
            "expected FIFO-within-class with one boost after 2 latency grants"
        );
        assert_eq!(admission.background_boosts.load(Ordering::Relaxed), 1);
        assert_eq!(admission.priority_inversions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tenant_quota_parks_only_the_over_quota_tenant() {
        let config = ServiceConfig {
            max_concurrent: 4,
            tenant_quota: 2,
            ..ServiceConfig::default()
        };
        let admission = Admission::new(&config);
        let t1 = TenantId(1);
        let t2 = TenantId(2);
        let a = admission
            .acquire(Priority::LatencyCritical, t1, Instant::now(), None)
            .unwrap();
        let b = admission
            .acquire(Priority::LatencyCritical, t1, Instant::now(), None)
            .unwrap();
        std::thread::scope(|scope| {
            let admission = &admission;
            // Tenant 1 is at its quota: its third request parks despite two
            // free slots.
            let third = scope.spawn(move || {
                admission
                    .acquire(Priority::LatencyCritical, t1, Instant::now(), None)
                    .map(drop)
            });
            while admission.queue_depth() < 1 {
                std::thread::sleep(Duration::from_micros(50));
            }
            // An under-quota tenant is admitted immediately, straight past
            // the quota-blocked waiter.
            let c = admission
                .acquire(Priority::LatencyCritical, t2, Instant::now(), None)
                .unwrap();
            assert_eq!(
                admission.queue_depth(),
                1,
                "t1's third request stays parked"
            );
            drop(c);
            // Releasing one of tenant 1's slots un-blocks its parked waiter.
            drop(a);
            third.join().unwrap().unwrap();
        });
        drop(b);
    }

    #[test]
    fn weighted_fairness_prefers_the_less_loaded_tenant() {
        let config = ServiceConfig {
            max_concurrent: 2,
            ..ServiceConfig::default()
        };
        let admission = Admission::new(&config);
        let t1 = TenantId(1);
        let t2 = TenantId(2);
        let t1_held = admission
            .acquire(Priority::LatencyCritical, t1, Instant::now(), None)
            .unwrap();
        let blocker = admission
            .acquire(Priority::LatencyCritical, TenantId(3), Instant::now(), None)
            .unwrap();
        let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let admission = &admission;
            let order = &order;
            // Tenant 1 (already holding a slot) queues first...
            scope.spawn(move || {
                let permit = admission
                    .acquire(Priority::LatencyCritical, t1, Instant::now(), None)
                    .unwrap();
                order.lock().unwrap_or_else(|p| p.into_inner()).push("t1");
                drop(permit);
            });
            while admission.queue_depth() < 1 {
                std::thread::sleep(Duration::from_micros(50));
            }
            // ...then tenant 2, holding nothing, with a younger ticket.
            scope.spawn(move || {
                let permit = admission
                    .acquire(Priority::LatencyCritical, t2, Instant::now(), None)
                    .unwrap();
                order.lock().unwrap_or_else(|p| p.into_inner()).push("t2");
                drop(permit);
            });
            while admission.queue_depth() < 2 {
                std::thread::sleep(Duration::from_micros(50));
            }
            drop(blocker);
        });
        assert_eq!(
            *order.lock().unwrap_or_else(|p| p.into_inner()),
            ["t2", "t1"],
            "the tenant holding fewer slots must be granted first"
        );
        drop(t1_held);
    }

    #[test]
    fn background_class_requests_serve_and_are_counted() {
        let service = CompileService::new(GpuArch::a100());
        let program = small_program("background_class");
        let tenant = TenantId(7);
        let first = service
            .compile_as(&program, Priority::Background, tenant)
            .unwrap();
        assert_eq!(first.served_from, ServedFrom::Synthesized);
        let second = service
            .compile_as(&program, Priority::Background, tenant)
            .unwrap();
        assert_eq!(second.served_from, ServedFrom::Memory);
        assert_eq!(*first.artifact, *second.artifact);
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.background_requests, 2, "{stats}");
    }
}
