//! Fairness / no-starvation tests for the ticketed admission queue (PR 10):
//! with one synthesis slot and both classes parked, grants must be FIFO
//! within a class, latency-critical requests must be preferred, and the
//! periodic background boost must give the background class guaranteed
//! (bounded-wait) progress under a sustained latency-critical stream —
//! never a priority inversion outside a boost. Runs in the
//! `determinism-mt` CI leg: the grant schedule is a pure function of
//! arrival (ticket) order, independent of `HEXCUTE_THREADS`.
//!
//! No test relies on how long a compile takes: every request's synthesis
//! parks in a [`Turnstile`] until the test lets it through, one at a time,
//! so the recorded order follows from the admission schedule alone.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{CompilerOptions, KernelCacheConfig};
use hexcute_e2e::{CompileService, Priority, ServiceConfig, TenantId};
use hexcute_ir::Program;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_synthesis::{set_synth_fault_hook, SynthFaultPoint};

/// How long a turnstile waits for a request to park or return before it
/// fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(60);

#[derive(Debug, Default)]
struct TurnstileState {
    /// Request threads spawned through the turnstile.
    started: usize,
    /// Request threads whose request has returned.
    finished: usize,
    /// Threads whose synthesis is parked, in parking order.
    parked: VecDeque<ThreadId>,
}

/// Parks the synthesis of every request spawned through it at its first
/// stall point until [`Turnstile::release_next`] lets it through. The
/// synthesis fault hook is process-wide, so it is installed once per binary
/// and parks only threads registered with a turnstile: the tests in this
/// binary run side by side without holding each other's syntheses.
#[derive(Debug, Default)]
struct Turnstile {
    state: Mutex<TurnstileState>,
    changed: Condvar,
}

/// The turnstile each registered request thread parks in.
fn registered() -> &'static Mutex<HashMap<ThreadId, Arc<Turnstile>>> {
    static REGISTERED: OnceLock<Mutex<HashMap<ThreadId, Arc<Turnstile>>>> = OnceLock::new();
    REGISTERED.get_or_init(Default::default)
}

impl Turnstile {
    fn new() -> Arc<Self> {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            set_synth_fault_hook(Some(Arc::new(|point| {
                if point == SynthFaultPoint::Stall {
                    let turnstile = registered()
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .remove(&std::thread::current().id());
                    if let Some(turnstile) = turnstile {
                        turnstile.park();
                    }
                }
                None
            })));
        });
        Arc::new(Turnstile::default())
    }

    fn lock(&self) -> MutexGuard<'_, TurnstileState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Spawns a request thread whose next synthesis parks here.
    fn spawn<T: Send + 'static>(
        self: &Arc<Self>,
        request: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        self.lock().started += 1;
        let turnstile = Arc::clone(self);
        std::thread::spawn(move || {
            registered()
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(std::thread::current().id(), Arc::clone(&turnstile));
            let result = request();
            turnstile.lock().finished += 1;
            turnstile.changed.notify_all();
            result
        })
    }

    /// Called from the hook on a registered thread: waits until released.
    fn park(&self) {
        let me = std::thread::current().id();
        let mut state = self.lock();
        state.parked.push_back(me);
        self.changed.notify_all();
        while state.parked.contains(&me) {
            state = self.changed.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Lets the longest-parked synthesis through and waits until its
    /// request has returned. Every unfinished request outside the admission
    /// queue (`queue_depth` deep) holds a slot; all of them park first, so
    /// parking order is grant order.
    fn release_next(&self, queue_depth: usize) {
        let mut state = self.wait_until(|s| {
            !s.parked.is_empty() && s.parked.len() + queue_depth + s.finished >= s.started
        });
        state.parked.pop_front();
        let finished = state.finished + 1;
        self.changed.notify_all();
        drop(state);
        drop(self.wait_until(|s| s.finished >= finished));
    }

    fn wait_until(
        &self,
        ready: impl Fn(&TurnstileState) -> bool,
    ) -> MutexGuard<'_, TurnstileState> {
        let give_up = Instant::now() + PATIENCE;
        let mut state = self.lock();
        while !ready(&state) {
            let now = Instant::now();
            assert!(now < give_up, "requests stopped making progress: {state:?}");
            state = self
                .changed
                .wait_timeout(state, give_up - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        state
    }
}

/// Distinct quick kernels (one per waiter, so nothing coalesces).
fn small_program(k: usize) -> Program {
    fp16_gemm(GemmShape::new(128, 128, k), GemmConfig::default()).unwrap()
}

/// N background waiters park first, then a stream of latency-critical
/// arrivals queues behind one held slot. Every request must complete
/// (bounded wait — the join proves no starvation), same-class requests must
/// complete in submission order, and the interleave must be exactly the
/// boosted-priority schedule: two latency grants, then one boosted
/// background grant, repeating — with zero priority inversions.
#[test]
fn background_waiters_are_never_starved_and_classes_stay_fifo() {
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 16,
        background_queue_capacity: 16,
        boost_interval: 2,
        ..ServiceConfig::default()
    };
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig::default(),
        config,
    ));

    // Occupy the only slot until every waiter below has parked: the
    // holder's synthesis waits in the turnstile.
    let turnstile = Turnstile::new();
    let holder = {
        let service = Arc::clone(&service);
        turnstile.spawn(move || service.compile(&small_program(128)))
    };
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }

    // Arrivals are serialized by polling the queue depth, so ticket order
    // equals submission order: B0..B3 first, then the L0..L7 stream.
    let arrivals: Vec<(Priority, String)> = (0..4)
        .map(|i| (Priority::Background, format!("B{i}")))
        .chain((0..8).map(|i| (Priority::LatencyCritical, format!("L{i}"))))
        .collect();
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for (parked, (priority, label)) in arrivals.into_iter().enumerate() {
        let worker = Arc::clone(&service);
        let order = Arc::clone(&order);
        let failures = Arc::clone(&failures);
        let program = small_program(32 + parked);
        handles.push(turnstile.spawn(move || {
            let tenant = TenantId(0);
            match worker.compile_as(&program, priority, tenant) {
                Ok(_) => order.lock().unwrap().push(label),
                Err(_) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        while service.stats().queue_depth < parked + 1 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    assert_eq!(
        service.stats().syntheses,
        1,
        "the slot holder must still be in flight while the queue builds"
    );

    // The holder, then each granted waiter, finishes before the next grant
    // is released, so completion order is grant order.
    for _ in 0..=handles.len() {
        turnstile.release_next(service.stats().queue_depth);
    }
    holder.join().unwrap().expect("the slot holder succeeds");
    for handle in handles {
        handle.join().expect("waiter threads must complete");
    }
    assert_eq!(failures.load(Ordering::Relaxed), 0, "every waiter succeeds");

    // Expected grant schedule with boost_interval = 2 and everything
    // parked: L,L then a boosted B, repeating; the background tail drains
    // once the latency queue is empty.
    let order = order.lock().unwrap();
    assert_eq!(
        *order,
        ["L0", "L1", "B0", "L2", "L3", "B1", "L4", "L5", "B2", "L6", "L7", "B3"],
        "grants must be FIFO within a class with periodic background boosts"
    );

    let stats = service.stats();
    assert_eq!(stats.background_requests, 4, "{stats}");
    assert_eq!(
        stats.background_boosts, 3,
        "B0..B2 are boosted over parked latency waiters; B3 drains an empty \
         latency queue: {stats}"
    );
    assert_eq!(
        stats.priority_inversions, 0,
        "no background grant may overtake a parked latency waiter outside \
         a boost: {stats}"
    );
    assert_eq!(stats.max_queue_depth, 12, "{stats}");
    assert_eq!(stats.queue_depth, 0, "{stats}");
}

/// Two tenants sharing the latency class under a per-tenant quota: an
/// over-quota tenant's burst must not lock the other tenant out — the
/// quota caps tenant 1 to one in-flight synthesis, so tenant 2's (younger)
/// requests are granted the other slot — and FIFO within each tenant is
/// preserved throughout.
#[test]
fn tenant_bursts_share_the_slots_fairly() {
    let config = ServiceConfig {
        max_concurrent: 2,
        queue_capacity: 32,
        tenant_quota: 1,
        ..ServiceConfig::default()
    };
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig::default(),
        config,
    ));

    // Two distinct kernels (they must not coalesce) on two distinct tenants
    // occupy both slots while the queue builds: their syntheses wait in the
    // turnstile until every request below is parked.
    let turnstile = Turnstile::new();
    let holders: Vec<_> = [(100u32, 32usize), (101u32, 48usize)]
        .into_iter()
        .map(|(tenant, k)| {
            let service = Arc::clone(&service);
            turnstile.spawn(move || {
                let program = small_program(k);
                service.compile_as(&program, Priority::LatencyCritical, TenantId(tenant))
            })
        })
        .collect();
    while service.stats().syntheses < 2 {
        std::thread::yield_now();
    }

    // Tenant 1 bursts six requests, then tenant 2 submits two — strictly
    // younger tickets.
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let arrivals: Vec<(u32, String)> = (0..6)
        .map(|i| (1u32, format!("t1-{i}")))
        .chain((0..2).map(|i| (2u32, format!("t2-{i}"))))
        .collect();
    for (parked, (tenant, label)) in arrivals.into_iter().enumerate() {
        let worker = Arc::clone(&service);
        let order = Arc::clone(&order);
        let program = small_program(64 + parked);
        handles.push(turnstile.spawn(move || {
            let response = worker.compile_as(&program, Priority::LatencyCritical, TenantId(tenant));
            response.expect("tenant requests succeed");
            order.lock().unwrap().push(label);
        }));
        while service.stats().queue_depth < parked + 1 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    // One request at a time finishes, in grant order.
    for _ in 0..holders.len() + handles.len() {
        turnstile.release_next(service.stats().queue_depth);
    }
    for holder in holders {
        holder.join().unwrap().expect("the slot holders succeed");
    }
    for handle in handles {
        handle.join().expect("tenant threads must complete");
    }

    // The quota keeps at most one tenant-1 synthesis in flight, so tenant
    // 2's two requests ride the second slot and finish long before tenant
    // 1's burst drains; within each tenant, completions are FIFO. (Released
    // in grant order, the completions run t1-0, t2-0, t1-1, t2-1, t1-2..5.)
    let order = order.lock().unwrap();
    let t2_last = order.iter().rposition(|l| l.starts_with("t2")).unwrap();
    assert!(
        t2_last <= 4,
        "tenant 2's requests must not wait out tenant 1's burst: {order:?}"
    );
    for tenant in ["t1", "t2"] {
        let seq: Vec<_> = order.iter().filter(|l| l.starts_with(tenant)).collect();
        let mut sorted = seq.clone();
        sorted.sort();
        assert_eq!(seq, sorted, "FIFO within {tenant} violated: {order:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.priority_inversions, 0, "{stats}");
}
