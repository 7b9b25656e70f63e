//! Chaos tests for the fault-tolerant compile service (PR 6 + PR 8):
//! injected synthesis panics must release every coalesced waiter with a
//! typed, retryable error (never a deadlock), transient failures must be
//! retried to success, the admission controller must shed typed overload,
//! and deadlines are enforced while queued, while coalesced *and* against
//! the in-flight synthesis itself — which is cooperatively cancelled,
//! freeing its slot and broadcasting a typed error. Shutdown drains the
//! queue and cancels in-flight work the same way.
//!
//! No test relies on how long a compile takes: a synthesis that must stay
//! in flight is held by [`HoldSyntheses`] until its own cancel trips.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, Once, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

use hexcute_arch::GpuArch;
use hexcute_core::{
    CompileError, CompilerOptions, FaultInjector, FaultKind, FaultSpec, KernelCacheConfig,
};
use hexcute_e2e::{CompileService, ServedFrom, ServiceConfig};
use hexcute_ir::Program;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_synthesis::{set_synth_fault_hook, SynthFaultPoint};

fn unique_temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-chaos-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn small_program(k: usize) -> Program {
    fp16_gemm(GemmShape::new(128, 128, k), GemmConfig::default()).unwrap()
}

/// How long a held synthesis stalls if its cancel never trips: far beyond
/// every deadline and shutdown below, yet short enough that a lost cancel
/// fails the test instead of hanging it.
const HOLD: Duration = Duration::from_secs(10);

fn held_threads() -> &'static Mutex<HashSet<ThreadId>> {
    static HELD: OnceLock<Mutex<HashSet<ThreadId>>> = OnceLock::new();
    HELD.get_or_init(Default::default)
}

/// While alive, stalls the next synthesis started on the creating thread at
/// its first stall point for [`HOLD`]. The stall re-polls the request's
/// cancel token about every millisecond, so it ends as soon as that
/// request's deadline, watchdog or shutdown cancel trips, however fast the
/// compiler is. The synthesis fault hook is process-wide, so it is
/// installed once and stalls only registered threads: tests running
/// concurrently in this binary neither replace each other's hold nor wait
/// on it.
struct HoldSyntheses(ThreadId);

impl HoldSyntheses {
    fn on_this_thread() -> Self {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            set_synth_fault_hook(Some(Arc::new(|point| {
                let held = point == SynthFaultPoint::Stall
                    && held_threads()
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .remove(&std::thread::current().id());
                held.then_some(HOLD)
            })));
        });
        let id = std::thread::current().id();
        held_threads()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id);
        HoldSyntheses(id)
    }
}

impl Drop for HoldSyntheses {
    fn drop(&mut self) {
        held_threads()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.0);
    }
}

fn service_with(config: ServiceConfig, dir: Option<&std::path::Path>) -> CompileService {
    let cache_config = KernelCacheConfig {
        dir: dir.map(|d| d.to_path_buf()),
        ..KernelCacheConfig::default()
    };
    CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        cache_config,
        config,
    )
}

/// Satellite (a): when the claimant of an in-flight synthesis panics, every
/// coalesced waiter must be woken with a typed, retryable error — no waiter
/// may hang, and the service must keep working once the fault clears.
#[test]
fn panicking_synthesis_releases_all_coalesced_waiters() {
    let injector = FaultInjector::new(FaultSpec::default().with_rate(FaultKind::SynthPanic, 1.0));
    let config = ServiceConfig {
        max_retries: 0, // surface the panic instead of retrying it away
        faults: Some(injector.clone()),
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));
    let program = small_program(64);

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let service = Arc::clone(&service);
            let program = program.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.compile(&program)
            })
        })
        .collect();

    // Every thread — claimants and coalesced waiters alike — must return
    // (joining proves no waiter deadlocked) and must see the panic as a
    // typed, transient error.
    for handle in handles {
        match handle.join().expect("client thread must not die") {
            Err(CompileError::Panicked(msg)) => {
                assert!(msg.contains("injected"), "unexpected payload: {msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert!(stats.synth_panics >= 1, "{stats}");
    assert!(
        CompileError::Panicked(String::new()).is_transient(),
        "panics must be classified retryable"
    );

    // Heal the fault: the same program now compiles fine.
    injector.set_enabled(false);
    let response = service.compile(&program).unwrap();
    assert_eq!(response.served_from, ServedFrom::Synthesized);
    assert_eq!(service.stats().requests, n as u64 + 1);
}

/// A transient panic on the first attempt is retried with backoff and the
/// request still succeeds.
#[test]
fn transient_panics_are_retried_to_success() {
    let spec = FaultSpec::default().with_rate(FaultKind::SynthPanic, 0.5);
    // Find a replay seed whose synth-panic draw stream starts
    // (fire, don't fire): attempt one panics, the retry succeeds.
    let seed = (0..1000)
        .find(|&s| {
            let probe = FaultInjector::new(spec.clone().with_seed(s));
            probe.should(FaultKind::SynthPanic) && !probe.should(FaultKind::SynthPanic)
        })
        .expect("some seed must start with (fire, no-fire)");
    let config = ServiceConfig {
        max_retries: 2,
        retry_backoff: Duration::from_micros(200),
        faults: Some(FaultInjector::new(spec.with_seed(seed))),
        ..ServiceConfig::default()
    };
    let service = service_with(config, None);

    let response = service.compile(&small_program(64)).unwrap();
    assert_eq!(response.served_from, ServedFrom::Synthesized);
    let stats = service.stats();
    assert_eq!(stats.synth_panics, 1, "{stats}");
    assert_eq!(stats.retries, 1, "{stats}");
    assert_eq!(
        stats.syntheses, 2,
        "both attempts claimed the synthesis, {stats}"
    );
}

/// With the one slot taken and a zero-length queue, the next request is
/// shed immediately with a typed `Overloaded` — and admitted again once
/// the slot frees up.
#[test]
fn full_queue_sheds_with_typed_overload() {
    let dir = unique_temp_dir("shed");
    // The slot-holder's artifact store is slowed by injected I/O latency,
    // which keeps the admission slot occupied for a deterministic window
    // even if the synthesis itself is fast.
    let injector = FaultInjector::new(FaultSpec {
        io_delay: Duration::from_millis(400),
        ..FaultSpec::default()
    });
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 0,
        faults: Some(injector.clone()),
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, Some(&dir)));

    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.compile(&small_program(128)))
    };
    // Wait until the holder owns the only concurrency slot.
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }

    let err = service.compile(&small_program(96)).unwrap_err();
    match err {
        CompileError::Overloaded { queued, capacity } => {
            assert_eq!(capacity, 0);
            assert_eq!(queued, 0);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    // A shed arrival must register in the queue-depth high-water mark even
    // though it never parked (it was denied at depth 1: itself).
    assert!(
        stats.max_queue_depth >= 1,
        "shed traffic must raise max_queue_depth: {stats}"
    );

    holder
        .join()
        .unwrap()
        .expect("the slot holder itself succeeds");
    // The slot is free again: the shed request is admitted on retry.
    injector.set_enabled(false);
    let response = service.compile(&small_program(96)).unwrap();
    assert_eq!(response.served_from, ServedFrom::Synthesized);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression test for the PR 6 gap: a deadline expiring *after* admission
/// but *during* synthesis must cooperatively cancel the in-flight search —
/// the claimant returns a typed `DeadlineExceeded` within the cancellation
/// poll bound and frees its admission slot, instead of running the search
/// to completion.
#[test]
fn deadline_expiring_mid_synthesis_cancels_the_claimant() {
    let config = ServiceConfig {
        deadline: Some(Duration::from_millis(20)),
        ..ServiceConfig::default()
    };
    let service = service_with(config, None);

    let _hold = HoldSyntheses::on_this_thread();
    let started = std::time::Instant::now();
    let err = service.compile(&small_program(64)).unwrap_err();
    let turnaround = started.elapsed();
    match err {
        CompileError::DeadlineExceeded { elapsed } => {
            assert!(elapsed >= Duration::from_millis(20), "elapsed {elapsed:?}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The held search aborts within the cancellation-poll bound (watchdog
    // scan interval + one stall slice + unwind), not after the full
    // `HOLD`. The generous cap still distinguishes abort from completion.
    assert!(
        turnaround < Duration::from_secs(5),
        "cancellation took {turnaround:?} — the search likely ran to completion"
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 1, "{stats}");
    assert_eq!(
        stats.cancelled, 1,
        "the in-flight synthesis aborted: {stats}"
    );
    // The slot was freed and the cancel-to-free latency recorded.
    assert_eq!(stats.queue_depth, 0, "{stats}");
    let latencies = service.cancel_to_free_latencies();
    assert_eq!(latencies.len(), 1, "{latencies:?}");
}

/// The barrier-synced coalesced variant of the regression above: waiters
/// that joined the doomed synthesis all receive the broadcast typed error —
/// nobody hangs, nobody gets a partial artifact.
#[test]
fn deadline_expires_while_coalesced() {
    let config = ServiceConfig {
        deadline: Some(Duration::from_millis(25)),
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));
    let program = small_program(64);

    // Whichever thread claims the synthesis is held until its deadline.
    let n = 4;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let service = Arc::clone(&service);
            let program = program.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _hold = HoldSyntheses::on_this_thread();
                barrier.wait();
                service.compile(&program)
            })
        })
        .collect();

    // Every thread — the claimant whose search is cancelled mid-flight and
    // the coalesced waiters it broadcasts to — returns DeadlineExceeded.
    for handle in handles {
        match handle.join().expect("client thread must not die") {
            Err(CompileError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, n as u64, "{stats}");
    assert_eq!(stats.cancelled, 1, "one cancelled synthesis: {stats}");
    assert_eq!(stats.queue_depth, 0, "no leaked slots: {stats}");
}

/// Shutdown mid-burst: queued waiters drain with a typed shutdown
/// cancellation, the in-flight synthesis is cancelled, and the in-flight
/// map empties — no client hangs and no slot leaks.
#[test]
fn shutdown_drains_queued_waiters_and_cancels_inflight() {
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));

    // The slot holder's synthesis is held until shutdown cancels it...
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _hold = HoldSyntheses::on_this_thread();
            service.compile(&small_program(128))
        })
    };
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }
    // ...and distinct kernels queue behind it.
    let queued: Vec<_> = [32usize, 48, 64]
        .into_iter()
        .map(|k| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.compile(&small_program(k)))
        })
        .collect();
    while service.stats().queue_depth < 3 {
        std::thread::yield_now();
    }

    service.shutdown();

    match holder.join().expect("holder thread must not die") {
        Err(CompileError::Cancelled { .. }) => {}
        other => panic!("the in-flight synthesis must be cancelled, got {other:?}"),
    }
    for handle in queued {
        match handle.join().expect("queued thread must not die") {
            Err(CompileError::Cancelled { .. }) => {}
            other => panic!("queued waiters must drain typed, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert!(stats.shutdown_drained >= 4, "{stats}");
    assert_eq!(stats.cancelled, 1, "{stats}");
    assert_eq!(stats.queue_depth, 0, "queue must drain: {stats}");
    // Requests after shutdown are rejected typed, immediately.
    assert!(matches!(
        service.compile(&small_program(96)),
        Err(CompileError::Cancelled { .. })
    ));
}

/// PR 9 regression: shutting down mid-flight cancels an in-flight
/// *branch-and-bound pruned* search (pruning is the default compile path)
/// with the typed `Cancelled` error and leaves zero admission slots held —
/// the shared incumbent cell must not keep the claimant running or wedge
/// the cooperative cancel.
#[test]
fn cancelled_pruned_search_frees_its_admission_slot() {
    assert!(
        CompilerOptions::new().synthesis.prune,
        "this regression targets the default pruned compile path"
    );
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));
    // The holder is held inside the pruned walk until shutdown cancels it.
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _hold = HoldSyntheses::on_this_thread();
            service.compile(&small_program(128))
        })
    };
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }
    service.shutdown();
    match holder.join().expect("holder thread must not die") {
        Err(CompileError::Cancelled { .. }) => {}
        other => panic!("the pruned in-flight synthesis must cancel typed, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1, "{stats}");
    assert_eq!(stats.queue_depth, 0, "no leaked admission slots: {stats}");
    assert_eq!(
        service.cancel_to_free_latencies().len(),
        1,
        "the cancelled claimant must free its slot"
    );
}

/// A request still sitting in the admission queue when its deadline passes
/// fails with `DeadlineExceeded` instead of waiting forever. (Since PR 8
/// the slot holder's own deadline also cancels its in-flight synthesis, so
/// both requests fail typed.)
#[test]
fn deadline_expires_while_queued() {
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 4,
        deadline: Some(Duration::from_millis(20)),
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));

    // The holder is held until its own deadline cancels it.
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _hold = HoldSyntheses::on_this_thread();
            service.compile(&small_program(128))
        })
    };
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }

    // A *different* kernel can't coalesce; it queues for the slot and its
    // deadline expires (while queued, or mid-synthesis — held too — if the
    // cancelled holder frees the slot first — typed either way).
    let _hold = HoldSyntheses::on_this_thread();
    let err = service.compile(&small_program(32)).unwrap_err();
    assert!(
        matches!(err, CompileError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );
    let stats = service.stats();
    assert!(stats.deadline_exceeded >= 1, "{stats}");
    assert!(stats.max_queue_depth >= 1, "{stats}");

    let err = holder
        .join()
        .unwrap()
        .expect_err("the holder's own deadline cancels its synthesis");
    assert!(
        matches!(err, CompileError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );
}

/// A bounded service admits everything that fits in the queue: four
/// distinct kernels through one slot all succeed, serialized.
#[test]
fn bounded_queue_serializes_without_loss() {
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = Arc::new(service_with(config, None));
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = [32usize, 48, 64, 80]
        .into_iter()
        .map(|k| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.compile(&small_program(k))
            })
        })
        .collect();
    for handle in handles {
        let response = handle
            .join()
            .unwrap()
            .expect("queued requests must all be served");
        assert_eq!(response.served_from, ServedFrom::Synthesized);
    }
    let stats = service.stats();
    assert_eq!(stats.syntheses, 4, "{stats}");
    assert_eq!(stats.shed + stats.deadline_exceeded, 0, "{stats}");
    assert_eq!(stats.queue_depth, 0, "queue must drain, {stats}");
}
