//! Fault-injection hooks and cancellation polling for the synthesis walks.
//!
//! Mirrors the pool fault hook of `hexcute_parallel`: the chaos layer
//! (`hexcute_core::faults`) installs a process-wide verdict function here,
//! and the search walks consult it at their natural poll points. With no
//! hook installed every injection site reduces to one relaxed atomic load.
//!
//! Two faults are injectable:
//!
//! * **synth stall** ([`SynthFaultPoint::Stall`]) — an artificial delay
//!   inside the walk, simulating a pathologically slow subtree. The stall
//!   sleeps in ~1 ms slices re-polling the walk's [`CancelToken`], so a
//!   deadline or watchdog cancel cuts through a stall instead of waiting it
//!   out.
//! * **cancel race** ([`SynthFaultPoint::CancelPoll`]) — a short delay
//!   injected *at a cancellation poll site*, deterministically widening the
//!   window in which a cancel can land "just before" the poll. This
//!   exercises the ordering between cancellation and the walk's progress
//!   without relying on scheduler luck.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hexcute_parallel::cancel::{CancelReason, CancelToken};

/// Where in the synthesis walk a fault hook is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthFaultPoint {
    /// Once per evaluated selection: a `Some(duration)` verdict stalls the
    /// walk for that long (interruptibly — see the [module docs](self)).
    Stall,
    /// At each cancellation poll: a `Some(duration)` verdict sleeps that
    /// long *before* the poll reads the flag, widening the cancel race
    /// window.
    CancelPoll,
}

/// A fault verdict function: `Some(delay)` means "inject a delay here".
/// Installed process-wide by the fault-injection layer.
pub type SynthFaultHook = Arc<dyn Fn(SynthFaultPoint) -> Option<Duration> + Send + Sync>;

static HOOK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn hook_slot() -> &'static Mutex<Option<SynthFaultHook>> {
    static HOOK: OnceLock<Mutex<Option<SynthFaultHook>>> = OnceLock::new();
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Installs (or, with `None`, removes) the process-wide synthesis fault
/// hook. When no hook is installed the walks' poll sites check a single
/// relaxed atomic and nothing else.
pub fn set_synth_fault_hook(hook: Option<SynthFaultHook>) {
    let mut slot = hook_slot().lock().unwrap_or_else(|p| p.into_inner());
    HOOK_ACTIVE.store(hook.is_some(), Ordering::Release);
    *slot = hook;
}

/// Consults the installed hook; `None` when none is installed.
fn fault_delay(point: SynthFaultPoint) -> Option<Duration> {
    if !HOOK_ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let hook = hook_slot()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    hook.and_then(|h| h(point))
}

/// One cancellation poll: returns the cancel reason when `token` has
/// tripped, `None` otherwise (including when no token is carried). An
/// injected cancel-race delay sleeps *before* the read, so a cancel landing
/// during the widened window is observed by this very poll.
pub(crate) fn poll_cancelled(token: Option<&CancelToken>) -> Option<CancelReason> {
    let token = token?;
    if !token.is_cancelled() {
        if let Some(delay) = fault_delay(SynthFaultPoint::CancelPoll) {
            std::thread::sleep(delay);
        }
    }
    if token.is_cancelled() {
        token.reason()
    } else {
        None
    }
}

/// One stall-injection site: sleeps for the injected duration (if any) in
/// ~1 ms slices, re-polling `token` between slices. Returns the cancel
/// reason when the token trips mid-stall, `None` when the stall completed
/// (or none was injected).
pub(crate) fn injected_stall(token: Option<&CancelToken>) -> Option<CancelReason> {
    let delay = fault_delay(SynthFaultPoint::Stall)?;
    if delay.is_zero() {
        return None;
    }
    let until = Instant::now() + delay;
    loop {
        if let Some(t) = token {
            if t.is_cancelled() {
                return t.reason();
            }
        }
        let now = Instant::now();
        if now >= until {
            return None;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hook_means_no_delay() {
        assert_eq!(fault_delay(SynthFaultPoint::Stall), None);
        assert_eq!(fault_delay(SynthFaultPoint::CancelPoll), None);
        assert_eq!(poll_cancelled(None), None);
        assert_eq!(injected_stall(None), None);
    }

    #[test]
    fn poll_reports_a_tripped_token() {
        let token = CancelToken::new();
        assert_eq!(poll_cancelled(Some(&token)), None);
        token.cancel(CancelReason::Watchdog);
        assert_eq!(poll_cancelled(Some(&token)), Some(CancelReason::Watchdog));
    }

    #[test]
    fn stall_is_interrupted_by_cancellation() {
        // Install a hook stalling 10 s; cancel from another thread after a
        // few ms: the stall must return the reason long before 10 s. The
        // hook is process-wide, so it stalls only this test's thread: a
        // sibling test's synthesis must neither take the stall nor wait on
        // it.
        let me = std::thread::current().id();
        set_synth_fault_hook(Some(Arc::new(move |point| {
            (point == SynthFaultPoint::Stall && std::thread::current().id() == me)
                .then(|| Duration::from_secs(10))
        })));
        let token = CancelToken::new();
        let t = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            t.cancel(CancelReason::Deadline);
        });
        let start = Instant::now();
        let reason = injected_stall(Some(&token));
        set_synth_fault_hook(None);
        canceller.join().unwrap();
        assert_eq!(reason, Some(CancelReason::Deadline));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall must be cut short by the cancel"
        );
    }
}
