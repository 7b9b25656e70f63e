//! Cooperative cancellation tokens for in-flight parallel work.
//!
//! A [`CancelToken`] is a cheaply clonable handle to one shared cancel flag.
//! The *canceller* (a deadline enforcer, a watchdog thread, a shutdown path)
//! calls [`CancelToken::cancel`] with a [`CancelReason`]; the *workers*
//! (search walks, pool jobs) poll [`CancelToken::is_cancelled`] — a single
//! relaxed atomic load — at natural yield points and abort promptly when it
//! trips. Cancellation is strictly cooperative: nothing is interrupted
//! preemptively, so a worker is always between two poll points when it
//! observes the flag and can unwind cleanly, returning a typed error rather
//! than a partial result.
//!
//! The first cancel wins: once a reason is recorded, later `cancel` calls
//! are no-ops, so a request whose deadline and the process watchdog race
//! reports one coherent reason. The token also records *when* it was
//! cancelled, which lets the serving layer measure cancel-to-worker-free
//! latency (how long a cancelled synthesis held its slot past the cancel).

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why an in-flight compile or search was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The request's deadline expired while its synthesis was in flight.
    Deadline,
    /// The service watchdog tripped on a runaway compile.
    Watchdog,
    /// The owning service is shutting down.
    Shutdown,
}

impl CancelReason {
    const fn as_u8(self) -> u8 {
        match self {
            CancelReason::Deadline => 1,
            CancelReason::Watchdog => 2,
            CancelReason::Shutdown => 3,
        }
    }

    fn from_u8(value: u8) -> Option<Self> {
        match value {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::Watchdog),
            3 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Watchdog => "watchdog",
            CancelReason::Shutdown => "shutdown",
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// `0` = not cancelled; otherwise a [`CancelReason`] discriminant.
    reason: AtomicU8,
    /// When the winning cancel landed (for cancel-to-free latency).
    cancelled_at: OnceLock<Instant>,
}

/// A shared, clonable cooperative-cancellation flag. See the
/// [module docs](self) for the polling contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token with `reason`. The first cancel wins; returns whether
    /// this call was the one that tripped it.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let won = self
            .inner
            .reason
            .compare_exchange(0, reason.as_u8(), Ordering::Release, Ordering::Relaxed)
            .is_ok();
        if won {
            let _ = self.inner.cancelled_at.set(Instant::now());
        }
        won
    }

    /// Whether the token has been cancelled. One relaxed atomic load — cheap
    /// enough to poll per search-tree row.
    pub fn is_cancelled(&self) -> bool {
        self.inner.reason.load(Ordering::Relaxed) != 0
    }

    /// The winning cancel reason, or `None` while uncancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        CancelReason::from_u8(self.inner.reason.load(Ordering::Acquire))
    }

    /// How long ago the winning cancel landed, or `None` while uncancelled.
    /// The serving layer samples this when a cancelled claimant releases its
    /// slot, yielding the cancel-to-worker-free latency.
    pub fn since_cancelled(&self) -> Option<Duration> {
        self.inner.cancelled_at.get().map(Instant::elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_uncancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        assert_eq!(token.since_cancelled(), None);
    }

    #[test]
    fn first_cancel_wins_and_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.cancel(CancelReason::Deadline));
        assert!(!clone.cancel(CancelReason::Watchdog), "second cancel loses");
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason(), Some(CancelReason::Deadline));
        assert!(token.since_cancelled().is_some());
    }

    #[test]
    fn reasons_round_trip_and_display() {
        for reason in [
            CancelReason::Deadline,
            CancelReason::Watchdog,
            CancelReason::Shutdown,
        ] {
            assert_eq!(CancelReason::from_u8(reason.as_u8()), Some(reason));
            assert!(!reason.to_string().is_empty());
        }
        assert_eq!(CancelReason::from_u8(0), None);
        assert_eq!(CancelReason::from_u8(200), None);
    }

    #[test]
    fn since_cancelled_grows() {
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let first = token.since_cancelled().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let second = token.since_cancelled().unwrap();
        assert!(second > first);
    }
}
