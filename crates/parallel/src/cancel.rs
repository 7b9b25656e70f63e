//! Cooperative cancellation tokens for in-flight parallel work.
//!
//! A [`CancelToken`] is a cheaply clonable handle to one shared cancel
//! decision. It trips in one of three ways: a *canceller* (a shutdown path)
//! calls [`CancelToken::cancel`] with a [`CancelReason`], the token's parent
//! trips (see [`CancelToken::child`]), or the token's expiry instant passes.
//! The *workers* (search walks, pool jobs) poll [`CancelToken::is_cancelled`]
//! at natural yield points and abort promptly when it trips. Cancellation is
//! strictly cooperative: nothing is interrupted preemptively, so a worker is
//! always between two poll points when it observes the trip and can unwind
//! cleanly, returning a typed error rather than a partial result.
//!
//! No thread enforces parents or expiries: each poll checks them itself. A
//! poll of an untripped token with no parent and no expiry is one relaxed
//! atomic load; any other token also checks its parent and, when it has an
//! expiry, reads the clock once.
//!
//! A token decides once. When several causes have happened by then, the
//! earliest instant wins: an expiry counts from its instant, an inherited
//! cancel from the parent's, an explicit cancel from its call. On a tie
//! [`CancelReason::Deadline`] beats [`CancelReason::Watchdog`]. The decision
//! is sticky, and [`CancelToken::is_cancelled`], [`CancelToken::reason`] and
//! [`CancelToken::since_cancelled`] always agree. `since_cancelled` counts
//! from the winning instant (a deadline itself, not the poll that noticed
//! it), which lets the serving layer measure cancel-to-worker-free latency:
//! how long a cancelled synthesis held its slot past the cancel.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why an in-flight compile or search was cancelled. Reasons are ordered by
/// precedence when two causes share an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// A cause of cancellation: from when, and why. Tuples order by instant,
/// then by reason precedence, so the earliest cause is the minimum.
type Cause = (Instant, CancelReason);

#[derive(Debug, Default)]
struct Inner {
    /// `0` while undecided; otherwise the discriminant of `decided`'s
    /// reason, stored (`Release`) only after `decided` is set.
    reason: AtomicU8,
    /// The first decision.
    decided: OnceLock<Cause>,
    /// A token whose decision this one inherits.
    parent: Option<CancelToken>,
    /// The earliest of the expiries the token was made with.
    expiry: Option<Cause>,
}

/// A shared, clonable cooperative-cancellation flag. See the
/// [module docs](self) for the polling contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no parent and no expiry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips when `self` does or when the earliest of
    /// `expiries` (instant, reason) passes, whichever is earlier. A child
    /// made after `self` tripped reads as tripped from its first poll, and
    /// cancelling the child leaves `self` alone.
    pub fn child(&self, expiries: impl IntoIterator<Item = (Instant, CancelReason)>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                parent: Some(self.clone()),
                expiry: expiries.into_iter().min(),
                ..Inner::default()
            }),
        }
    }

    /// Trips the token with `reason` unless it has already decided or a
    /// cause has already happened (an inherited cancel or a passed expiry
    /// is never later than this call, so it wins). Returns whether this
    /// call was the one that tripped it.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let now = Instant::now();
        match self.cause(|| now) {
            Some(earlier) => {
                self.settle(earlier);
                false
            }
            None => self.settle((now, reason)),
        }
    }

    /// Whether the token has been cancelled: one relaxed atomic load for a
    /// token with no parent and no expiry, cheap enough to poll per
    /// search-tree row.
    pub fn is_cancelled(&self) -> bool {
        self.inner.reason.load(Ordering::Relaxed) != 0 || self.decide_now()
    }

    /// The winning cancel reason, or `None` while uncancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        self.decision().map(|(_, reason)| reason)
    }

    /// How long ago the winning cause happened, or `None` while
    /// uncancelled. The serving layer samples this when a cancelled
    /// claimant releases its slot, yielding the cancel-to-worker-free
    /// latency.
    pub fn since_cancelled(&self) -> Option<Duration> {
        self.decision().map(|(at, _)| at.elapsed())
    }

    /// The decision, made now if a cause has happened.
    fn decision(&self) -> Option<Cause> {
        // Acquiring a published reason makes `decided` visible.
        if self.inner.reason.load(Ordering::Acquire) == 0 && !self.decide_now() {
            return None;
        }
        self.inner.decided.get().copied()
    }

    /// Decides on the earliest cause that has happened, if any.
    fn decide_now(&self) -> bool {
        self.cause(Instant::now)
            .map(|cause| self.settle(cause))
            .is_some()
    }

    /// The earliest cause that has happened by `now`, which is only read
    /// when the token has an expiry.
    fn cause(&self, now: impl FnOnce() -> Instant) -> Option<Cause> {
        let inherited = self.inner.parent.as_ref().and_then(Self::decision);
        let expired = self.inner.expiry.filter(|&(at, _)| at <= now());
        inherited.into_iter().chain(expired).min()
    }

    /// Records `cause` unless a decision exists, then publishes the
    /// decision's reason. Returns whether `cause` was recorded.
    fn settle(&self, cause: Cause) -> bool {
        let won = self.inner.decided.set(cause).is_ok();
        let (_, reason) = self.inner.decided.get().expect("decided is set");
        self.inner.reason.store(reason.as_u8(), Ordering::Release);
        won
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CancelReason {
        fn from_u8(value: u8) -> Option<Self> {
            match value {
                1 => Some(CancelReason::Deadline),
                2 => Some(CancelReason::Watchdog),
                3 => Some(CancelReason::Shutdown),
                _ => None,
            }
        }
    }

    fn ago(ms: u64) -> Instant {
        Instant::now() - Duration::from_millis(ms)
    }

    #[test]
    fn fresh_token_is_uncancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        assert_eq!(token.since_cancelled(), None);
        let child = token.child([(
            Instant::now() + Duration::from_secs(3600),
            CancelReason::Deadline,
        )]);
        assert!(!child.is_cancelled());
        assert_eq!(child.reason(), None);
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

    #[test]
    fn the_earliest_cause_wins_and_deadline_wins_a_tie() {
        let root = CancelToken::new();
        let expiries = |deadline, watchdog| {
            [
                (ago(deadline), CancelReason::Deadline),
                (ago(watchdog), CancelReason::Watchdog),
            ]
        };
        assert_eq!(
            root.child(expiries(20, 10)).reason(),
            Some(CancelReason::Deadline)
        );
        assert_eq!(
            root.child(expiries(10, 20)).reason(),
            Some(CancelReason::Watchdog)
        );
        let tie = ago(5);
        for pair in [
            [(tie, CancelReason::Watchdog), (tie, CancelReason::Deadline)],
            [(tie, CancelReason::Deadline), (tie, CancelReason::Watchdog)],
        ] {
            assert_eq!(root.child(pair).reason(), Some(CancelReason::Deadline));
        }

        // A deadline that passed before the root was cancelled beats the
        // inherited shutdown, even though nobody polled in between, and an
        // explicit cancel after it loses to it.
        let passed = root.child([(ago(10), CancelReason::Deadline)]);
        let pending = root.child([(
            Instant::now() + Duration::from_secs(3600),
            CancelReason::Deadline,
        )]);
        root.cancel(CancelReason::Shutdown);
        assert!(!passed.cancel(CancelReason::Watchdog));
        assert_eq!(passed.reason(), Some(CancelReason::Deadline));
        assert_eq!(pending.reason(), Some(CancelReason::Shutdown));
    }

    #[test]
    fn a_child_made_after_its_root_was_cancelled_reads_shutdown() {
        let root = CancelToken::new();
        assert!(root.cancel(CancelReason::Shutdown));
        for child in [
            root.child([]),
            root.child([(
                Instant::now() + Duration::from_secs(3600),
                CancelReason::Watchdog,
            )]),
        ] {
            assert!(child.is_cancelled());
            assert_eq!(child.reason(), Some(CancelReason::Shutdown));
            assert!(!child.cancel(CancelReason::Deadline));
        }
        assert!(
            root.child([]).child([]).is_cancelled(),
            "grandchildren inherit too"
        );
    }

    #[test]
    fn the_first_decision_is_sticky() {
        let root = CancelToken::new();
        let token = root.child([(ago(1), CancelReason::Watchdog)]);
        let clone = token.clone();
        assert!(token.is_cancelled());
        let decided_at = token.since_cancelled().unwrap();
        // Later causes change nothing, whatever their reason.
        root.cancel(CancelReason::Shutdown);
        assert!(!token.cancel(CancelReason::Deadline));
        assert_eq!(clone.reason(), Some(CancelReason::Watchdog));
        assert!(clone.since_cancelled().unwrap() >= decided_at);

        // An explicit cancel decides a child with a pending expiry for good;
        // its root's later cancel does not override it.
        let root = CancelToken::new();
        let token = root.child([(
            Instant::now() + Duration::from_secs(3600),
            CancelReason::Deadline,
        )]);
        assert!(token.cancel(CancelReason::Watchdog));
        root.cancel(CancelReason::Shutdown);
        assert_eq!(token.reason(), Some(CancelReason::Watchdog));
        assert!(!root.child([]).cancel(CancelReason::Deadline));
    }

    #[test]
    fn since_cancelled_counts_from_the_winning_instant() {
        let root = CancelToken::new();
        // Nobody polled for 50 ms after the deadline: the latency still
        // counts from the deadline.
        let expired = root.child([(ago(50), CancelReason::Deadline)]);
        assert!(expired.since_cancelled().unwrap() >= Duration::from_millis(50));
        // An inherited cancel counts from the root's cancel.
        root.cancel(CancelReason::Shutdown);
        std::thread::sleep(Duration::from_millis(5));
        let late = root.child([]);
        let from_root = root.since_cancelled().unwrap();
        let from_child = late.since_cancelled().unwrap();
        assert!(from_root >= Duration::from_millis(5));
        assert!(from_child >= from_root, "both count from the root's cancel");
    }
}
