//! Cooperative cancellation for long-running optimiser loops.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the party
//! that wants to stop a run (a service scheduler, a CLI signal handler)
//! and the loop doing the work.  The loop polls [`CancelToken::status`] at
//! its natural yield points — the NSGA-II generation boundary exposed by
//! [`crate::Nsga2::run_with_observer`] — and winds down cleanly when the
//! token reports [`CancelReason::Cancelled`] (someone called
//! [`CancelToken::cancel`]) or [`CancelReason::DeadlineExceeded`] (the
//! optional deadline fixed at token creation has passed).
//!
//! Cancellation is strictly *cooperative*: nothing is interrupted
//! mid-generation, so every side effect the run performed before stopping
//! (cache fills, archived genomes, statistics) is identical to the same
//! prefix of an uninterrupted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a [`CancelToken`] asked the work to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The deadline fixed at token creation has passed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle polled at generation boundaries.
///
/// All clones share one flag: cancelling any clone cancels them all.
/// An explicit [`CancelToken::cancel`] takes precedence over deadline
/// expiry when both hold, so a caller that cancels a job gets back
/// [`CancelReason::Cancelled`] even if the deadline also lapsed.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// Creates a token with no deadline: it only trips when
    /// [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// Creates a token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation.  Idempotent; takes effect at the next poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Returns `Some(reason)` once the work should stop, `None` while it
    /// may keep running.
    pub fn status(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(CancelReason::Cancelled);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Shorthand for `self.status().is_some()`.
    pub fn is_triggered(&self) -> bool {
        self.status().is_some()
    }

    /// The deadline this token was created with, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_quiet() {
        let token = CancelToken::new();
        assert_eq!(token.status(), None);
        assert!(!token.is_triggered());
        assert_eq!(token.deadline(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones_and_idempotent() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        clone.cancel();
        assert_eq!(token.status(), Some(CancelReason::Cancelled));
        assert_eq!(clone.status(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.status(), Some(CancelReason::DeadlineExceeded));
        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(far.status(), None);
        assert!(far.deadline().is_some());
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        token.cancel();
        assert_eq!(token.status(), Some(CancelReason::Cancelled));
    }
}
