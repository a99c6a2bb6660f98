//! Cooperative deadline cancellation for the timing loop.
//!
//! A wedged or oversized grid cell must not stall the whole run, so the
//! lab gives each cell a wall-clock budget. The simulator cannot be
//! killed preemptively without poisoning shared state, so cancellation
//! is *cooperative*: a [`CancelToken`] carries a shared deadline, passed
//! in as [`RunOptions::cancel`](crate::RunOptions::cancel), and an
//! internal observer polls it from inside the issue loop through the
//! same observer seam the metrics collector uses. The poll is gated by
//! the observer's `CANCELLABLE` associated const, so a run without a
//! token monomorphizes to exactly the uncancellable hot path — the
//! observer seam's zero-cost contract extends to deadlines.
//!
//! Polling strides: the observer consults the clock only every
//! [`POLL_STRIDE`] loop iterations, keeping the per-iteration cost to a
//! counter decrement even when cancellation is armed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{SimObserver, StallCause};

/// How many cancellation polls elapse between wall-clock reads.
pub const POLL_STRIDE: u32 = 1024;

#[derive(Debug)]
struct TokenInner {
    /// Reference instant deadlines are measured from.
    base: Instant,
    /// Deadline in nanoseconds after `base`; `u64::MAX` means never.
    deadline_nanos: AtomicU64,
}

/// A shared, cloneable cancellation deadline.
///
/// Clones share one deadline: [`cancel`](CancelToken::cancel) from any
/// thread is observed by every holder. The token never blocks — it only
/// answers [`is_cancelled`](CancelToken::is_cancelled).
///
/// # Examples
///
/// ```
/// use ddsc_core::CancelToken;
///
/// let token = CancelToken::never();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token that never expires on its own (it can still be
    /// [`cancel`](CancelToken::cancel)led explicitly).
    pub fn never() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                base: Instant::now(),
                deadline_nanos: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// A token expiring `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        let nanos = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX - 1);
        CancelToken {
            inner: Arc::new(TokenInner {
                base: Instant::now(),
                deadline_nanos: AtomicU64::new(nanos),
            }),
        }
    }

    /// Expires the token immediately, for every clone.
    pub fn cancel(&self) {
        self.inner.deadline_nanos.store(0, Ordering::Relaxed);
    }

    /// Whether the deadline has passed (or [`cancel`](CancelToken::cancel)
    /// was called).
    pub fn is_cancelled(&self) -> bool {
        let deadline = self.inner.deadline_nanos.load(Ordering::Relaxed);
        if deadline == u64::MAX {
            return false;
        }
        let elapsed = u64::try_from(self.inner.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        elapsed >= deadline
    }
}

/// The error a cancelled simulation returns: the run was cut short and
/// produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulation cancelled: wall-clock budget exceeded")
    }
}

impl std::error::Error for Cancelled {}

/// An observer adapter arming cancellation around an inner observer.
///
/// Forwards every metrics hook to `inner` unchanged (so metrics and
/// cancellation compose) and answers the timing loop's cancellation
/// polls from the token — reading the clock only every [`POLL_STRIDE`]
/// polls. `ENABLED` mirrors the inner observer's, so wrapping a
/// [`NoopObserver`](crate::metrics::NoopObserver) arms deadlines without
/// turning metrics hooks on.
#[derive(Debug)]
pub(crate) struct CancelObserver<O> {
    inner: O,
    token: CancelToken,
    countdown: u32,
}

impl<O: SimObserver> CancelObserver<O> {
    /// Wraps `inner`, polling `token` for the deadline.
    pub fn new(inner: O, token: CancelToken) -> CancelObserver<O> {
        CancelObserver {
            inner,
            token,
            countdown: POLL_STRIDE,
        }
    }

    /// Unwraps the inner observer (to finish a metrics collection).
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: SimObserver> SimObserver for CancelObserver<O> {
    const ENABLED: bool = O::ENABLED;
    const CANCELLABLE: bool = true;

    fn on_cond_branch(&mut self, mispredicted: bool) {
        self.inner.on_cond_branch(mispredicted);
    }

    fn on_addr_prediction(&mut self, confident: bool, correct: bool) {
        self.inner.on_addr_prediction(confident, correct);
    }

    fn on_issue_cycle(&mut self, cycle: u32, issued: u32, occupancy: u32) {
        self.inner.on_issue_cycle(cycle, issued, occupancy);
    }

    fn on_idle_cycles(&mut self, span: u64, cause: StallCause, occupancy: u32) {
        self.inner.on_idle_cycles(span, cause, occupancy);
    }

    fn on_collapse_group(&mut self, members: u32) {
        self.inner.on_collapse_group(members);
    }

    fn poll_cancelled(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = POLL_STRIDE;
        self.token.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NoopObserver;

    #[test]
    fn never_token_never_expires() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(1));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn deadline_token_expires_and_clones_share_state() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());

        let long = CancelToken::with_deadline(Duration::from_secs(3600));
        let clone = long.clone();
        assert!(!clone.is_cancelled());
        long.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn observer_polls_the_clock_only_every_stride() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let mut obs = CancelObserver::new(NoopObserver, token);
        // The first STRIDE-1 polls never touch the clock.
        for i in 0..POLL_STRIDE - 1 {
            assert!(!obs.poll_cancelled(), "poll {i}");
        }
        assert!(obs.poll_cancelled(), "stride boundary reads the clock");
    }

    #[test]
    fn cancellable_flag_composes_with_enabled() {
        fn enabled<O: SimObserver>(_: &O) -> (bool, bool) {
            (O::ENABLED, O::CANCELLABLE)
        }
        let noop = NoopObserver;
        assert_eq!(enabled(&noop), (false, false));
        let wrapped = CancelObserver::new(NoopObserver, CancelToken::never());
        assert_eq!(enabled(&wrapped), (false, true));
    }
}
