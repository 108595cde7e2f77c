//! Unified error types and cooperative cancellation for the simulator.
//!
//! Everything a batch executor needs to keep running when one experiment
//! cell goes wrong: [`CellError`] is the typed per-cell failure surfaced
//! in results and reports (a configuration failure included), and
//! [`CancelToken`] carries soft wall-clock budgets and batch-wide abort
//! flags into the simulation hot loop.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::ConfigError;

/// Why one experiment cell failed to produce a [`Ok`] result.
///
/// Batch executors return `Vec<Result<_, CellError>>`, so one poisoned cell
/// becomes a row-level value instead of aborting the whole campaign.
#[derive(Clone, Debug, PartialEq)]
pub enum CellError {
    /// The cell panicked; the payload message is preserved.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The cell exceeded its wall-clock budget; partial progress counters
    /// describe how far the simulation got.
    TimedOut {
        /// The configured budget in seconds.
        budget_seconds: f64,
        /// Simulated cycles completed when the budget expired.
        cycles: u64,
        /// Accesses replayed when the budget expired.
        accesses: u64,
    },
    /// The batch was aborted (fail-fast) before or while this cell ran.
    Cancelled,
    /// A post-run VM-state invariant was violated.
    Invariant(String),
    /// The cell's configuration failed validation.
    Config(ConfigError),
}

impl CellError {
    /// Short machine-readable status label (used in reports and tables).
    pub fn status(&self) -> &'static str {
        match self {
            CellError::Panicked { .. } => "panicked",
            CellError::TimedOut { .. } => "timed-out",
            CellError::Cancelled => "cancelled",
            CellError::Invariant(_) => "invariant-violated",
            CellError::Config(_) => "config-error",
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Panicked { message } => write!(f, "cell panicked: {message}"),
            CellError::TimedOut {
                budget_seconds,
                cycles,
                accesses,
            } => write!(
                f,
                "cell timed out after {budget_seconds}s ({cycles} cycles, {accesses} accesses simulated)"
            ),
            CellError::Cancelled => write!(f, "cell cancelled by batch abort"),
            CellError::Invariant(msg) => write!(f, "{msg}"),
            CellError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CellError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CellError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CellError {
    fn from(e: ConfigError) -> Self {
        CellError::Config(e)
    }
}

/// What a [`CancelToken`] poll observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelState {
    /// Keep going.
    Running,
    /// The shared abort flag was raised (e.g. fail-fast).
    Cancelled,
    /// The per-cell wall-clock budget expired.
    TimedOut,
}

/// Cooperative cancellation handle threaded into the simulation loop.
///
/// A token combines an optional *shared abort flag* (one per batch; raising
/// it cancels every in-flight cell) with an optional *per-cell deadline*
/// (a soft wall-clock budget). The simulation polls the token at a coarse
/// access granularity, so cancellation latency is bounded by a few thousand
/// simulated accesses, not by the whole run.
///
/// ```
/// use grit_sim::{CancelState, CancelToken};
/// use std::time::Duration;
///
/// let batch = CancelToken::shared();
/// let cell = batch.child(None);
/// assert_eq!(cell.poll(), CancelState::Running);
/// batch.cancel();
/// assert_eq!(cell.poll(), CancelState::Cancelled);
///
/// let strict = CancelToken::new().with_budget(Duration::ZERO);
/// assert_eq!(strict.poll(), CancelState::TimedOut);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    budget: Option<Duration>,
}

impl CancelToken {
    /// An inert token that never fires.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token carrying a fresh shared abort flag. Clones (and
    /// [`CancelToken::child`] tokens) observe [`CancelToken::cancel`] calls
    /// made through any of them.
    pub fn shared() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
            budget: None,
        }
    }

    /// Adds a wall-clock budget starting now.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self.budget = Some(budget);
        self
    }

    /// A per-cell token sharing this token's abort flag, with an optional
    /// budget starting now.
    pub fn child(&self, budget: Option<Duration>) -> Self {
        let t = CancelToken {
            flag: self.flag.clone(),
            deadline: None,
            budget: None,
        };
        match budget {
            Some(b) => t.with_budget(b),
            None => t,
        }
    }

    /// Raises the shared abort flag (no-op on tokens without one).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether polling can ever observe anything but `Running`. Hot loops
    /// hoist this so inert tokens cost nothing.
    pub fn is_active(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some()
    }

    /// Polls the token. The abort flag wins over the deadline so a
    /// batch-wide abort reports `Cancelled` even on cells that also ran out
    /// of budget.
    pub fn poll(&self) -> CancelState {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return CancelState::Cancelled;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return CancelState::TimedOut;
            }
        }
        CancelState::Running
    }

    /// The configured budget in seconds (0.0 when no budget was set), for
    /// constructing [`CellError::TimedOut`].
    pub fn budget_seconds(&self) -> f64 {
        self.budget.map_or(0.0, |b| b.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_active());
        assert_eq!(t.poll(), CancelState::Running);
        t.cancel(); // no flag: no-op
        assert_eq!(t.poll(), CancelState::Running);
    }

    #[test]
    fn shared_flag_propagates_to_children_and_clones() {
        let parent = CancelToken::shared();
        let child = parent.child(None);
        let clone = child.clone();
        assert_eq!(child.poll(), CancelState::Running);
        parent.cancel();
        assert_eq!(child.poll(), CancelState::Cancelled);
        assert_eq!(clone.poll(), CancelState::Cancelled);
    }

    #[test]
    fn zero_budget_times_out_immediately() {
        let t = CancelToken::new().with_budget(Duration::ZERO);
        assert!(t.is_active());
        assert_eq!(t.poll(), CancelState::TimedOut);
        assert_eq!(t.budget_seconds(), 0.0);
    }

    #[test]
    fn abort_flag_wins_over_deadline() {
        let t = CancelToken::shared().with_budget(Duration::ZERO);
        t.cancel();
        assert_eq!(t.poll(), CancelState::Cancelled);
    }

    #[test]
    fn long_budget_keeps_running() {
        let t = CancelToken::new().with_budget(Duration::from_secs(3600));
        assert_eq!(t.poll(), CancelState::Running);
        assert!((t.budget_seconds() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn cell_error_display_and_status() {
        let e = CellError::Panicked {
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert_eq!(e.status(), "panicked");
        let e = CellError::TimedOut {
            budget_seconds: 2.0,
            cycles: 10,
            accesses: 5,
        };
        assert!(e.to_string().contains("timed out"));
        assert_eq!(e.status(), "timed-out");
        assert_eq!(CellError::Cancelled.status(), "cancelled");
    }

    #[test]
    fn config_errors_convert_into_cell_errors() {
        let cfg_err = ConfigError {
            field: "num_gpus",
            reason: "must be at least 1".into(),
        };
        let c: CellError = cfg_err.clone().into();
        assert_eq!(c, CellError::Config(cfg_err));
        assert!(c.to_string().contains("num_gpus"));
        assert_eq!(c.status(), "config-error");
        // Source chains terminate at the config error.
        assert!(std::error::Error::source(&c).is_some());
    }
}
