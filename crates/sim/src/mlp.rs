//! Bounded-outstanding-request window modelling GPU memory-level
//! parallelism.
//!
//! A real GPU hides memory latency behind thousands of threads; a fully
//! serial trace replay would wildly overweight latency. [`MlpWindow`] keeps
//! up to `capacity` operations in flight per GPU: an access may *issue* as
//! soon as a slot is free, and the GPU's trace front advances at issue time
//! while the access completes in the background.
//!
//! In-flight completions are kept in ascending order: a completion almost
//! always lands at or after the latest one (it is `push_back`), and
//! retiring pops from the front.

use std::collections::VecDeque;

use crate::Cycle;

/// Tracks completion times of in-flight memory operations for one GPU.
///
/// ```
/// use grit_sim::MlpWindow;
/// let mut w = MlpWindow::new(2);
/// assert_eq!(w.issue_at(0), 0);   // empty: issue immediately
/// w.complete(100);
/// w.complete(50);
/// // window full: next issue waits for the earliest completion (50)
/// assert_eq!(w.issue_at(10), 50);
/// ```
#[derive(Clone, Debug)]
pub struct MlpWindow {
    capacity: usize,
    /// In-flight completion cycles, ascending.
    inflight: VecDeque<Cycle>,
    last_drain: Cycle,
    stall_cycles: Cycle,
}

impl MlpWindow {
    /// A window allowing `capacity` outstanding operations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MLP window capacity must be non-zero");
        MlpWindow {
            capacity,
            inflight: VecDeque::with_capacity(capacity + 1),
            last_drain: 0,
            stall_cycles: 0,
        }
    }

    /// Earliest cycle at which a new operation can issue, given the GPU is
    /// otherwise ready at `ready`. Retires every operation that completes by
    /// that time.
    pub fn issue_at(&mut self, ready: Cycle) -> Cycle {
        // Retire operations that completed before the GPU is ready anyway.
        while let Some(&t) = self.inflight.front() {
            if t <= ready {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.capacity {
            ready
        } else {
            // Must wait for the earliest in-flight completion.
            let t = self.inflight.pop_front().expect("window non-empty");
            let issue = t.max(ready);
            self.stall_cycles += issue - ready;
            issue
        }
    }

    /// Records that an operation issued earlier will complete at `done`.
    pub fn complete(&mut self, done: Cycle) {
        match self.inflight.back() {
            Some(&last) if last > done => {
                let at = self.inflight.partition_point(|&t| t <= done);
                self.inflight.insert(at, done);
            }
            _ => self.inflight.push_back(done),
        }
    }

    /// Cycle by which everything currently in flight has completed.
    pub fn drain_time(&mut self) -> Cycle {
        if let Some(&t) = self.inflight.back() {
            self.last_drain = self.last_drain.max(t);
        }
        self.inflight.clear();
        self.last_drain
    }

    /// Total cycles issues waited on a full window (issue time minus
    /// ready time, summed): the GPU's memory-level-parallelism stall.
    pub fn stall_cycles(&self) -> Cycle {
        self.stall_cycles
    }

    /// Number of operations currently tracked in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_issues_immediately() {
        let mut w = MlpWindow::new(4);
        assert_eq!(w.issue_at(123), 123);
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn full_window_blocks_on_earliest_completion() {
        let mut w = MlpWindow::new(2);
        w.complete(200);
        w.complete(300);
        // Ready at 10 but both slots busy; earliest frees at 200.
        assert_eq!(w.issue_at(10), 200);
        assert_eq!(w.in_flight(), 1);
        // A slot is now free, so the next issue is immediate; the 300
        // completion is still outstanding.
        assert_eq!(w.issue_at(10), 10);
        assert_eq!(w.in_flight(), 1);
        // Filling the window again forces a wait on the 300 completion.
        w.complete(400);
        assert_eq!(w.issue_at(10), 300);
    }

    #[test]
    fn retired_operations_free_slots() {
        let mut w = MlpWindow::new(2);
        w.complete(50);
        w.complete(60);
        // Ready at 100: both have completed, issue immediately.
        assert_eq!(w.issue_at(100), 100);
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn drain_returns_max_completion() {
        let mut w = MlpWindow::new(4);
        w.complete(10);
        w.complete(99);
        w.complete(55);
        assert_eq!(w.drain_time(), 99);
        assert_eq!(w.in_flight(), 0);
        // Draining again with nothing in flight keeps the high-water mark.
        assert_eq!(w.drain_time(), 99);
    }

    #[test]
    fn issue_never_before_ready() {
        let mut w = MlpWindow::new(1);
        w.complete(5);
        assert_eq!(w.issue_at(10), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = MlpWindow::new(0);
    }

    #[test]
    fn stall_cycles_accumulate() {
        let mut w = MlpWindow::new(1);
        assert_eq!(w.issue_at(10), 10);
        assert_eq!(w.stall_cycles(), 0);
        w.complete(100);
        // Ready at 40, issues at 100: 60 cycles stalled on the window.
        assert_eq!(w.issue_at(40), 100);
        assert_eq!(w.stall_cycles(), 60);
    }
}
