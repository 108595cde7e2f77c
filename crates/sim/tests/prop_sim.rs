//! Property tests for the simulation substrate: MLP window scheduling,
//! GPU sets, scheme/group encodings and deterministic randomness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use grit_sim::{Cycle, GpuId, GpuSet, GroupSize, MlpWindow, PageId, Scheme, SimRng};

/// Reference MLP window: in-flight completions in a min-heap, retiring
/// the earliest first. [`MlpWindow`] must match it step for step.
struct HeapWindow {
    capacity: usize,
    inflight: BinaryHeap<Reverse<Cycle>>,
    last_drain: Cycle,
    stall_cycles: Cycle,
}

impl HeapWindow {
    fn new(capacity: usize) -> Self {
        HeapWindow {
            capacity,
            inflight: BinaryHeap::new(),
            last_drain: 0,
            stall_cycles: 0,
        }
    }

    fn issue_at(&mut self, ready: Cycle) -> Cycle {
        while self.inflight.peek().is_some_and(|&Reverse(t)| t <= ready) {
            self.inflight.pop();
        }
        if self.inflight.len() < self.capacity {
            return ready;
        }
        let Reverse(t) = self.inflight.pop().expect("window non-empty");
        let issue = t.max(ready);
        self.stall_cycles += issue - ready;
        issue
    }

    fn complete(&mut self, done: Cycle) {
        self.inflight.push(Reverse(done));
    }

    fn drain_time(&mut self) -> Cycle {
        while let Some(Reverse(t)) = self.inflight.pop() {
            self.last_drain = self.last_drain.max(t);
        }
        self.last_drain
    }
}

proptest! {
    #[test]
    fn mlp_issue_is_never_before_ready(
        completions in prop::collection::vec(0u64..10_000, 0..8),
        ready in 0u64..10_000,
    ) {
        let mut w = MlpWindow::new(8);
        for c in completions {
            w.complete(c);
        }
        let t = w.issue_at(ready);
        prop_assert!(t >= ready);
        prop_assert!(w.in_flight() < 8, "issue must leave a free slot");
    }

    #[test]
    fn mlp_in_flight_bounded(ops in prop::collection::vec((0u64..1000, 0u64..1000), 1..200)) {
        let mut w = MlpWindow::new(4);
        for (ready, extra) in ops {
            let t = w.issue_at(ready);
            w.complete(t + extra);
            prop_assert!(w.in_flight() <= 4);
        }
    }

    #[test]
    fn mlp_drain_is_max_completion(completions in prop::collection::vec(0u64..100_000, 1..50)) {
        let mut w = MlpWindow::new(64);
        let max = *completions.iter().max().unwrap();
        for c in &completions {
            w.complete(*c);
        }
        prop_assert_eq!(w.drain_time(), max);
        prop_assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn mlp_window_matches_a_heap_reference(
        capacity in 1usize..6,
        ops in prop::collection::vec((0u8..4, 0u64..2_000, 0u64..600), 1..300),
    ) {
        let mut w = MlpWindow::new(capacity);
        let mut model = HeapWindow::new(capacity);
        let mut now = 0;
        for (op, a, b) in ops {
            match op {
                // The runner's pattern: issue at a non-decreasing ready
                // cycle, then complete some latency later.
                0 => {
                    now += a % 50;
                    let t = w.issue_at(now);
                    prop_assert_eq!(t, model.issue_at(now));
                    now = t;
                    w.complete(t + b);
                    model.complete(t + b);
                }
                // An arbitrary, possibly out-of-order completion.
                1 => {
                    w.complete(a);
                    model.complete(a);
                }
                // An issue at an arbitrary ready cycle.
                2 => prop_assert_eq!(w.issue_at(a), model.issue_at(a)),
                _ => prop_assert_eq!(w.drain_time(), model.drain_time()),
            }
            prop_assert_eq!(w.in_flight(), model.inflight.len());
            prop_assert_eq!(w.stall_cycles(), model.stall_cycles);
        }
        prop_assert_eq!(w.drain_time(), model.drain_time());
    }

    #[test]
    fn gpu_set_behaves_like_hashset(ops in prop::collection::vec((0u8..16, any::<bool>()), 0..100)) {
        let mut real = GpuSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (g, insert) in ops {
            if insert {
                prop_assert_eq!(real.insert(GpuId::new(g)), model.insert(g));
            } else {
                prop_assert_eq!(real.remove(GpuId::new(g)), model.remove(&g));
            }
            prop_assert_eq!(real.len(), model.len());
            let members: Vec<u8> = real.iter().map(|x| x.raw()).collect();
            let expected: Vec<u8> = model.iter().copied().collect();
            prop_assert_eq!(members, expected);
        }
    }

    #[test]
    fn scheme_bits_are_injective(a in 0u64..4, b in 0u64..4) {
        let sa = Scheme::from_bits(a);
        let sb = Scheme::from_bits(b);
        prop_assert_eq!(sa == sb, a == b);
    }

    #[test]
    fn group_base_is_idempotent_and_aligned(vpn in any::<u32>().prop_map(u64::from)) {
        for g in [GroupSize::Eight, GroupSize::SixtyFour, GroupSize::FiveTwelve] {
            let base = PageId(vpn).group_base(g.pages());
            prop_assert_eq!(base.vpn() % g.pages(), 0);
            prop_assert_eq!(base.group_base(g.pages()), base);
            prop_assert!(base.vpn() <= vpn);
            prop_assert!(vpn - base.vpn() < g.pages());
        }
    }

    #[test]
    fn counter_groups_partition_pages(vpn in any::<u32>().prop_map(u64::from)) {
        // 16 consecutive 4 KB pages share one 64 KB counter group.
        let g = PageId(vpn).counter_group(4096);
        prop_assert_eq!(g, vpn / 16);
    }

    #[test]
    fn rng_streams_reproduce(seed in any::<u64>()) {
        let mut a = SimRng::seeded(seed);
        let mut b = SimRng::seeded(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.below(1 << 30), b.below(1 << 30));
        }
        let mut fa = a.fork(7);
        let mut fb = b.fork(7);
        prop_assert_eq!(fa.below(1000), fb.below(1000));
    }

    #[test]
    fn zipf_stays_in_support(seed in any::<u64>(), n in 1u64..10_000, theta in 0.1f64..1.6) {
        let mut r = SimRng::seeded(seed);
        for _ in 0..64 {
            prop_assert!(r.zipf(n, theta) < n);
        }
    }
}
