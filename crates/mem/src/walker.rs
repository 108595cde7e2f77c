//! GMMU page-table-walker pool (Table I: 8 shared walkers, 100 cycles per
//! radix level, 128-entry shared page-walk cache, 64-entry walk queue).

use grit_sim::{Cycle, PageId, WalkConfig};

use crate::cache::SetAssocCache;

/// Result of scheduling one page-table walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalkOutcome {
    /// Cycle at which the walk finishes and the translation (or fault
    /// detection) is available.
    pub done_at: Cycle,
    /// Radix levels actually fetched from memory (upper levels can be
    /// skipped thanks to the page-walk cache).
    pub levels_fetched: u32,
    /// Cycles the request waited for a free walker (queueing delay).
    pub queue_wait: Cycle,
}

/// A pool of hardware page-table walkers shared by all CUs of one GPU.
///
/// Walk latency is `levels_fetched * cycles_per_level`; the page-walk cache
/// holds upper-level (non-leaf) entries keyed by the VPN prefix of each
/// level, so walks to nearby pages skip the shared prefix levels. Requests
/// contend for `walkers` units; when more than `queue_capacity` requests are
/// already waiting, additional requests stall until the queue drains (the
/// queue itself is modelled through walker availability times).
///
/// ```
/// use grit_mem::WalkerPool;
/// use grit_sim::{PageId, WalkConfig};
/// let mut w = WalkerPool::new(WalkConfig::default());
/// let first = w.walk(0, PageId(0));
/// assert_eq!(first.levels_fetched, 4);        // cold: all levels
/// let second = w.walk(first.done_at, PageId(1));
/// assert_eq!(second.levels_fetched, 1);       // neighbours share upper levels
/// ```
#[derive(Clone, Debug)]
pub struct WalkerPool {
    cfg: WalkConfig,
    walker_free_at: Vec<Cycle>,
    walk_cache: SetAssocCache<u64, ()>,
    /// Completion times of walks still outstanding (bounded by the walk
    /// queue: a request arriving with the queue full waits for its head).
    outstanding: std::collections::VecDeque<Cycle>,
    queue_full_stalls: u64,
    walks: u64,
    total_levels: u64,
}

/// Bits of VPN consumed per radix level (x86-style 512-entry tables).
const BITS_PER_LEVEL: u32 = 9;

impl WalkerPool {
    /// Builds the pool.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero walkers or zero levels.
    pub fn new(cfg: WalkConfig) -> Self {
        assert!(cfg.walkers > 0 && cfg.levels > 0, "invalid walk config");
        let ways = 4.min(cfg.walk_cache_entries);
        WalkerPool {
            cfg,
            walker_free_at: vec![0; cfg.walkers],
            walk_cache: SetAssocCache::with_entries(
                cfg.walk_cache_entries - cfg.walk_cache_entries % ways,
                ways,
            ),
            outstanding: std::collections::VecDeque::new(),
            queue_full_stalls: 0,
            walks: 0,
            total_levels: 0,
        }
    }

    fn level_key(vpn: PageId, level: u32) -> u64 {
        // Tag the level into the top bits so different levels never alias.
        (vpn.vpn() >> (BITS_PER_LEVEL * level)) | ((level as u64) << 58)
    }

    /// Schedules a walk for `vpn` arriving at cycle `now`.
    pub fn walk(&mut self, mut now: Cycle, vpn: PageId) -> WalkOutcome {
        let arrival = now;
        // Retire completed walks, then enforce the walk-queue bound: a
        // request hitting a full queue waits for the queue head to retire.
        while self.outstanding.front().is_some_and(|&t| t <= now) {
            self.outstanding.pop_front();
        }
        if self.outstanding.len() >= self.cfg.queue_capacity + self.cfg.walkers {
            if let Some(&head) = self.outstanding.front() {
                now = now.max(head);
                self.queue_full_stalls += 1;
            }
        }
        // Determine how many levels must be fetched: find the deepest
        // non-leaf level cached; everything below it (plus the leaf) is
        // fetched. Levels are numbered leaf = 0 .. root = levels-1.
        let mut levels_fetched = self.cfg.levels;
        for level in 1..self.cfg.levels {
            if self.walk_cache.get(&Self::level_key(vpn, level)).is_some() {
                levels_fetched = level;
                break;
            }
        }
        // Install the prefix entries this walk observed.
        for level in 1..self.cfg.levels {
            self.walk_cache.insert(Self::level_key(vpn, level), ());
        }

        // Pick the earliest-free walker.
        let (idx, &free_at) = self
            .walker_free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("at least one walker");
        let start = now.max(free_at);
        let latency = levels_fetched as Cycle * self.cfg.cycles_per_level;
        let done = start + latency;
        self.walker_free_at[idx] = done;

        self.outstanding.push_back(done);
        self.walks += 1;
        self.total_levels += levels_fetched as u64;
        WalkOutcome {
            done_at: done,
            levels_fetched,
            queue_wait: start - arrival,
        }
    }

    /// Mean levels fetched per walk (page-walk-cache effectiveness).
    pub fn mean_levels(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.total_levels as f64 / self.walks as f64
        }
    }

    /// Walks that stalled on a full walk queue.
    pub fn queue_full_stalls(&self) -> u64 {
        self.queue_full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WalkerPool {
        WalkerPool::new(WalkConfig::default())
    }

    #[test]
    fn cold_walk_touches_all_levels() {
        let mut w = pool();
        let o = w.walk(0, PageId(12345));
        assert_eq!(o.levels_fetched, 4);
        assert_eq!(o.done_at, 400);
        assert_eq!(o.queue_wait, 0);
    }

    #[test]
    fn walk_cache_shortens_neighbour_walks() {
        let mut w = pool();
        w.walk(0, PageId(512));
        // Same level-1 prefix (>>9 equal): only the leaf is fetched.
        let o = w.walk(1000, PageId(513));
        assert_eq!(o.levels_fetched, 1);
        // Different level-1 prefix but same level-2 prefix: two levels.
        let o = w.walk(2000, PageId(1024));
        assert_eq!(o.levels_fetched, 2);
    }

    #[test]
    fn walkers_serialize_when_saturated() {
        let mut w = pool();
        // Issue 9 cold walks at cycle 0 to distinct far-apart pages: the
        // ninth must wait for a walker.
        let mut outcomes = Vec::new();
        for i in 0..9u64 {
            outcomes.push(w.walk(0, PageId(i << 40)));
        }
        assert!(outcomes[..8].iter().all(|o| o.queue_wait == 0));
        assert!(outcomes[8].queue_wait > 0);
    }

    #[test]
    fn full_walk_queue_stalls_arrivals() {
        let mut w = pool();
        // Saturate: 8 walkers + 64 queue slots of cold walks issued at 0.
        for i in 0..(8 + 64) as u64 {
            w.walk(0, PageId(i << 40));
        }
        assert_eq!(w.queue_full_stalls(), 0);
        // The next arrival must wait for the queue head.
        let o = w.walk(0, PageId(999 << 40));
        assert!(o.queue_wait > 0);
        assert_eq!(w.queue_full_stalls(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut w = pool();
        w.walk(0, PageId(0));
        w.walk(500, PageId(1));
        assert!((w.mean_levels() - 2.5).abs() < 1e-9); // 4 then 1
    }
}
