//! Process-wide cache of generated workload traces.
//!
//! Trace generation is a large share of experiment wall-clock time, and the
//! figure grids re-request identical workloads constantly — every policy
//! column of a figure uses the same `(app, exp, cfg)` trace, and several
//! figures (17, 18, 19, ...) share whole grids. The cache builds each
//! distinct workload exactly once and hands out cheap clones: after the
//! `SliceStream` shared-trace split, a clone is an `Arc` bump per GPU plus
//! a private cursor, so concurrent runs never contend on trace data.
//!
//! Keys cover every builder input: `(app, num_gpus, scale, intensity,
//! seed, page_size)`. The float knobs are keyed by their exact bit
//! patterns — two configs map to one entry only if they build
//! byte-identical traces.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use grit_sim::SimConfig;
use grit_workloads::{App, MultiGpuWorkload, WorkloadBuilder};

use super::ExpConfig;

/// Exact-identity cache key for one generated workload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WorkloadKey {
    app: App,
    num_gpus: usize,
    scale_bits: u64,
    intensity_bits: u64,
    seed: u64,
    page_size: u64,
}

impl WorkloadKey {
    /// The key for a cell's workload under an experiment and system config.
    pub fn new(app: App, exp: &ExpConfig, cfg: &SimConfig) -> Self {
        WorkloadKey {
            app,
            num_gpus: cfg.num_gpus,
            scale_bits: exp.scale.to_bits(),
            intensity_bits: exp.intensity.to_bits(),
            seed: exp.seed,
            page_size: cfg.page_size,
        }
    }
}

/// One cache slot: the built workload plus how many times the builder
/// actually ran for this key (used by tests to prove single-build).
#[derive(Default)]
struct Slot {
    cell: OnceLock<Arc<MultiGpuWorkload>>,
    builds: Mutex<u64>,
}

/// Lifetime hit/miss totals of a cache, for batch profiling reports.
///
/// A "hit" is a request whose workload was already built when the request
/// arrived; requests that race the first build are counted as misses even
/// though only one of them runs the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCounters {
    /// Requests served from an already-built entry.
    pub hits: u64,
    /// Requests that found the entry absent (or still building).
    pub misses: u64,
}

/// The cache proper. A `Mutex`-guarded map hands out per-key `Slot`s;
/// the slot's `OnceLock` serializes the (expensive) build outside the map
/// lock, so two threads wanting *different* workloads build concurrently
/// while two threads wanting the *same* workload build it once.
#[derive(Default)]
pub struct WorkloadCache {
    slots: Mutex<HashMap<WorkloadKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorkloadCache::default()
    }

    fn slot(&self, key: WorkloadKey) -> Arc<Slot> {
        let mut map = self.slots.lock().expect("workload cache poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// The workload for `key`, building it on first request. The returned
    /// value shares trace storage with the cached copy but has private
    /// stream cursors, so callers can consume it freely.
    pub fn get_or_build(&self, key: WorkloadKey) -> MultiGpuWorkload {
        self.get_or_build_tracked(key).0
    }

    /// Like [`WorkloadCache::get_or_build`], also reporting whether the
    /// request was a cache hit (the entry was already built on arrival).
    pub fn get_or_build_tracked(&self, key: WorkloadKey) -> (MultiGpuWorkload, bool) {
        let slot = self.slot(key);
        let hit = slot.cell.get().is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let shared = slot.cell.get_or_init(|| {
            *slot.builds.lock().expect("build counter poisoned") += 1;
            let w = WorkloadBuilder::new(key.app)
                .num_gpus(key.num_gpus)
                .scale(f64::from_bits(key.scale_bits))
                .intensity(f64::from_bits(key.intensity_bits))
                .seed(key.seed)
                .page_size(key.page_size)
                .build();
            Arc::new(w)
        });
        (MultiGpuWorkload::clone(shared), hit)
    }

    /// Lifetime hit/miss totals across every key.
    pub fn stats(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// How many times the builder ran for `key` (0 or 1 after any number
    /// of [`WorkloadCache::get_or_build`] calls).
    pub fn build_count(&self, key: WorkloadKey) -> u64 {
        let slot = self.slot(key);
        let n = *slot.builds.lock().expect("build counter poisoned");
        n
    }

    /// Distinct workloads currently cached.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("workload cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached trace (the backing storage is freed once the
    /// last outstanding run finishes with its clone).
    pub fn clear(&self) {
        self.slots.lock().expect("workload cache poisoned").clear();
    }
}

/// The process-wide cache every batch (`run_batch`) builds workloads through.
pub fn global() -> &'static WorkloadCache {
    static CACHE: OnceLock<WorkloadCache> = OnceLock::new();
    CACHE.get_or_init(WorkloadCache::new)
}

/// Fetches (building at most once) the workload for a cell from the
/// process-wide cache.
pub fn shared_workload(app: App, exp: &ExpConfig, cfg: &SimConfig) -> MultiGpuWorkload {
    global().get_or_build(WorkloadKey::new(app, exp, cfg))
}

/// [`shared_workload`], also reporting whether the request hit the cache.
pub fn shared_workload_tracked(
    app: App,
    exp: &ExpConfig,
    cfg: &SimConfig,
) -> (MultiGpuWorkload, bool) {
    global().get_or_build_tracked(WorkloadKey::new(app, exp, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(seed: u64) -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed,
        }
    }

    #[test]
    fn builds_once_and_clones_share_traces() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::new(App::Bfs, &exp(11), &SimConfig::default());
        let a = cache.get_or_build(key);
        let b = cache.get_or_build(key);
        assert_eq!(cache.build_count(key), 1);
        assert_eq!(cache.len(), 1);
        for (x, y) in a.streams.iter().zip(b.streams.iter()) {
            assert!(std::sync::Arc::ptr_eq(&x.shared(), &y.shared()));
        }
    }

    #[test]
    fn clones_have_private_cursors() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::new(App::Fir, &exp(12), &SimConfig::default());
        let mut a = cache.get_or_build(key);
        while a.streams[0].next_access().is_some() {}
        let b = cache.get_or_build(key);
        assert!(
            b.streams[0].remaining() > 0,
            "cache copy must stay pristine"
        );
    }

    #[test]
    fn distinct_knobs_get_distinct_entries() {
        let cache = WorkloadCache::new();
        let cfg = SimConfig::default();
        let base = WorkloadKey::new(App::Bfs, &exp(13), &cfg);
        cache.get_or_build(base);
        cache.get_or_build(WorkloadKey::new(App::Bfs, &exp(14), &cfg));
        cache.get_or_build(WorkloadKey::new(
            App::Bfs,
            &ExpConfig {
                scale: 0.03,
                ..exp(13)
            },
            &cfg,
        ));
        // 64 KB still fits the tiny scaled footprint; 2 MB would exceed
        // it and be rejected by the builder's validation.
        let big = SimConfig {
            page_size: 64 * 1024,
            ..SimConfig::default()
        };
        cache.get_or_build(WorkloadKey::new(App::Bfs, &exp(13), &big));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.build_count(base), 1);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::new(App::St, &exp(15), &SimConfig::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let w = cache.get_or_build(key);
                    assert!(w.total_accesses() > 0);
                });
            }
        });
        assert_eq!(cache.build_count(key), 1);
    }

    #[test]
    fn tracked_requests_count_hits_and_misses() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::new(App::Bfs, &exp(17), &SimConfig::default());
        let (_, hit) = cache.get_or_build_tracked(key);
        assert!(!hit, "first request must miss");
        let (_, hit) = cache.get_or_build_tracked(key);
        assert!(hit, "second request must hit");
        let stats = cache.stats();
        assert_eq!(stats, CacheCounters { hits: 1, misses: 1 });
    }

    #[test]
    fn clear_resets() {
        let cache = WorkloadCache::new();
        let key = WorkloadKey::new(App::Bs, &exp(16), &SimConfig::default());
        cache.get_or_build(key);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
