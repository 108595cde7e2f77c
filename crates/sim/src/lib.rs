//! # grit-sim
//!
//! Foundation types for the GRIT multi-GPU reproduction: simulated time,
//! identifiers, memory-access records and streams, deterministic
//! randomness, the full system configuration mirroring Table I of the
//! paper (*GRIT: Enhancing Multi-GPU Performance with Fine-Grained Dynamic
//! Page Placement*, HPCA 2024), the interconnect's wire graph
//! ([`TopoGraph`]) and the cycle-scheduled fault plan ([`inject`]) that
//! configuration describes.
//!
//! The simulator built on top of this crate is **trace driven** and
//! **discrete event**: workload generators (see `grit-workloads`) produce
//! per-GPU [`Access`] streams, and the system runner advances whichever GPU
//! has the smallest next-ready cycle, so cross-GPU interactions (migrations,
//! invalidations, write-collapses) are globally ordered.
//!
//! # Example
//!
//! ```
//! use grit_sim::{Access, AccessKind, GpuId, PageId, SimConfig};
//!
//! let cfg = SimConfig::default();
//! assert_eq!(cfg.num_gpus, 4);
//! assert_eq!(cfg.page_size, 4096);
//!
//! let a = Access::read(PageId(42), 3);
//! assert_eq!(a.vpn, PageId(42));
//! assert!(a.kind == AccessKind::Read);
//! let g = GpuId::new(2);
//! assert_eq!(g.index(), 2);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod error;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod inject;
pub mod mlp;
pub mod page_vec;
pub mod rng;
pub mod scheme;
pub mod spec;
pub mod stream;

pub use access::{Access, AccessKind};
pub use config::{
    lines_per_page_checked, CacheGeometry, ConfigError, LatencyConfig, LinkConfig, PageSizeMode,
    SimConfig, TlbGeometry, TopologyConfig, TopologyKind, WalkConfig,
    ACCESS_COUNTER_THRESHOLD_DEFAULT, CACHE_LINE_BYTES, PAGE_SIZE_2M, PAGE_SIZE_4K,
};
pub use error::{CancelState, CancelToken, CellError};
pub use graph::{mesh_dims, HopClass, LinkSpec, TopoGraph};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ids::{GpuId, GpuSet, MemLoc, PageId};
pub use inject::{
    Backoff, FaultPlan, FaultSpec, FrameCount, InjectConfig, InjectedKind, ResilienceCounters,
    Transition, WireSel,
};
pub use mlp::MlpWindow;
pub use page_vec::PageVec;
pub use rng::SimRng;
pub use scheme::{GroupSize, Scheme};
pub use spec::RunSpec;
pub use stream::SliceStream;

/// Simulated time in cycles at the 1 GHz compute-unit clock of Table I.
///
/// A plain alias (rather than a newtype) because cycle arithmetic saturates
/// the hot loops of the simulator; identifiers that must never be confused
/// with one another ([`PageId`], [`GpuId`]) are newtypes instead.
pub type Cycle = u64;

// Tests of the fault-injection plan (the `inject` module).
#[cfg(test)]
mod tests {
    use crate::inject::*;
    use crate::Cycle;

    #[test]
    fn empty_specs_parse_to_no_events() {
        for s in ["", "  ", ";;", " ; "] {
            let cfg = InjectConfig::parse(s).unwrap();
            assert!(cfg.is_empty(), "{s:?}");
        }
    }

    #[test]
    fn full_grammar_round_trips_through_display() {
        let spec = "degrade@100:wire=2:frac=0.25:for=500;outage@50:wire=*:for=1000;\
                    retire@30:gpu=0:frames=16;retire@40:gpu=1:pct=20;\
                    storm@60:gpu=3:for=200:stall=900";
        let cfg = InjectConfig::parse(spec).unwrap();
        assert_eq!(cfg.events.len(), 5);
        let printed = cfg.to_string();
        let again = InjectConfig::parse(&printed).unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (s, needle) in [
            ("degrade@100:wire=0:for=5", "frac"),
            ("degrade@100:wire=0:frac=1.5:for=5", "(0, 1)"),
            ("outage@100:wire=0", "for"),
            ("outage@100:wire=0:for=0", "positive"),
            ("retire@5:gpu=0", "frames"),
            ("retire@5:gpu=0:pct=120", "(0, 100]"),
            ("storm@5:gpu=0:for=10", "stall"),
            ("blink@5:wire=0:for=10", "unknown fault kind"),
            ("outage:wire=0:for=10", "kind@cycle"),
            ("outage@x:wire=0:for=10", "bad cycle"),
            ("outage@5:wire=q:for=10", "bad value"),
            ("outage@5:wirefor", "key=value"),
            ("outage@5:wat=3:for=10", "unknown field"),
        ] {
            let e = InjectConfig::parse(s).unwrap_err().to_string();
            assert!(e.contains(needle), "{s:?} -> {e}");
        }
    }

    #[test]
    fn compile_rejects_out_of_range_targets() {
        let c = InjectConfig::parse("outage@5:wire=9:for=10").unwrap();
        assert!(FaultPlan::compile(&c, 6, 4).unwrap_err().to_string().contains("wire 9"));
        let c = InjectConfig::parse("retire@5:gpu=7:frames=1").unwrap();
        assert!(FaultPlan::compile(&c, 6, 4).unwrap_err().to_string().contains("gpu 7"));
    }

    #[test]
    fn windows_answer_pure_cycle_queries() {
        let c = InjectConfig::parse(
            "outage@100:wire=1:for=50;degrade@200:wire=0:frac=0.5:for=100;\
             degrade@250:wire=0:frac=0.5:for=100",
        )
        .unwrap();
        let p = FaultPlan::compile(&c, 3, 2).unwrap();
        assert!(!p.wire_down(1, 99));
        assert!(p.wire_down(1, 100));
        assert!(p.wire_down(1, 149));
        assert!(!p.wire_down(1, 150));
        assert_eq!(p.bw_scale(0, 199), 1.0);
        assert_eq!(p.bw_scale(0, 200), 0.5);
        // Overlap compounds: both windows active in [250, 300).
        assert_eq!(p.bw_scale(0, 260), 0.25);
        assert_eq!(p.bw_scale(0, 320), 0.5);
        assert_eq!(p.bw_scale(0, 350), 1.0);
        assert!(p.wire_sick(0, 220));
        assert!(!p.wire_sick(2, 220));
    }

    #[test]
    fn epochs_track_the_down_set() {
        let c = InjectConfig::parse("outage@100:wire=1:for=50;outage@120:wire=2:for=100").unwrap();
        let p = FaultPlan::compile(&c, 3, 2).unwrap();
        let epochs = p.outage_epochs();
        let downs: Vec<(Cycle, Vec<u32>)> = epochs.to_vec();
        assert_eq!(
            downs,
            vec![
                (0, vec![]),
                (100, vec![1]),
                (120, vec![1, 2]),
                (150, vec![2]),
                (220, vec![]),
            ]
        );
        assert_eq!(p.epoch_at(0), 0);
        assert_eq!(p.epoch_at(110), 1);
        assert_eq!(p.epoch_at(130), 2);
        assert_eq!(p.epoch_at(10_000), 4);
    }

    #[test]
    fn storms_and_retirements_resolve() {
        let c = InjectConfig::parse(
            "storm@10:gpu=0:for=20:stall=500;retire@5:gpu=1:pct=25;retire@9:gpu=1:frames=2",
        )
        .unwrap();
        let p = FaultPlan::compile(&c, 1, 2).unwrap();
        assert_eq!(p.storm_stall(0, 9), 0);
        assert_eq!(p.storm_stall(0, 10), 500);
        assert_eq!(p.storm_stall(0, 30), 0);
        assert_eq!(p.storm_stall(1, 15), 0);
        let r = p.retirements(1);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].1.resolve(100), 25);
        assert_eq!(r[1].1.resolve(100), 2);
        assert_eq!(
            FrameCount::Frames(500).resolve(100),
            100,
            "clamped to capacity"
        );
    }

    #[test]
    fn transitions_are_sorted_and_complete() {
        let c = InjectConfig::parse(
            "outage@100:wire=1:for=50;storm@10:gpu=0:for=20:stall=5;retire@5:gpu=1:frames=1",
        )
        .unwrap();
        let p = FaultPlan::compile(&c, 3, 2).unwrap();
        let t = p.transitions();
        // retire@5, storm start@10, storm end@30, outage start@100, outage end@150.
        assert_eq!(t.len(), 5);
        assert!(t.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert_eq!(t[0].kind, InjectedKind::Retire);
        assert!(t[0].starts);
        assert_eq!(t.iter().filter(|x| !x.starts).count(), 2);
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        assert!(!p.wire_down(0, 0));
        assert_eq!(p.bw_scale(0, 0), 1.0);
        assert_eq!(p.storm_stall(0, 0), 0);
        assert!(p.retirements(0).is_empty());
        assert!(p.transitions().is_empty());
        assert!(p.outage_epochs().is_empty());
        let compiled = FaultPlan::compile(&InjectConfig::none(), 6, 4).unwrap();
        assert!(compiled.is_empty());
        assert_eq!(compiled.outage_epochs().len(), 1, "single all-up epoch");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let b = Backoff::default();
        assert_eq!(b.delay(0), 2_000);
        assert_eq!(b.delay(1), 4_000);
        assert_eq!(b.delay(4), 32_000);
        assert_eq!(b.delay(5), 64_000);
        assert_eq!(b.delay(31), 64_000, "saturates at the cap");
        let tiny = Backoff {
            base: 0,
            cap: 10,
            max_attempts: 2,
        };
        assert_eq!(tiny.delay(0), 1, "delays never collapse to zero");
    }

    #[test]
    fn counters_encode_in_declared_order() {
        let c = ResilienceCounters {
            faults_injected: 1,
            recoveries: 2,
            host_staged: 9,
            invariant_checks: 10,
            ..ResilienceCounters::default()
        };
        let aux = c.as_aux();
        assert_eq!(aux.len(), ResilienceCounters::AUX_LEN);
        assert_eq!(aux[0], 1.0);
        assert_eq!(aux[1], 2.0);
        assert_eq!(aux[9], 9.0);
        assert_eq!(aux[10], 10.0);
    }

    #[test]
    fn counters_decode_from_their_aux_series() {
        let c = ResilienceCounters {
            faults_injected: 4,
            recoveries: 3,
            frames_retired: 2,
            pages_force_evicted: 5,
            storm_stalled_faults: 7,
            migrations_blocked: 6,
            migration_retries: 9,
            retry_successes: 4,
            fallback_remote: 1,
            host_staged: 1,
            invariant_checks: 12,
        };
        assert_eq!(ResilienceCounters::from_aux(&c.as_aux()), c);
        assert!(c.all_blocked_resolved());
        assert_eq!(
            ResilienceCounters::from_aux(&[]),
            ResilienceCounters::default(),
            "an absent series reads as an uninjected run"
        );
    }

    #[test]
    fn unresolved_blocked_migrations_are_detected() {
        let c = ResilienceCounters {
            migrations_blocked: 5,
            retry_successes: 2,
            fallback_remote: 1,
            host_staged: 1,
            ..ResilienceCounters::default()
        };
        assert!(!c.all_blocked_resolved());
    }

    #[test]
    fn kind_names_round_trip() {
        // A kind's name is the keyword of its event in the spec grammar,
        // so a printed trace line names the fault a spec scheduled.
        for (spec, name) in [
            ("degrade@5:wire=0:frac=0.5:for=10", "degrade"),
            ("outage@5:wire=0:for=10", "outage"),
            ("retire@5:gpu=0:frames=1", "retire"),
            ("storm@5:gpu=0:for=10:stall=4", "storm"),
        ] {
            let cfg = InjectConfig::parse(spec).unwrap();
            assert_eq!(cfg.events[0].kind().name(), name, "{spec}");
        }
    }
}
