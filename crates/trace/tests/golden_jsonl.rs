//! Golden-file test freezing the JSONL event schema.
//!
//! `golden_events.jsonl` holds one exemplar line per event shape. If this
//! test fails, the wire format changed: every consumer of `--trace` output
//! breaks, so either fix the regression or consciously update the golden
//! file (and bump the schema note in DESIGN.md §10).

use grit_sim::{GpuId, InjectedKind, MemLoc, PageId, Scheme};
use grit_trace::{
    events_to_jsonl, EventCategory, FaultClass, Json, LinkKind, SplinterCause, TraceEvent,
};

fn golden_events() -> Vec<TraceEvent> {
    let g = GpuId::new;
    vec![
        TraceEvent::Fault {
            cycle: 100,
            gpu: g(0),
            vpn: PageId(7),
            kind: FaultClass::Local,
            write: false,
        },
        TraceEvent::Fault {
            cycle: 150,
            gpu: g(1),
            vpn: PageId(7),
            kind: FaultClass::Protection,
            write: true,
        },
        TraceEvent::Migration {
            cycle: 200,
            gpu: g(1),
            vpn: PageId(7),
            from: MemLoc::Host,
        },
        TraceEvent::Duplication {
            cycle: 300,
            gpu: g(2),
            vpn: PageId(8),
            from: MemLoc::Gpu(g(0)),
        },
        TraceEvent::Collapse {
            cycle: 400,
            gpu: g(3),
            vpn: PageId(8),
            holders: 2,
        },
        TraceEvent::Eviction {
            cycle: 500,
            gpu: g(0),
            vpn: PageId(9),
        },
        TraceEvent::SchemeChange {
            cycle: 600,
            gpu: g(1),
            vpn: PageId(10),
            scheme: Scheme::AccessCounter,
        },
        TraceEvent::LinkTransfer {
            cycle: 700,
            link: LinkKind::Nvlink,
            src: MemLoc::Gpu(g(0)),
            dst: MemLoc::Gpu(g(1)),
            bytes: 4096,
            delivered: 950,
            hop: 0,
            hops: 1,
        },
        TraceEvent::LinkTransfer {
            cycle: 800,
            link: LinkKind::Pcie,
            src: MemLoc::Gpu(g(2)),
            dst: MemLoc::Host,
            bytes: 64,
            delivered: 1312,
            hop: 0,
            hops: 1,
        },
        TraceEvent::LinkTransfer {
            cycle: 900,
            link: LinkKind::PcieCtrl,
            src: MemLoc::Host,
            dst: MemLoc::Gpu(g(3)),
            bytes: 64,
            delivered: 1960,
            hop: 0,
            hops: 1,
        },
        // grit-trace/v2: routed multi-hop transfers carry hop/route info.
        TraceEvent::LinkTransfer {
            cycle: 1000,
            link: LinkKind::Switch,
            src: MemLoc::Gpu(g(0)),
            dst: MemLoc::Gpu(g(5)),
            bytes: 4096,
            delivered: 1200,
            hop: 0,
            hops: 2,
        },
        TraceEvent::LinkTransfer {
            cycle: 1100,
            link: LinkKind::InterNode,
            src: MemLoc::Gpu(g(1)),
            dst: MemLoc::Gpu(g(6)),
            bytes: 4096,
            delivered: 1900,
            hop: 1,
            hops: 3,
        },
        // grit-trace/v3: fault-injection events carry a wire or a GPU.
        TraceEvent::FaultInjected {
            cycle: 1200,
            kind: InjectedKind::Outage,
            wire: Some(3),
            gpu: None,
        },
        TraceEvent::Recovered {
            cycle: 1300,
            kind: InjectedKind::Storm,
            wire: None,
            gpu: Some(g(2)),
        },
        TraceEvent::MigrationRetried {
            cycle: 1400,
            gpu: g(1),
            vpn: PageId(77),
            attempt: 2,
        },
        TraceEvent::FallbackRemote {
            cycle: 1500,
            gpu: g(0),
            vpn: PageId(78),
            staged: true,
        },
        // grit-trace/v4: large-page coalescing and splintering.
        TraceEvent::PageCoalesced {
            cycle: 1600,
            gpu: g(2),
            vpn: PageId(512),
        },
        TraceEvent::PageSplintered {
            cycle: 1700,
            gpu: g(2),
            vpn: PageId(512),
            cause: SplinterCause::FalseSharing,
        },
    ]
}

const GOLDEN: &str = include_str!("golden_events.jsonl");

#[test]
fn serialization_matches_golden_file_byte_for_byte() {
    assert_eq!(
        events_to_jsonl(&golden_events()),
        GOLDEN,
        "JSONL event schema drifted from golden_events.jsonl"
    );
}

#[test]
fn golden_lines_parse_back_to_the_same_events() {
    let events = golden_events();
    assert_eq!(GOLDEN.lines().count(), events.len());
    for (line, event) in GOLDEN.lines().zip(&events) {
        assert_eq!(Json::parse(line).unwrap(), event.to_json(), "{line}");
    }
}

#[test]
fn golden_file_covers_every_event_category() {
    let covered: Vec<EventCategory> = golden_events().iter().map(TraceEvent::category).collect();
    for cat in EventCategory::ALL {
        assert!(covered.contains(&cat), "no golden line for {}", cat.name());
    }
}
