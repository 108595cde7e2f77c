//! The tracer's event stream must agree exactly with the printed
//! `FaultCounters`: every counter increment has exactly one event emitted
//! at the same site, so the two can never drift.

use grit::experiments::{CellSpec, ExpConfig, PolicyKind};
use grit_sim::{InjectConfig, ResilienceCounters, Scheme, SimConfig};
use grit_trace::{events_to_jsonl, EventCategory, Json, TraceConfig, TraceEvent};
use grit_workloads::App;

fn count(events: &[TraceEvent], cat: EventCategory) -> u64 {
    events.iter().filter(|e| e.category() == cat).count() as u64
}

#[test]
fn event_counts_match_fault_counters() {
    let exp = ExpConfig {
        scale: 0.03,
        intensity: 1.0,
        seed: 0x7A11,
    };
    let policies = [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
    ];
    // ECC retirement force-evicts pages through the same eviction path
    // as capacity pressure, so those evictions must be traced too.
    let retiring = SimConfig {
        inject: InjectConfig::parse("retire@100000:gpu=0:pct=30;retire@200000:gpu=1:pct=30")
            .expect("valid inject spec"),
        ..SimConfig::default()
    };
    let mut cells = Vec::new();
    for app in [App::Bfs, App::St] {
        for policy in policies {
            cells.push((CellSpec::new(app, policy, &exp), false));
        }
    }
    let dup = PolicyKind::Static(Scheme::Duplication);
    cells.push((CellSpec::new(App::Bfs, dup, &exp).with_cfg(retiring), true));
    for (cell, retires) in cells {
        let label = format!("{:?}/{}", cell.app, cell.policy_label());
        let out = cell.traced(TraceConfig::default()).run();
        let events = out.events.as_deref().expect("tracing was enabled");
        let f = &out.metrics.faults;
        for (cat, counter) in [
            (EventCategory::Fault, f.total_faults()),
            (EventCategory::Migration, f.migrations),
            (EventCategory::Duplication, f.duplications),
            (EventCategory::Collapse, f.collapses),
            (EventCategory::Eviction, f.evictions),
            (EventCategory::SchemeChange, f.scheme_changes),
        ] {
            assert_eq!(
                count(events, cat),
                counter,
                "{label}: {cat:?} events vs counters"
            );
        }
        if retires {
            let aux = out.metrics.aux("resilience_counters").expect("injected runs report");
            let forced = ResilienceCounters::from_aux(aux).pages_force_evicted;
            assert!(forced > 0, "{label}: no page lost its frame");
        }
    }
}

#[test]
fn every_emitted_event_serializes_and_parses() {
    let exp = ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x7A12,
    };
    let out = CellSpec::new(App::Fir, PolicyKind::GRIT, &exp)
        .traced(TraceConfig::default())
        .run();
    let events = out.events.as_deref().expect("tracing was enabled");
    assert!(!events.is_empty(), "a GRIT run must emit events");
    let jsonl = events_to_jsonl(events);
    for (line, event) in jsonl.lines().zip(events) {
        let v = Json::parse(line).expect("every line is valid JSON");
        let back = TraceEvent::from_json(&v).expect("every line round-trips");
        assert_eq!(back, *event);
    }
}

#[test]
fn filtered_trace_keeps_only_requested_categories() {
    let exp = ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x7A13,
    };
    let mask = grit_trace::CategoryMask::NONE
        .with(EventCategory::Fault)
        .with(EventCategory::Migration);
    let out = CellSpec::new(App::Bfs, PolicyKind::Static(Scheme::OnTouch), &exp)
        .traced(TraceConfig::filtered(mask))
        .run();
    let events = out.events.as_deref().expect("tracing was enabled");
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| matches!(
        e.category(),
        EventCategory::Fault | EventCategory::Migration
    )));
}
