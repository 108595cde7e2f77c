//! Engine self-profiling: where does *wall-clock* time go inside a cell?
//!
//! The simulator's existing observability is all in the *simulated* cycle
//! domain (trace events, latency breakdowns, histograms). This crate adds
//! the other axis: span-based wall-clock phase timers and a Chrome
//! trace-event export, so performance work on the event loop is driven by
//! data instead of guesses.
//!
//! # Design
//!
//! * **Zero overhead when disabled.** [`span`] loads one relaxed atomic
//!   and returns an inert guard — no clock read, no allocation, no lock.
//!   Every instrumentation site in the engine pays only that load.
//! * **Per-thread lock-free accumulators.** When enabled, each thread
//!   owns a slot of relaxed atomic counters (nanoseconds and
//!   span counts per [`Phase`]). Slots register once in a global list;
//!   [`phase_totals`] merges them on demand. Nothing on the hot path
//!   takes a lock, so the engine's determinism surfaces — which are all
//!   in the cycle domain — are untouched by timing.
//! * **Determinism boundary.** Wall-clock data is inherently
//!   nondeterministic and lives only here and in the report's `wall`
//!   section. Cycle-domain profile data (queue-depth and latency
//!   histograms) is recorded by the simulator structures themselves and
//!   never flows through this crate.
//!
//! Spans nest: a [`Phase::Migration`] span covers its inner
//! [`Phase::FabricTransfer`] spans, so phase totals are *inclusive* and
//! do not sum to the run's wall time.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One engine phase a wall-clock span can be attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Workload trace generation (or workload-cache materialization).
    TraceBuild,
    /// Address translation: TLB lookups and page-table walks.
    Translate,
    /// UVM driver fault servicing (includes the resolution it applies).
    FaultHandling,
    /// Page migration between memories (nested inside fault handling
    /// when the fault resolves to a migration).
    Migration,
    /// Fabric link booking: GPU↔GPU, host staging and PCIe transfers.
    FabricTransfer,
}

/// Number of [`Phase`] variants (array sizes).
pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::TraceBuild,
        Phase::Translate,
        Phase::FaultHandling,
        Phase::Migration,
        Phase::FabricTransfer,
    ];

    /// Stable snake_case name used in reports and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TraceBuild => "trace_build",
            Phase::Translate => "translate",
            Phase::FaultHandling => "fault_handling",
            Phase::Migration => "migration",
            Phase::FabricTransfer => "fabric_transfer",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated wall-clock time of one phase across all threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseTotal {
    /// The phase.
    pub phase: Phase,
    /// Total nanoseconds spent inside spans of this phase (inclusive of
    /// nested child phases).
    pub nanos: u64,
    /// Number of spans recorded.
    pub count: u64,
}

/// One captured span, for trace-event export.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanEvent {
    /// The phase.
    pub phase: Phase,
    /// Start offset in nanoseconds from the process profiling origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Registration id of the recording thread (dense, starting at 0).
    pub tid: u64,
}

/// Per-thread lock-free accumulator: relaxed atomics per phase, plus a
/// bounded event buffer used only when capture is on.
struct ThreadSlot {
    nanos: [AtomicU64; NUM_PHASES],
    counts: [AtomicU64; NUM_PHASES],
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
    tid: u64,
}

/// Cap on captured events per thread; beyond it spans still accumulate
/// into the phase totals but are dropped from the trace export.
const EVENT_CAP: usize = 1 << 20;

impl ThreadSlot {
    fn new(tid: u64) -> Self {
        ThreadSlot {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            tid,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPTURE: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Process-wide time origin: all captured span timestamps are offsets
/// from the first profiled instant, so one run's events share one axis.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

thread_local! {
    static SLOT: Arc<ThreadSlot> = {
        let slot = Arc::new(ThreadSlot::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
        registry().lock().expect("prof registry poisoned").push(slot.clone());
        slot
    };
}

/// Turns phase timing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase timing is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns per-span event capture (for trace export) on or off. Implies
/// nothing about [`set_enabled`]; capture only records when both are on.
pub fn set_capture(on: bool) {
    CAPTURE.store(on, Ordering::Relaxed);
}

/// An RAII span: created by [`span`], attributes its lifetime's
/// wall-clock duration to a phase on drop. Inert when profiling is
/// disabled.
pub struct SpanGuard {
    live: Option<(Phase, Instant)>,
}

/// Opens a wall-clock span attributed to `phase`. When profiling is
/// disabled this is one relaxed atomic load and returns an inert guard.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some((phase, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, start)) = self.live.take() else {
            return;
        };
        let dur = start.elapsed();
        let nanos = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        SLOT.with(|slot| {
            slot.nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
            slot.counts[phase.index()].fetch_add(1, Ordering::Relaxed);
            if CAPTURE.load(Ordering::Relaxed) {
                let start_ns =
                    start.duration_since(origin()).as_nanos().min(u128::from(u64::MAX)) as u64;
                let mut events = slot.events.lock().expect("prof events poisoned");
                if events.len() < EVENT_CAP {
                    events.push(SpanEvent {
                        phase,
                        start_ns,
                        dur_ns: nanos,
                        tid: slot.tid,
                    });
                } else {
                    slot.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
}

/// Phase totals summed across every thread that ever recorded a span,
/// in [`Phase::ALL`] order. Phases with no spans report zeros.
pub fn phase_totals() -> Vec<PhaseTotal> {
    let slots = registry().lock().expect("prof registry poisoned");
    Phase::ALL
        .iter()
        .map(|&phase| {
            let k = phase.index();
            let (nanos, count) = slots.iter().fold((0u64, 0u64), |(n, c), s| {
                (
                    n + s.nanos[k].load(Ordering::Relaxed),
                    c + s.counts[k].load(Ordering::Relaxed),
                )
            });
            PhaseTotal {
                phase,
                nanos,
                count,
            }
        })
        .collect()
}

/// Drains every thread's captured span events, sorted by start time,
/// plus the number of events dropped to the per-thread cap.
pub fn drain_events() -> (Vec<SpanEvent>, u64) {
    let slots = registry().lock().expect("prof registry poisoned");
    let mut all = Vec::new();
    let mut dropped = 0;
    for slot in slots.iter() {
        all.append(&mut slot.events.lock().expect("prof events poisoned"));
        dropped += slot.dropped.swap(0, Ordering::Relaxed);
    }
    all.sort_by_key(|e| (e.start_ns, e.tid));
    (all, dropped)
}

/// Zeroes every accumulator: phase totals and captured events. Thread
/// registrations survive (slots are reused).
pub fn reset() {
    let slots = registry().lock().expect("prof registry poisoned");
    for slot in slots.iter() {
        for k in 0..NUM_PHASES {
            slot.nanos[k].store(0, Ordering::Relaxed);
            slot.counts[k].store(0, Ordering::Relaxed);
        }
        slot.events.lock().expect("prof events poisoned").clear();
        slot.dropped.store(0, Ordering::Relaxed);
    }
}

/// Renders captured events as a Chrome trace-event (Perfetto-loadable)
/// JSON document: complete (`"ph":"X"`) events with microsecond
/// timestamps, plus thread-name metadata. `dropped` (from
/// [`drain_events`]) is recorded as a document-level field when nonzero.
pub fn chrome_trace_json(events: &[SpanEvent], dropped: u64) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",");
    if dropped > 0 {
        let _ = write!(out, "\"droppedSpans\":{dropped},");
    }
    out.push_str("\"traceEvents\":[");
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut first = true;
    for tid in &tids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"sim-{tid}\"}}}}"
        );
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        // Chrome trace timestamps are microseconds; keep three decimals
        // so short spans stay visible.
        let ts = e.start_ns as f64 / 1000.0;
        let dur = e.dur_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"grit\",\"ph\":\"X\",\"ts\":{ts:.3},\
             \"dur\":{dur:.3},\"pid\":0,\"tid\":{}}}",
            e.phase.name(),
            e.tid
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiling state is process-global; tests in this binary serialize
    /// on one lock so enable/reset cycles don't interleave.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = guard();
        reset();
        set_enabled(false);
        drop(span(Phase::Translate));
        let t = phase_totals();
        assert!(t.iter().all(|p| p.nanos == 0 && p.count == 0), "{t:?}");
    }

    #[test]
    fn enabled_span_accumulates() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            let _s = span(Phase::FaultHandling);
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        let t = phase_totals();
        let fh = t.iter().find(|p| p.phase == Phase::FaultHandling).unwrap();
        assert_eq!(fh.count, 1);
        assert!(t.iter().filter(|p| p.phase != Phase::FaultHandling).all(|p| p.count == 0));
    }

    #[test]
    fn capture_produces_sorted_events_and_chrome_json() {
        let _g = guard();
        reset();
        set_enabled(true);
        set_capture(true);
        for phase in [Phase::Migration, Phase::FabricTransfer] {
            let _s = span(phase);
        }
        set_capture(false);
        set_enabled(false);
        let (events, dropped) = drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 0);
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let json = chrome_trace_json(&events, dropped);
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"migration\""), "{json}");
        // A second drain is empty: events move out.
        assert_eq!(drain_events().0.len(), 0);
    }

    #[test]
    fn threads_merge_into_totals() {
        let _g = guard();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span(Phase::Translate);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let t = phase_totals();
        let tr = t.iter().find(|p| p.phase == Phase::Translate).unwrap();
        assert_eq!(tr.count, 4);
    }
}
