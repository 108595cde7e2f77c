//! The event sink: a cloneable [`Tracer`] handle that is free when disabled.
//!
//! A disabled tracer is literally `None`; every emission site pays one
//! branch and never constructs the event (the constructor is an `FnOnce`
//! that only runs when the event will be kept). An enabled tracer shares a
//! buffer behind `Arc<Mutex<..>>` so the simulator stays `Send` and the
//! driver, fabric and runner can all hold clones of one sink.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::{CategoryMask, EventCategory, TraceEvent};

/// What to record: which categories, and how densely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Categories to keep; events outside the mask are never constructed.
    pub categories: CategoryMask,
    /// Keep every Nth event of each category (1 = keep all). The first
    /// event of a category is always kept so short runs stay visible.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    /// All categories, no sampling.
    fn default() -> Self {
        TraceConfig {
            categories: CategoryMask::ALL,
            sample_every: 1,
        }
    }
}

impl TraceConfig {
    /// Config keeping only the given categories.
    pub fn filtered(categories: CategoryMask) -> Self {
        TraceConfig {
            categories,
            ..TraceConfig::default()
        }
    }
}

struct TraceBuffer {
    cfg: TraceConfig,
    events: Vec<TraceEvent>,
    /// Per-category counts of events *offered* (pre-sampling), indexed by
    /// [`EventCategory::bit`].
    seen: [u64; EventCategory::ALL.len()],
}

impl TraceBuffer {
    fn accepts(&mut self, cat: EventCategory) -> bool {
        if !self.cfg.categories.contains(cat) {
            return false;
        }
        let slot = &mut self.seen[cat.bit()];
        *slot += 1;
        (*slot - 1).is_multiple_of(self.cfg.sample_every)
    }
}

/// A cloneable handle to an event sink; `Default` is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuffer>>>,
}

impl Tracer {
    /// A tracer that drops everything at the cost of one branch per site.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording into a fresh buffer under `cfg`.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuffer {
                cfg,
                events: Vec::new(),
                seen: [0; EventCategory::ALL.len()],
            }))),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event of category `cat`. `make` runs only when the
    /// tracer is enabled and the filter/sampler accept the event, so
    /// emission sites never pay for constructing a dropped event.
    #[inline]
    pub fn emit(&self, cat: EventCategory, make: impl FnOnce() -> TraceEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("trace buffer poisoned");
        if buf.accepts(cat) {
            let ev = make();
            debug_assert_eq!(ev.category(), cat);
            buf.events.push(ev);
        }
    }

    /// Drains and returns everything recorded so far (empty when disabled).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut inner.lock().expect("trace buffer poisoned").events),
            None => Vec::new(),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => {
                let buf = inner.lock().expect("trace buffer poisoned");
                f.debug_struct("Tracer")
                    .field("cfg", &buf.cfg)
                    .field("events", &buf.events.len())
                    .finish()
            }
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{GpuId, PageId};

    fn eviction(cycle: u64) -> TraceEvent {
        TraceEvent::Eviction {
            cycle,
            gpu: GpuId::new(0),
            vpn: PageId(1),
        }
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut constructed = false;
        t.emit(EventCategory::Eviction, || {
            constructed = true;
            eviction(1)
        });
        assert!(!constructed);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::new(TraceConfig::default());
        let t2 = t.clone();
        t.emit(EventCategory::Eviction, || eviction(1));
        t2.emit(EventCategory::Eviction, || eviction(2));
        assert_eq!(t.take_events().len(), 2);
        assert!(t2.take_events().is_empty());
    }

    #[test]
    fn category_filter_drops_without_constructing() {
        let cfg = TraceConfig::filtered(CategoryMask::NONE.with(EventCategory::Fault));
        let t = Tracer::new(cfg);
        let mut constructed = false;
        t.emit(EventCategory::Eviction, || {
            constructed = true;
            eviction(1)
        });
        assert!(!constructed);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn sampling_keeps_first_then_every_nth() {
        let t = Tracer::new(TraceConfig {
            sample_every: 3,
            ..TraceConfig::default()
        });
        for c in 0..7 {
            t.emit(EventCategory::Eviction, || eviction(c));
        }
        let cycles: Vec<u64> = t.take_events().iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![0, 3, 6]);
    }

    #[test]
    fn every_category_has_a_sampler_slot() {
        // Regression: the `seen` array was once hard-sized to 7 while the
        // category list had grown to 11, so emitting any resilience event
        // (bit >= 7) on a traced run panicked with an index out of bounds.
        let t = Tracer::new(TraceConfig::default());
        t.emit(EventCategory::FaultInjected, || TraceEvent::FaultInjected {
            cycle: 1,
            kind: grit_sim::InjectedKind::Outage,
            wire: Some(0),
            gpu: None,
        });
        assert_eq!(t.take_events().len(), 1);
    }
}
