//! The placement-policy abstraction.
//!
//! The UVM driver ([`crate::UvmDriver`]) implements the *mechanisms* —
//! migration, remote mapping, duplication, collapse, eviction — and asks a
//! [`PlacementPolicy`] which mechanism to apply on each fault. The three
//! uniform schemes of §II-B, GRIT (`grit-core`), and the comparator systems
//! (`grit-baselines`) are all policies behind this trait.

use grit_sim::{AccessKind, Cycle, GpuId, PageId, Scheme};

use crate::central::{CentralPageTable, PageState};

/// Why the fault was raised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Translation invalid in the local page table (read or write).
    Local,
    /// Write hit a read-only replica mapping (duplication semantics).
    Protection,
}

/// One page fault delivered to the UVM driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultInfo {
    /// Cycle at which the driver begins servicing.
    pub now: Cycle,
    /// Faulting GPU.
    pub gpu: GpuId,
    /// Faulting page.
    pub vpn: PageId,
    /// Load or store.
    pub kind: AccessKind,
    /// Local vs protection fault.
    pub fault: FaultKind,
}

/// The mechanism the driver should apply to resolve a fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolution {
    /// Migrate the page into the faulting GPU's memory (on-touch, §II-B1).
    Migrate,
    /// Establish a remote mapping to the current owner (counter-based
    /// scheme, §II-B2); remote accesses then tick the access counters.
    MapRemote,
    /// Replicate the page locally for reads; a write instead collapses
    /// replicas and takes exclusive ownership (§II-B3).
    Duplicate,
    /// The unrealizable Ideal of Fig. 1: first cold touch fetches the page,
    /// every later read is local and writes incur zero NUMA cost.
    Ideal,
}

/// How the driver should treat writes to replicated pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WriteMode {
    /// Invalidate all replicas and grant the writer an exclusive copy
    /// (page write-collapse, §II-B3). The UVM default.
    #[default]
    Collapse,
    /// Proactively broadcast the store to all subscribers' replicas at
    /// cache-line granularity (GPS, §VI-C2); replicas stay valid.
    Broadcast,
}

/// What a policy decided about one fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyDecision {
    /// Mechanism to apply.
    pub resolution: Resolution,
    /// Additional host-side latency this decision cost (e.g. GRIT's
    /// PA-Cache/PA-Table lookups). The driver overlaps it with the
    /// centralized page-table walk and charges only the excess (§V-C).
    pub decision_latency: Cycle,
    /// Whether this fault changed the page's placement scheme (triggers a
    /// scheme-change interrupt and, in GRIT, Neighboring-Aware Prediction).
    pub scheme_changed: bool,
}

impl PolicyDecision {
    /// A zero-latency decision applying `resolution`.
    pub fn plain(resolution: Resolution) -> Self {
        PolicyDecision {
            resolution,
            decision_latency: 0,
            scheme_changed: false,
        }
    }
}

/// Post-epoch directive from interval-based policies (Griffin-DPC).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Directive {
    /// Migrate `vpn` into `to`'s memory.
    MigratePage {
        /// Page to move.
        vpn: PageId,
        /// Destination GPU.
        to: GpuId,
    },
}

/// A page-placement policy.
///
/// Implementations must be deterministic: the reproduction re-runs every
/// figure from fixed seeds.
pub trait PlacementPolicy {
    /// Decides how to resolve one fault. `page` is the authoritative state
    /// *after* sharer/written bookkeeping for this fault; `table` allows
    /// policies (GRIT) to read and update scheme/group bits of any page.
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision;

    /// Observes one remote access (post-L2-cache). Policies that track
    /// their own counters (Griffin) hook here; the builtin Volta counters
    /// are driver machinery and not routed through this method.
    fn on_remote_access(&mut self, _now: Cycle, _gpu: GpuId, _vpn: PageId) {}

    /// Observes every access (local and remote) when the policy runs
    /// epochs; interval-based classifiers (Griffin-DPC) build their
    /// per-epoch access profiles here.
    fn on_access(&mut self, _now: Cycle, _gpu: GpuId, _vpn: PageId, _kind: AccessKind) {}

    /// Interval length for [`PlacementPolicy::on_epoch`]; `None` disables
    /// epochs. Fixed for the policy's lifetime: the driver decides once,
    /// at construction, whether to route every access to
    /// [`PlacementPolicy::on_access`].
    fn epoch_len(&self) -> Option<Cycle> {
        None
    }

    /// Called at every epoch boundary when [`PlacementPolicy::epoch_len`]
    /// is set; returns migration directives for the driver to execute.
    fn on_epoch(&mut self, _now: Cycle, _table: &mut CentralPageTable) -> Vec<Directive> {
        Vec::new()
    }

    /// Write semantics for replicated pages (GPS overrides to
    /// [`WriteMode::Broadcast`]).
    fn write_mode(&self) -> WriteMode {
        WriteMode::Collapse
    }

    /// Whether the Ideal cost model applies (no capacity pressure, free
    /// writes). Only the Ideal policy returns `true`.
    fn is_ideal(&self) -> bool {
        false
    }
}

/// Uniformly applies one of the three schemes of §II-B to every page — the
/// baselines of Fig. 1/17.
///
/// ```
/// use grit_uvm::{PlacementPolicy, StaticPolicy, WriteMode};
/// use grit_sim::Scheme;
/// let p = StaticPolicy::new(Scheme::Duplication);
/// // A write to a duplicated page collapses its replicas.
/// assert_eq!(p.write_mode(), WriteMode::Collapse);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StaticPolicy {
    scheme: Scheme,
}

impl StaticPolicy {
    /// A policy that always applies `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        StaticPolicy { scheme }
    }
}

impl PlacementPolicy for StaticPolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        // Record the uniform scheme in the PTE bits so metrics (Fig. 19)
        // and the access-counter machinery see a consistent view.
        table.set_scheme(fault.vpn, self.scheme);
        let resolution = match self.scheme {
            Scheme::OnTouch => Resolution::Migrate,
            Scheme::AccessCounter => {
                // Volta semantics: host-resident pages migrate on first
                // touch; the access counters govern migration of pages
                // resident in *peer GPU* memory (§II-B2).
                if page.owner.gpu().is_none() && !page.is_duplicated() {
                    Resolution::Migrate
                } else {
                    Resolution::MapRemote
                }
            }
            Scheme::Duplication => Resolution::Duplicate,
        };
        PolicyDecision::plain(resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::MemLoc;

    fn fault(gpu: u8, vpn: u64, kind: AccessKind) -> FaultInfo {
        FaultInfo {
            now: 0,
            gpu: GpuId::new(gpu),
            vpn: PageId(vpn),
            kind,
            fault: FaultKind::Local,
        }
    }

    #[test]
    fn on_touch_always_migrates() {
        let mut p = StaticPolicy::new(Scheme::OnTouch);
        let mut t = CentralPageTable::new();
        let page = t.note_fault(GpuId::new(0), PageId(1), false);
        let d = p.on_fault(&fault(0, 1, AccessKind::Read), &page, &mut t);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert_eq!(t.scheme_of(PageId(1)), Some(Scheme::OnTouch));
    }

    #[test]
    fn access_counter_first_touch_migrates_then_maps_remote() {
        let mut p = StaticPolicy::new(Scheme::AccessCounter);
        let mut t = CentralPageTable::new();
        let cold = t.note_fault(GpuId::new(0), PageId(1), false);
        assert_eq!(
            p.on_fault(&fault(0, 1, AccessKind::Read), &cold, &mut t).resolution,
            Resolution::Migrate
        );
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        let warm = t.note_fault(GpuId::new(1), PageId(1), false);
        assert_eq!(
            p.on_fault(&fault(1, 1, AccessKind::Read), &warm, &mut t).resolution,
            Resolution::MapRemote
        );
    }

    #[test]
    fn duplication_duplicates() {
        let mut p = StaticPolicy::new(Scheme::Duplication);
        let mut t = CentralPageTable::new();
        let page = t.note_fault(GpuId::new(2), PageId(9), false);
        let d = p.on_fault(&fault(2, 9, AccessKind::Read), &page, &mut t);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(p.write_mode(), WriteMode::Collapse);
        assert!(!p.is_ideal());
    }

    #[test]
    fn default_hooks_are_inert() {
        let mut p = StaticPolicy::new(Scheme::OnTouch);
        assert_eq!(p.epoch_len(), None);
        let mut t = CentralPageTable::new();
        assert!(p.on_epoch(0, &mut t).is_empty());
        p.on_remote_access(0, GpuId::new(0), PageId(0));
    }
}
