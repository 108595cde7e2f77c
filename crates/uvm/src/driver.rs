//! The UVM driver: fault servicing and page-placement *mechanisms*.
//!
//! The driver owns the authoritative VM state of the node — the centralized
//! page table, every GPU's local page table, per-GPU memory occupancy, the
//! interconnect fabric and the Volta-style access counters — and executes
//! whatever mechanism the active [`PlacementPolicy`] selects per fault:
//! migration (§II-B1), remote mapping with counter-based migration
//! (§II-B2), duplication with write-collapse (§II-B3), GPS-style store
//! broadcast, prefetch fills, and capacity evictions.
//!
//! Each page-state change is made in one place: `evict_page` removes a
//! page from a GPU, whether an LRU victim or a page of a retired frame;
//! `pull` moves a page's bytes to a GPU; `make_exclusive` leaves one GPU
//! the page's only holder (migration, write-collapse, prefetch).
//!
//! Latency attribution follows Fig. 3: every cycle the driver charges lands
//! in one of the six [`LatencyClass`] buckets.

use grit_interconnect::Fabric;
use grit_mem::{GpuMemory, LocalPageTable, Mapping};
use grit_metrics::{FaultCounters, LatencyBreakdown, LatencyClass, LatencyHistogram};
use grit_prof::{span, Phase};
use grit_sim::{
    AccessKind, Backoff, ConfigError, Cycle, FaultPlan, GpuId, InjectedKind, MemLoc, PageId,
    ResilienceCounters, Scheme, SimConfig, CACHE_LINE_BYTES,
};
use grit_trace::{EventCategory, FaultClass, SplinterCause, TraceEvent, Tracer};

use crate::central::CentralPageTable;
use crate::counters::AccessCounters;
use crate::pagesize::LargePageTable;
use crate::policy::{
    Directive, FaultInfo, FaultKind, PlacementPolicy, PolicyDecision, Resolution, WriteMode,
};
use crate::prefetch::Prefetcher;

/// Side effects of a driver operation the runner must apply to GPU-side
/// hardware structures (TLBs, cached lines) and frontends (stalls).
///
/// The driver owns one outcome buffer and clears it at the start of each
/// public operation ([`UvmDriver::handle_fault`],
/// [`UvmDriver::maybe_run_epoch`], [`UvmDriver::record_remote_access`]);
/// every transition the operation runs pushes its effects into it. The
/// caller applies the returned outcome before its next driver call, so a
/// warm fault path allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct DriverOutcome {
    /// Cycle at which the faulting GPU's access may replay. Set by
    /// [`UvmDriver::handle_fault`] only; zero after the other operations.
    pub done_at: Cycle,
    /// GPUs stalled (pipeline drain / invalidation application) until the
    /// given cycle.
    pub stalls: Vec<(GpuId, Cycle)>,
    /// Translations the runner must drop from TLBs and data caches.
    pub invalidated: Vec<(GpuId, PageId)>,
    /// Coalesced 2 MB frames splintered by this operation, as `(owner,
    /// frame_base)` pairs: the runner must drop the owner's large-TLB
    /// entry for the frame. Always empty under uniform 4 KB pages.
    pub splintered: Vec<(GpuId, PageId)>,
    /// The first mapping the operation installed. On a
    /// [`UvmDriver::handle_fault`] result that is the mapping of the
    /// *faulting* GPU and page (GPS group duplication and prefetch fills
    /// run after it), which lets the runner replay the access without a
    /// second page-table lookup.
    pub mapping: Option<Mapping>,
}

impl DriverOutcome {
    fn clear(&mut self) {
        self.done_at = 0;
        self.stalls.clear();
        self.invalidated.clear();
        self.splintered.clear();
        self.mapping = None;
    }
}

/// A violated cross-structure VM invariant: which GPU/page broke, at
/// which driver cycle, and why. Returned by
/// [`UvmDriver::check_invariants`]; the automatic sweeps panic with its
/// [`Display`](std::fmt::Display) rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The GPU whose state is inconsistent, when attributable to one.
    pub gpu: Option<GpuId>,
    /// The page involved, when attributable to one.
    pub vpn: Option<PageId>,
    /// The latest event cycle the driver had processed when the check ran.
    pub cycle: Cycle,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated at cycle {}", self.cycle)?;
        if let Some(g) = self.gpu {
            write!(f, " on {g}")?;
        }
        if let Some(v) = self.vpn {
            write!(f, " ({v})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for InvariantViolation {}

/// The UVM driver model.
pub struct UvmDriver {
    cfg: SimConfig,
    central: CentralPageTable,
    local_pts: Vec<LocalPageTable>,
    memories: Vec<GpuMemory>,
    /// The interconnect, which also holds the compiled hardware-fault
    /// schedule (empty unless `cfg.inject` has events; every query on an
    /// empty plan is a no-op).
    fabric: Fabric,
    counters: AccessCounters,
    /// Which 2 MB frames are currently coalesced (inert under uniform
    /// 4 KB pages).
    large: LargePageTable,
    /// Base pages per 64 KB access-counter group (GPS subscription and
    /// counter-trip migration granularity).
    pages_per_group: u64,
    policy: Box<dyn PlacementPolicy>,
    /// Whether the policy runs epochs and so consumes the access feed.
    wants_access_feed: bool,
    prefetcher: Option<Box<dyn Prefetcher>>,
    footprint_pages: u64,
    breakdown: LatencyBreakdown,
    faults: FaultCounters,
    page_insertions: u64,
    next_epoch: Option<Cycle>,
    /// No epoch boundary and no scheduled fault transition falls before
    /// this cycle, so [`UvmDriver::maybe_run_epoch`] below it only
    /// advances the clock. Recomputed whenever that call takes its slow
    /// path; `handle_fault` and `record_remote_access` may apply
    /// transitions early, which only leaves it low.
    next_due: Cycle,
    /// Local + protection faults raised by each GPU (load-imbalance view).
    faults_per_gpu: Vec<u64>,
    /// End-to-end fault-handling latency distribution (fault raise to
    /// replay release).
    fault_latency: LatencyHistogram,
    /// Fault-handler occupancy: how long each fault queued behind
    /// earlier faults' service time before the serial driver took it.
    fault_occupancy: LatencyHistogram,
    /// Per-migration latency (driver dispatch to data arrival + mapping).
    migration_latency: LatencyHistogram,
    /// The host services faults serially; the next fault starts no earlier
    /// than this cycle.
    fault_service_free: Cycle,
    /// Per-GPU earliest cycle the next peer request may issue.
    remote_port_free: Vec<Cycle>,
    /// Cursor into [`FaultPlan::transitions`]: the next not-yet-applied
    /// state change.
    next_transition: usize,
    /// Per-GPU cursor into [`FaultPlan::retirements`].
    retire_cursor: Vec<usize>,
    /// Retry policy for migrations whose route is severed.
    backoff: Backoff,
    /// Fault-injection outcome counters (all zero without a plan).
    resilience: ResilienceCounters,
    /// Latest event cycle the driver has observed; stamps invariant
    /// violations.
    clock: Cycle,
    /// Event sink for placement events; disabled by default. Emission
    /// sites coincide with [`FaultCounters`] increments so per-category
    /// event counts equal the counters when unfiltered and unsampled.
    tracer: Tracer,
    /// Side effects of the public operation in progress.
    out: DriverOutcome,
}

impl std::fmt::Debug for UvmDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UvmDriver")
            .field("footprint_pages", &self.footprint_pages)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl UvmDriver {
    /// Builds a driver for a workload of `footprint_pages` pages under the
    /// given policy. Each GPU's memory capacity follows §III-B:
    /// `capacity_ratio × footprint` (70 % of the application footprint per
    /// GPU) — enough that single-copy placements never thrash, while
    /// replication-heavy schemes (duplication, GPS) oversubscribe.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`] or the
    /// footprint is zero.
    pub fn new(cfg: SimConfig, footprint_pages: u64, policy: Box<dyn PlacementPolicy>) -> Self {
        UvmDriver::try_new(cfg, footprint_pages, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`UvmDriver::new`]: validates the configuration
    /// and the footprint and returns a [`ConfigError`] instead of
    /// panicking.
    pub fn try_new(
        cfg: SimConfig,
        footprint_pages: u64,
        policy: Box<dyn PlacementPolicy>,
    ) -> Result<Self, ConfigError> {
        let plan = cfg.validate()?;
        UvmDriver::with_fault_plan(cfg, footprint_pages, policy, plan)
    }

    /// Builds a driver from a configuration that already passed
    /// [`SimConfig::validate`], with the fault plan that call returned;
    /// only the footprint is checked here.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] on `footprint_pages` when the footprint is zero.
    pub fn with_fault_plan(
        cfg: SimConfig,
        footprint_pages: u64,
        policy: Box<dyn PlacementPolicy>,
        plan: FaultPlan,
    ) -> Result<Self, ConfigError> {
        if footprint_pages == 0 {
            return Err(ConfigError::new(
                "footprint_pages",
                "footprint must be non-zero",
            ));
        }
        let cap = ((footprint_pages as f64 * cfg.capacity_ratio).ceil() as usize).max(1);
        let next_epoch = policy.epoch_len();
        let fabric = Fabric::with_fault_plan(cfg.num_gpus, cfg.links, cfg.topology, plan);
        Ok(UvmDriver {
            central: CentralPageTable::with_footprint(footprint_pages),
            local_pts: (0..cfg.num_gpus).map(|_| LocalPageTable::new(footprint_pages)).collect(),
            memories: (0..cfg.num_gpus)
                .map(|_| GpuMemory::with_footprint(cap, footprint_pages))
                .collect(),
            fabric,
            counters: AccessCounters::new(
                cfg.access_counter_threshold,
                cfg.page_size,
                cfg.num_gpus,
                footprint_pages,
            ),
            large: LargePageTable::from_config(cfg.page_size_mode, cfg.page_size, footprint_pages),
            pages_per_group: (65_536 / cfg.page_size).max(1),
            wants_access_feed: policy.epoch_len().is_some(),
            policy,
            prefetcher: None,
            footprint_pages,
            breakdown: LatencyBreakdown::default(),
            faults: FaultCounters::default(),
            page_insertions: 0,
            next_epoch,
            next_due: 0,
            faults_per_gpu: vec![0; cfg.num_gpus],
            fault_latency: LatencyHistogram::new(),
            fault_occupancy: LatencyHistogram::new(),
            migration_latency: LatencyHistogram::new(),
            fault_service_free: 0,
            remote_port_free: vec![0; cfg.num_gpus],
            next_transition: 0,
            retire_cursor: vec![0; cfg.num_gpus],
            backoff: Backoff::default(),
            resilience: ResilienceCounters::default(),
            clock: 0,
            tracer: Tracer::disabled(),
            out: DriverOutcome::default(),
            cfg,
        })
    }

    /// Attaches an event sink; placement events and the fabric's link
    /// transfers are recorded through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fabric.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a prefetcher (Fig. 30).
    pub fn set_prefetcher(&mut self, p: Box<dyn Prefetcher>) {
        self.prefetcher = Some(p);
    }

    /// Current local-page-table mapping of `vpn` on `gpu`.
    pub fn translate(&self, gpu: GpuId, vpn: PageId) -> Option<Mapping> {
        self.local_pts[gpu.index()].lookup(vpn)
    }

    /// The 2 MB frame base when `vpn` lies inside a coalesced frame —
    /// the key under which the large translation lives in the 2 MB TLBs.
    /// Always `None` under uniform 4 KB pages.
    pub fn coalesced_frame(&self, vpn: PageId) -> Option<PageId> {
        self.large.coalesced_frame(vpn)
    }

    /// The 2 MB frame base when `gpu` holds the frame's large
    /// translation — it owns the coalesced frame containing `vpn` — so
    /// its accesses translate through the 2 MB TLBs under this key.
    /// Peers mapping into the frame remotely keep base-page
    /// translations.
    pub fn large_translation(&self, gpu: GpuId, vpn: PageId) -> Option<PageId> {
        (self.large.frame_owner(vpn) == Some(gpu)).then(|| self.large.frame_base(vpn))
    }

    /// Whether this driver manages multi-page-size state at all
    /// (`page_size_mode` `mixed` with base pages smaller than 2 MB).
    pub fn large_pages_active(&self) -> bool {
        self.large.enabled()
    }

    /// Read access to the large-page table (coalesced frames, counters).
    pub fn large_pages(&self) -> &LargePageTable {
        &self.large
    }

    /// Effective placement scheme of a page (Fig. 19 metric); pages with
    /// unset scheme bits report the baseline on-touch scheme.
    pub fn scheme_of(&self, vpn: PageId) -> Scheme {
        self.central.scheme_of(vpn).unwrap_or(Scheme::OnTouch)
    }

    /// Write semantics of the active policy.
    pub fn write_mode(&self) -> WriteMode {
        self.policy.write_mode()
    }

    /// Whether the Ideal cost model is active (exempt from the mapping
    /// invariants: Ideal pretends every GPU holds the page locally).
    pub fn is_ideal(&self) -> bool {
        self.policy.is_ideal()
    }

    /// Whether the policy consumes the full access feed
    /// ([`PlacementPolicy::on_access`] via the runner).
    pub fn wants_access_feed(&self) -> bool {
        self.wants_access_feed
    }

    /// Forwards one access observation to epoch-based policies.
    pub fn feed_access(&mut self, now: Cycle, gpu: GpuId, vpn: PageId, kind: AccessKind) {
        self.policy.on_access(now, gpu, vpn, kind);
    }

    /// Charges cycles to a latency class (used by the runner for the
    /// Local/Remote classes it measures itself).
    pub fn charge(&mut self, class: LatencyClass, cycles: Cycle) {
        self.breakdown.record(class, cycles);
    }

    /// Six-way latency attribution so far.
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.breakdown
    }

    /// Fault/event counters so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Interconnect statistics.
    pub fn fabric_stats(&self) -> grit_interconnect::FabricStats {
        self.fabric.stats()
    }

    /// Fraction of page placements that displaced a resident page.
    pub fn oversubscription_rate(&self) -> f64 {
        if self.page_insertions == 0 {
            0.0
        } else {
            self.faults.evictions as f64 / self.page_insertions as f64
        }
    }

    /// Read access to the centralized page table.
    pub fn central(&self) -> &CentralPageTable {
        &self.central
    }

    /// Faults raised by each GPU (local + protection).
    pub fn faults_per_gpu(&self) -> &[u64] {
        &self.faults_per_gpu
    }

    /// End-to-end fault-handling latency distribution.
    pub fn fault_latency(&self) -> &LatencyHistogram {
        &self.fault_latency
    }

    /// Fault-handler occupancy distribution: per-fault queue wait for
    /// the serial driver resource.
    pub fn fault_occupancy(&self) -> &LatencyHistogram {
        &self.fault_occupancy
    }

    /// Per-migration latency distribution.
    pub fn migration_latency(&self) -> &LatencyHistogram {
        &self.migration_latency
    }

    /// Per-hop fabric queue-wait distribution.
    pub fn fabric_queue_wait(&self) -> &LatencyHistogram {
        self.fabric.queue_wait_hist()
    }

    /// Whether a fault-injection plan is active on this driver.
    pub fn injection_active(&self) -> bool {
        !self.fabric.plan().is_empty()
    }

    /// Fault-injection outcome counters (all zero when no plan is active,
    /// except `invariant_checks`, which also counts epoch sweeps).
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.resilience
    }

    /// Verifies the driver's cross-structure invariants; returns the first
    /// violation found. The system runner checks this after every run, so
    /// any divergence between the local page tables, the centralized
    /// table, and DRAM occupancy fails loudly.
    ///
    /// Invariants:
    /// 1. A `Local` mapping on GPU *g* implies the centralized table names
    ///    *g* the owner, and the page is resident in *g*'s memory.
    /// 2. A `Replica` mapping implies membership in the replica set and
    ///    local residency.
    /// 3. A `Remote(o)` mapping implies the owner is exactly *o*.
    /// 4. Every recorded replica holder's memory actually holds the page.
    /// 5. No GPU exceeds its memory capacity.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, typed with the GPU, page and
    /// driver cycle it was detected at.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |gpu: Option<GpuId>, vpn: Option<PageId>, message: String| InvariantViolation {
            gpu,
            vpn,
            cycle: self.clock,
            message,
        };
        for g in GpuId::all(self.cfg.num_gpus) {
            let pt = &self.local_pts[g.index()];
            let mem = &self.memories[g.index()];
            if mem.resident() > mem.capacity() {
                return Err(fail(
                    Some(g),
                    None,
                    format!(
                        "{g}: residency {} exceeds capacity {}",
                        mem.resident(),
                        mem.capacity()
                    ),
                ));
            }
            for (vpn, mapping) in pt.iter() {
                let state = self.central.page(vpn);
                match mapping {
                    Mapping::Local => {
                        if state.owner != MemLoc::Gpu(g) {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} Local but owner is {}", state.owner),
                            ));
                        }
                        if !mem.contains(vpn) {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} Local but page not resident"),
                            ));
                        }
                    }
                    Mapping::Replica => {
                        if !state.replicas.contains(g) && state.owner != MemLoc::Gpu(g) {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} Replica but is not a recorded holder"),
                            ));
                        }
                        if !mem.contains(vpn) {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} Replica but page not resident"),
                            ));
                        }
                    }
                    Mapping::Remote(o) => {
                        if state.owner != MemLoc::Gpu(o) {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} Remote({o}) but owner is {}", state.owner),
                            ));
                        }
                    }
                    Mapping::RemoteHost => {
                        if state.owner != MemLoc::Host {
                            return Err(fail(
                                Some(g),
                                Some(vpn),
                                format!("{g} maps {vpn} RemoteHost but owner is {}", state.owner),
                            ));
                        }
                    }
                }
            }
        }
        // A GPU owns only pages it has touched (so a coalesced frame is
        // fully touched without coalescing checking it), and replica
        // holders must be resident.
        for (vpn, state) in self.central.iter() {
            if let MemLoc::Gpu(g) = state.owner {
                if !state.touched {
                    return Err(fail(
                        Some(g),
                        Some(vpn),
                        format!("{vpn}: owned by {g} but never touched"),
                    ));
                }
            }
            for holder in state.replicas.iter() {
                if holder.index() >= self.cfg.num_gpus {
                    return Err(fail(
                        Some(holder),
                        Some(vpn),
                        format!("{vpn}: replica holder {holder} out of range"),
                    ));
                }
                if !self.memories[holder.index()].contains(vpn) {
                    return Err(fail(
                        Some(holder),
                        Some(vpn),
                        format!("{vpn}: replica holder {holder} lost the page"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Automatic invariant sweep: runs after every applied injection and
    /// at epoch boundaries, in every build. A violation is a simulator bug
    /// and fails loudly.
    fn auto_check_invariants(&mut self, now: Cycle) {
        // The Ideal upper bound deliberately fakes local mappings on every
        // GPU; its state is exempt from the consistency invariants.
        if self.is_ideal() {
            return;
        }
        self.clock = self.clock.max(now);
        self.resilience.invariant_checks += 1;
        if let Err(v) = self.check_invariants() {
            panic!("{v}");
        }
    }

    /// Starts a public operation at `now`: advances the driver clock and
    /// clears the outcome buffer the operation fills.
    fn begin(&mut self, now: Cycle) {
        self.clock = self.clock.max(now);
        self.out.clear();
    }

    /// Applies every scheduled fault transition with `cycle <= now`:
    /// emits `FaultInjected`/`Recovered` events, executes ECC frame
    /// retirements, and sweeps the invariants after each change. Returns
    /// when the retirements' write-backs complete (no earlier than `now`),
    /// or `None` without a plan or with nothing due.
    fn apply_injections(&mut self, now: Cycle) -> Option<Cycle> {
        let mut done = now;
        let mut any = false;
        while let Some(&tr) = self.fabric.plan().transitions().get(self.next_transition) {
            if tr.cycle > now {
                break;
            }
            self.next_transition += 1;
            any = true;
            if tr.starts {
                self.resilience.faults_injected += 1;
                self.tracer.emit(EventCategory::FaultInjected, || TraceEvent::FaultInjected {
                    cycle: tr.cycle,
                    kind: tr.kind,
                    wire: tr.wire,
                    gpu: tr.gpu.map(GpuId::new),
                });
                if tr.kind == InjectedKind::Retire {
                    if let Some(g) = tr.gpu {
                        done = done.max(self.apply_retirement(GpuId::new(g), tr.cycle));
                    }
                }
            } else {
                self.resilience.recoveries += 1;
                self.tracer.emit(EventCategory::Recovered, || TraceEvent::Recovered {
                    cycle: tr.cycle,
                    kind: tr.kind,
                    wire: tr.wire,
                    gpu: tr.gpu.map(GpuId::new),
                });
            }
            self.auto_check_invariants(tr.cycle);
        }
        any.then_some(done)
    }

    /// Executes one scheduled ECC retirement on `gpu`: shrinks the DRAM
    /// capacity and re-places every force-evicted page through
    /// [`UvmDriver::evict_page`] (owners move back to host memory, replicas
    /// are dropped), charged to the host class. Returns when the last
    /// write-back completes.
    fn apply_retirement(&mut self, gpu: GpuId, now: Cycle) -> Cycle {
        let cursor = self.retire_cursor[gpu.index()];
        let Some(&(_, count)) = self.fabric.plan().retirements(gpu.index()).get(cursor) else {
            return now;
        };
        self.retire_cursor[gpu.index()] = cursor + 1;
        let before = self.memories[gpu.index()].capacity();
        let frames = count.resolve(before as u64);
        let evicted = self.memories[gpu.index()].retire_frames(frames);
        self.resilience.frames_retired += (before - self.memories[gpu.index()].capacity()) as u64;
        self.resilience.pages_force_evicted += evicted.len() as u64;
        evicted.into_iter().fold(now, |done, (vpn, dirty)| {
            let cause = SplinterCause::Retirement;
            done.max(self.evict_page(gpu, vpn, dirty, cause, LatencyClass::Host, now))
        })
    }

    /// If the policy runs epochs and `now` has passed the next boundary,
    /// executes the epoch callback and its directives. Scheduled fault
    /// injections due by `now` are applied first either way. `None` when
    /// neither ran.
    pub fn maybe_run_epoch(&mut self, now: Cycle) -> Option<&DriverOutcome> {
        if now < self.next_due {
            self.clock = self.clock.max(now);
            return None;
        }
        self.begin(now);
        let injected = self.apply_injections(now).is_some();
        let epoch = self.run_due_epoch(now);
        let transition = self.fabric.plan().transitions().get(self.next_transition);
        self.next_due = transition
            .map_or(Cycle::MAX, |tr| tr.cycle)
            .min(self.next_epoch.unwrap_or(Cycle::MAX));
        (injected || epoch).then_some(&self.out)
    }

    /// Runs the epoch callback when a boundary is due; returns whether it
    /// ran.
    fn run_due_epoch(&mut self, now: Cycle) -> bool {
        let (Some(epoch), Some(due)) = (self.policy.epoch_len(), self.next_epoch) else {
            return false;
        };
        if now < due {
            return false;
        }
        self.next_epoch = Some(due + epoch.max(1));
        let directives = self.policy.on_epoch(now, &mut self.central);
        // Interval-based classifiers ship per-GPU access profiles to the
        // host every epoch — the CPU–GPU communication overhead §VI-C1
        // holds against Griffin-DPC. Every GPU stalls while its profile
        // drains over PCIe.
        let profile_bytes = 8 * (self.central.len() as u64 / self.cfg.num_gpus as u64).max(64);
        for g in GpuId::all(self.cfg.num_gpus) {
            let t = self.fabric.gpu_to_host(g, now, profile_bytes);
            self.out.stalls.push((g, t));
        }
        self.breakdown.record(
            LatencyClass::Host,
            profile_bytes / 8 * self.cfg.num_gpus as u64,
        );
        for d in directives {
            match d {
                Directive::MigratePage { vpn, to } => {
                    if self.central.page(vpn).owner != MemLoc::Gpu(to) {
                        self.migrate_page(to, vpn, now, LatencyClass::PageMigration);
                        // Epoch placement settles pages too: the target
                        // frame may now be fully private on `to`.
                        self.try_coalesce(vpn, now);
                    }
                }
            }
        }
        // Epoch boundaries are a natural consistency point: sweep the
        // invariants.
        self.auto_check_invariants(now);
        true
    }

    /// Services one page fault end to end: host trip, policy decision,
    /// mechanism, PTE update, replay release.
    pub fn handle_fault(&mut self, fault: FaultInfo) -> &DriverOutcome {
        let _prof = span(Phase::FaultHandling);
        self.begin(fault.now);
        // Retirement write-backs due by now hold the replay too.
        let injected = self.apply_injections(fault.now).unwrap_or(fault.now);
        match fault.fault {
            FaultKind::Local => self.faults.local_faults += 1,
            FaultKind::Protection => self.faults.protection_faults += 1,
        }
        self.faults_per_gpu[fault.gpu.index()] += 1;
        self.tracer.emit(EventCategory::Fault, || TraceEvent::Fault {
            cycle: fault.now,
            gpu: fault.gpu,
            vpn: fault.vpn,
            kind: match fault.fault {
                FaultKind::Local => FaultClass::Local,
                FaultKind::Protection => FaultClass::Protection,
            },
            write: fault.kind.is_write(),
        });

        let was_touched = self.central.page(fault.vpn).touched;
        let page = self.central.note_fault(fault.gpu, fault.vpn, fault.kind.is_write());
        let decision: PolicyDecision = self.policy.on_fault(&fault, &page, &mut self.central);

        if decision.resolution == Resolution::Ideal {
            // The Ideal of Fig. 1 has no fault machinery at all: data is
            // magically local (first cold read pays one fetch), writes are
            // free. Skip the host trip and the serial driver service.
            let done = self.ideal_touch(fault.gpu, fault.vpn, fault.now, was_touched, fault.kind);
            self.out.done_at = done.max(injected);
            return &self.out;
        }

        // Host trip: fault message + reply over PCIe, driver servicing,
        // centralized page-table walk. The driver is a serial resource —
        // a fault queues behind earlier faults' service occupancy — and
        // the policy's decision latency (PA-Cache/PA-Table) overlaps with
        // the walk; only the excess is charged, and if the walk finishes
        // first it waits (§V-C).
        let lat = self.cfg.lat;
        let t_msg = self.fabric.host_round_trip(fault.gpu, fault.now);
        let service_start = t_msg.max(self.fault_service_free);
        // An injected fault-handler stall storm occupies the serial driver
        // with background faults; this fault queues behind them. Always
        // zero without a plan.
        let storm = self.fabric.plan().storm_stall(fault.gpu.index(), service_start);
        if storm > 0 {
            self.resilience.storm_stalled_faults += 1;
        }
        self.fault_service_free = service_start + storm + lat.fault_service_time;
        let queue_wait = service_start - t_msg;
        self.fault_occupancy.record(queue_wait);
        let pcie_trip = t_msg - fault.now;
        let decision_excess = decision.decision_latency.saturating_sub(lat.central_walk);
        let host_cost = lat.host_fault_base + lat.central_walk + decision_excess + storm;
        self.breakdown.record(LatencyClass::Host, pcie_trip + queue_wait + host_cost);
        let mut t = service_start + host_cost;

        if decision.scheme_changed {
            self.faults.scheme_changes += 1;
            if let Some(scheme) = self.central.scheme_of(fault.vpn) {
                self.tracer.emit(EventCategory::SchemeChange, || TraceEvent::SchemeChange {
                    cycle: fault.now,
                    gpu: fault.gpu,
                    vpn: fault.vpn,
                    scheme,
                });
            }
            self.breakdown.record(LatencyClass::Host, lat.scheme_change);
            t += lat.scheme_change;
            // Resetting away from duplication must tear replicas down for
            // consistency (§V-F).
            let state = self.central.page(fault.vpn);
            if state.is_duplicated()
                && self.central.scheme_of(fault.vpn) != Some(Scheme::Duplication)
            {
                t = t.max(self.teardown_replicas(fault.vpn, t));
            }
        }

        let done = match decision.resolution {
            Resolution::Migrate => {
                self.migrate_page(fault.gpu, fault.vpn, t, LatencyClass::PageMigration)
            }
            Resolution::MapRemote => {
                self.map_remote(fault.gpu, fault.vpn);
                t
            }
            Resolution::Duplicate => {
                if fault.kind.is_write() && self.policy.write_mode() == WriteMode::Collapse {
                    self.collapse_exclusive(fault.gpu, fault.vpn, t)
                } else if self.policy.write_mode() == WriteMode::Broadcast {
                    // GPS subscribes at allocation/block granularity: the
                    // faulting GPU eagerly replicates the whole touched
                    // 64 KB group, and writers subscribe too (their stores
                    // broadcast instead of collapsing).
                    let base = fault.vpn.group_base(self.pages_per_group);
                    let mut done = self.duplicate_to(fault.gpu, fault.vpn, t);
                    for p in (0..self.pages_per_group).map(|i| base.offset(i)) {
                        if p != fault.vpn && self.carried(p) {
                            done = done.max(self.duplicate_to(fault.gpu, p, t));
                        }
                    }
                    done
                } else {
                    // Reads replicate; a write under collapse semantics was
                    // handled above.
                    self.duplicate_to(fault.gpu, fault.vpn, t)
                }
            }
            Resolution::Ideal => unreachable!("ideal handled before the host trip"),
        };
        let done = done.max(injected);

        // Prefetch fills ride in the background after the fault resolves.
        if self.prefetcher.is_some() {
            self.run_prefetch(fault.gpu, fault.vpn, done);
        }

        // Fault resolution settles placement: the frame may just have
        // become fully private and resident on one GPU.
        self.try_coalesce(fault.vpn, fault.now);

        self.out.done_at = done + lat.fault_replay;
        self.fault_latency.record(self.out.done_at.saturating_sub(fault.now));
        &self.out
    }

    /// Observes one remote (post-cache) access under the counter-based
    /// scheme; returns the side effects when the 64 KB-group counter
    /// trips and migrates the group (§II-B2 step 3–5) or a scheduled
    /// fault injection applied, `None` otherwise.
    pub fn record_remote_access(
        &mut self,
        now: Cycle,
        gpu: GpuId,
        vpn: PageId,
    ) -> Option<&DriverOutcome> {
        self.begin(now);
        let injected = self.apply_injections(now).is_some();
        self.policy.on_remote_access(now, gpu, vpn);
        if self.scheme_of(vpn) != Scheme::AccessCounter {
            return injected.then_some(&self.out);
        }
        // A coalesced 2 MB frame exposes one translation, so the hardware
        // can only count at frame granularity: all of its 64 KB counter
        // groups alias onto a single frame-keyed counter (disjoint from
        // ordinary group indices via the top bit). Uncoalesced pages use
        // the ordinary 64 KB group key — under uniform 4 KB pages `frame`
        // is always `None` and this path is byte-identical to before.
        let frame = self.large.coalesced_frame(vpn);
        let group = match frame {
            Some(base) => (1 << 63) | (base.vpn() / self.large.pages_per_frame()),
            None => self.counters.group_of(vpn),
        };
        // Cost-weighted placement under injected faults: an access that
        // crosses a sick route (degraded, detoured, or severed) counts
        // double, so the counters pull hot 64 KB groups away from sick
        // links roughly twice as fast. Zero-cost without a plan.
        let mut tripped = self.counters.record_remote_grouped(gpu, group);
        if !tripped && !self.fabric.plan().is_empty() {
            if let MemLoc::Gpu(o) = self.central.page(vpn).owner {
                if o != gpu && self.fabric.route_sick(gpu, o, now) {
                    tripped = self.counters.record_remote_grouped(gpu, group);
                }
            }
        }
        if !tripped {
            return injected.then_some(&self.out);
        }
        // Counter tripped: the UVM driver broadcasts invalidations, then
        // migrates the whole tracked region to the heavy accessor — a
        // 64 KB page group normally (§II-B2), the whole 2 MB frame when
        // the trip was on a coalesced frame's aliased counter.
        self.counters.reset_group_key(group);
        if self.large.enabled() {
            self.large.note_counter_trip(match frame {
                Some(_) => (self.large.pages_per_frame() / self.pages_per_group).max(1),
                None => 0,
            });
        }
        let lat = self.cfg.lat;
        self.breakdown.record(LatencyClass::Host, lat.host_fault_base);
        let t = now + lat.host_fault_base;
        let (base, span_pages) = match frame {
            Some(fb) => (fb, self.large.pages_per_frame()),
            None => (vpn.group_base(self.pages_per_group), self.pages_per_group),
        };
        for p in (0..span_pages).map(|i| base.offset(i)) {
            if self.carried(p) {
                self.migrate_page(gpu, p, t, LatencyClass::PageMigration);
            }
        }
        // The whole region now sits on the accessor: re-coalesce if the
        // frame came out fully private (frame migration end-to-end).
        self.try_coalesce(vpn, t);
        Some(&self.out)
    }

    /// One remote data fetch/store of a cache line by `gpu` from `owner`'s
    /// memory; returns the completion cycle and charges the remote class.
    /// Peer requests contend for the GPU's remote port
    /// ([`grit_sim::LatencyConfig::remote_issue_gap`]), bounding remote
    /// throughput.
    pub fn remote_line_access(&mut self, now: Cycle, gpu: GpuId, owner: MemLoc) -> Cycle {
        let port = &mut self.remote_port_free[gpu.index()];
        let start = now.max(*port);
        *port = start + self.cfg.lat.remote_issue_gap;
        let done = match owner {
            MemLoc::Gpu(o) if o != gpu => self.fabric.gpu_to_gpu(gpu, o, start, CACHE_LINE_BYTES),
            MemLoc::Gpu(_) => start + self.cfg.lat.local_dram,
            MemLoc::Host => self.fabric.gpu_to_host(gpu, start, CACHE_LINE_BYTES),
        };
        let done = done + self.cfg.lat.remote_extra;
        self.breakdown.record(LatencyClass::RemoteAccess, done - now);
        done
    }

    /// GPS-style store broadcast: pushes the written line to every other
    /// holder of the page; replicas stay valid (no protection fault).
    ///
    /// The writer's store completes locally, but every broadcast packet
    /// occupies the writer's egress port — sustained fine-grained stores to
    /// widely subscribed pages back-pressure the writer (the GPS paper's
    /// write path is proactive but not free).
    pub fn broadcast_store(&mut self, now: Cycle, gpu: GpuId, vpn: PageId) -> Cycle {
        let state = self.central.page(vpn);
        let targets = state.holders().without(gpu);
        let port = &mut self.remote_port_free[gpu.index()];
        let start = now.max(*port);
        let packets = targets.len() as Cycle + u64::from(matches!(state.owner, MemLoc::Host));
        // Each packet occupies one egress slot here, one ingest slot at
        // its subscriber, and an ordering slot in the publication stream;
        // all three sides of that occupancy are folded into the writer's
        // port (3x) since subscribers mirror the stream.
        *port = start + 3 * packets * self.cfg.lat.remote_issue_gap;
        let done = start + self.cfg.lat.local_dram;
        if let MemLoc::Host = state.owner {
            self.fabric.gpu_to_host(gpu, start, CACHE_LINE_BYTES);
        }
        let mut occupancy_end = start;
        for g in targets.iter() {
            occupancy_end =
                occupancy_end.max(self.fabric.gpu_to_gpu(gpu, g, start, CACHE_LINE_BYTES));
        }
        // Background traffic time lands in the remote class.
        if occupancy_end > start {
            self.breakdown.record(LatencyClass::RemoteAccess, (occupancy_end - start) / 4);
        }
        done
    }

    /// Makes a page resident locally after a demand fetch miss (touch the
    /// LRU, mark writes dirty, charge DRAM latency).
    pub fn local_line_access(&mut self, now: Cycle, gpu: GpuId, vpn: PageId) -> Cycle {
        self.memories[gpu.index()].touch(vpn);
        now + self.cfg.lat.local_dram
    }

    /// Records that a local write modified the page (eviction write-back
    /// policy depends on it).
    pub fn mark_page_dirty(&mut self, gpu: GpuId, vpn: PageId) {
        self.memories[gpu.index()].mark_dirty(vpn);
    }

    // ------------------------------------------------------------------
    // Multi-page-size management (coalescing / splintering).
    // ------------------------------------------------------------------

    /// Splinters the coalesced frame containing `vpn`, if any: records
    /// the cause, emits the trace event, charges the owner's large-TLB
    /// shootdown and queues it on the outcome. A no-op under uniform
    /// 4 KB pages or when the frame was not coalesced, so every
    /// sharing/eviction path hooks this unconditionally.
    fn splinter_frame(&mut self, vpn: PageId, cause: SplinterCause, now: Cycle) {
        if let Some((base, owner)) = self.large.splinter(vpn, cause) {
            self.tracer.emit(EventCategory::PageSplintered, || {
                TraceEvent::PageSplintered {
                    cycle: now,
                    gpu: owner,
                    vpn: base,
                    cause,
                }
            });
            // The demotion rewrites the frame's PTEs and shoots down the
            // owner's large translation.
            self.breakdown.record(
                LatencyClass::Host,
                self.cfg.lat.scheme_change + self.cfg.lat.invalidation_per_gpu,
            );
            self.out.splintered.push((owner, base));
        }
    }

    /// Re-scans the frame containing `vpn` against the central table and
    /// coalesces it when it became fully private and resident on one
    /// GPU. Called at the end of serial driver operations that settle
    /// page placement (fault resolution, counter-trip migration, epoch
    /// migration); a no-op under uniform 4 KB pages.
    fn try_coalesce(&mut self, vpn: PageId, now: Cycle) {
        if !self.large.enabled() {
            return;
        }
        let central = &self.central;
        let candidate = self.large.coalesce_candidate(vpn, |p| {
            let st = central.page(p);
            match st.owner {
                MemLoc::Gpu(g) if st.replicas.is_empty() => Some(g),
                _ => None,
            }
        });
        if let Some((base, owner)) = candidate {
            self.large.coalesce(base, owner);
            self.tracer.emit(EventCategory::PageCoalesced, || TraceEvent::PageCoalesced {
                cycle: now,
                gpu: owner,
                vpn: base,
            });
            // The promotion rewrites the frame's PTEs host-side.
            self.breakdown.record(LatencyClass::Host, self.cfg.lat.scheme_change);
        }
    }

    // ------------------------------------------------------------------
    // Mechanisms.
    // ------------------------------------------------------------------

    /// Whether `p` lies inside the footprint and has been touched: the
    /// pages of a 64 KB group or 2 MB frame that a GPS group subscription
    /// or a counter-trip migration carries along. No transition changes
    /// `touched`, so the span walks test it page by page as they go.
    fn carried(&self, p: PageId) -> bool {
        p.vpn() < self.footprint_pages && self.central.page(p).touched
    }

    /// Installs `m` as `gpu`'s translation of `vpn`. The first mapping an
    /// operation installs is recorded on its outcome: on a fault that is
    /// the faulting page's, since GPS group duplication and prefetch fills
    /// run after the fault is resolved.
    fn install(&mut self, gpu: GpuId, vpn: PageId, m: Mapping) {
        self.local_pts[gpu.index()].map(vpn, m);
        self.out.mapping.get_or_insert(m);
    }

    /// Makes `vpn` resident on `gpu` as a page placement at `now`; a
    /// capacity victim goes through [`UvmDriver::evict_page`] with the
    /// dirty bit it held, charged to `class`. Returns when the victim's
    /// eviction completes, or `now` without one.
    fn insert_resident(
        &mut self,
        gpu: GpuId,
        vpn: PageId,
        now: Cycle,
        class: LatencyClass,
    ) -> Cycle {
        self.page_insertions += 1;
        match self.memories[gpu.index()].insert(vpn) {
            Some(victim) => {
                let dirty = self.memories[gpu.index()].is_dirty(victim);
                self.evict_page(gpu, victim, dirty, SplinterCause::Eviction, class, now)
            }
            None => now,
        }
    }

    /// Removes `vpn` from `gpu`, which no longer holds it: an LRU capacity
    /// victim or a page whose frame was retired. The only place that
    /// counts an eviction. An owned page moves back to the host (a dirty
    /// one pays the full PCIe write-back, a clean one a control message)
    /// and every GPU loses its translation; a replica is simply dropped.
    /// Charged to `class` because eviction cost belongs to whichever
    /// scheme caused the pressure (Fig. 3 folds duplication-driven
    /// eviction into "page-duplication"); retirement charges the host.
    /// Returns when the write-back completes (`now` for a replica).
    fn evict_page(
        &mut self,
        gpu: GpuId,
        vpn: PageId,
        dirty: bool,
        cause: SplinterCause,
        class: LatencyClass,
        now: Cycle,
    ) -> Cycle {
        self.faults.evictions += 1;
        self.tracer.emit(EventCategory::Eviction, || TraceEvent::Eviction {
            cycle: now,
            gpu,
            vpn,
        });
        // Losing any base page leaves the frame partially resident.
        self.splinter_frame(vpn, cause, now);
        let lat = self.cfg.lat;
        if self.central.page(vpn).owner == MemLoc::Gpu(gpu) {
            let bytes = if dirty { self.cfg.page_size } else { 64 };
            let t = self.fabric.gpu_to_host(gpu, now, bytes);
            self.breakdown.record(class, t - now);
            self.central.page_mut(vpn).owner = MemLoc::Host;
            for g in GpuId::all(self.cfg.num_gpus) {
                if self.local_pts[g.index()].invalidate(vpn) {
                    self.out.invalidated.push((g, vpn));
                    self.breakdown.record(class, lat.invalidation_per_gpu);
                }
            }
            t
        } else {
            // A replica (or stale residency): drop it locally.
            self.central.page_mut(vpn).replicas.remove(gpu);
            if self.local_pts[gpu.index()].invalidate(vpn) {
                self.out.invalidated.push((gpu, vpn));
                self.breakdown.record(class, lat.invalidation_per_gpu);
            }
            now
        }
    }

    /// Pulls one page's bytes from `owner` to `dst`, starting at `t`;
    /// returns the arrival cycle: a peer copy crosses the fabric, a host
    /// copy comes over PCIe, and `dst` already holding the bytes (it is
    /// the owner) costs nothing.
    fn pull(&mut self, owner: MemLoc, dst: GpuId, t: Cycle) -> Cycle {
        match owner {
            MemLoc::Gpu(src) if src != dst => {
                self.fabric.gpu_to_gpu(src, dst, t, self.cfg.page_size)
            }
            MemLoc::Gpu(_) => t,
            MemLoc::Host => self.fabric.gpu_to_host(dst, t, self.cfg.page_size),
        }
    }

    /// Makes `dst` the page's only holder: owner with no replicas,
    /// resident and mapped `Local`. `arrived: Some(t)` places the page
    /// at `t` as an insertion (which may evict, charged to `class`) and
    /// returns when that completes; `None` means `dst` already holds it
    /// and only refreshes its recency, and returns 0. Peers' copies and
    /// translations must already be gone.
    fn make_exclusive(
        &mut self,
        dst: GpuId,
        vpn: PageId,
        arrived: Option<Cycle>,
        class: LatencyClass,
    ) -> Cycle {
        {
            let p = self.central.page_mut(vpn);
            p.owner = MemLoc::Gpu(dst);
            p.replicas.clear();
        }
        let done = match arrived {
            Some(t) => self.insert_resident(dst, vpn, t, class),
            None => {
                self.memories[dst.index()].touch(vpn);
                0
            }
        };
        self.install(dst, vpn, Mapping::Local);
        done
    }

    /// Moves `vpn` to `dst` as its sole holder; returns when the data has
    /// arrived and any capacity victim's write-back has completed.
    fn migrate_page(&mut self, dst: GpuId, vpn: PageId, now: Cycle, class: LatencyClass) -> Cycle {
        let _prof = span(Phase::Migration);
        let state = self.central.page(vpn);
        let lat = self.cfg.lat;

        if state.owner == MemLoc::Gpu(dst) && !state.is_duplicated() {
            // Already local and exclusive: just (re)establish the mapping.
            self.make_exclusive(dst, vpn, None, class);
            return now;
        }

        // Graceful degradation: a migration whose source route is fully
        // severed by an injected outage retries with capped exponential
        // backoff, then falls back to remote access or host staging
        // rather than panicking or losing the page.
        if !self.fabric.plan().is_empty() {
            if let MemLoc::Gpu(src) = state.owner {
                if src != dst && self.fabric.route_blocked(src, dst, now) {
                    return self.blocked_migration(dst, src, vpn, now, class);
                }
            }
        }

        self.faults.migrations += 1;
        self.tracer.emit(EventCategory::Migration, || TraceEvent::Migration {
            cycle: now,
            gpu: dst,
            vpn,
            from: state.owner,
        });
        // A base page leaving its frame's owner breaks the frame's
        // privacy; a no-op when the frame was not coalesced.
        self.splinter_frame(vpn, SplinterCause::FalseSharing, now);
        let mut t = now;

        // 1. Flush/drain the source GPU that owns the page.
        let moving_from = state.owner.gpu().filter(|&src| src != dst);
        if let Some(src) = moving_from {
            self.breakdown.record(class, lat.flush_drain);
            self.out.stalls.push((src, t + lat.flush_drain));
            t += lat.flush_drain;
        }

        // 2. Invalidate every other GPU's translation (and replicas).
        t = t.max(self.teardown_mappings_except(vpn, dst, t, class));

        // 3. Move the data.
        let arrive = self.pull(state.owner, dst, t);
        self.breakdown.record(class, arrive - now);

        // 4. Update authoritative and local state. The placement counts
        // as an insertion even when `dst` already owned the bytes.
        if let Some(src) = moving_from {
            self.memories[src.index()].remove(vpn);
        }
        let done = self.make_exclusive(dst, vpn, Some(arrive), class);
        self.migration_latency.record(done.saturating_sub(now));
        done
    }

    /// Handles a migration whose `src -> dst` route is severed: retries
    /// with capped exponential backoff in case the outage window ends,
    /// then degrades gracefully. A clean source copy stays where it is
    /// and `dst` maps it remotely (the fabric stages remote reads through
    /// the host while the outage lasts); a dirty copy is staged to host
    /// memory over the source's always-available PCIe link so it stays
    /// reachable. Never panics, never drops the page. Returns when the
    /// page is reachable from `dst`.
    fn blocked_migration(
        &mut self,
        dst: GpuId,
        src: GpuId,
        vpn: PageId,
        now: Cycle,
        class: LatencyClass,
    ) -> Cycle {
        self.resilience.migrations_blocked += 1;
        let mut t = now;
        for attempt in 0..self.backoff.max_attempts {
            t += self.backoff.delay(attempt);
            self.resilience.migration_retries += 1;
            let cycle = t;
            self.tracer.emit(EventCategory::MigrationRetried, || {
                TraceEvent::MigrationRetried {
                    cycle,
                    gpu: dst,
                    vpn,
                    attempt: (attempt + 1).min(u8::MAX as u32) as u8,
                }
            });
            if !self.fabric.route_blocked(src, dst, t) {
                // The route recovered within the backoff budget: the wait
                // is part of the migration's latency, then the normal
                // path proceeds from the retry time.
                self.resilience.retry_successes += 1;
                self.breakdown.record(class, t - now);
                return self.migrate_page(dst, vpn, t, class);
            }
        }
        // Retries exhausted; fall back.
        self.breakdown.record(class, t - now);
        let dirty = self.memories[src.index()].is_dirty(vpn);
        let staged = dirty;
        self.tracer.emit(EventCategory::FallbackRemote, || {
            TraceEvent::FallbackRemote {
                cycle: t,
                gpu: dst,
                vpn,
                staged,
            }
        });
        if dirty {
            // The only up-to-date copy sits behind the dead route; park
            // it in host memory so every GPU can still reach it.
            self.resilience.host_staged += 1;
            // Host staging pulls a page out of the frame's residency.
            self.splinter_frame(vpn, SplinterCause::Eviction, t);
            let torn_down = self.teardown_mappings_except(vpn, dst, t, class);
            let staged_at = self.fabric.gpu_to_host(src, torn_down, self.cfg.page_size);
            self.breakdown.record(class, staged_at - t);
            self.memories[src.index()].remove(vpn);
            {
                let p = self.central.page_mut(vpn);
                p.owner = MemLoc::Host;
                p.replicas.clear();
            }
            if self.local_pts[src.index()].invalidate(vpn) {
                self.out.invalidated.push((src, vpn));
            }
            self.install(dst, vpn, Mapping::RemoteHost);
            staged_at
        } else {
            // The source copy is clean and authoritative: leave it owned
            // by `src` and access it remotely until placement re-places
            // the group.
            self.resilience.fallback_remote += 1;
            self.install(dst, vpn, Mapping::Remote(src));
            t
        }
    }

    /// Invalidates every GPU mapping of `vpn` except `keep`'s, dropping
    /// replicas from memory; returns when the invalidations complete.
    fn teardown_mappings_except(
        &mut self,
        vpn: PageId,
        keep: GpuId,
        now: Cycle,
        class: LatencyClass,
    ) -> Cycle {
        let lat = self.cfg.lat;
        let mut done = now;
        let mut replicas = self.central.page(vpn).replicas;
        for g in GpuId::all(self.cfg.num_gpus) {
            if g == keep {
                continue;
            }
            if self.local_pts[g.index()].invalidate(vpn) {
                self.out.invalidated.push((g, vpn));
                self.breakdown.record(class, lat.invalidation_per_gpu);
                done = now + lat.invalidation_per_gpu;
                self.out.stalls.push((g, done));
            }
            if replicas.remove(g) {
                self.memories[g.index()].remove(vpn);
            }
        }
        let keep_replica = replicas.contains(keep);
        let p = self.central.page_mut(vpn);
        p.replicas.clear();
        if keep_replica {
            p.replicas.insert(keep);
        }
        done
    }

    /// Tears down every replica of a page (scheme reset away from
    /// duplication, §V-F): PTE/TLB invalidations in each holder. Returns
    /// when the invalidations complete.
    fn teardown_replicas(&mut self, vpn: PageId, now: Cycle) -> Cycle {
        let lat = self.cfg.lat;
        let mut done = now;
        let replicas = self.central.page(vpn).replicas;
        for g in replicas.iter() {
            self.memories[g.index()].remove(vpn);
            if self.local_pts[g.index()].invalidate(vpn) {
                self.out.invalidated.push((g, vpn));
            }
            self.breakdown.record(LatencyClass::WriteCollapse, lat.invalidation_per_gpu);
            done = now + lat.invalidation_per_gpu;
            self.out.stalls.push((g, done));
        }
        self.central.page_mut(vpn).replicas.clear();
        done
    }

    /// Maps `vpn` on `gpu` where it lies; completes at once.
    fn map_remote(&mut self, gpu: GpuId, vpn: PageId) {
        let m = match self.central.page(vpn).owner {
            MemLoc::Gpu(owner) if owner != gpu => Mapping::Remote(owner),
            MemLoc::Gpu(_) => {
                // Owner faulted on its own page (stale PTE): remap local.
                self.memories[gpu.index()].touch(vpn);
                Mapping::Local
            }
            // The page stays in host memory; the GPU reads it over PCIe
            // while the access counters tick (§II-B2).
            MemLoc::Host => Mapping::RemoteHost,
        };
        self.install(gpu, vpn, m);
    }

    /// Adds `gpu` to the page's holders as a read-only replica; returns
    /// when the copy has arrived and any capacity victim's write-back has
    /// completed.
    fn duplicate_to(&mut self, gpu: GpuId, vpn: PageId, now: Cycle) -> Cycle {
        let state = self.central.page(vpn);

        if state.owner == MemLoc::Gpu(gpu) || state.replicas.contains(gpu) {
            // Already holding a copy (e.g. stale TLB after flush).
            let m = if state.owner == MemLoc::Gpu(gpu) {
                Mapping::Local
            } else {
                Mapping::Replica
            };
            self.install(gpu, vpn, m);
            self.memories[gpu.index()].touch(vpn);
            return now;
        }

        self.faults.duplications += 1;
        self.tracer.emit(EventCategory::Duplication, || TraceEvent::Duplication {
            cycle: now,
            gpu,
            vpn,
            from: state.owner,
        });
        // A replica on a peer ends the frame's single-owner privacy.
        self.splinter_frame(vpn, SplinterCause::FalseSharing, now);
        // Copy from the authoritative owner; the driver mediates the
        // replica creation (dup_overhead).
        let now = now + self.cfg.lat.dup_overhead;
        let arrive = self.pull(state.owner, gpu, now);
        self.breakdown.record(
            LatencyClass::PageDuplication,
            arrive - now + self.cfg.lat.dup_overhead,
        );
        self.central.page_mut(vpn).replicas.insert(gpu);
        let done = self.insert_resident(gpu, vpn, arrive, LatencyClass::PageDuplication);
        self.install(gpu, vpn, Mapping::Replica);
        done
    }

    /// Makes the writer the page's sole holder, invalidating every other
    /// copy and translation; returns when the writer may proceed.
    fn collapse_exclusive(&mut self, writer: GpuId, vpn: PageId, now: Cycle) -> Cycle {
        let state = self.central.page(vpn);
        let others = state.holders().without(writer);
        let had_copy = state.holders().contains(writer);
        let lat = self.cfg.lat;

        if others.is_empty() && state.owner == MemLoc::Host && !had_copy {
            // Cold write: plain on-touch style pull from host.
            return self.migrate_page(writer, vpn, now, LatencyClass::PageMigration);
        }

        let mut t = now;
        // The writer takes exclusive ownership away from the current
        // holders: any coalesced frame over this range is falsely shared.
        self.splinter_frame(vpn, SplinterCause::FalseSharing, now);
        if !others.is_empty() {
            self.faults.collapses += 1;
            self.tracer.emit(EventCategory::Collapse, || TraceEvent::Collapse {
                cycle: now,
                gpu: writer,
                vpn,
                holders: others.len() as u8,
            });
            // Two-step handling: the driver walks the centralized table
            // for the replica set and the writer waits for every
            // invalidation acknowledgement.
            self.breakdown.record(LatencyClass::WriteCollapse, lat.collapse_extra);
            t += lat.collapse_extra;
        }
        // Each holder flushes in-flight work, caches/TLBs and its PTE
        // (§II-B3); the flushes proceed in parallel across GPUs.
        let mut flush_end = t;
        for g in others.iter() {
            self.breakdown.record(
                LatencyClass::WriteCollapse,
                lat.flush_drain + lat.invalidation_per_gpu,
            );
            self.out.stalls.push((g, t + lat.flush_drain));
            flush_end = flush_end.max(t + lat.flush_drain + lat.invalidation_per_gpu);
            self.local_pts[g.index()].invalidate(vpn);
            self.out.invalidated.push((g, vpn));
            self.memories[g.index()].remove(vpn);
        }
        // Ownership moves to the writer: every other translation of this
        // page — including remote mappings held by non-holders — is stale
        // and must be shot down.
        let class = LatencyClass::WriteCollapse;
        t = flush_end.max(self.teardown_mappings_except(vpn, writer, flush_end, class));

        // Data: the writer reuses its replica if it has one, otherwise
        // pulls the authoritative copy.
        let arrived = if had_copy {
            None
        } else {
            let arrive = self.pull(state.owner, writer, t);
            self.breakdown.record(LatencyClass::WriteCollapse, arrive - t);
            t = arrive;
            Some(t)
        };
        t.max(self.make_exclusive(writer, vpn, arrived, class))
    }

    /// The Ideal upper bound's fault: maps the page `Local` on `gpu`;
    /// returns when the access may replay.
    fn ideal_touch(
        &mut self,
        gpu: GpuId,
        vpn: PageId,
        now: Cycle,
        was_touched: bool,
        kind: AccessKind,
    ) -> Cycle {
        let mut done = now;
        if !was_touched && !kind.is_write() {
            // The one cost Ideal pays: the first cold *read* fetch. Writes
            // complete with zero NUMA latency even when cold (Fig. 1's
            // definition).
            done = self.fabric.gpu_to_host(gpu, now, self.cfg.page_size);
            self.breakdown.record(LatencyClass::Host, done - now);
        }
        if !was_touched {
            self.central.page_mut(vpn).owner = MemLoc::Gpu(gpu);
        }
        // Every GPU sees the page as local; no capacity pressure is
        // modelled for the unrealizable upper bound.
        self.install(gpu, vpn, Mapping::Local);
        done
    }

    /// Places the prefetcher's cold neighbours of `vpn` on `gpu` at `now`.
    /// The fills do not delay the fault's replay, but a capacity victim's
    /// invalidations land on the fault's outcome.
    fn run_prefetch(&mut self, gpu: GpuId, vpn: PageId, now: Cycle) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let candidates = pf.on_fill(gpu, vpn, self.footprint_pages);
        for cand in candidates {
            let state = self.central.page(cand);
            if state.touched || state.owner != MemLoc::Host {
                continue;
            }
            // Background fill: consumes PCIe bandwidth but does not stall
            // the GPU (the page is placed at `now`, not at its arrival);
            // future touches then hit locally without faulting.
            self.pull(MemLoc::Host, gpu, now);
            // The fill counts as a read touch: a GPU owns only pages it
            // has touched.
            self.central.note_fault(gpu, cand, false);
            self.make_exclusive(gpu, cand, Some(now), LatencyClass::Host);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;

    fn driver(scheme: Scheme) -> UvmDriver {
        let cfg = SimConfig::default();
        UvmDriver::new(cfg, 1000, Box::new(StaticPolicy::new(scheme)))
    }

    fn fault(gpu: u8, vpn: u64, kind: AccessKind, fk: FaultKind, now: Cycle) -> FaultInfo {
        FaultInfo {
            now,
            gpu: GpuId::new(gpu),
            vpn: PageId(vpn),
            kind,
            fault: fk,
        }
    }

    #[test]
    fn capacity_follows_70_percent_rule() {
        let d = driver(Scheme::OnTouch);
        // 1000 pages * 0.7 = 700 pages per GPU (§III-B).
        assert_eq!(d.memories[0].capacity(), 700);
    }

    #[test]
    fn on_touch_fault_migrates_to_requester() {
        let mut d = driver(Scheme::OnTouch);
        let out = d.handle_fault(fault(1, 5, AccessKind::Read, FaultKind::Local, 0));
        assert!(out.done_at > 0);
        assert_eq!(d.central.page(PageId(5)).owner, MemLoc::Gpu(GpuId::new(1)));
        assert_eq!(d.translate(GpuId::new(1), PageId(5)), Some(Mapping::Local));
        assert_eq!(d.fault_counters().local_faults, 1);
        assert_eq!(d.fault_counters().migrations, 1);
        assert!(d.breakdown().get(LatencyClass::Host) > 0);
        assert!(d.breakdown().get(LatencyClass::PageMigration) > 0);
    }

    #[test]
    fn on_touch_ping_pong_invalidates_previous_owner() {
        let mut d = driver(Scheme::OnTouch);
        d.handle_fault(fault(0, 5, AccessKind::Read, FaultKind::Local, 0));
        let out = d.handle_fault(fault(1, 5, AccessKind::Read, FaultKind::Local, 100_000)).clone();
        assert_eq!(d.central.page(PageId(5)).owner, MemLoc::Gpu(GpuId::new(1)));
        assert_eq!(d.translate(GpuId::new(0), PageId(5)), None);
        assert!(out.invalidated.contains(&(GpuId::new(0), PageId(5))));
        // Source GPU got flushed: a stall was issued.
        assert!(!out.stalls.is_empty());
        assert_eq!(d.fault_counters().migrations, 2);
    }

    #[test]
    fn access_counter_first_touch_then_peer_mapping() {
        let mut d = driver(Scheme::AccessCounter);
        d.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 0));
        // Volta semantics: the cold page migrates to the first toucher.
        assert_eq!(d.translate(GpuId::new(0), PageId(7)), Some(Mapping::Local));
        d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 100_000));
        // A later GPU maps it remotely and the counters take over.
        assert_eq!(
            d.translate(GpuId::new(1), PageId(7)),
            Some(Mapping::Remote(GpuId::new(0)))
        );
        assert_eq!(d.fault_counters().migrations, 1);
    }

    #[test]
    fn counter_threshold_triggers_migration() {
        let mut d = driver(Scheme::AccessCounter);
        d.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 100_000));
        let mut migrated = false;
        for i in 0..256 {
            if let Some(out) = d.record_remote_access(200_000 + i, GpuId::new(1), PageId(7)) {
                migrated = true;
                assert!(out.invalidated.contains(&(GpuId::new(0), PageId(7))));
            }
        }
        assert!(migrated, "256 remote accesses must trip the counter");
        assert_eq!(d.central.page(PageId(7)).owner, MemLoc::Gpu(GpuId::new(1)));
        // The migrated page is now local to its heavy accessor.
        assert_eq!(d.translate(GpuId::new(1), PageId(7)), Some(Mapping::Local));
    }

    #[test]
    fn duplication_creates_replicas_and_collapse_on_write() {
        let mut d = driver(Scheme::Duplication);
        d.handle_fault(fault(0, 9, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 9, AccessKind::Read, FaultKind::Local, 100_000));
        d.handle_fault(fault(2, 9, AccessKind::Read, FaultKind::Local, 200_000));
        let st = d.central.page(PageId(9));
        assert_eq!(st.holders().len(), 3);
        assert_eq!(d.fault_counters().duplications, 3);
        assert_eq!(
            d.translate(GpuId::new(2), PageId(9)),
            Some(Mapping::Replica)
        );

        // GPU1 writes: everyone else collapses.
        let out = d
            .handle_fault(fault(
                1,
                9,
                AccessKind::Write,
                FaultKind::Protection,
                300_000,
            ))
            .clone();
        let st = d.central.page(PageId(9));
        assert_eq!(st.owner, MemLoc::Gpu(GpuId::new(1)));
        assert!(st.replicas.is_empty());
        assert_eq!(d.fault_counters().collapses, 1);
        assert_eq!(d.translate(GpuId::new(0), PageId(9)), None);
        assert_eq!(d.translate(GpuId::new(1), PageId(9)), Some(Mapping::Local));
        assert!(out.invalidated.len() >= 2);
        assert!(d.breakdown().get(LatencyClass::WriteCollapse) > 0);
    }

    #[test]
    fn cold_write_under_duplication_is_a_plain_migration() {
        let mut d = driver(Scheme::Duplication);
        d.handle_fault(fault(0, 11, AccessKind::Write, FaultKind::Local, 0));
        assert_eq!(d.central.page(PageId(11)).owner, MemLoc::Gpu(GpuId::new(0)));
        assert_eq!(d.fault_counters().collapses, 0);
        assert_eq!(d.fault_counters().migrations, 1);
    }

    #[test]
    fn eviction_on_capacity_pressure() {
        let cfg = SimConfig::default();
        // Footprint 8 pages -> capacity ceil(8*0.7)=6 pages per GPU.
        let mut d = UvmDriver::new(cfg, 8, Box::new(StaticPolicy::new(Scheme::OnTouch)));
        assert_eq!(d.memories[0].capacity(), 6);
        for p in 0..7 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        assert_eq!(d.fault_counters().evictions, 1);
        // Page 0 went back to host and its mapping died.
        assert_eq!(d.central.page(PageId(0)).owner, MemLoc::Host);
        assert_eq!(d.translate(GpuId::new(0), PageId(0)), None);
        assert!(d.oversubscription_rate() > 0.0);
    }

    #[test]
    fn prefetch_evictions_reach_the_fault_outcome() {
        /// Nominates the page after each filled page.
        struct NextPage;
        impl Prefetcher for NextPage {
            fn on_fill(&mut self, _gpu: GpuId, vpn: PageId, footprint: u64) -> Vec<PageId> {
                (vpn.vpn() + 1 < footprint).then(|| vpn.offset(1)).into_iter().collect()
            }
        }
        // Footprint 8 pages -> capacity 6 per GPU. GPU0 fills its memory
        // with pages 0..6; GPU1 maps page 1 remotely.
        let cfg = SimConfig::default();
        let mut d = UvmDriver::new(cfg, 8, Box::new(StaticPolicy::new(Scheme::AccessCounter)));
        for p in 0..6 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        d.handle_fault(fault(1, 1, AccessKind::Read, FaultKind::Local, 700_000));
        assert_eq!(
            d.translate(GpuId::new(1), PageId(1)),
            Some(Mapping::Remote(GpuId::new(0)))
        );
        // Page 6 evicts page 0; its prefetched neighbour, page 7, evicts
        // page 1, whose remote mapping on GPU1 must be shot down too.
        d.set_prefetcher(Box::new(NextPage));
        let out = d.handle_fault(fault(0, 6, AccessKind::Read, FaultKind::Local, 800_000)).clone();
        assert_eq!(d.central.page(PageId(7)).owner, MemLoc::Gpu(GpuId::new(0)));
        assert_eq!(d.fault_counters().evictions, 2);
        assert_eq!(d.translate(GpuId::new(1), PageId(1)), None);
        assert!(out.invalidated.contains(&(GpuId::new(0), PageId(0))));
        assert!(out.invalidated.contains(&(GpuId::new(0), PageId(1))));
        assert!(out.invalidated.contains(&(GpuId::new(1), PageId(1))));
        assert_eq!(
            out.mapping,
            Some(Mapping::Local),
            "the faulting page's mapping"
        );
    }

    /// 512 KB base pages -> 4 base pages per 2 MB frame, so whole frames
    /// coalesce after a handful of faults.
    fn large_cfg() -> SimConfig {
        SimConfig {
            page_size: 512 * 1024,
            page_size_mode: grit_sim::PageSizeMode::Mixed,
            ..SimConfig::default()
        }
    }

    #[test]
    fn private_frame_coalesces_and_false_sharing_splinters_it() {
        let mut d = UvmDriver::new(large_cfg(), 8, Box::new(StaticPolicy::new(Scheme::OnTouch)));
        assert!(d.large_pages_active());
        for p in 0..4 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        // Frame 0 (pages 0..4) is fully private on GPU0: coalesced.
        assert_eq!(d.coalesced_frame(PageId(2)), Some(PageId(0)));
        assert_eq!(d.large_pages().frame_owner(PageId(0)), Some(GpuId::new(0)));
        assert_eq!(d.large_pages().counters().coalesces, 1);

        // GPU1 pulls one base page out of the frame: false sharing.
        let out = d.handle_fault(fault(1, 2, AccessKind::Read, FaultKind::Local, 500_000)).clone();
        assert_eq!(d.coalesced_frame(PageId(0)), None);
        assert!(out.splintered.contains(&(GpuId::new(0), PageId(0))));
        assert_eq!(d.large_pages().counters().splinters_false_sharing, 1);
    }

    #[test]
    fn partial_eviction_splinters_the_frame() {
        // Footprint 8 pages -> capacity ceil(8*0.7)=6: the 7th resident
        // page evicts the LRU page out of the coalesced first frame.
        let mut d = UvmDriver::new(large_cfg(), 8, Box::new(StaticPolicy::new(Scheme::OnTouch)));
        for p in 0..7 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        assert_eq!(d.fault_counters().evictions, 1);
        assert_eq!(d.coalesced_frame(PageId(0)), None);
        assert!(d.large_pages().counters().splinters_eviction >= 1);
    }

    #[test]
    fn frame_counter_trip_migrates_whole_frame_and_recoalesces() {
        let mut d = UvmDriver::new(
            large_cfg(),
            8,
            Box::new(StaticPolicy::new(Scheme::AccessCounter)),
        );
        for p in 0..4 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        assert_eq!(d.coalesced_frame(PageId(0)), Some(PageId(0)));
        // A clean remote mapping by a peer does NOT splinter: the owner's
        // large translation stays valid.
        d.handle_fault(fault(1, 0, AccessKind::Read, FaultKind::Local, 500_000));
        assert_eq!(d.coalesced_frame(PageId(0)), Some(PageId(0)));

        // Remote accesses count against the frame-granularity alias; the
        // trip migrates the whole 2 MB frame and re-coalesces on GPU1.
        let mut migrated = false;
        for i in 0..256 {
            if d.record_remote_access(600_000 + i, GpuId::new(1), PageId(0)).is_some() {
                migrated = true;
            }
        }
        assert!(migrated, "256 remote accesses must trip the frame counter");
        for p in 0..4 {
            assert_eq!(d.central.page(PageId(p)).owner, MemLoc::Gpu(GpuId::new(1)));
        }
        let c = d.large_pages().counters();
        assert_eq!(c.counter_trips_large, 1);
        assert_eq!(c.counter_groups_aliased, 4);
        assert_eq!(c.splinters_false_sharing, 1);
        assert_eq!(c.coalesces, 2);
        assert_eq!(d.large_pages().frame_owner(PageId(0)), Some(GpuId::new(1)));
        // The series mirrors the counters (fixed order, 9 slots).
        let series = d.large_pages().counter_series();
        assert_eq!(series.len(), 9);
        assert_eq!(series[0], 2.0);
    }

    #[test]
    fn uniform4k_drivers_never_touch_large_page_state() {
        let mut d = driver(Scheme::AccessCounter);
        assert!(!d.large_pages_active());
        d.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 100_000));
        for i in 0..256 {
            d.record_remote_access(200_000 + i, GpuId::new(1), PageId(7));
        }
        assert_eq!(d.coalesced_frame(PageId(7)), None);
        assert_eq!(d.large_pages().counter_series(), vec![0.0; 9]);
    }

    struct Ideal;
    impl PlacementPolicy for Ideal {
        fn on_fault(
            &mut self,
            _f: &FaultInfo,
            _p: &crate::central::PageState,
            _t: &mut CentralPageTable,
        ) -> PolicyDecision {
            PolicyDecision::plain(Resolution::Ideal)
        }
        fn is_ideal(&self) -> bool {
            true
        }
    }

    #[test]
    fn ideal_pays_only_cold_cost() {
        let mut d = UvmDriver::new(SimConfig::default(), 100, Box::new(Ideal));
        let first = d.handle_fault(fault(0, 1, AccessKind::Read, FaultKind::Local, 0)).clone();
        let second = d.handle_fault(fault(1, 1, AccessKind::Read, FaultKind::Local, 1_000_000));
        assert!(first.done_at > 0);
        // Second toucher pays only host trip + replay, no transfer.
        assert!(second.done_at - 1_000_000 < first.done_at);
        assert_eq!(d.translate(GpuId::new(1), PageId(1)), Some(Mapping::Local));
        assert_eq!(d.fault_counters().migrations, 0);
    }

    #[test]
    fn remote_line_access_charges_remote_class() {
        let mut d = driver(Scheme::AccessCounter);
        let done = d.remote_line_access(0, GpuId::new(0), MemLoc::Gpu(GpuId::new(1)));
        assert!(done > 400); // at least NVLink latency
        assert!(d.breakdown().get(LatencyClass::RemoteAccess) > 0);
    }

    #[test]
    fn scheme_of_defaults_to_on_touch() {
        let d = driver(Scheme::OnTouch);
        assert_eq!(d.scheme_of(PageId(42)), Scheme::OnTouch);
    }

    #[test]
    fn fault_latency_histogram_records_every_fault() {
        let mut d = driver(Scheme::OnTouch);
        for p in 0..5 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 100_000));
        }
        let h = d.fault_latency();
        assert_eq!(h.samples(), 5);
        assert!(h.mean() > 0.0);
        assert!(h.percentile(1.0) >= h.percentile(0.5));
    }

    #[test]
    fn group_migration_moves_whole_64kb_group() {
        let mut d = driver(Scheme::AccessCounter);
        // Touch pages 0..4 (same 64 KB group) from GPU0, then hammer them
        // remotely from GPU1 until the counter trips.
        for p in 0..4u64 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 50_000));
            d.handle_fault(fault(1, p, AccessKind::Read, FaultKind::Local, 400_000 + p));
        }
        let mut tripped = false;
        for i in 0..300u64 {
            let p = PageId(i % 4);
            if d.record_remote_access(500_000 + i, GpuId::new(1), p).is_some() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        // Every touched page of the group now lives on GPU1.
        for p in 0..4u64 {
            assert_eq!(
                d.central.page(PageId(p)).owner,
                MemLoc::Gpu(GpuId::new(1)),
                "page {p} must migrate with its group"
            );
        }
    }

    #[test]
    fn collapse_tears_down_remote_mappings_too() {
        let mut d = driver(Scheme::Duplication);
        // GPU0 owns, GPU1 and GPU2 hold replicas.
        d.handle_fault(fault(0, 5, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 5, AccessKind::Read, FaultKind::Local, 100_000));
        d.handle_fault(fault(2, 5, AccessKind::Read, FaultKind::Local, 200_000));
        // GPU3 writes: everyone else must lose their translations.
        d.handle_fault(fault(3, 5, AccessKind::Write, FaultKind::Local, 300_000));
        for g in 0..3u8 {
            assert_eq!(d.translate(GpuId::new(g), PageId(5)), None, "GPU{g}");
        }
        assert_eq!(d.translate(GpuId::new(3), PageId(5)), Some(Mapping::Local));
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn eviction_cascade_preserves_invariants() {
        let cfg = SimConfig::default();
        // Footprint 10 pages -> capacity 7 per GPU.
        let mut d = UvmDriver::new(cfg, 10, Box::new(StaticPolicy::new(Scheme::Duplication)));
        // Two GPUs replicate everything: each holds 10 > 7 pages of demand.
        for round in 0..3u64 {
            for p in 0..10u64 {
                for g in 0..2u8 {
                    d.handle_fault(fault(
                        g,
                        p,
                        AccessKind::Read,
                        FaultKind::Local,
                        round * 1_000_000 + p * 10_000,
                    ));
                }
            }
        }
        assert!(d.fault_counters().evictions > 0, "demand exceeds capacity");
        assert!(d.check_invariants().is_ok());
        assert!(d.oversubscription_rate() > 0.0);
    }

    #[test]
    fn dirty_pages_pay_full_writeback_clean_pages_do_not() {
        let cfg = SimConfig::default();
        let mut clean_driver =
            UvmDriver::new(cfg.clone(), 8, Box::new(StaticPolicy::new(Scheme::OnTouch)));
        let mut dirty_driver = UvmDriver::new(cfg, 8, Box::new(StaticPolicy::new(Scheme::OnTouch)));
        // Fill GPU0's 6-page capacity (8 * 0.7 -> 6), dirtying pages only
        // in one driver, then overflow to force an eviction.
        for p in 0..6u64 {
            clean_driver.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 50_000));
            dirty_driver.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 50_000));
            dirty_driver.mark_page_dirty(GpuId::new(0), PageId(p));
        }
        clean_driver.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 900_000));
        dirty_driver.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 900_000));
        assert_eq!(clean_driver.fault_counters().evictions, 1);
        assert_eq!(dirty_driver.fault_counters().evictions, 1);
        // The dirty eviction shipped a full page over PCIe; the clean one
        // only a control message.
        assert!(dirty_driver.fabric_stats().pcie_bytes > clean_driver.fabric_stats().pcie_bytes);
    }

    #[test]
    fn gps_broadcast_backpressures_the_writer_port() {
        use crate::policy::WriteMode;
        use grit_baselines_shim::GpsLike;
        // A minimal broadcast-mode policy (the real GPS lives in
        // grit-baselines; the driver only consults write_mode()).
        mod grit_baselines_shim {
            use super::super::super::central::{CentralPageTable, PageState};
            use super::super::super::policy::{
                FaultInfo, PlacementPolicy, PolicyDecision, Resolution, WriteMode,
            };
            pub struct GpsLike;
            impl PlacementPolicy for GpsLike {
                fn on_fault(
                    &mut self,
                    _f: &FaultInfo,
                    page: &PageState,
                    _t: &mut CentralPageTable,
                ) -> PolicyDecision {
                    PolicyDecision::plain(if page.owner.gpu().is_none() {
                        Resolution::Migrate
                    } else {
                        Resolution::Duplicate
                    })
                }
                fn write_mode(&self) -> WriteMode {
                    WriteMode::Broadcast
                }
            }
        }
        let cfg = SimConfig::default();
        let gap = cfg.lat.remote_issue_gap;
        let mut d = UvmDriver::new(cfg, 100, Box::new(GpsLike));
        assert_eq!(d.write_mode(), WriteMode::Broadcast);
        // Subscribe three GPUs to page 1.
        d.handle_fault(fault(0, 1, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 1, AccessKind::Read, FaultKind::Local, 100_000));
        d.handle_fault(fault(2, 1, AccessKind::Read, FaultKind::Local, 200_000));
        // Back-to-back broadcasts from GPU1: the second queues on the port.
        let t1 = d.broadcast_store(300_000, GpuId::new(1), PageId(1));
        let t2 = d.broadcast_store(300_000, GpuId::new(1), PageId(1));
        assert!(
            t2 >= t1 + gap,
            "second store must wait for port slots: {t1} vs {t2}"
        );
    }

    #[test]
    fn epoch_profile_overhead_stalls_every_gpu() {
        struct EpochOnly;
        impl PlacementPolicy for EpochOnly {
            fn on_fault(
                &mut self,
                _f: &FaultInfo,
                _p: &crate::central::PageState,
                _t: &mut CentralPageTable,
            ) -> PolicyDecision {
                PolicyDecision::plain(Resolution::Migrate)
            }
            fn epoch_len(&self) -> Option<Cycle> {
                Some(1_000)
            }
        }
        let mut d = UvmDriver::new(SimConfig::default(), 64, Box::new(EpochOnly));
        d.handle_fault(fault(0, 1, AccessKind::Read, FaultKind::Local, 0));
        let out = d.maybe_run_epoch(5_000).expect("epoch due");
        // Every GPU pays the profile-drain stall.
        assert_eq!(out.stalls.len(), 4);
        assert!(out.stalls.iter().all(|&(_, t)| t > 5_000));
        // Epochs run on a fixed grid: the next boundary is at 2_000, so a
        // query before it stays quiet.
        assert!(d.maybe_run_epoch(1_999).is_none());
    }

    fn injected_driver(spec: &str, footprint: u64, scheme: Scheme) -> UvmDriver {
        let cfg = SimConfig {
            inject: grit_sim::InjectConfig::parse(spec).unwrap(),
            ..SimConfig::default()
        };
        UvmDriver::new(cfg, footprint, Box::new(StaticPolicy::new(scheme)))
    }

    #[test]
    fn storm_delays_fault_service_inside_the_window_only() {
        let mut calm = driver(Scheme::OnTouch);
        let mut stormy = injected_driver(
            "storm@0:gpu=0:for=1000000:stall=5000",
            1000,
            Scheme::OnTouch,
        );
        let a = calm.handle_fault(fault(0, 5, AccessKind::Read, FaultKind::Local, 0));
        let b = stormy.handle_fault(fault(0, 5, AccessKind::Read, FaultKind::Local, 0));
        assert_eq!(b.done_at, a.done_at + 5_000, "storm adds its stall");
        assert_eq!(stormy.resilience_counters().storm_stalled_faults, 1);
        // After the window the storm is gone.
        let a2 = calm.handle_fault(fault(1, 6, AccessKind::Read, FaultKind::Local, 2_000_000));
        let b2 = stormy.handle_fault(fault(1, 6, AccessKind::Read, FaultKind::Local, 2_000_000));
        assert_eq!(b2.done_at, a2.done_at);
        assert!(stormy.check_invariants().is_ok());
    }

    #[test]
    fn retirement_shrinks_capacity_and_replaces_pages_on_host() {
        // Footprint 8 -> 6 frames per GPU; retire 4 at cycle 500_000.
        let mut d = injected_driver("retire@500000:gpu=0:frames=4", 8, Scheme::OnTouch);
        for p in 0..6u64 {
            d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 50_000));
        }
        d.mark_page_dirty(GpuId::new(0), PageId(0));
        assert_eq!(d.memories[0].capacity(), 6);
        // The next driver entry past the schedule applies the retirement.
        let out = d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 600_000)).clone();
        assert_eq!(d.memories[0].capacity(), 2);
        let r = d.resilience_counters();
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.frames_retired, 4);
        assert_eq!(r.pages_force_evicted, 4);
        // Force-evicted owners moved back to host and lost their
        // translations (the runner hears about it via `invalidated`).
        assert_eq!(d.central.page(PageId(0)).owner, MemLoc::Host);
        assert!(out.invalidated.iter().any(|&(g, _)| g == GpuId::new(0)));
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn retirement_writes_back_a_dirty_page_in_full() {
        // The same retirement as above, with page 0 (the LRU page, so the
        // first force-evicted) dirty in one driver only: the dirty owner
        // ships the whole page over PCIe, the clean one a 64-byte message.
        let pcie_bytes = |dirty: bool| {
            let mut d = injected_driver("retire@500000:gpu=0:frames=4", 8, Scheme::OnTouch);
            for p in 0..6u64 {
                d.handle_fault(fault(0, p, AccessKind::Read, FaultKind::Local, p * 50_000));
            }
            if dirty {
                d.mark_page_dirty(GpuId::new(0), PageId(0));
            }
            d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 600_000));
            assert_eq!(d.resilience_counters().pages_force_evicted, 4);
            d.fabric_stats().pcie_bytes
        };
        let page_size = SimConfig::default().page_size;
        assert_eq!(pcie_bytes(true) - pcie_bytes(false), page_size - 64);
    }

    #[test]
    fn blocked_migration_falls_back_to_remote_for_clean_pages() {
        // All wires dead for far longer than the backoff budget.
        let mut d = injected_driver("outage@0:wire=*:for=100000000", 1000, Scheme::OnTouch);
        d.handle_fault(fault(0, 3, AccessKind::Read, FaultKind::Local, 1_000));
        // GPU1 touches the same (clean) page: migration is blocked, so the
        // page stays put and GPU1 maps it remotely.
        let out = d.handle_fault(fault(1, 3, AccessKind::Read, FaultKind::Local, 50_000));
        assert_eq!(out.mapping, Some(Mapping::Remote(GpuId::new(0))));
        assert_eq!(d.central.page(PageId(3)).owner, MemLoc::Gpu(GpuId::new(0)));
        let r = d.resilience_counters();
        assert_eq!(r.migrations_blocked, 1);
        assert_eq!(r.migration_retries, 4);
        assert_eq!(r.retry_successes, 0);
        assert_eq!(r.fallback_remote, 1);
        assert_eq!(r.host_staged, 0);
        assert_eq!(
            d.fault_counters().migrations,
            1,
            "only the cold touch migrated"
        );
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn blocked_migration_stages_dirty_pages_through_the_host() {
        let mut d = injected_driver("outage@0:wire=*:for=100000000", 1000, Scheme::OnTouch);
        d.handle_fault(fault(0, 3, AccessKind::Write, FaultKind::Local, 1_000));
        d.mark_page_dirty(GpuId::new(0), PageId(3));
        let pcie_before = d.fabric_stats().pcie_bytes;
        let out = d.handle_fault(fault(1, 3, AccessKind::Read, FaultKind::Local, 50_000));
        // The dirty authoritative copy parks in host memory; both GPUs can
        // still reach it and nothing is lost.
        assert_eq!(out.mapping, Some(Mapping::RemoteHost));
        assert_eq!(d.central.page(PageId(3)).owner, MemLoc::Host);
        assert_eq!(d.translate(GpuId::new(0), PageId(3)), None);
        assert!(d.fabric_stats().pcie_bytes >= pcie_before + d.cfg.page_size);
        let r = d.resilience_counters();
        assert_eq!(r.host_staged, 1);
        assert_eq!(r.fallback_remote, 0);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn blocked_migration_retry_succeeds_when_the_outage_ends() {
        // Outage ends at cycle 52_000; the backoff schedule from 50_000
        // (2_000 + 4_000 + ...) finds the route open on a retry.
        let mut d = injected_driver("outage@0:wire=*:for=52000", 1000, Scheme::OnTouch);
        d.handle_fault(fault(0, 3, AccessKind::Read, FaultKind::Local, 1_000));
        let out = d.handle_fault(fault(1, 3, AccessKind::Read, FaultKind::Local, 50_000));
        assert_eq!(out.mapping, Some(Mapping::Local));
        assert_eq!(d.central.page(PageId(3)).owner, MemLoc::Gpu(GpuId::new(1)));
        let r = d.resilience_counters();
        assert_eq!(r.migrations_blocked, 1);
        assert_eq!(r.retry_successes, 1);
        assert!(r.migration_retries >= 1);
        assert_eq!(r.fallback_remote + r.host_staged, 0);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn every_blocked_migration_resolves_without_loss() {
        // Hammer ping-pong migrations across an outage that covers part of
        // the run; every blocked one must resolve to a retry success, a
        // remote fallback, or host staging.
        let mut d = injected_driver("outage@100000:wire=*:for=400000", 64, Scheme::OnTouch);
        for i in 0..40u64 {
            // Each round of 8 pages is touched by the next GPU, so every
            // page ping-pongs across the outage window.
            let gpu = ((i / 8) % 4) as u8;
            let page = i % 8;
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = d.handle_fault(fault(gpu, page, kind, FaultKind::Local, i * 25_000)).clone();
            if kind.is_write() {
                d.mark_page_dirty(GpuId::new(gpu), PageId(page));
            }
            assert!(out.done_at >= i * 25_000);
            assert!(d.check_invariants().is_ok(), "fault {i} broke an invariant");
        }
        let r = d.resilience_counters();
        assert!(r.migrations_blocked > 0, "the outage must block something");
        assert!(
            r.migrations_blocked <= r.retry_successes + r.fallback_remote + r.host_staged,
            "every blocked migration must resolve: {r:?}"
        );
        // Outage start and end both surfaced as transitions.
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.recoveries, 1);
    }

    #[test]
    fn sick_routes_double_count_remote_accesses() {
        // Degrade every wire for the whole run: counter trips take about
        // half as many remote accesses as on a healthy fabric.
        let healthy = {
            let mut d = driver(Scheme::AccessCounter);
            d.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 0));
            d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 100_000));
            let mut n = 0u64;
            while d.record_remote_access(200_000 + n, GpuId::new(1), PageId(7)).is_none() {
                n += 1;
                assert!(n < 1_000);
            }
            n
        };
        let sick = {
            let mut d = injected_driver(
                "degrade@0:wire=*:frac=0.5:for=100000000",
                1000,
                Scheme::AccessCounter,
            );
            d.handle_fault(fault(0, 7, AccessKind::Read, FaultKind::Local, 0));
            d.handle_fault(fault(1, 7, AccessKind::Read, FaultKind::Local, 100_000));
            let mut n = 0u64;
            while d.record_remote_access(200_000 + n, GpuId::new(1), PageId(7)).is_none() {
                n += 1;
                assert!(n < 1_000);
            }
            n
        };
        assert!(
            sick <= healthy / 2 + 1,
            "sick-route accesses must trip ~2x sooner: {sick} vs {healthy}"
        );
    }

    #[test]
    fn invariant_violations_carry_gpu_page_and_cycle() {
        let mut d = driver(Scheme::OnTouch);
        d.handle_fault(fault(0, 5, AccessKind::Read, FaultKind::Local, 7_777));
        // Corrupt the state behind the driver's back: steal the page from
        // GPU0's memory while its Local mapping stands.
        d.memories[0].remove(PageId(5));
        let v = d.check_invariants().expect_err("corruption must be caught");
        assert_eq!(v.gpu, Some(GpuId::new(0)));
        assert_eq!(v.vpn, Some(PageId(5)));
        assert!(v.cycle >= 7_777, "stamped with the driver clock");
        let msg = v.to_string();
        assert!(msg.contains("invariant violated"), "{msg}");
        assert!(msg.contains("not resident"), "{msg}");
    }

    #[test]
    fn gpu_owned_page_must_be_touched() {
        let mut d = driver(Scheme::OnTouch);
        d.handle_fault(fault(1, 9, AccessKind::Read, FaultKind::Local, 500));
        assert_eq!(d.central.page(PageId(9)).owner, MemLoc::Gpu(GpuId::new(1)));
        d.check_invariants().expect("fault service leaves a consistent state");
        // Corrupt the state: a GPU owner on a page marked cold.
        d.central.page_mut(PageId(9)).touched = false;
        let v = d.check_invariants().expect_err("corruption must be caught");
        assert_eq!(v.gpu, Some(GpuId::new(1)));
        assert_eq!(v.vpn, Some(PageId(9)));
        assert!(v.to_string().contains("never touched"), "{v}");
    }

    /// The automatic sweep runs after every applied transition in every
    /// build, so a corrupted state panics at the next one.
    #[test]
    #[should_panic(expected = "never touched")]
    fn injected_transition_sweeps_the_invariants() {
        let mut d = injected_driver(
            "degrade@1000:wire=*:frac=0.5:for=100",
            1000,
            Scheme::OnTouch,
        );
        d.handle_fault(fault(1, 9, AccessKind::Read, FaultKind::Local, 500));
        assert_eq!(d.resilience_counters().invariant_checks, 0);
        // Corrupt the state: a GPU owner on a page marked cold.
        d.central.page_mut(PageId(9)).touched = false;
        d.handle_fault(fault(0, 10, AccessKind::Read, FaultKind::Local, 2_000));
    }

    /// Ideal fakes local mappings on every GPU, which the invariants
    /// reject, so its driver applies transitions without sweeping.
    #[test]
    fn ideal_driver_is_not_swept() {
        let cfg = SimConfig {
            inject: grit_sim::InjectConfig::parse("degrade@1000:wire=*:frac=0.5:for=100").unwrap(),
            ..SimConfig::default()
        };
        let mut d = UvmDriver::new(cfg, 100, Box::new(Ideal));
        d.handle_fault(fault(0, 1, AccessKind::Read, FaultKind::Local, 0));
        d.handle_fault(fault(1, 1, AccessKind::Read, FaultKind::Local, 1_000_000));
        let r = d.resilience_counters();
        assert_eq!(
            (r.faults_injected, r.recoveries, r.invariant_checks),
            (1, 1, 0)
        );
        assert!(d.check_invariants().is_err(), "a sweep would have panicked");
    }

    #[test]
    fn invariant_check_reports_the_lowest_vpn_first() {
        let mut d = driver(Scheme::OnTouch);
        let pages = [900, 17, 402, 3, 655];
        for (i, &p) in pages.iter().enumerate() {
            d.handle_fault(fault(
                0,
                p,
                AccessKind::Read,
                FaultKind::Local,
                i as Cycle * 10,
            ));
        }
        for &p in &pages {
            d.memories[0].remove(PageId(p));
        }
        let v = d.check_invariants().expect_err("corruption must be caught");
        assert_eq!(v.vpn, Some(PageId(3)));
        // With page 3 repaired, the next violation is the next VPN up.
        d.local_pts[0].invalidate(PageId(3));
        let v = d.check_invariants().expect_err("corruption must be caught");
        assert_eq!(v.vpn, Some(PageId(17)));
    }

    #[test]
    fn bad_inject_spec_is_a_config_error() {
        // Wire 99 does not exist on a 4-GPU all-to-all (6 wires).
        let cfg = SimConfig {
            inject: grit_sim::InjectConfig::parse("outage@0:wire=99:for=100").unwrap(),
            ..SimConfig::default()
        };
        let err = UvmDriver::try_new(cfg, 100, Box::new(StaticPolicy::new(Scheme::OnTouch)))
            .expect_err("out-of-range wire must be rejected");
        assert!(err.to_string().contains("inject"), "{err}");
    }
}
