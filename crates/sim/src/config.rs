//! System configuration mirroring Table I of the paper, plus the latency
//! model used to attribute page-handling costs.
//!
//! All values are in cycles of the 1 GHz compute clock. Interconnect
//! bandwidths are expressed in bytes per cycle (300 GB/s NVLink-v2 at 1 GHz
//! is 300 B/cycle; 32 GB/s PCIe-v4 is 32 B/cycle).

use std::error::Error;
use std::fmt;

use crate::graph::TopoGraph;
use crate::inject::{FaultPlan, InjectConfig};

/// Bytes per cache line (and per remote fetch, §II-B2).
pub const CACHE_LINE_BYTES: u64 = 64;

/// A violated configuration constraint, reported by
/// [`SimConfig::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    /// Which field (or field group) is invalid.
    pub field: &'static str,
    /// Human-readable description of the violation.
    pub reason: String,
}

impl ConfigError {
    /// Builds a configuration error for `field` with a human-readable
    /// `reason`. Public so higher layers (runner, UVM driver) can report
    /// structural preconditions through the same type.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.reason)
    }
}

impl Error for ConfigError {}

/// Cache lines per page for an arbitrary page size, with the same
/// structural checks [`SimConfig::validate`] applies: the size must be a
/// power of two of at least one cache line, and the resulting line count
/// must fit the simulator's `u16` line indices (so 4 MB pages and larger
/// are rejected rather than silently truncated).
///
/// # Errors
///
/// Returns a [`ConfigError`] naming `page_size` on any violation.
pub fn lines_per_page_checked(page_size: u64) -> Result<u16, ConfigError> {
    if !page_size.is_power_of_two() {
        return Err(ConfigError::new(
            "page_size",
            format!("{page_size} must be a power of two"),
        ));
    }
    if page_size < CACHE_LINE_BYTES {
        return Err(ConfigError::new(
            "page_size",
            format!("{page_size} is smaller than one {CACHE_LINE_BYTES}-byte cache line"),
        ));
    }
    u16::try_from(page_size / CACHE_LINE_BYTES).map_err(|_| {
        ConfigError::new(
            "page_size",
            format!(
                "{page_size} implies {} cache lines per page, which overflows the \
                 simulator's 16-bit line indices (maximum page size {PAGE_SIZE_2M} bytes)",
                page_size / CACHE_LINE_BYTES,
            ),
        )
    })
}

/// Baseline 4 KB page size (§III-B).
pub const PAGE_SIZE_4K: u64 = 4096;

/// Large-page configuration evaluated in §VI-B3.
pub const PAGE_SIZE_2M: u64 = 2 * 1024 * 1024;

/// Volta-style access-counter threshold for counter-based migration
/// (Table I / §II-B2).
pub const ACCESS_COUNTER_THRESHOLD_DEFAULT: u32 = 256;

/// How the driver manages page granularity (Mosaic-style multi-page-size
/// support).
///
/// Under [`PageSizeMode::Uniform4k`] the simulator behaves exactly as it
/// always has: every mapping is a base page of `SimConfig::page_size`
/// bytes and the driver's large-page table is inert.
/// [`PageSizeMode::Mixed`] turns on the two-level page-state model where
/// base pages live inside 2 MB large-page frames: the driver coalesces a
/// frame once every base page in it is resident on one GPU with no
/// replicas, so hot private ranges gain TLB reach, and splinters it again
/// on false sharing and partial eviction.
///
/// There is one large-page mode, not Mosaic's two. A GPU only ever owns a
/// page it has touched (`UvmDriver::check_invariants` checks this), so
/// "fully touched" adds nothing to "fully resident and private", and the
/// model has no contiguity-conserving allocator that could tell an eager
/// 2 MB policy apart from a transparent one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PageSizeMode {
    /// Base pages only; behavior (and output) identical to the pre-
    /// multi-page-size simulator.
    #[default]
    Uniform4k,
    /// Coalesce every fully-resident private 2 MB frame.
    Mixed,
}

impl PageSizeMode {
    /// Every mode, in stable order (also the order `describe()` encodes).
    pub const ALL: [PageSizeMode; 2] = [PageSizeMode::Uniform4k, PageSizeMode::Mixed];

    /// Stable name used by `--page-size-mode` and report labels.
    pub fn name(self) -> &'static str {
        match self {
            PageSizeMode::Uniform4k => "uniform4k",
            PageSizeMode::Mixed => "mixed",
        }
    }

    /// Parses a `--page-size-mode` argument.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message listing the valid names.
    pub fn parse(s: &str) -> Result<Self, String> {
        PageSizeMode::ALL.into_iter().find(|m| m.name() == s).ok_or_else(|| {
            let names: Vec<&str> = PageSizeMode::ALL.iter().map(|m| m.name()).collect();
            format!(
                "unknown page-size mode {s:?} (expected one of {})",
                names.join(", ")
            )
        })
    }

    /// True when large-page frames are managed at all
    /// ([`PageSizeMode::Mixed`]).
    pub fn large_pages_enabled(self) -> bool {
        self != PageSizeMode::Uniform4k
    }
}

/// Geometry of a set-associative TLB level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbGeometry {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub lookup_latency: u64,
}

/// Geometry of a set-associative cache (entry-count based; the simulator
/// keys data caches by cache-line address and metadata caches by their own
/// keys).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    /// Total entries (lines).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or does not divide `entries`.
    pub fn sets(self) -> usize {
        assert!(self.ways > 0, "cache ways must be non-zero");
        assert!(
            self.entries.is_multiple_of(self.ways),
            "cache entries ({}) must be a multiple of ways ({})",
            self.entries,
            self.ways
        );
        self.entries / self.ways
    }
}

/// GPU memory-management-unit page-walk machinery (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalkConfig {
    /// Shared page-table walkers per GPU (GMMU).
    pub walkers: usize,
    /// Page-walk queue entries.
    pub queue_capacity: usize,
    /// Radix page-table levels.
    pub levels: u32,
    /// Cycles per level touched.
    pub cycles_per_level: u64,
    /// Page-walk-cache entries shared across walkers.
    pub walk_cache_entries: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walkers: 8,
            queue_capacity: 64,
            levels: 4,
            cycles_per_level: 100,
            walk_cache_entries: 128,
        }
    }
}

/// Interconnect parameters (Table I).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkConfig {
    /// NVLink-v2 bandwidth between each GPU pair, bytes/cycle.
    pub nvlink_bytes_per_cycle: f64,
    /// NVLink one-way latency, cycles.
    pub nvlink_latency: u64,
    /// PCIe-v4 bandwidth between each GPU and the host, bytes/cycle.
    pub pcie_bytes_per_cycle: f64,
    /// PCIe one-way latency, cycles.
    pub pcie_latency: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            nvlink_bytes_per_cycle: 300.0,
            nvlink_latency: 350,
            pcie_bytes_per_cycle: 32.0,
            pcie_latency: 450,
        }
    }
}

/// Which interconnect topology the fabric instantiates;
/// [`TopoGraph::build`] lays out its wires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyKind {
    /// Dedicated duplex NVLink per GPU pair (DGX-style, today's default).
    AllToAll,
    /// Switched fabric: GPUs uplink to NvSwitch planes of a given radix;
    /// switches are fully interconnected by trunk links.
    NvSwitch,
    /// Unidirectional neighbour links closed into a ring; transfers route
    /// the shorter way around.
    Ring,
    /// 2-D mesh without wraparound, near-square factorization of the GPU
    /// count.
    Mesh2d,
    /// Two-node hierarchical fabric: all-to-all NVLink inside each node,
    /// one bottleneck link between the node routers.
    Hierarchical,
}

impl TopologyKind {
    /// Every kind, in stable order (also the order `describe()` encodes).
    pub const ALL: [TopologyKind; 5] = [
        TopologyKind::AllToAll,
        TopologyKind::NvSwitch,
        TopologyKind::Ring,
        TopologyKind::Mesh2d,
        TopologyKind::Hierarchical,
    ];

    /// Stable name used by `--topology` and report labels.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::AllToAll => "all-to-all",
            TopologyKind::NvSwitch => "nvswitch",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh2d => "mesh2d",
            TopologyKind::Hierarchical => "hierarchical",
        }
    }
}

/// Interconnect topology descriptor threaded through [`SimConfig`].
///
/// Bandwidths are bytes per cycle, latencies are one-way cycles, matching
/// [`LinkConfig`] conventions. The switch parameters only apply to
/// [`TopologyKind::NvSwitch`] and [`TopologyKind::Hierarchical`] (GPU ↔
/// router uplinks); the inter-node parameters only apply to
/// [`TopologyKind::Hierarchical`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TopologyConfig {
    /// Which topology shape to instantiate.
    pub kind: TopologyKind,
    /// GPU ports per NvSwitch plane.
    pub switch_radix: usize,
    /// Bandwidth of each GPU↔switch uplink and switch↔switch trunk.
    pub switch_bytes_per_cycle: f64,
    /// One-way latency of each switch hop (half an NVLink latency by
    /// default, so a two-hop switched path costs about one direct link).
    pub switch_latency: u64,
    /// Bandwidth of the single inter-node bottleneck link.
    pub inter_node_bytes_per_cycle: f64,
    /// One-way latency of the inter-node link.
    pub inter_node_latency: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            kind: TopologyKind::AllToAll,
            switch_radix: 8,
            switch_bytes_per_cycle: 300.0,
            switch_latency: 175,
            inter_node_bytes_per_cycle: 75.0,
            inter_node_latency: 700,
        }
    }
}

impl TopologyConfig {
    /// A default-parameter descriptor of the given kind.
    pub fn of(kind: TopologyKind) -> Self {
        TopologyConfig {
            kind,
            ..TopologyConfig::default()
        }
    }

    /// Stable name of the configured kind.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Parses a `--topology` argument: a kind name (`all-to-all`,
    /// `nvswitch`, `ring`, `mesh2d`, `hierarchical`), optionally suffixed
    /// with `:<radix>` for `nvswitch`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let kind = TopologyKind::ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
            let names: Vec<&str> = TopologyKind::ALL.iter().map(|k| k.name()).collect();
            format!(
                "unknown topology {name:?} (expected one of {})",
                names.join(", ")
            )
        })?;
        let mut cfg = TopologyConfig::of(kind);
        if let Some(p) = param {
            if kind != TopologyKind::NvSwitch {
                return Err(format!("topology {name:?} takes no :<radix> parameter"));
            }
            cfg.switch_radix =
                p.parse::<usize>().map_err(|_| format!("invalid nvswitch radix {p:?}"))?;
        }
        Ok(cfg)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.switch_radix < 2 {
            return Err(ConfigError::new(
                "topology",
                format!("switch radix {} must be at least 2", self.switch_radix),
            ));
        }
        if self.switch_bytes_per_cycle <= 0.0 || self.inter_node_bytes_per_cycle <= 0.0 {
            return Err(ConfigError::new("topology", "bandwidths must be positive"));
        }
        Ok(())
    }
}

/// The `--topology` string that [`TopologyConfig::parse`] reads back: the
/// kind name, radix-qualified for an NvSwitch fabric whose planes differ
/// from the default radix.
impl fmt::Display for TopologyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let default_radix = TopologyConfig::of(self.kind).switch_radix;
        if self.kind == TopologyKind::NvSwitch && self.switch_radix != default_radix {
            write!(f, "{}:{}", self.name(), self.switch_radix)
        } else {
            f.write_str(self.name())
        }
    }
}

/// Fixed latencies charged by the UVM driver model and memory system.
///
/// These are the calibration knobs of the reproduction: the paper inherits
/// them from MGPUSim and the NVIDIA driver; we document defaults chosen so
/// the *relative* costs match §II-B and Fig. 3 (migration ≫ remote access ≫
/// local access; write-collapse scales with replica count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyConfig {
    /// Local GPU DRAM access.
    pub local_dram: u64,
    /// GPU L1 data-cache hit.
    pub l1_data_hit: u64,
    /// GPU L2 data-cache hit.
    pub l2_data_hit: u64,
    /// Extra protocol overhead on each remote (peer) access beyond link
    /// latency and occupancy.
    pub remote_extra: u64,
    /// Base UVM driver fault-servicing cost on the host (interrupt,
    /// driver bookkeeping) per GPU page fault — latency seen by the fault.
    pub host_fault_base: u64,
    /// Serial occupancy of the UVM driver per fault: the host services
    /// faults one at a time, so fault *throughput* is bounded by
    /// `1 / fault_service_time` (the §VI-A observation that fault counts
    /// correlate with performance "due to frequent UVM handling and CPU
    /// interruption" — and Trans-FW's motivation).
    pub fault_service_time: u64,
    /// Minimum gap between peer (remote) cache-line requests issued by one
    /// GPU: models the coalescing/protocol limit of fine-grained NVLink
    /// traffic, bounding remote-access throughput per GPU.
    pub remote_issue_gap: u64,
    /// Host walking the centralized page table for one translation.
    pub central_walk: u64,
    /// Flushing in-flight instructions, caches and TLBs of one GPU prior to
    /// unmapping a page it owns (migration source / replica collapse).
    pub flush_drain: u64,
    /// Broadcasting one PTE/TLB invalidation to one GPU.
    pub invalidation_per_gpu: u64,
    /// One CPU-memory access (used by the software PA-Table).
    pub cpu_mem_access: u64,
    /// PA-Cache hit latency.
    pub pa_cache_hit: u64,
    /// Driver-side overhead per page duplication beyond the raw copy
    /// (the UVM driver mediates the replica creation, §II-B3).
    pub dup_overhead: u64,
    /// Extra write-collapse handling beyond per-holder flushes: the driver
    /// walks the centralized table for the replica set and waits for all
    /// invalidation acknowledgements before the writer resumes (§II-B3).
    pub collapse_extra: u64,
    /// Interrupting the UVM driver to change a page's placement scheme.
    pub scheme_change: u64,
    /// Replaying a faulted access once the fault is resolved.
    pub fault_replay: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            local_dram: 150,
            l1_data_hit: 4,
            l2_data_hit: 40,
            remote_extra: 180,
            host_fault_base: 600,
            fault_service_time: 260,
            remote_issue_gap: 45,
            central_walk: 200,
            flush_drain: 1100,
            invalidation_per_gpu: 150,
            cpu_mem_access: 200,
            pa_cache_hit: 2,
            dup_overhead: 400,
            collapse_extra: 800,
            scheme_change: 250,
            fault_replay: 60,
        }
    }
}

/// Full system configuration (Table I defaults).
///
/// ```
/// use grit_sim::SimConfig;
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.walk.walkers, 8);
/// assert_eq!(cfg.access_counter_threshold, 256);
/// cfg.validate().unwrap();
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Number of GPUs in the node (paper baseline: 4).
    pub num_gpus: usize,
    /// Base page size in bytes (4 KB baseline, 2 MB in §VI-B3).
    pub page_size: u64,
    /// Large-page management mode (uniform 4 KB by default; see
    /// [`PageSizeMode`]).
    pub page_size_mode: PageSizeMode,
    /// GPU memory capacity as a fraction of the application footprint,
    /// split evenly across GPUs (paper: 70 %, §III-B).
    pub capacity_ratio: f64,
    /// Aggregated per-GPU L1 TLB (Table I lists 32-entry CU-private TLBs;
    /// we aggregate them into one per-GPU structure).
    pub l1_tlb: TlbGeometry,
    /// Shared per-GPU L2 TLB.
    pub l2_tlb: TlbGeometry,
    /// Per-GPU L1 TLB for 2 MB translations. VIPT TLBs are partitioned
    /// by page size: large pages get their own small array whose reach
    /// (entries × 2 MB) dwarfs the base array's. Only consulted when
    /// [`SimConfig::page_size_mode`] enables large pages.
    pub l1_tlb_2m: TlbGeometry,
    /// Shared per-GPU L2 TLB for 2 MB translations.
    pub l2_tlb_2m: TlbGeometry,
    /// GMMU page-walk machinery.
    pub walk: WalkConfig,
    /// Per-CU-scale L1 data cache stage (Table I: 16 KB, 4-way vector L1;
    /// modelled at single-CU size because the frontend replays one merged
    /// stream per GPU).
    pub l1_cache: CacheGeometry,
    /// Per-GPU L2 data cache (Table I: 256 KB, 16-way; 4096 64 B lines).
    pub l2_cache: CacheGeometry,
    /// Remote accesses per 64 KB group before counter-based migration.
    pub access_counter_threshold: u32,
    /// Interconnect parameters.
    pub links: LinkConfig,
    /// Interconnect topology (all-to-all by default; see [`TopoGraph`]).
    pub topology: TopologyConfig,
    /// Latency model.
    pub lat: LatencyConfig,
    /// Maximum outstanding memory operations per GPU (memory-level
    /// parallelism window standing in for the CU pipelines).
    pub mlp_window: usize,
    /// Cycle-scheduled hardware fault injection (empty by default: the
    /// simulation is byte-identical to one without the subsystem).
    pub inject: InjectConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_gpus: 4,
            page_size: PAGE_SIZE_4K,
            page_size_mode: PageSizeMode::default(),
            capacity_ratio: 0.70,
            l1_tlb: TlbGeometry {
                entries: 256,
                ways: 32,
                lookup_latency: 1,
            },
            l2_tlb: TlbGeometry {
                entries: 512,
                ways: 16,
                lookup_latency: 10,
            },
            l1_tlb_2m: TlbGeometry {
                entries: 32,
                ways: 4,
                lookup_latency: 1,
            },
            l2_tlb_2m: TlbGeometry {
                entries: 128,
                ways: 16,
                lookup_latency: 10,
            },
            walk: WalkConfig::default(),
            l1_cache: CacheGeometry {
                entries: 256,
                ways: 4,
            },
            l2_cache: CacheGeometry {
                entries: 4_096,
                ways: 16,
            },
            access_counter_threshold: ACCESS_COUNTER_THRESHOLD_DEFAULT,
            links: LinkConfig::default(),
            topology: TopologyConfig::default(),
            lat: LatencyConfig::default(),
            mlp_window: 48,
            inject: InjectConfig::none(),
        }
    }
}

impl SimConfig {
    /// Convenience constructor varying only the GPU count.
    pub fn with_gpus(num_gpus: usize) -> Self {
        SimConfig {
            num_gpus,
            ..SimConfig::default()
        }
    }

    /// Cache lines per page under this configuration.
    ///
    /// # Panics
    ///
    /// Panics when the line count overflows `u16` (page sizes ≥ 4 MB);
    /// configurations that can reach this path should use
    /// [`SimConfig::try_lines_per_page`].
    pub fn lines_per_page(&self) -> u16 {
        self.try_lines_per_page().expect("validated page size")
    }

    /// Cache lines per page, rejecting sizes whose line count does not
    /// fit the simulator's `u16` line indices instead of silently
    /// truncating.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for non-power-of-two sizes, sizes below
    /// one cache line, and sizes of 4 MB or more (≥ 65 536 lines).
    pub fn try_lines_per_page(&self) -> Result<u16, ConfigError> {
        lines_per_page_checked(self.page_size)
    }

    /// Base pages per 2 MB large-page frame under this configuration
    /// (1 when the base page already is 2 MB or larger).
    pub fn pages_per_large_frame(&self) -> u64 {
        (PAGE_SIZE_2M / self.page_size).max(1)
    }

    /// Checks internal consistency and hands back the compiled fault
    /// plan ([`FaultPlan::empty`] without `inject` events), so a cell
    /// compiles its plan once, here. An injected plan carries the
    /// [`TopoGraph`] it was compiled against
    /// ([`FaultPlan::take_graph`]), so the cell lays its wires out once.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (zero GPUs, >16 GPUs,
    /// non-power-of-two page size, cache geometry that does not divide
    /// evenly, a capacity ratio outside `(0, 2]`, or a fault plan naming
    /// a wire or GPU the machine lacks).
    pub fn validate(&self) -> Result<FaultPlan, ConfigError> {
        if self.num_gpus == 0 {
            return Err(ConfigError::new("num_gpus", "must be at least 1"));
        }
        if self.num_gpus > 16 {
            return Err(ConfigError::new(
                "num_gpus",
                format!("{} exceeds the 16-GPU maximum", self.num_gpus),
            ));
        }
        if !self.page_size.is_power_of_two() || self.page_size < 1024 {
            return Err(ConfigError::new(
                "page_size",
                format!("{} must be a power of two >= 1024", self.page_size),
            ));
        }
        self.try_lines_per_page()?;
        if self.page_size_mode.large_pages_enabled() && self.page_size >= PAGE_SIZE_2M {
            return Err(ConfigError::new(
                "page_size_mode",
                format!(
                    "{} needs base pages smaller than the {PAGE_SIZE_2M}-byte large-page \
                     frame, but page_size is {}",
                    self.page_size_mode.name(),
                    self.page_size
                ),
            ));
        }
        if !(self.capacity_ratio > 0.0 && self.capacity_ratio <= 2.0) {
            return Err(ConfigError::new(
                "capacity_ratio",
                format!("{} out of range (0, 2]", self.capacity_ratio),
            ));
        }
        for (name, t) in [
            ("l1_tlb", self.l1_tlb),
            ("l2_tlb", self.l2_tlb),
            ("l1_tlb_2m", self.l1_tlb_2m),
            ("l2_tlb_2m", self.l2_tlb_2m),
        ] {
            if t.ways == 0 || t.entries == 0 || t.entries % t.ways != 0 {
                return Err(ConfigError::new(name, format!("geometry invalid: {t:?}")));
            }
        }
        for (name, c) in [("l1_cache", self.l1_cache), ("l2_cache", self.l2_cache)] {
            if c.ways == 0 || c.entries == 0 || c.entries % c.ways != 0 {
                return Err(ConfigError::new(name, format!("geometry invalid: {c:?}")));
            }
        }
        if self.walk.walkers == 0 || self.walk.levels == 0 {
            return Err(ConfigError::new("walk", "must have walkers and levels"));
        }
        if self.mlp_window == 0 {
            return Err(ConfigError::new("mlp_window", "must be at least 1"));
        }
        if self.links.nvlink_bytes_per_cycle <= 0.0 || self.links.pcie_bytes_per_cycle <= 0.0 {
            return Err(ConfigError::new("links", "bandwidths must be positive"));
        }
        self.topology.validate()?;
        if self.inject.is_empty() {
            return Ok(FaultPlan::empty());
        }
        let graph = TopoGraph::build(self.num_gpus, self.links, self.topology);
        let mut plan = FaultPlan::compile(&self.inject, graph.links.len(), self.num_gpus)?;
        plan.graph = Some(graph);
        Ok(plan)
    }

    /// The configuration flattened to `(name, value)` pairs, for embedding
    /// the simulated-system description in machine-readable run reports.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("num_gpus", self.num_gpus as f64),
            ("page_size", self.page_size as f64),
            (
                "page_size_mode",
                PageSizeMode::ALL
                    .iter()
                    .position(|m| *m == self.page_size_mode)
                    .expect("mode in ALL") as f64,
            ),
            ("capacity_ratio", self.capacity_ratio),
            ("l1_tlb_entries", self.l1_tlb.entries as f64),
            ("l1_tlb_ways", self.l1_tlb.ways as f64),
            ("l1_tlb_lookup_latency", self.l1_tlb.lookup_latency as f64),
            ("l2_tlb_entries", self.l2_tlb.entries as f64),
            ("l2_tlb_ways", self.l2_tlb.ways as f64),
            ("l2_tlb_lookup_latency", self.l2_tlb.lookup_latency as f64),
            ("l1_tlb_2m_entries", self.l1_tlb_2m.entries as f64),
            ("l1_tlb_2m_ways", self.l1_tlb_2m.ways as f64),
            ("l2_tlb_2m_entries", self.l2_tlb_2m.entries as f64),
            ("l2_tlb_2m_ways", self.l2_tlb_2m.ways as f64),
            ("walkers", self.walk.walkers as f64),
            ("walk_queue_capacity", self.walk.queue_capacity as f64),
            ("walk_levels", f64::from(self.walk.levels)),
            ("walk_cycles_per_level", self.walk.cycles_per_level as f64),
            ("walk_cache_entries", self.walk.walk_cache_entries as f64),
            ("l1_cache_entries", self.l1_cache.entries as f64),
            ("l1_cache_ways", self.l1_cache.ways as f64),
            ("l2_cache_entries", self.l2_cache.entries as f64),
            ("l2_cache_ways", self.l2_cache.ways as f64),
            (
                "access_counter_threshold",
                f64::from(self.access_counter_threshold),
            ),
            ("nvlink_bytes_per_cycle", self.links.nvlink_bytes_per_cycle),
            ("nvlink_latency", self.links.nvlink_latency as f64),
            ("pcie_bytes_per_cycle", self.links.pcie_bytes_per_cycle),
            ("pcie_latency", self.links.pcie_latency as f64),
            (
                "topology",
                TopologyKind::ALL
                    .iter()
                    .position(|k| *k == self.topology.kind)
                    .expect("kind in ALL") as f64,
            ),
            ("switch_radix", self.topology.switch_radix as f64),
            (
                "switch_bytes_per_cycle",
                self.topology.switch_bytes_per_cycle,
            ),
            ("switch_latency", self.topology.switch_latency as f64),
            (
                "inter_node_bytes_per_cycle",
                self.topology.inter_node_bytes_per_cycle,
            ),
            (
                "inter_node_latency",
                self.topology.inter_node_latency as f64,
            ),
            ("mlp_window", self.mlp_window as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.num_gpus, 4);
        assert_eq!(c.page_size, 4096);
        assert!((c.capacity_ratio - 0.7).abs() < 1e-9);
        assert_eq!(c.l2_tlb.entries, 512);
        assert_eq!(c.l2_tlb.ways, 16);
        assert_eq!(c.l2_tlb.lookup_latency, 10);
        assert_eq!(c.walk.walkers, 8);
        assert_eq!(c.walk.queue_capacity, 64);
        assert_eq!(c.walk.cycles_per_level, 100);
        assert_eq!(c.walk.walk_cache_entries, 128);
        assert_eq!(c.access_counter_threshold, 256);
        assert!((c.links.nvlink_bytes_per_cycle - 300.0).abs() < 1e-9);
        assert!((c.links.pcie_bytes_per_cycle - 32.0).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn describe_covers_the_headline_parameters() {
        let d = SimConfig::default().describe();
        let get = |name: &str| d.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("num_gpus"), Some(4.0));
        assert_eq!(get("page_size"), Some(4096.0));
        assert_eq!(get("access_counter_threshold"), Some(256.0));
        assert_eq!(get("nvlink_bytes_per_cycle"), Some(300.0));
        // Names are unique so reports can treat the list as a map.
        let mut names: Vec<&str> = d.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), d.len());
    }

    #[test]
    fn lines_per_page() {
        assert_eq!(SimConfig::default().lines_per_page(), 64);
        let big = SimConfig {
            page_size: PAGE_SIZE_2M,
            ..SimConfig::default()
        };
        assert_eq!(big.lines_per_page() as u64, PAGE_SIZE_2M / 64);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = SimConfig {
            num_gpus: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        c.num_gpus = 17;
        assert!(c.validate().is_err());

        let c = SimConfig {
            page_size: 3000,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            capacity_ratio: 0.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.l1_tlb.ways = 3; // 256 % 3 != 0
        assert!(c.validate().is_err());

        let c = SimConfig {
            mlp_window: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_error_reports_field_and_reason() {
        let c = SimConfig {
            num_gpus: 0,
            ..SimConfig::default()
        };
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "num_gpus");
        let msg = e.to_string();
        assert!(
            msg.contains("num_gpus") && msg.contains("at least 1"),
            "{msg}"
        );
        // It is a std error.
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn page_size_mode_parse_round_trips_names() {
        for mode in PageSizeMode::ALL {
            assert_eq!(PageSizeMode::parse(mode.name()).unwrap(), mode);
        }
        // The removed second large-page mode is rejected, not aliased.
        for bad in ["huge", "uniform2m"] {
            let err = PageSizeMode::parse(bad).unwrap_err();
            assert!(err.contains("expected one of uniform4k, mixed)"), "{err}");
        }
        assert_eq!(PageSizeMode::default(), PageSizeMode::Uniform4k);
        assert!(!PageSizeMode::Uniform4k.large_pages_enabled());
        assert!(PageSizeMode::Mixed.large_pages_enabled());
    }

    #[test]
    fn lines_per_page_checked_rejects_truncating_sizes() {
        assert_eq!(lines_per_page_checked(PAGE_SIZE_4K).unwrap(), 64);
        assert_eq!(
            u64::from(lines_per_page_checked(PAGE_SIZE_2M).unwrap()),
            PAGE_SIZE_2M / CACHE_LINE_BYTES
        );
        // 4 MB would silently truncate to 0 lines under an `as u16` cast.
        let err = lines_per_page_checked(4 * 1024 * 1024).unwrap_err();
        assert_eq!(err.field, "page_size");
        assert!(err.reason.contains("overflows"), "{}", err.reason);
        assert!(lines_per_page_checked(3000).is_err());
        assert!(lines_per_page_checked(32).is_err());
    }

    #[test]
    fn large_page_modes_require_small_base_pages() {
        let mut c = SimConfig {
            page_size_mode: PageSizeMode::Mixed,
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
        assert_eq!(c.pages_per_large_frame(), 512);
        c.page_size = PAGE_SIZE_2M;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "page_size_mode");
        c.page_size_mode = PageSizeMode::Uniform4k;
        assert!(c.validate().is_ok());
        assert_eq!(c.pages_per_large_frame(), 1);
    }

    #[test]
    fn validate_hands_back_the_compiled_fault_plan() {
        let mut c = SimConfig::default();
        assert!(c.validate().unwrap().is_empty());
        c.inject = InjectConfig::parse("outage@10:wire=*:for=5").unwrap();
        let mut plan = c.validate().unwrap();
        let cycles: Vec<u64> = plan.transitions().iter().map(|t| t.cycle).collect();
        assert_eq!(cycles, [10, 15], "the outage starts and recovers");
        // The plan hands over the wires it was compiled against.
        let graph = plan.take_graph().expect("an injected plan carries its graph");
        let wires = TopoGraph::build(c.num_gpus, c.links, c.topology).links.len();
        assert_eq!(graph.links.len(), wires);
        assert!(plan.take_graph().is_none(), "the graph is handed over once");
        c.inject = InjectConfig::parse("outage@0:wire=99:for=10").unwrap();
        assert_eq!(c.validate().unwrap_err().field, "inject");
    }

    #[test]
    fn topology_parse_round_trips_names() {
        for kind in TopologyKind::ALL {
            let cfg = TopologyConfig::parse(kind.name()).unwrap();
            assert_eq!(cfg.kind, kind);
            assert_eq!(cfg.name(), kind.name());
            // Display is parse's inverse.
            assert_eq!(TopologyConfig::parse(&cfg.to_string()), Ok(cfg));
        }
        assert!(TopologyConfig::parse("torus").is_err());
    }

    #[test]
    fn topology_parse_nvswitch_radix() {
        let cfg = TopologyConfig::parse("nvswitch:4").unwrap();
        assert_eq!(cfg.kind, TopologyKind::NvSwitch);
        assert_eq!(cfg.switch_radix, 4);
        assert_eq!(cfg.to_string(), "nvswitch:4");
        // A non-default radix prints, and parses back; the default does not.
        let wide = TopologyConfig::parse("nvswitch:16").unwrap();
        assert_eq!(TopologyConfig::parse(&wide.to_string()), Ok(wide));
        assert_eq!(
            TopologyConfig::parse("nvswitch:8").unwrap().to_string(),
            "nvswitch"
        );
        assert!(TopologyConfig::parse("ring:4").is_err());
        assert!(TopologyConfig::parse("nvswitch:zero").is_err());
    }

    #[test]
    fn topology_validate_rejects_degenerate_parameters() {
        let bad_radix = TopologyConfig {
            switch_radix: 1,
            ..TopologyConfig::default()
        };
        assert!(bad_radix.validate().is_err());
        let cfg = TopologyConfig {
            inter_node_bytes_per_cycle: 0.0,
            ..TopologyConfig::default()
        };
        assert!(cfg.validate().is_err());
        // An invalid topology fails the whole SimConfig.
        let bad = SimConfig {
            topology: cfg,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn default_topology_is_all_to_all() {
        let c = SimConfig::default();
        assert_eq!(c.topology.kind, TopologyKind::AllToAll);
        let d = c.describe();
        let get = |name: &str| d.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("topology"), Some(0.0));
        assert_eq!(get("switch_radix"), Some(8.0));
    }

    #[test]
    fn cache_geometry_sets() {
        assert_eq!(
            CacheGeometry {
                entries: 64,
                ways: 4
            }
            .sets(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn cache_geometry_rejects_uneven() {
        let _ = CacheGeometry {
            entries: 65,
            ways: 4,
        }
        .sets();
    }
}
