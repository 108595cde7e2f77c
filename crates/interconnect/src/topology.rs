//! Topology-driven fabric: routed GPU↔GPU transfers over a pluggable link
//! graph, PCIe to the host.
//!
//! The GPU-side wire layout is [`grit_sim::TopoGraph`]: a [`Fabric`] builds
//! the configured topology's link graph once, precomputes shortest-path
//! routes ([`Routing`]),
//! and books every transfer hop-by-hop on per-link occupancy, so congestion
//! composes across hops (a saturated switch trunk delays every route that
//! crosses it). The default [`grit_sim::TopologyKind::AllToAll`] lays its
//! links out in the legacy triangular pair order and routes every pair in
//! one hop, reproducing the pre-topology fabric cycle-for-cycle.

use grit_metrics::LatencyHistogram;
use grit_prof::{span, Phase};
use grit_sim::{Cycle, FaultPlan, GpuId, HopClass, LinkConfig, MemLoc, TopoGraph, TopologyConfig};
use grit_trace::{EventCategory, LinkKind, TraceEvent, Tracer};

use crate::link::{Link, LinkStats};
use crate::routing::Routing;

/// Aggregate fabric traffic, split by wire class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FabricStats {
    /// Bytes moved over direct GPU↔GPU NVLinks.
    pub nvlink_bytes: u64,
    /// Bytes moved over switch uplinks and inter-switch trunks.
    pub switch_bytes: u64,
    /// Bytes moved over the hierarchical inter-node bottleneck.
    pub inter_node_bytes: u64,
    /// Bytes moved to/from the host over PCIe (data + control).
    pub pcie_bytes: u64,
    /// Congestion cycles on NVLink hops.
    pub nvlink_queue_cycles: u64,
    /// Congestion cycles on switch hops.
    pub switch_queue_cycles: u64,
    /// Congestion cycles on inter-node hops.
    pub inter_node_queue_cycles: u64,
    /// Congestion cycles on PCIe links.
    pub pcie_queue_cycles: u64,
}

impl FabricStats {
    /// Total congestion cycles across every wire class.
    pub fn queue_cycles(&self) -> u64 {
        self.nvlink_queue_cycles
            + self.switch_queue_cycles
            + self.inter_node_queue_cycles
            + self.pcie_queue_cycles
    }

    /// GPU-side wire bytes (every class except host PCIe). Multi-hop
    /// routes count the payload once per hop crossed.
    pub fn wire_bytes(&self) -> u64 {
        self.nvlink_bytes + self.switch_bytes + self.inter_node_bytes
    }
}

fn hop_kind(class: HopClass) -> LinkKind {
    match class {
        HopClass::Nvlink => LinkKind::Nvlink,
        HopClass::Switch => LinkKind::Switch,
        HopClass::InterNode => LinkKind::InterNode,
    }
}

/// The interconnect of one multi-GPU node.
///
/// GPU↔GPU traffic crosses the configured topology's link graph along
/// precomputed shortest paths (store-and-forward: hop `i + 1` is submitted
/// at hop `i`'s delivery cycle); each GPU shares one PCIe link with the
/// host for fault handling and host-sourced fills.
#[derive(Clone, Debug)]
pub struct Fabric {
    num_gpus: usize,
    /// One wire per topology link, indexed by link id. For the default
    /// all-to-all this is the legacy upper-triangular pair layout.
    links: Vec<Link>,
    /// Wire class of each link (parallel to `links`).
    classes: Vec<HopClass>,
    /// Shortest-path routes between every GPU pair.
    routing: Routing,
    /// Saved link graph, kept so failover routes can be computed when a
    /// fault plan with outage windows is installed.
    graph: TopoGraph,
    /// Installed fault plan; empty by default, in which case every code
    /// path below is arithmetically identical to the fault-free fabric.
    plan: FaultPlan,
    /// Failover routing per outage epoch, parallel to
    /// `plan.outage_epochs()`. `None` entries reuse the base routing
    /// (epochs during which every wire is up).
    epoch_routes: Vec<Option<Routing>>,
    /// Bulk-data PCIe channel per GPU (page transfers).
    pcie: Vec<Link>,
    /// Control PCIe channel per GPU (fault messages/replies). Split from
    /// the data channel so control traffic is not serialized behind bulk
    /// transfers booked at future completion times.
    pcie_ctrl: Vec<Link>,
    /// Per-transfer-hop queue-wait distribution: how long each booked
    /// hop sat behind earlier traffic before its wire freed up. Cycle
    /// domain, so deterministic at any `--jobs`.
    queue_hist: LatencyHistogram,
    /// Event sink for link-transfer events; disabled by default.
    tracer: Tracer,
}

impl Fabric {
    /// Builds the default all-to-all fabric for `num_gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn new(num_gpus: usize, cfg: LinkConfig) -> Self {
        Fabric::with_topology(num_gpus, cfg, TopologyConfig::default())
    }

    /// Builds the fabric for `num_gpus` GPUs wired as `topo` describes.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_topology(num_gpus: usize, cfg: LinkConfig, topo: TopologyConfig) -> Self {
        Fabric::with_fault_plan(num_gpus, cfg, topo, FaultPlan::empty())
    }

    /// [`Fabric::with_topology`] with `plan` installed
    /// ([`Fabric::set_fault_plan`]). A plan from `SimConfig::validate`
    /// hands over the wire layout it was compiled against, which the
    /// fabric adopts instead of laying it out again.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_fault_plan(
        num_gpus: usize,
        cfg: LinkConfig,
        topo: TopologyConfig,
        mut plan: FaultPlan,
    ) -> Self {
        assert!(num_gpus > 0, "fabric needs at least one GPU");
        let graph = plan.take_graph().unwrap_or_else(|| TopoGraph::build(num_gpus, cfg, topo));
        let routing = Routing::compute(&graph);
        let mut fabric = Fabric {
            num_gpus,
            links: graph.links.iter().map(|l| Link::new(l.bytes_per_cycle, l.latency)).collect(),
            classes: graph.links.iter().map(|l| l.class).collect(),
            routing,
            graph,
            plan: FaultPlan::empty(),
            epoch_routes: Vec::new(),
            pcie: (0..num_gpus)
                .map(|_| Link::new(cfg.pcie_bytes_per_cycle, cfg.pcie_latency))
                .collect(),
            pcie_ctrl: (0..num_gpus)
                .map(|_| Link::new(cfg.pcie_bytes_per_cycle, cfg.pcie_latency))
                .collect(),
            queue_hist: LatencyHistogram::new(),
            tracer: Tracer::disabled(),
        };
        fabric.set_fault_plan(plan);
        fabric
    }

    /// The installed fault plan (empty unless one was installed).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attaches an event sink; link transfers are recorded through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a compiled fault plan. Failover routing tables for every
    /// outage epoch are precomputed here, once, so the per-transfer hot
    /// path only indexes by epoch; pairs an epoch's down-set disconnects
    /// keep an empty route and get staged through host memory. Installing
    /// an empty plan restores fault-free behavior.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.epoch_routes = plan
            .outage_epochs()
            .iter()
            .map(|(_, down)| {
                if down.is_empty() {
                    None
                } else {
                    Some(Routing::compute_avoiding(&self.graph, down))
                }
            })
            .collect();
        self.plan = plan;
    }

    /// The routing table active at cycle `now`: the base table, unless an
    /// injected outage epoch replaced it with a failover table.
    fn routing_at(&self, now: Cycle) -> &Routing {
        if self.epoch_routes.is_empty() {
            return &self.routing;
        }
        match &self.epoch_routes[self.plan.epoch_at(now)] {
            Some(r) => r,
            None => &self.routing,
        }
    }

    /// Whether the routing active at `now` has no GPU↔GPU path between
    /// distinct `a` and `b` (an injected outage disconnected the pair).
    /// Transfers submitted while blocked are staged through the host.
    pub fn route_blocked(&self, a: GpuId, b: GpuId, now: Cycle) -> bool {
        a != b && !self.routing_at(now).has_route(a.index(), b.index())
    }

    /// Whether the route between `a` and `b` active at `now` is blocked or
    /// crosses a wire that is currently degraded — placement policies
    /// treat such owners as farther away than their hop count suggests.
    pub fn route_sick(&self, a: GpuId, b: GpuId, now: Cycle) -> bool {
        if a == b || self.plan.is_empty() {
            return false;
        }
        let cur = self.routing_at(now).route(a.index(), b.index());
        if cur.is_empty() {
            return true; // blocked: staged through the host
        }
        // A failover detour is longer than the healthy route, so the pair
        // is sick even though every wire it crosses is up.
        cur.len() > self.routing.hops(a.index(), b.index())
            || cur.iter().any(|&w| self.plan.wire_sick(w as usize, now))
    }

    /// Transfers `bytes` between two distinct GPUs along the routed path;
    /// returns the final delivery cycle. Each hop books its wire at the
    /// previous hop's delivery cycle and emits one trace event.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (local copies never cross the fabric).
    pub fn gpu_to_gpu(&mut self, a: GpuId, b: GpuId, now: Cycle, bytes: u64) -> Cycle {
        assert!(a != b, "gpu_to_gpu requires distinct endpoints");
        let _prof = span(Phase::FabricTransfer);
        let routing = if self.epoch_routes.is_empty() {
            &self.routing
        } else {
            match &self.epoch_routes[self.plan.epoch_at(now)] {
                Some(r) => r,
                None => &self.routing,
            }
        };
        let path = routing.route(a.index(), b.index());
        if path.is_empty() {
            // The active outage epoch disconnected the pair: stage the
            // payload through host memory rather than losing or delaying
            // it indefinitely.
            return self.host_stage(a, b, now, bytes);
        }
        let hops = path.len() as u8;
        let forward = a.index() < b.index();
        let mut t = now;
        for hop in 0..path.len() {
            let step = if forward { hop } else { path.len() - 1 - hop };
            let wire = path[step] as usize;
            let submitted = t;
            let scale = self.plan.bw_scale(wire, submitted);
            self.queue_hist.record(self.links[wire].free_at().saturating_sub(submitted));
            t = self.links[wire].transfer_scaled(submitted, bytes, scale);
            let link = hop_kind(self.classes[wire]);
            self.tracer.emit(EventCategory::LinkTransfer, || TraceEvent::LinkTransfer {
                cycle: submitted,
                link,
                src: MemLoc::Gpu(a),
                dst: MemLoc::Gpu(b),
                bytes,
                delivered: t,
                hop: hop as u8,
                hops,
            });
        }
        t
    }

    /// Transfers `bytes` between a GPU and the host over its PCIe link.
    pub fn gpu_to_host(&mut self, g: GpuId, now: Cycle, bytes: u64) -> Cycle {
        let _prof = span(Phase::FabricTransfer);
        self.queue_hist.record(self.pcie[g.index()].free_at().saturating_sub(now));
        let t = self.pcie[g.index()].transfer(now, bytes);
        self.tracer.emit(EventCategory::LinkTransfer, || TraceEvent::LinkTransfer {
            cycle: now,
            link: LinkKind::Pcie,
            src: MemLoc::Gpu(g),
            dst: MemLoc::Host,
            bytes,
            delivered: t,
            hop: 0,
            hops: 1,
        });
        t
    }

    /// Stages `bytes` from GPU `a` to GPU `b` through host memory: up
    /// `a`'s PCIe data link, then down `b`'s. This is the last-resort
    /// degradation path when an injected outage leaves no GPU↔GPU route —
    /// slow, but the payload is never lost and the call never blocks.
    pub fn host_stage(&mut self, a: GpuId, b: GpuId, now: Cycle, bytes: u64) -> Cycle {
        assert!(a != b, "host staging requires distinct endpoints");
        let _prof = span(Phase::FabricTransfer);
        self.queue_hist.record(self.pcie[a.index()].free_at().saturating_sub(now));
        let up = self.pcie[a.index()].transfer(now, bytes);
        self.tracer.emit(EventCategory::LinkTransfer, || TraceEvent::LinkTransfer {
            cycle: now,
            link: LinkKind::Pcie,
            src: MemLoc::Gpu(a),
            dst: MemLoc::Gpu(b),
            bytes,
            delivered: up,
            hop: 0,
            hops: 2,
        });
        self.queue_hist.record(self.pcie[b.index()].free_at().saturating_sub(up));
        let t = self.pcie[b.index()].transfer(up, bytes);
        self.tracer.emit(EventCategory::LinkTransfer, || TraceEvent::LinkTransfer {
            cycle: up,
            link: LinkKind::Pcie,
            src: MemLoc::Gpu(a),
            dst: MemLoc::Gpu(b),
            bytes,
            delivered: t,
            hop: 1,
            hops: 2,
        });
        t
    }

    /// Round trip between a GPU and the host (fault message + reply, no
    /// bulk payload). The links are duplex: the reply travels the
    /// downstream direction and does not re-book the upstream wire, so
    /// only the request occupies this link and the reply adds latency.
    pub fn host_round_trip(&mut self, g: GpuId, now: Cycle) -> Cycle {
        self.queue_hist.record(self.pcie_ctrl[g.index()].free_at().saturating_sub(now));
        let there = self.pcie_ctrl[g.index()].transfer(now, 64);
        let t = there + self.pcie_ctrl[g.index()].latency() + 1;
        self.tracer.emit(EventCategory::LinkTransfer, || TraceEvent::LinkTransfer {
            cycle: now,
            link: LinkKind::PcieCtrl,
            src: MemLoc::Gpu(g),
            dst: MemLoc::Host,
            bytes: 64,
            delivered: t,
            hop: 0,
            hops: 1,
        });
        t
    }

    /// Number of GPUs in the fabric.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Number of GPU-side wires in the topology graph (excludes host PCIe).
    pub fn num_wire_links(&self) -> usize {
        self.links.len()
    }

    /// The link-id path between two distinct GPUs, ordered from the
    /// lower-numbered GPU to the higher one.
    pub fn route(&self, a: GpuId, b: GpuId) -> &[u32] {
        self.routing.route(a.index(), b.index())
    }

    /// Traffic counters of one GPU-side wire, by link id.
    pub fn wire_stats(&self, link: u32) -> LinkStats {
        self.links[link as usize].stats()
    }

    /// Per-hop queue-wait distribution across every link the fabric
    /// booked (topology wires, PCIe data and control channels).
    pub fn queue_wait_hist(&self) -> &LatencyHistogram {
        &self.queue_hist
    }

    /// Aggregate traffic across the fabric, split by wire class.
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats::default();
        for (l, class) in self.links.iter().zip(&self.classes) {
            let (bytes, queue) = match class {
                HopClass::Nvlink => (&mut s.nvlink_bytes, &mut s.nvlink_queue_cycles),
                HopClass::Switch => (&mut s.switch_bytes, &mut s.switch_queue_cycles),
                HopClass::InterNode => (&mut s.inter_node_bytes, &mut s.inter_node_queue_cycles),
            };
            *bytes += l.stats().bytes;
            *queue += l.stats().queue_cycles;
        }
        for l in self.pcie.iter().chain(&self.pcie_ctrl) {
            s.pcie_bytes += l.stats().bytes;
            s.pcie_queue_cycles += l.stats().queue_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::TopologyKind;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, LinkConfig::default())
    }

    fn fabric_of(kind: TopologyKind, n: usize) -> Fabric {
        Fabric::with_topology(n, LinkConfig::default(), TopologyConfig::of(kind))
    }

    #[test]
    fn all_to_all_routes_every_pair_in_one_hop() {
        let f = fabric(4);
        let mut seen = std::collections::HashSet::new();
        for a in 0..4u8 {
            for b in (a + 1)..4u8 {
                let route = f.route(GpuId::new(a), GpuId::new(b));
                assert_eq!(route.len(), 1);
                assert!(seen.insert(route[0]), "duplicate wire {}", route[0]);
            }
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(f.num_wire_links(), 6);
    }

    #[test]
    fn routes_are_direction_symmetric() {
        let f = fabric_of(TopologyKind::Ring, 8);
        let r1 = f.route(GpuId::new(2), GpuId::new(5)).to_vec();
        let r2 = f.route(GpuId::new(5), GpuId::new(2)).to_vec();
        assert_eq!(r1, r2);
    }

    #[test]
    fn distinct_pairs_do_not_contend() {
        let mut f = fabric(4);
        let t1 = f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 1_000_000);
        let t2 = f.gpu_to_gpu(GpuId::new(2), GpuId::new(3), 0, 1_000_000);
        assert_eq!(t1, t2); // independent wires
        let t3 = f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 64);
        assert!(t3 > t1 - 400, "same pair should queue");
    }

    #[test]
    fn pcie_slower_than_nvlink() {
        let mut f = fabric(2);
        let nv = f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 4096);
        let pcie = f.gpu_to_host(GpuId::new(0), 0, 4096);
        assert!(pcie > nv);
    }

    #[test]
    fn host_round_trip_costs_two_latencies() {
        let mut f = fabric(1);
        let t = f.host_round_trip(GpuId::new(0), 0);
        let lat = LinkConfig::default().pcie_latency;
        assert!(t >= 2 * lat);
    }

    #[test]
    fn queue_wait_histogram_records_backlog() {
        let mut f = fabric(2);
        // First transfer finds an idle wire; the second queues behind it.
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 100_000);
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 100_000);
        let h = f.queue_wait_hist();
        assert_eq!(h.samples(), 2);
        assert!(h.max() > 0, "second hop must have waited: {h}");
    }

    #[test]
    fn stats_aggregate() {
        let mut f = fabric(2);
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 100);
        f.gpu_to_host(GpuId::new(1), 0, 200);
        let s = f.stats();
        assert_eq!(s.nvlink_bytes, 100);
        assert_eq!(s.pcie_bytes, 200);
        assert_eq!(s.switch_bytes, 0);
        assert_eq!(s.inter_node_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_gpu_transfer_panics() {
        let mut f = fabric(2);
        f.gpu_to_gpu(GpuId::new(1), GpuId::new(1), 0, 1);
    }

    #[test]
    fn single_gpu_fabric_supports_host_traffic() {
        let mut f = fabric(1);
        assert!(f.gpu_to_host(GpuId::new(0), 0, 64) > 0);
    }

    #[test]
    fn single_gpu_fabric_has_no_phantom_pair_links() {
        // Regression: the legacy fabric allocated `pairs.max(1)` NVLinks,
        // leaving one phantom pair link in a 1-GPU fabric.
        for kind in TopologyKind::ALL {
            let f = Fabric::with_topology(1, LinkConfig::default(), TopologyConfig::of(kind));
            assert_eq!(
                f.stats().wire_bytes(),
                0,
                "{kind:?} has wire traffic at n=1"
            );
        }
        assert_eq!(fabric(1).num_wire_links(), 0);
    }

    #[test]
    fn multi_hop_transfer_books_every_hop() {
        let mut f = fabric_of(TopologyKind::Ring, 8);
        // 0 -> 4 is antipodal on an 8-ring: 4 hops.
        assert_eq!(f.route(GpuId::new(0), GpuId::new(4)).len(), 4);
        let direct =
            fabric_of(TopologyKind::Ring, 8).gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 4096);
        let routed = f.gpu_to_gpu(GpuId::new(0), GpuId::new(4), 0, 4096);
        // Store-and-forward: four hops cost four single-hop delays.
        assert_eq!(routed, 4 * direct);
        // Every hop carries the full payload once.
        assert_eq!(f.stats().wire_bytes(), 4 * 4096);
    }

    #[test]
    fn reverse_direction_books_the_same_wires() {
        let mut fwd = fabric_of(TopologyKind::Mesh2d, 8);
        let mut rev = fabric_of(TopologyKind::Mesh2d, 8);
        fwd.gpu_to_gpu(GpuId::new(1), GpuId::new(6), 0, 4096);
        rev.gpu_to_gpu(GpuId::new(6), GpuId::new(1), 0, 4096);
        for wire in 0..fwd.num_wire_links() as u32 {
            assert_eq!(fwd.wire_stats(wire), rev.wire_stats(wire));
        }
    }

    #[test]
    fn hierarchical_bottleneck_queues_cross_node_traffic() {
        let mut f = fabric_of(TopologyKind::Hierarchical, 8);
        // Two simultaneous cross-node transfers from different sources
        // serialize on the single inter-node link.
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(4), 0, 1_000_000);
        f.gpu_to_gpu(GpuId::new(1), GpuId::new(5), 0, 1_000_000);
        let s = f.stats();
        assert_eq!(s.inter_node_bytes, 2_000_000);
        assert!(s.inter_node_queue_cycles > 0, "bottleneck never queued");
        // Intra-node pairs ride direct NVLinks and never touch it.
        let mut intra = fabric_of(TopologyKind::Hierarchical, 8);
        intra.gpu_to_gpu(GpuId::new(0), GpuId::new(3), 0, 1_000_000);
        intra.gpu_to_gpu(GpuId::new(1), GpuId::new(2), 0, 1_000_000);
        assert_eq!(intra.stats().inter_node_bytes, 0);
        assert_eq!(intra.stats().queue_cycles(), 0);
    }

    #[test]
    fn shared_wires_queue_harder_than_all_to_all() {
        // Acceptance: the same traffic pattern shows measurably different
        // queueing on shared-wire topologies than on dedicated pair links.
        let hammer = |mut f: Fabric| -> u64 {
            for round in 0..4 {
                for a in 0..8u8 {
                    for b in (a + 1)..8u8 {
                        f.gpu_to_gpu(GpuId::new(a), GpuId::new(b), round * 1000, 64 * 1024);
                    }
                }
            }
            f.stats().queue_cycles()
        };
        let all_to_all = hammer(fabric(8));
        let ring = hammer(fabric_of(TopologyKind::Ring, 8));
        let switched = hammer(fabric_of(TopologyKind::NvSwitch, 8));
        assert!(
            ring > all_to_all && switched > all_to_all,
            "expected shared wires to queue harder: all-to-all={all_to_all} \
             ring={ring} nvswitch={switched}"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        use grit_sim::InjectConfig;
        let mut plain = fabric_of(TopologyKind::Ring, 8);
        let mut injected = fabric_of(TopologyKind::Ring, 8);
        let plan = FaultPlan::compile(&InjectConfig::none(), injected.num_wire_links(), 8)
            .expect("empty plan compiles");
        injected.set_fault_plan(plan);
        for (a, b, at, bytes) in [
            (0u8, 4u8, 0u64, 4096u64),
            (2, 3, 100, 64),
            (7, 1, 250, 65536),
        ] {
            assert_eq!(
                plain.gpu_to_gpu(GpuId::new(a), GpuId::new(b), at, bytes),
                injected.gpu_to_gpu(GpuId::new(a), GpuId::new(b), at, bytes)
            );
        }
        assert_eq!(plain.stats(), injected.stats());
    }

    #[test]
    fn degraded_wire_slows_transfers_inside_the_window_only() {
        use grit_sim::InjectConfig;
        let mut f = fabric(2);
        let healthy = fabric(2).gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 1 << 20);
        let cfg = InjectConfig::parse("degrade@1000:wire=0:frac=0.25:for=100000").unwrap();
        f.set_fault_plan(FaultPlan::compile(&cfg, f.num_wire_links(), 2).unwrap());
        // Before the window: full speed.
        assert_eq!(
            f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 1 << 20),
            healthy
        );
        // Inside: quarter bandwidth, so occupancy roughly quadruples.
        let mut sick = fabric(2);
        sick.set_fault_plan(FaultPlan::compile(&cfg, 1, 2).unwrap());
        let slow = sick.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 2000, 1 << 20);
        assert!(
            slow - 2000 > 3 * healthy,
            "degraded transfer too fast: {slow}"
        );
        // After the window: full speed again.
        let mut late = fabric(2);
        late.set_fault_plan(FaultPlan::compile(&cfg, 1, 2).unwrap());
        assert_eq!(
            late.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 200_000, 1 << 20),
            healthy + 200_000
        );
    }

    #[test]
    fn outage_reroutes_around_the_dead_wire() {
        use grit_sim::InjectConfig;
        let mut f = fabric(4);
        let direct = f.route(GpuId::new(0), GpuId::new(1))[0];
        let cfg = InjectConfig::parse(&format!("outage@1000:wire={direct}:for=1000")).unwrap();
        f.set_fault_plan(FaultPlan::compile(&cfg, f.num_wire_links(), 4).unwrap());
        assert!(!f.route_blocked(GpuId::new(0), GpuId::new(1), 1500));
        assert!(f.route_sick(GpuId::new(0), GpuId::new(1), 1500));
        assert!(!f.route_sick(GpuId::new(0), GpuId::new(1), 5000));
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 1500, 4096);
        // The detour books two hops, neither of them the dead wire.
        assert_eq!(f.wire_stats(direct).bytes, 0);
        assert_eq!(f.stats().wire_bytes(), 2 * 4096);
        // Outside the window the direct wire carries traffic again.
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 5000, 4096);
        assert_eq!(f.wire_stats(direct).bytes, 4096);
    }

    #[test]
    fn total_outage_stages_through_the_host() {
        use grit_sim::InjectConfig;
        let mut f = fabric(2);
        let cfg = InjectConfig::parse("outage@100:wire=*:for=1000").unwrap();
        f.set_fault_plan(FaultPlan::compile(&cfg, f.num_wire_links(), 2).unwrap());
        assert!(f.route_blocked(GpuId::new(0), GpuId::new(1), 500));
        let t = f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 500, 4096);
        assert!(t > 500);
        let s = f.stats();
        assert_eq!(s.wire_bytes(), 0, "no GPU wire should carry staged bytes");
        assert_eq!(s.pcie_bytes, 2 * 4096);
        // After recovery the direct wire is back.
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 5000, 4096);
        assert_eq!(f.stats().wire_bytes(), 4096);
    }

    #[test]
    fn nvlink_latency_sums_over_hops() {
        // On an idle ring every hop adds one wire's occupancy and latency.
        let transfer = |to: u8| {
            fabric_of(TopologyKind::Ring, 8).gpu_to_gpu(GpuId::new(0), GpuId::new(to), 0, 64)
        };
        let one = transfer(1);
        assert_eq!(one, LinkConfig::default().nvlink_latency + 1);
        assert_eq!(transfer(4), 4 * one);
    }

    #[test]
    fn tracer_records_every_link_class() {
        use grit_trace::TraceConfig;
        let mut f = fabric(2);
        let t = Tracer::new(TraceConfig::default());
        f.set_tracer(t.clone());
        f.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 4096);
        f.gpu_to_host(GpuId::new(0), 0, 4096);
        f.host_round_trip(GpuId::new(1), 0);
        let events = t.take_events();
        assert_eq!(events.len(), 3);
        let kinds: Vec<LinkKind> = events
            .iter()
            .map(|e| match e {
                TraceEvent::LinkTransfer { link, .. } => *link,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![LinkKind::Nvlink, LinkKind::Pcie, LinkKind::PcieCtrl]
        );
    }

    #[test]
    fn tracer_emits_one_event_per_hop_with_route_info() {
        use grit_trace::TraceConfig;
        let mut f = fabric_of(TopologyKind::Hierarchical, 8);
        let t = Tracer::new(TraceConfig::default());
        f.set_tracer(t.clone());
        let delivered = f.gpu_to_gpu(GpuId::new(0), GpuId::new(4), 0, 4096);
        let events = t.take_events();
        assert_eq!(events.len(), 3); // gpu -> router -> router -> gpu
        for (i, e) in events.iter().enumerate() {
            match e {
                TraceEvent::LinkTransfer {
                    src,
                    dst,
                    hop,
                    hops,
                    ..
                } => {
                    // Per-hop events keep the overall endpoints.
                    assert_eq!(*src, MemLoc::Gpu(GpuId::new(0)));
                    assert_eq!(*dst, MemLoc::Gpu(GpuId::new(4)));
                    assert_eq!(*hop, i as u8);
                    assert_eq!(*hops, 3);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        let kinds: Vec<LinkKind> = events
            .iter()
            .map(|e| match e {
                TraceEvent::LinkTransfer { link, .. } => *link,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![LinkKind::Switch, LinkKind::InterNode, LinkKind::Switch]
        );
        match events.last() {
            Some(TraceEvent::LinkTransfer { delivered: d, .. }) => assert_eq!(*d, delivered),
            other => panic!("unexpected event {other:?}"),
        }
    }
}
