//! The event taxonomy: one enum variant per virtual-memory action, plus
//! category names and filter masks.
//!
//! Events are emitted at the exact sites the corresponding
//! `grit_metrics::FaultCounters` fields increment, so with an unfiltered,
//! unsampled tracer the per-category event counts equal the printed
//! counters. The JSONL encoding is one compact object per line with a
//! `"type"` discriminant; see `tests/golden_jsonl.rs` for the frozen schema.

use crate::json::Json;
use grit_pagesize::SplinterCause;
use grit_sim::{Cycle, GpuId, InjectedKind, MemLoc, PageId, Scheme};

/// Version tag of the JSONL event schema.
///
/// `v1` (implicit, pre-topology) had single-hop link transfers only.
/// `v2` adds the optional `hop`/`hops` route fields on `link-transfer`
/// lines and the `switch`/`inter-node` link classes; both are emitted only
/// for multi-hop routed fabrics, so a default all-to-all trace is
/// byte-identical to `v1` and `v1` readers keep working on it.
/// `v3` adds four fault-injection event types (`fault-injected`,
/// `recovered`, `migration-retried`, `fallback-remote`), emitted only when
/// a fault plan is installed; no pre-existing line shape changes, so `v2`
/// readers keep working on every uninjected trace.
/// `v4` adds two multi-page-size event types (`page-coalesced`,
/// `page-splintered`), emitted only when large pages are enabled
/// (`page_size_mode` other than `uniform4k`); no pre-existing line shape
/// changes, so `v3` readers keep working on every uniform-4 KB trace.
pub const TRACE_SCHEMA: &str = "grit-trace/v4";

/// One structured, cycle-stamped simulator event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A GPU took a far-fault (local) or protection fault on `vpn`.
    Fault {
        /// Cycle the fault reached the UVM driver.
        cycle: Cycle,
        /// Faulting GPU.
        gpu: GpuId,
        /// Faulting virtual page.
        vpn: PageId,
        /// Local (far) fault vs. write-protection fault.
        kind: FaultClass,
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// `vpn` migrated into `gpu`'s memory from `from`.
    Migration {
        /// Cycle the migration was initiated.
        cycle: Cycle,
        /// Destination GPU.
        gpu: GpuId,
        /// Migrated page.
        vpn: PageId,
        /// Previous owner (a GPU or the host).
        from: MemLoc,
    },
    /// A read-shared replica of `vpn` was created in `gpu`'s memory.
    Duplication {
        /// Cycle the duplication was initiated.
        cycle: Cycle,
        /// GPU receiving the replica.
        gpu: GpuId,
        /// Duplicated page.
        vpn: PageId,
        /// Source copy the replica was filled from.
        from: MemLoc,
    },
    /// A write collapsed `vpn`'s replicas back to a single exclusive copy.
    Collapse {
        /// Cycle of the collapsing write fault.
        cycle: Cycle,
        /// GPU that keeps the exclusive copy.
        gpu: GpuId,
        /// Collapsed page.
        vpn: PageId,
        /// Number of replica holders invalidated (excluding the writer).
        holders: u8,
    },
    /// Inserting a page evicted a victim from `gpu`'s memory.
    Eviction {
        /// Cycle of the insertion that caused the eviction.
        cycle: Cycle,
        /// GPU whose memory overflowed.
        gpu: GpuId,
        /// Evicted victim page.
        vpn: PageId,
    },
    /// GRIT re-classified `vpn` under a different placement scheme.
    SchemeChange {
        /// Cycle of the fault that triggered the change.
        cycle: Cycle,
        /// Faulting GPU that triggered the re-classification.
        gpu: GpuId,
        /// Re-classified page.
        vpn: PageId,
        /// The scheme now in effect for the page.
        scheme: Scheme,
    },
    /// `bytes` moved over an interconnect link — one event per hop of the
    /// route (a direct transfer is a single hop).
    LinkTransfer {
        /// Cycle this hop was submitted to its wire (for hop 0, the cycle
        /// the transfer was requested).
        cycle: Cycle,
        /// Which link class carried this hop.
        link: LinkKind,
        /// Source endpoint of the whole transfer.
        src: MemLoc,
        /// Destination endpoint of the whole transfer.
        dst: MemLoc,
        /// Payload size in bytes.
        bytes: u64,
        /// Cycle the last byte arrives at this hop's far end (after
        /// queueing + serialization).
        delivered: Cycle,
        /// Zero-based hop index within the route (`0` for direct links).
        hop: u8,
        /// Total hops in the route (`1` for direct links). The JSON form
        /// omits `hop`/`hops` when `hops == 1`, keeping single-hop lines
        /// identical to the pre-topology schema.
        hops: u8,
    },
    /// An injected hardware fault window began (v3, emitted only when a
    /// fault plan is installed).
    FaultInjected {
        /// Cycle the fault became active.
        cycle: Cycle,
        /// What kind of fault was injected.
        kind: InjectedKind,
        /// Affected wire (link id), for link-level faults.
        wire: Option<u32>,
        /// Affected GPU, for GPU-level faults (retirement, storms).
        gpu: Option<GpuId>,
    },
    /// An injected fault window ended and the component recovered (v3).
    Recovered {
        /// Cycle the fault window closed.
        cycle: Cycle,
        /// What kind of fault recovered.
        kind: InjectedKind,
        /// Affected wire (link id), for link-level faults.
        wire: Option<u32>,
        /// Affected GPU, for GPU-level faults.
        gpu: Option<GpuId>,
    },
    /// A migration blocked by an injected outage retried after backoff
    /// (v3).
    MigrationRetried {
        /// Cycle the retry was scheduled.
        cycle: Cycle,
        /// GPU whose migration was blocked.
        gpu: GpuId,
        /// Page whose migration was blocked.
        vpn: PageId,
        /// One-based retry attempt number.
        attempt: u8,
    },
    /// A blocked migration exhausted its retries and fell back: the page
    /// stayed remote, or was staged through host memory (v3).
    FallbackRemote {
        /// Cycle of the fallback decision.
        cycle: Cycle,
        /// GPU that gave up migrating the page in.
        gpu: GpuId,
        /// Page left remote or host-staged.
        vpn: PageId,
        /// `true` if the page was staged through host memory (dirty
        /// pages), `false` if it stayed with the remote owner.
        staged: bool,
    },
    /// A fully-private, fully-resident 2 MB frame was coalesced into one
    /// large mapping (v4, emitted only when large pages are enabled).
    PageCoalesced {
        /// Cycle the driver promoted the frame.
        cycle: Cycle,
        /// GPU owning the coalesced frame.
        gpu: GpuId,
        /// First base page of the frame.
        vpn: PageId,
    },
    /// A coalesced 2 MB frame was splintered back to base pages (v4).
    PageSplintered {
        /// Cycle the driver demoted the frame.
        cycle: Cycle,
        /// GPU that owned the frame before the split.
        gpu: GpuId,
        /// First base page of the frame.
        vpn: PageId,
        /// Why the frame splintered.
        cause: SplinterCause,
    },
}

/// Fault classification mirroring `grit_uvm::FaultKind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Far fault: the page was not mapped locally.
    Local,
    /// Write-protection fault on a read-duplicated page.
    Protection,
}

impl FaultClass {
    /// Stable JSON name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Local => "local",
            FaultClass::Protection => "protection",
        }
    }
}

/// Which interconnect link class carried a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// GPU↔GPU NVLink.
    Nvlink,
    /// GPU↔switch uplink or switch↔switch trunk of a routed fabric.
    Switch,
    /// Inter-node bottleneck link of a hierarchical fabric.
    InterNode,
    /// GPU↔host PCIe data path.
    Pcie,
    /// GPU↔host PCIe control path (fault messages, invalidations).
    PcieCtrl,
}

impl LinkKind {
    /// Stable JSON name.
    pub fn name(self) -> &'static str {
        match self {
            LinkKind::Nvlink => "nvlink",
            LinkKind::Switch => "switch",
            LinkKind::InterNode => "inter-node",
            LinkKind::Pcie => "pcie",
            LinkKind::PcieCtrl => "pcie-ctrl",
        }
    }
}

/// Event category, used for filtering and as the JSON `"type"` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// [`TraceEvent::Fault`].
    Fault,
    /// [`TraceEvent::Migration`].
    Migration,
    /// [`TraceEvent::Duplication`].
    Duplication,
    /// [`TraceEvent::Collapse`].
    Collapse,
    /// [`TraceEvent::Eviction`].
    Eviction,
    /// [`TraceEvent::SchemeChange`].
    SchemeChange,
    /// [`TraceEvent::LinkTransfer`].
    LinkTransfer,
    /// [`TraceEvent::FaultInjected`].
    FaultInjected,
    /// [`TraceEvent::Recovered`].
    Recovered,
    /// [`TraceEvent::MigrationRetried`].
    MigrationRetried,
    /// [`TraceEvent::FallbackRemote`].
    FallbackRemote,
    /// [`TraceEvent::PageCoalesced`].
    PageCoalesced,
    /// [`TraceEvent::PageSplintered`].
    PageSplintered,
}

impl EventCategory {
    /// All categories, in bit order.
    pub const ALL: [EventCategory; 13] = [
        EventCategory::Fault,
        EventCategory::Migration,
        EventCategory::Duplication,
        EventCategory::Collapse,
        EventCategory::Eviction,
        EventCategory::SchemeChange,
        EventCategory::LinkTransfer,
        EventCategory::FaultInjected,
        EventCategory::Recovered,
        EventCategory::MigrationRetried,
        EventCategory::FallbackRemote,
        EventCategory::PageCoalesced,
        EventCategory::PageSplintered,
    ];

    /// Stable name used in JSON `"type"` fields and `--trace-filter` lists.
    pub fn name(self) -> &'static str {
        match self {
            EventCategory::Fault => "fault",
            EventCategory::Migration => "migration",
            EventCategory::Duplication => "duplication",
            EventCategory::Collapse => "collapse",
            EventCategory::Eviction => "eviction",
            EventCategory::SchemeChange => "scheme-change",
            EventCategory::LinkTransfer => "link-transfer",
            EventCategory::FaultInjected => "fault-injected",
            EventCategory::Recovered => "recovered",
            EventCategory::MigrationRetried => "migration-retried",
            EventCategory::FallbackRemote => "fallback-remote",
            EventCategory::PageCoalesced => "page-coalesced",
            EventCategory::PageSplintered => "page-splintered",
        }
    }

    /// Parses a category name (the inverse of [`EventCategory::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        EventCategory::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Index of this category's bit in a [`CategoryMask`] (also the slot in
    /// per-category counter arrays).
    pub fn bit(self) -> usize {
        EventCategory::ALL.iter().position(|c| *c == self).expect("category in ALL")
    }
}

/// A set of [`EventCategory`] values, used to filter emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CategoryMask(u16);

impl CategoryMask {
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask(0x1fff);
    /// No category enabled.
    pub const NONE: CategoryMask = CategoryMask(0);

    /// This mask with `cat` also enabled.
    pub fn with(self, cat: EventCategory) -> CategoryMask {
        CategoryMask(self.0 | 1 << cat.bit())
    }

    /// Whether `cat` is enabled.
    pub fn contains(self, cat: EventCategory) -> bool {
        self.0 & (1 << cat.bit()) != 0
    }

    /// Parses a comma-separated category list, e.g.
    /// `"fault,migration,link-transfer"`.
    ///
    /// # Errors
    ///
    /// Returns the first unknown name.
    pub fn parse(list: &str) -> Result<CategoryMask, String> {
        let mut mask = CategoryMask::NONE;
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let cat = EventCategory::parse(part)
                .ok_or_else(|| format!("unknown trace category: {part:?}"))?;
            mask = mask.with(cat);
        }
        Ok(mask)
    }
}

impl Default for CategoryMask {
    fn default() -> Self {
        CategoryMask::ALL
    }
}

fn loc_to_json(loc: MemLoc) -> Json {
    match loc {
        MemLoc::Gpu(g) => Json::UInt(g.index() as u64),
        MemLoc::Host => Json::Str("host".into()),
    }
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> EventCategory {
        match self {
            TraceEvent::Fault { .. } => EventCategory::Fault,
            TraceEvent::Migration { .. } => EventCategory::Migration,
            TraceEvent::Duplication { .. } => EventCategory::Duplication,
            TraceEvent::Collapse { .. } => EventCategory::Collapse,
            TraceEvent::Eviction { .. } => EventCategory::Eviction,
            TraceEvent::SchemeChange { .. } => EventCategory::SchemeChange,
            TraceEvent::LinkTransfer { .. } => EventCategory::LinkTransfer,
            TraceEvent::FaultInjected { .. } => EventCategory::FaultInjected,
            TraceEvent::Recovered { .. } => EventCategory::Recovered,
            TraceEvent::MigrationRetried { .. } => EventCategory::MigrationRetried,
            TraceEvent::FallbackRemote { .. } => EventCategory::FallbackRemote,
            TraceEvent::PageCoalesced { .. } => EventCategory::PageCoalesced,
            TraceEvent::PageSplintered { .. } => EventCategory::PageSplintered,
        }
    }

    /// The event's cycle stamp.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Fault { cycle, .. }
            | TraceEvent::Migration { cycle, .. }
            | TraceEvent::Duplication { cycle, .. }
            | TraceEvent::Collapse { cycle, .. }
            | TraceEvent::Eviction { cycle, .. }
            | TraceEvent::SchemeChange { cycle, .. }
            | TraceEvent::LinkTransfer { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. }
            | TraceEvent::Recovered { cycle, .. }
            | TraceEvent::MigrationRetried { cycle, .. }
            | TraceEvent::FallbackRemote { cycle, .. }
            | TraceEvent::PageCoalesced { cycle, .. }
            | TraceEvent::PageSplintered { cycle, .. } => cycle,
        }
    }

    /// Encodes the event as one compact JSON object (the JSONL line format).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("type".into(), Json::Str(self.category().name().into())),
            ("cycle".into(), Json::UInt(self.cycle())),
        ];
        match *self {
            TraceEvent::Fault {
                gpu,
                vpn,
                kind,
                write,
                ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("kind".into(), Json::Str(kind.name().into())));
                fields.push(("write".into(), Json::Bool(write)));
            }
            TraceEvent::Migration { gpu, vpn, from, .. } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("from".into(), loc_to_json(from)));
            }
            TraceEvent::Duplication { gpu, vpn, from, .. } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("from".into(), loc_to_json(from)));
            }
            TraceEvent::Collapse {
                gpu, vpn, holders, ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("holders".into(), Json::UInt(u64::from(holders))));
            }
            TraceEvent::Eviction { gpu, vpn, .. } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
            }
            TraceEvent::SchemeChange {
                gpu, vpn, scheme, ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("scheme".into(), Json::Str(scheme.to_string())));
            }
            TraceEvent::LinkTransfer {
                link,
                src,
                dst,
                bytes,
                delivered,
                hop,
                hops,
                ..
            } => {
                fields.push(("link".into(), Json::Str(link.name().into())));
                fields.push(("src".into(), loc_to_json(src)));
                fields.push(("dst".into(), loc_to_json(dst)));
                fields.push(("bytes".into(), Json::UInt(bytes)));
                fields.push(("delivered".into(), Json::UInt(delivered)));
                // Route fields appear only on multi-hop fabrics so the
                // default single-hop schema stays byte-identical to v1.
                if hops > 1 {
                    fields.push(("hop".into(), Json::UInt(u64::from(hop))));
                    fields.push(("hops".into(), Json::UInt(u64::from(hops))));
                }
            }
            TraceEvent::FaultInjected {
                kind, wire, gpu, ..
            }
            | TraceEvent::Recovered {
                kind, wire, gpu, ..
            } => {
                fields.push(("kind".into(), Json::Str(kind.name().into())));
                if let Some(w) = wire {
                    fields.push(("wire".into(), Json::UInt(u64::from(w))));
                }
                if let Some(g) = gpu {
                    fields.push(("gpu".into(), Json::UInt(g.index() as u64)));
                }
            }
            TraceEvent::MigrationRetried {
                gpu, vpn, attempt, ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("attempt".into(), Json::UInt(u64::from(attempt))));
            }
            TraceEvent::FallbackRemote {
                gpu, vpn, staged, ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("staged".into(), Json::Bool(staged)));
            }
            TraceEvent::PageCoalesced { gpu, vpn, .. } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
            }
            TraceEvent::PageSplintered {
                gpu, vpn, cause, ..
            } => {
                fields.push(("gpu".into(), Json::UInt(gpu.index() as u64)));
                fields.push(("vpn".into(), Json::UInt(vpn.vpn())));
                fields.push(("cause".into(), Json::Str(cause.name().into())));
            }
        }
        Json::Obj(fields)
    }
}

/// Renders events as JSONL: one compact object per line, trailing newline.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_round_trip() {
        for cat in EventCategory::ALL {
            assert_eq!(EventCategory::parse(cat.name()), Some(cat));
        }
        assert_eq!(EventCategory::parse("bogus"), None);
    }

    #[test]
    fn mask_parse_and_contains() {
        let m = CategoryMask::parse("fault, link-transfer").unwrap();
        assert!(m.contains(EventCategory::Fault));
        assert!(m.contains(EventCategory::LinkTransfer));
        assert!(!m.contains(EventCategory::Migration));
        assert!(CategoryMask::parse("fault,nope").is_err());
        assert_eq!(CategoryMask::parse("").unwrap(), CategoryMask::NONE);
        for cat in EventCategory::ALL {
            assert!(CategoryMask::ALL.contains(cat));
            assert!(!CategoryMask::NONE.contains(cat));
        }
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = [
            TraceEvent::Fault {
                cycle: 1,
                gpu: GpuId::new(0),
                vpn: PageId(7),
                kind: FaultClass::Protection,
                write: true,
            },
            TraceEvent::Migration {
                cycle: 2,
                gpu: GpuId::new(1),
                vpn: PageId(8),
                from: MemLoc::Host,
            },
            TraceEvent::Duplication {
                cycle: 3,
                gpu: GpuId::new(2),
                vpn: PageId(9),
                from: MemLoc::Gpu(GpuId::new(0)),
            },
            TraceEvent::Collapse {
                cycle: 4,
                gpu: GpuId::new(3),
                vpn: PageId(10),
                holders: 2,
            },
            TraceEvent::Eviction {
                cycle: 5,
                gpu: GpuId::new(0),
                vpn: PageId(11),
            },
            TraceEvent::SchemeChange {
                cycle: 6,
                gpu: GpuId::new(1),
                vpn: PageId(12),
                scheme: Scheme::Duplication,
            },
            TraceEvent::LinkTransfer {
                cycle: 7,
                link: LinkKind::PcieCtrl,
                src: MemLoc::Host,
                dst: MemLoc::Gpu(GpuId::new(3)),
                bytes: 64,
                delivered: 99,
                hop: 0,
                hops: 1,
            },
            TraceEvent::LinkTransfer {
                cycle: 8,
                link: LinkKind::Switch,
                src: MemLoc::Gpu(GpuId::new(0)),
                dst: MemLoc::Gpu(GpuId::new(5)),
                bytes: 4096,
                delivered: 120,
                hop: 1,
                hops: 3,
            },
            TraceEvent::LinkTransfer {
                cycle: 9,
                link: LinkKind::InterNode,
                src: MemLoc::Gpu(GpuId::new(1)),
                dst: MemLoc::Gpu(GpuId::new(6)),
                bytes: 4096,
                delivered: 300,
                hop: 1,
                hops: 3,
            },
            TraceEvent::FaultInjected {
                cycle: 10,
                kind: InjectedKind::Outage,
                wire: Some(3),
                gpu: None,
            },
            TraceEvent::FaultInjected {
                cycle: 11,
                kind: InjectedKind::Storm,
                wire: None,
                gpu: Some(GpuId::new(2)),
            },
            TraceEvent::Recovered {
                cycle: 12,
                kind: InjectedKind::Degrade,
                wire: Some(0),
                gpu: None,
            },
            TraceEvent::MigrationRetried {
                cycle: 13,
                gpu: GpuId::new(1),
                vpn: PageId(77),
                attempt: 2,
            },
            TraceEvent::FallbackRemote {
                cycle: 14,
                gpu: GpuId::new(0),
                vpn: PageId(78),
                staged: true,
            },
            TraceEvent::PageCoalesced {
                cycle: 15,
                gpu: GpuId::new(2),
                vpn: PageId(512),
            },
            TraceEvent::PageSplintered {
                cycle: 16,
                gpu: GpuId::new(2),
                vpn: PageId(512),
                cause: SplinterCause::FalseSharing,
            },
        ];
        for ev in events {
            let j = ev.to_json();
            assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
            assert_eq!(
                j.get("type").and_then(Json::as_str),
                Some(ev.category().name())
            );
            assert_eq!(j.get("cycle").and_then(Json::as_u64), Some(ev.cycle()));
        }
    }

    #[test]
    fn single_hop_link_transfer_omits_route_fields() {
        let ev = TraceEvent::LinkTransfer {
            cycle: 7,
            link: LinkKind::Nvlink,
            src: MemLoc::Gpu(GpuId::new(0)),
            dst: MemLoc::Gpu(GpuId::new(1)),
            bytes: 64,
            delivered: 99,
            hop: 0,
            hops: 1,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"type":"link-transfer","cycle":7,"link":"nvlink","src":0,"dst":1,"bytes":64,"delivered":99}"#,
            "v1 compatibility broken"
        );
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let events = [TraceEvent::Eviction {
            cycle: 5,
            gpu: GpuId::new(0),
            vpn: PageId(11),
        }; 3];
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            assert_eq!(Json::parse(line).unwrap(), events[0].to_json());
        }
    }
}
