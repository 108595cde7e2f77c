//! Component replays: each layer's public API driven with the workload's
//! own generated streams, timed from outside.
//!
//! The address streams are the generated per-GPU traces. The walk stream
//! is the replayed TLB's own misses. The fault stream is what a
//! `UvmDriver` under GRIT raises when the GPUs' accesses are merged in
//! the order of each GPU's issue clock (think time plus one cycle per
//! access, no memory stalls), and the fabric stream is the page moves
//! that fault stream implies. Streams are derived once, untimed; each
//! timed repetition then runs fresh structures over them.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grit::experiments::result_store::ResultStore;
use grit::experiments::PolicyKind;
use grit::RunOutput;
use grit_core::{GritConfig, GritPolicy};
use grit_interconnect::Fabric;
use grit_mem::{GpuMemory, Mapping, SetAssocCache, TlbHierarchy, TranslationLevel, WalkerPool};
use grit_sim::{Access, Cycle, GpuId, PageId, RunSpec, SimConfig};
use grit_uvm::{CentralPageTable, FaultInfo, FaultKind, PlacementPolicy, UvmDriver};
use grit_workloads::MultiGpuWorkload;

use crate::measure::{cell_counters, median};

/// Median ns per operation of each replayed component.
#[derive(Clone, Copy, Debug)]
pub struct ComponentNs {
    /// `TlbHierarchy::translate` (plus `fill` on a walk), per access.
    pub tlb_translate: f64,
    /// L1/L2 `SetAssocCache` get and insert, per access.
    pub cache_get_insert: f64,
    /// `WalkerPool::walk`, per TLB miss.
    pub walk: f64,
    /// `GpuMemory` touch, and insert on a miss, per access.
    pub dram_insert_touch: f64,
    /// `UvmDriver::handle_fault`, per fault.
    pub handle_fault: f64,
    /// `GritPolicy::on_fault`, per fault.
    pub on_fault: f64,
    /// `Fabric::gpu_to_gpu`, per page move.
    pub gpu_to_gpu: f64,
}

/// The derived streams of one workload.
struct Streams {
    footprint: u64,
    traces: Vec<Arc<[Access]>>,
    /// Per GPU: `(issue clock, vpn)` of each L2 TLB miss.
    walks: Vec<Vec<(Cycle, PageId)>>,
    faults: Vec<FaultInfo>,
    moves: Vec<(GpuId, GpuId, Cycle)>,
}

fn derive(w: &MultiGpuWorkload, cfg: &SimConfig) -> Streams {
    let traces: Vec<Arc<[Access]>> = w.streams.iter().map(|s| s.shared()).collect();
    let walks = traces
        .iter()
        .map(|trace| {
            let mut tlb = TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb);
            let mut clock: Cycle = 0;
            let mut walks = Vec::new();
            for a in trace.iter() {
                clock += Cycle::from(a.think) + 1;
                if tlb.translate(a.vpn).0 == TranslationLevel::Walk {
                    tlb.fill(a.vpn);
                    walks.push((clock, a.vpn));
                }
            }
            walks
        })
        .collect();

    let mut driver = UvmDriver::new(
        cfg.clone(),
        w.footprint_pages,
        PolicyKind::GRIT.build(cfg, w.footprint_pages),
    );
    let mut pos = vec![0usize; traces.len()];
    let mut clock: Vec<Cycle> = vec![0; traces.len()];
    let mut faults = Vec::new();
    while let Some(g) = (0..traces.len())
        .filter(|&g| pos[g] < traces[g].len())
        .min_by_key(|&g| (clock[g], g))
    {
        let a = traces[g][pos[g]];
        pos[g] += 1;
        clock[g] += Cycle::from(a.think) + 1;
        let gpu = GpuId::new(g as u8);
        let fault = match driver.translate(gpu, a.vpn) {
            None => FaultKind::Local,
            Some(Mapping::Replica) if a.is_write() => FaultKind::Protection,
            Some(_) => continue,
        };
        let f = FaultInfo {
            now: clock[g],
            gpu,
            vpn: a.vpn,
            kind: a.kind,
            fault,
        };
        driver.handle_fault(f);
        faults.push(f);
    }

    let mut owner: HashMap<PageId, GpuId> = HashMap::new();
    let mut moves: Vec<(GpuId, GpuId, Cycle)> = faults
        .iter()
        .filter_map(|f| match owner.insert(f.vpn, f.gpu) {
            Some(prev) if prev != f.gpu => Some((prev, f.gpu, f.now)),
            _ => None,
        })
        .collect();
    moves.sort_by_key(|m| m.2);
    Streams {
        footprint: w.footprint_pages,
        traces,
        walks,
        faults,
        moves,
    }
}

/// Times `body` over every workload's streams and returns ns per op,
/// where `body` returns the op count it performed.
fn per_op(streams: &[Streams], mut body: impl FnMut(&Streams) -> u64) -> f64 {
    let mut ops = 0u64;
    let start = Instant::now();
    for s in streams {
        ops += body(s);
    }
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Replays every component over the workloads `reps` times; medians.
pub fn components(workloads: &[MultiGpuWorkload], cfg: &SimConfig, reps: usize) -> ComponentNs {
    let streams: Vec<Streams> = workloads.iter().map(|w| derive(w, cfg)).collect();
    let mut samples: [Vec<f64>; 7] = Default::default();
    for _ in 0..reps {
        samples[0].push(per_op(&streams, |s| {
            let mut n = 0;
            for trace in &s.traces {
                let mut tlb = TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb);
                for a in trace.iter() {
                    if tlb.translate(a.vpn).0 == TranslationLevel::Walk {
                        tlb.fill(a.vpn);
                    }
                }
                black_box(&tlb);
                n += trace.len() as u64;
            }
            n
        }));
        samples[1].push(per_op(&streams, |s| {
            let mut n = 0;
            for trace in &s.traces {
                let mut l1: SetAssocCache<u64, ()> =
                    SetAssocCache::with_entries(cfg.l1_cache.entries, cfg.l1_cache.ways);
                let mut l2: SetAssocCache<u64, ()> =
                    SetAssocCache::with_entries(cfg.l2_cache.entries, cfg.l2_cache.ways);
                for a in trace.iter() {
                    let key = (a.vpn.0 << 16) | u64::from(a.line);
                    if l1.get(&key).is_some() {
                        continue;
                    }
                    if l2.get(&key).is_none() {
                        l2.insert(key, ());
                    }
                    l1.insert(key, ());
                }
                black_box((&l1, &l2));
                n += trace.len() as u64;
            }
            n
        }));
        samples[2].push(per_op(&streams, |s| {
            let mut n = 0;
            for walks in &s.walks {
                let mut pool = WalkerPool::new(cfg.walk);
                for &(now, vpn) in walks {
                    black_box(pool.walk(now, vpn));
                }
                n += walks.len() as u64;
            }
            n
        }));
        samples[3].push(per_op(&streams, |s| {
            let cap = ((s.footprint as f64 * cfg.capacity_ratio).ceil() as usize).max(1);
            let mut n = 0;
            for trace in &s.traces {
                let mut mem = GpuMemory::new(cap);
                for a in trace.iter() {
                    if !mem.touch(a.vpn) {
                        black_box(mem.insert(a.vpn));
                    }
                }
                n += trace.len() as u64;
            }
            n
        }));
        // Construction stays outside the clock for the stateful replays.
        let mut drivers: Vec<UvmDriver> = streams
            .iter()
            .map(|s| {
                UvmDriver::new(
                    cfg.clone(),
                    s.footprint,
                    PolicyKind::GRIT.build(cfg, s.footprint),
                )
            })
            .collect();
        let mut it = drivers.iter_mut();
        samples[4].push(per_op(&streams, |s| {
            let driver = it.next().expect("one driver per workload");
            for f in &s.faults {
                black_box(driver.handle_fault(*f));
            }
            s.faults.len() as u64
        }));
        let mut policies: Vec<(GritPolicy, CentralPageTable)> = streams
            .iter()
            .map(|s| {
                (
                    GritPolicy::new(GritConfig::full(cfg), s.footprint),
                    CentralPageTable::new(),
                )
            })
            .collect();
        let mut it = policies.iter_mut();
        samples[5].push(per_op(&streams, |s| {
            let (policy, table) = it.next().expect("one policy per workload");
            for f in &s.faults {
                let state = table.note_fault(f.gpu, f.vpn, f.kind.is_write());
                black_box(policy.on_fault(f, &state, table));
            }
            s.faults.len() as u64
        }));
        let mut fabrics: Vec<Fabric> = streams
            .iter()
            .map(|_| Fabric::with_topology(cfg.num_gpus, cfg.links, cfg.topology))
            .collect();
        let mut it = fabrics.iter_mut();
        samples[6].push(per_op(&streams, |s| {
            let fabric = it.next().expect("one fabric per workload");
            for &(src, dst, now) in &s.moves {
                black_box(fabric.gpu_to_gpu(src, dst, now, cfg.page_size));
            }
            s.moves.len() as u64
        }));
    }
    ComponentNs {
        tlb_translate: median(&samples[0]),
        cache_get_insert: median(&samples[1]),
        walk: median(&samples[2]),
        dram_insert_touch: median(&samples[3]),
        handle_fault: median(&samples[4]),
        on_fault: median(&samples[5]),
        gpu_to_gpu: median(&samples[6]),
    }
}

/// Median µs per `ResultStore::save` and per `ResultStore::load` over
/// `entries`, each repetition in a fresh store under `dir`. Every load
/// must return the saved counters.
pub fn store_us(
    dir: &Path,
    entries: &[(String, &RunOutput)],
    reps: usize,
) -> Result<(f64, f64), String> {
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    let n = entries.len().max(1) as f64;
    for r in 0..reps {
        let store = ResultStore::open(&dir.join(format!("store-replay-{r}")))
            .map_err(|e| format!("open replay store: {e}"))?;
        let start = Instant::now();
        for (key, out) in entries {
            store.save(key, out).map_err(|e| format!("store save: {e}"))?;
        }
        saves.push(start.elapsed().as_secs_f64() * 1e6 / n);
        let start = Instant::now();
        let loaded: Vec<Option<RunOutput>> = entries.iter().map(|(k, _)| store.load(k)).collect();
        loads.push(start.elapsed().as_secs_f64() * 1e6 / n);
        for ((key, out), back) in entries.iter().zip(&loaded) {
            match back {
                Some(back) if cell_counters(back) == cell_counters(out) => {}
                _ => return Err(format!("store round trip changed the cell {key}")),
            }
        }
    }
    Ok((median(&saves), median(&loads)))
}

/// Median µs per `grit::service::run_spec` on specs already stored under
/// `store_dir` (the hit path, without the wire).
pub fn run_spec_hit_us(store_dir: &Path, specs: &[RunSpec], reps: usize) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        for spec in specs {
            let res = grit::service::run_spec(spec, Some(store_dir), None, None)
                .map_err(|e| format!("run_spec: {e:?}"))?;
            if !res.store_hit {
                return Err(format!(
                    "run_spec missed the store for {}",
                    spec.canonical()
                ));
            }
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6 / specs.len().max(1) as f64);
    }
    Ok(median(&samples))
}
