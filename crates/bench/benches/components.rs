//! Micro-benchmarks of the simulator's hot structures: the per-access data
//! path (TLB, walker, L2 cache keys), GRIT's PA-Cache, NAP group
//! operations, LRU memory, trace generation and a small end-to-end run.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use grit::experiments::PolicyKind;
use grit::Simulation;
use grit_core::{GritConfig, Nap, PaStore};
use grit_mem::{GpuMemory, SetAssocCache, TlbHierarchy, WalkerPool};
use grit_sim::{PageId, Scheme, SimConfig};
use grit_uvm::CentralPageTable;
use grit_workloads::{App, WorkloadBuilder};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/cache");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("set_assoc_insert_get", |b| {
        let mut cache: SetAssocCache<u64, u32> = SetAssocCache::with_entries(4096, 16);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            cache.insert(k % 8192, 1);
            black_box(cache.get(&(k % 8192)));
        })
    });
    g.bench_function("tlb_hierarchy_translate", |b| {
        let cfg = SimConfig::default();
        let mut tlb = TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 17) % 1024;
            let (level, lat) = tlb.translate(PageId(p));
            tlb.fill(PageId(p));
            black_box((level, lat));
        })
    });
    g.bench_function("walker_pool_walk", |b| {
        let mut w = WalkerPool::new(SimConfig::default().walk);
        let mut now = 0u64;
        let mut p = 0u64;
        b.iter(|| {
            // Advance time faster than walks complete so the outstanding
            // queue drains (a realistic arrival rate for one GPU).
            now += 500;
            p = (p + 97) % 100_000;
            black_box(w.walk(now, PageId(p)));
        })
    });
    g.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/memory");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("gpu_memory_insert_touch", |b| {
        let mut m = GpuMemory::new(10_000);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 131) % 20_000;
            black_box(m.insert(PageId(p)));
            black_box(m.touch(PageId(p / 2)));
        })
    });
    g.finish();
}

fn bench_grit_structures(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/grit");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("pa_store_record_fault", |b| {
        let mut s = PaStore::new(true, 2, 200, 4096);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 7) % 4096;
            let (e, lat) = s.record_fault(PageId(p), p.is_multiple_of(3));
            if e.faults >= 4 {
                s.delete(PageId(p));
            }
            black_box(lat);
        })
    });
    g.bench_function("nap_scheme_change", |b| {
        let mut table = CentralPageTable::new();
        let mut nap = Nap::new(8_192);
        let mut p = 0u64;
        let mut flip = false;
        b.iter(|| {
            p = (p + 13) % 8_192;
            flip = !flip;
            let new = if flip {
                Scheme::Duplication
            } else {
                Scheme::AccessCounter
            };
            let prev = table.scheme_of(PageId(p));
            if prev != Some(new) {
                table.set_scheme(PageId(p), new);
                nap.on_scheme_change(&mut table, PageId(p), new, prev);
            }
        })
    });
    g.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/workloads");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    for app in [App::Gemm, App::St, App::Bfs] {
        g.bench_function(format!("generate_{}", app.abbr()), |b| {
            b.iter(|| {
                black_box(WorkloadBuilder::new(app).scale(0.03).intensity(1.0).seed(1).build())
            })
        });
    }
    g.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/system");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("full_run_gemm_grit_small", |b| {
        b.iter(|| {
            let cfg = SimConfig::default();
            let w = WorkloadBuilder::new(App::Gemm).scale(0.02).intensity(1.0).seed(1).build();
            let p = PolicyKind::GRIT.build(&cfg, w.footprint_pages);
            black_box(
                Simulation::try_new(cfg, w, p).unwrap().try_run().unwrap().metrics.total_cycles,
            )
        })
    });
    g.bench_function("full_run_st_on_touch_small", |b| {
        b.iter(|| {
            let cfg = SimConfig::default();
            let w = WorkloadBuilder::new(App::St).scale(0.02).intensity(1.0).seed(1).build();
            let p = PolicyKind::Static(Scheme::OnTouch).build(&cfg, w.footprint_pages);
            black_box(
                Simulation::try_new(cfg, w, p).unwrap().try_run().unwrap().metrics.total_cycles,
            )
        })
    });
    g.finish();
}

fn bench_fabric(c: &mut Criterion) {
    use grit_interconnect::Fabric;
    use grit_sim::{GpuId, LinkConfig, TopologyConfig, TopologyKind};
    let mut g = c.benchmark_group("components/fabric");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    // The routed-transfer hot path: one gpu_to_gpu booking per iteration,
    // cycling through every GPU pair of an 8-GPU fabric. Single-hop on
    // the default all-to-all; multi-hop (route walk + per-hop booking) on
    // the shared-wire topologies.
    for kind in [
        TopologyKind::AllToAll,
        TopologyKind::NvSwitch,
        TopologyKind::Ring,
        TopologyKind::Hierarchical,
    ] {
        g.bench_function(
            format!("gpu_to_gpu_{}", TopologyConfig::of(kind).name()),
            |b| {
                let mut f =
                    Fabric::with_topology(8, LinkConfig::default(), TopologyConfig::of(kind));
                let pairs: Vec<(GpuId, GpuId)> = (0..8u8)
                    .flat_map(|a| ((a + 1)..8).map(move |b| (GpuId::new(a), GpuId::new(b))))
                    .collect();
                let mut i = 0usize;
                let mut now = 0u64;
                b.iter(|| {
                    let (src, dst) = pairs[i % pairs.len()];
                    i += 1;
                    now += 200;
                    black_box(f.gpu_to_gpu(src, dst, now, 4096));
                })
            },
        );
    }
    g.bench_function("fabric_build_nvswitch_16", |b| {
        b.iter(|| {
            black_box(Fabric::with_topology(
                16,
                LinkConfig::default(),
                TopologyConfig::of(TopologyKind::NvSwitch),
            ))
        })
    });
    g.finish();
}

fn bench_grit_policy_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/policy");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("grit_policy_on_fault", |b| {
        use grit_sim::{AccessKind, GpuId};
        use grit_uvm::{FaultInfo, FaultKind, PlacementPolicy};
        let cfg = SimConfig::default();
        let mut policy = grit_core::GritPolicy::new(GritConfig::full(&cfg), 65_536);
        let mut table = CentralPageTable::new();
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 3) % 65_536;
            let gpu = GpuId::new((p % 4) as u8);
            let fault = FaultInfo {
                now: p,
                gpu,
                vpn: PageId(p),
                kind: if p.is_multiple_of(5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                fault: FaultKind::Local,
            };
            let state = table.note_fault(gpu, PageId(p), fault.kind.is_write());
            black_box(policy.on_fault(&fault, &state, &mut table));
        })
    });
    g.finish();
}

criterion_group! {
    name = components;
    config = Criterion::default().without_plots();
    targets = bench_cache,
        bench_memory,
        bench_grit_structures,
        bench_workloads,
        bench_system,
        bench_fabric,
        bench_grit_policy_end_to_end
}
criterion_main!(components);
