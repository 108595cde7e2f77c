//! Machine-readable run reports.
//!
//! `run_report.json` is assembled as a [`Json`] document by the code that
//! records it (the experiment layer's report sink). This module holds the
//! parts of that document other code also reads or writes: the per-cell
//! metrics object, which the result store reads back through
//! [`metrics_from_json`]; the cycle-domain part of the `profile` object
//! ([`CycleProfile`]); and the `store` counters. Like the rest of the
//! report, the `profile` object is only written here: `repro profile`
//! reads it through [`Json::get`].

use std::collections::HashMap;

use grit_metrics::{
    FaultCounters, LatencyBreakdown, LatencyClass, LatencyHistogram, RunMetrics, SchemeMix,
};

use crate::json::Json;

/// Schema tag written into every `run_report.json`; v9 writes each per-layer
/// counter once, as an aux series of the cell's metrics.
pub const RUN_REPORT_SCHEMA: &str = "grit-run-report/v9";

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?.as_u64().ok_or_else(|| format!("field {key:?} is not an integer"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

fn faults_to_json(f: &FaultCounters) -> Json {
    Json::Obj(vec![
        ("local_faults".into(), Json::UInt(f.local_faults)),
        ("protection_faults".into(), Json::UInt(f.protection_faults)),
        ("migrations".into(), Json::UInt(f.migrations)),
        ("duplications".into(), Json::UInt(f.duplications)),
        ("collapses".into(), Json::UInt(f.collapses)),
        ("evictions".into(), Json::UInt(f.evictions)),
        ("scheme_changes".into(), Json::UInt(f.scheme_changes)),
        // Derived, for human readers; ignored when parsing.
        ("total_faults".into(), Json::UInt(f.total_faults())),
    ])
}

fn faults_from_json(v: &Json) -> Result<FaultCounters, String> {
    Ok(FaultCounters {
        local_faults: req_u64(v, "local_faults")?,
        protection_faults: req_u64(v, "protection_faults")?,
        migrations: req_u64(v, "migrations")?,
        duplications: req_u64(v, "duplications")?,
        collapses: req_u64(v, "collapses")?,
        evictions: req_u64(v, "evictions")?,
        scheme_changes: req_u64(v, "scheme_changes")?,
    })
}

/// Wall-clock timing of one cell, split into workload build and simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellTiming {
    /// Seconds spent obtaining the workload (≈0 on a cache hit).
    pub build_seconds: f64,
    /// Seconds spent inside `Simulation::run`.
    pub sim_seconds: f64,
    /// Whether the workload came from the process-wide cache.
    pub workload_cache_hit: bool,
    /// Whether the cell was loaded from an on-disk resume store rather
    /// than simulated in this process.
    pub resumed: bool,
}

/// Serializes a cell's metrics to the object form stored in
/// `run_report.json` and in result-store files. Aux series are sorted by
/// name, so two identical runs serialize identically.
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    let breakdown = Json::Obj(
        LatencyClass::ALL
            .iter()
            .map(|&c| (c.label().to_string(), Json::UInt(m.breakdown.get(c))))
            .collect(),
    );
    let scheme_mix = Json::Obj(vec![
        ("on_touch".into(), Json::UInt(m.scheme_mix.on_touch)),
        (
            "access_counter".into(),
            Json::UInt(m.scheme_mix.access_counter),
        ),
        ("duplication".into(), Json::UInt(m.scheme_mix.duplication)),
    ]);
    let mut aux: Vec<(&String, &Vec<f64>)> = m.aux.iter().collect();
    aux.sort_by(|a, b| a.0.cmp(b.0));
    let aux = Json::Obj(
        aux.into_iter()
            .map(|(k, vs)| {
                (
                    k.clone(),
                    Json::Arr(vs.iter().map(|&v| Json::Float(v)).collect()),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("total_cycles".into(), Json::UInt(m.total_cycles)),
        ("accesses".into(), Json::UInt(m.accesses)),
        ("local_accesses".into(), Json::UInt(m.local_accesses)),
        ("remote_accesses".into(), Json::UInt(m.remote_accesses)),
        ("breakdown".into(), breakdown),
        ("faults".into(), faults_to_json(&m.faults)),
        ("scheme_mix".into(), scheme_mix),
        ("nvlink_bytes".into(), Json::UInt(m.nvlink_bytes)),
        ("pcie_bytes".into(), Json::UInt(m.pcie_bytes)),
        (
            "oversubscription_rate".into(),
            Json::Float(m.oversubscription_rate),
        ),
        ("aux".into(), aux),
    ])
}

/// Parses the object form produced by [`metrics_to_json`]. Unknown keys
/// are ignored.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn metrics_from_json(v: &Json) -> Result<RunMetrics, String> {
    let bd = req(v, "breakdown")?;
    let mut breakdown = LatencyBreakdown::default();
    for class in LatencyClass::ALL {
        breakdown.record(class, req_u64(bd, class.label())?);
    }
    let sm = req(v, "scheme_mix")?;
    let aux_obj = req(v, "aux")?.as_obj().ok_or("field \"aux\" is not an object")?;
    let mut aux = HashMap::with_capacity(aux_obj.len());
    for (k, vs) in aux_obj {
        let vs = vs.as_arr().ok_or_else(|| format!("aux series {k:?} is not an array"))?;
        let series: Result<Vec<f64>, String> = vs
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("aux series {k:?} has a non-number")))
            .collect();
        aux.insert(k.clone(), series?);
    }
    Ok(RunMetrics {
        total_cycles: req_u64(v, "total_cycles")?,
        accesses: req_u64(v, "accesses")?,
        local_accesses: req_u64(v, "local_accesses")?,
        remote_accesses: req_u64(v, "remote_accesses")?,
        breakdown,
        faults: faults_from_json(req(v, "faults")?)?,
        scheme_mix: SchemeMix {
            on_touch: req_u64(sm, "on_touch")?,
            access_counter: req_u64(sm, "access_counter")?,
            duplication: req_u64(sm, "duplication")?,
        },
        nvlink_bytes: req_u64(v, "nvlink_bytes")?,
        pcie_bytes: req_u64(v, "pcie_bytes")?,
        oversubscription_rate: req_f64(v, "oversubscription_rate")?,
        aux,
    })
}

/// The report object of one cycle-domain histogram: sample statistics
/// plus the non-empty power-of-two buckets as `[lower_bound, count]` pairs.
fn hist_to_json(h: &LatencyHistogram) -> Json {
    let buckets = h.iter().map(|(lb, c)| Json::Arr(vec![Json::UInt(lb), Json::UInt(c)]));
    Json::Obj(vec![
        ("samples".into(), Json::UInt(h.samples())),
        ("mean".into(), Json::Float(h.mean())),
        ("max".into(), Json::UInt(h.max())),
        ("buckets".into(), Json::Arr(buckets.collect())),
    ])
}

/// Deterministic cycle-domain profile sections, accumulated over every
/// successful cell's `prof_*` aux series. Everything here is measured in
/// simulated cycles, so the object is byte-identical at any `--jobs`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleProfile {
    /// Per-fault queue wait behind the serial fault handler.
    pub fault_occupancy: LatencyHistogram,
    /// Per-migration dispatch-to-done latency.
    pub migration_latency: LatencyHistogram,
    /// Per-hop queue wait behind busy fabric wires.
    pub fabric_queue: LatencyHistogram,
    /// MLP-window stall cycles summed over every GPU of every cell.
    pub mlp_stall_cycles: u64,
}

impl CycleProfile {
    /// Accumulates one cell's `prof_*` aux series.
    pub fn absorb_aux(&mut self, aux: &HashMap<String, Vec<f64>>) {
        for (name, hist) in [
            ("prof_fault_occupancy_hist", &mut self.fault_occupancy),
            ("prof_migration_latency_hist", &mut self.migration_latency),
            ("prof_fabric_queue_hist", &mut self.fabric_queue),
        ] {
            if let Some(vs) = aux.get(name) {
                hist.merge(&LatencyHistogram::from_flat(vs));
            }
        }
        if let Some(vs) = aux.get("prof_mlp_stall_cycles") {
            self.mlp_stall_cycles += vs.iter().map(|&v| v as u64).sum::<u64>();
        }
    }

    /// Serializes the report's `profile.cycle` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "fault_occupancy".into(),
                hist_to_json(&self.fault_occupancy),
            ),
            (
                "migration_latency".into(),
                hist_to_json(&self.migration_latency),
            ),
            ("fabric_queue".into(), hist_to_json(&self.fabric_queue)),
            ("mlp_stall_cycles".into(), Json::UInt(self.mlp_stall_cycles)),
        ])
    }
}

/// Aggregated result-store traffic of one run: how often cells
/// were answered from the store, how often they had to simulate, and
/// how many store files failed integrity checks and were quarantined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Cells answered from the store.
    pub hits: u64,
    /// Cells that had to run because the store had no (valid) entry.
    pub misses: u64,
    /// Store files that failed an integrity check (bad JSON, bad
    /// checksum, schema or key mismatch) and were moved to the
    /// `quarantine/` subdirectory.
    pub quarantined: u64,
}

impl StoreCounters {
    /// Whether any traffic was recorded at all.
    pub fn any(&self) -> bool {
        self.hits != 0 || self.misses != 0 || self.quarantined != 0
    }

    /// Field-wise sum, for aggregating per-batch counters into a run.
    pub fn absorb(&mut self, other: StoreCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.quarantined += other.quarantined;
    }

    /// Serializes the `store` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::UInt(self.hits)),
            ("misses".into(), Json::UInt(self.misses)),
            ("quarantined".into(), Json::UInt(self.quarantined)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            total_cycles: 1000,
            accesses: 500,
            local_accesses: 400,
            remote_accesses: 100,
            faults: FaultCounters {
                local_faults: 10,
                protection_faults: 2,
                migrations: 6,
                duplications: 3,
                collapses: 1,
                evictions: 4,
                scheme_changes: 5,
            },
            scheme_mix: SchemeMix {
                on_touch: 7,
                access_counter: 8,
                duplication: 9,
            },
            nvlink_bytes: 4096,
            pcie_bytes: 64,
            oversubscription_rate: 1.25,
            ..Default::default()
        };
        m.breakdown.record(LatencyClass::Host, 123);
        m.breakdown.record(LatencyClass::PageMigration, 45);
        m.set_aux("per_gpu_faults", vec![3.0, 7.0]);
        m.set_aux("a_sorted_first", vec![1.5]);
        m.set_aux("fabric_class_bytes", vec![4096.0, 512.0, 128.0, 64.0]);
        m.set_aux("fabric_queue_cycles", vec![20.0, 9.0, 3.0, 1.0]);
        m
    }

    #[test]
    fn metrics_snapshot_sorts_aux_and_keeps_breakdown_order() {
        let j = metrics_to_json(&sample_metrics());
        let aux = j.get("aux").unwrap().as_obj().unwrap();
        assert_eq!(aux[0].0, "a_sorted_first");
        assert!(aux.windows(2).all(|w| w[0].0 < w[1].0), "aux keys sorted");
        let breakdown = j.get("breakdown").unwrap().as_obj().unwrap();
        assert_eq!(breakdown[1].0, LatencyClass::Host.label()); // slot 1 in ALL order
        assert_eq!(breakdown[1].1.as_u64(), Some(123));
    }

    #[test]
    fn metrics_report_round_trips() {
        let m = sample_metrics();
        let j = metrics_to_json(&m);
        let back = metrics_from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, m);
        // Per-layer counters are written once, as aux series.
        for key in ["fabric", "resilience", "pagesize"] {
            assert!(j.get(key).is_none(), "duplicate {key:?} object written");
        }
    }

    #[test]
    fn metrics_report_inverts_to_live_metrics() {
        let m = sample_metrics();
        let j = metrics_to_json(&m);
        let live = metrics_from_json(&j).unwrap();
        assert_eq!(live.total_cycles, m.total_cycles);
        assert_eq!(live.faults, m.faults);
        assert_eq!(live.scheme_mix, m.scheme_mix);
        assert_eq!(live.aux.len(), m.aux.len());
        assert_eq!(live.aux.get("per_gpu_faults"), m.aux.get("per_gpu_faults"));
        // Snapshotting the rebuilt metrics is a fixed point.
        assert_eq!(metrics_to_json(&live), j);
    }

    #[test]
    fn store_counters_round_trip_and_are_omitted_when_absent() {
        // A store-less run records nothing, so the report omits `store`.
        let mut total = StoreCounters::default();
        assert!(!total.any());
        let batch = StoreCounters {
            hits: 7,
            misses: 3,
            quarantined: 1,
        };
        total.absorb(batch);
        total.absorb(StoreCounters::default());
        assert!(total.any());
        // The `store` object reads back field for field.
        let back = Json::parse(&total.to_json().to_string()).unwrap();
        let keys: Vec<&str> = back.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["hits", "misses", "quarantined"]);
        for (key, value) in [("hits", 7), ("misses", 3), ("quarantined", 1)] {
            assert_eq!(back.get(key).unwrap().as_u64(), Some(value), "{key}");
        }
    }

    #[test]
    fn cycle_profile_merges_flat_histograms() {
        let mut cycle = CycleProfile::default();
        for flat in [
            vec![2.0, 20.0, 12.0, 8.0, 2.0],
            vec![1.0, 64.0, 64.0, 64.0, 1.0],
        ] {
            cycle.absorb_aux(&HashMap::from([
                ("prof_fault_occupancy_hist".into(), flat),
                ("prof_mlp_stall_cycles".into(), vec![100.0, 50.0]),
            ]));
        }
        assert_eq!(cycle.fault_occupancy.samples(), 3);
        assert_eq!(cycle.fault_occupancy.max(), 64);
        assert_eq!(cycle.mlp_stall_cycles, 300);
        let j = cycle.to_json();
        let occupancy = j.get("fault_occupancy").unwrap();
        assert_eq!(occupancy.get("mean").and_then(Json::as_f64), Some(28.0));
        assert_eq!(
            occupancy.get("buckets").unwrap().to_string(),
            "[[8,2],[64,1]]"
        );
        let keys: Vec<&str> = j.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "fault_occupancy",
                "migration_latency",
                "fabric_queue",
                "mlp_stall_cycles"
            ]
        );
    }

    #[test]
    fn fault_counters_ignore_derived_total_on_parse() {
        let f = FaultCounters {
            local_faults: 1,
            protection_faults: 2,
            ..Default::default()
        };
        let j = faults_to_json(&f);
        assert_eq!(j.get("total_faults").unwrap().as_u64(), Some(3));
        assert_eq!(faults_from_json(&j).unwrap(), f);
    }
}
