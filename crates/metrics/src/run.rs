//! Whole-run metrics aggregation.

use std::collections::HashMap;

use grit_sim::Scheme;

use crate::breakdown::LatencyBreakdown;

/// GPU page-fault and placement-event counters (Fig. 18 and §VI-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultCounters {
    /// Local page faults sent to the UVM driver.
    pub local_faults: u64,
    /// Page protection faults (writes to read-only replicas).
    pub protection_faults: u64,
    /// Pages migrated between memories.
    pub migrations: u64,
    /// Page replicas created.
    pub duplications: u64,
    /// Write-collapse events (replica invalidation storms).
    pub collapses: u64,
    /// Pages evicted due to capacity (oversubscription).
    pub evictions: u64,
    /// Placement-scheme changes applied (GRIT / Griffin activity).
    pub scheme_changes: u64,
}

impl FaultCounters {
    /// Total GPU page faults: local + protection (the Fig. 18 metric).
    pub fn total_faults(&self) -> u64 {
        self.local_faults + self.protection_faults
    }
}

/// Distribution of placement schemes over L2-TLB-missing accesses
/// (Fig. 19): which scheme governed the page at the time of each miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchemeMix {
    /// Misses to pages governed by on-touch migration.
    pub on_touch: u64,
    /// Misses to pages governed by access-counter migration.
    pub access_counter: u64,
    /// Misses to pages governed by duplication.
    pub duplication: u64,
}

impl SchemeMix {
    /// Records one L2-TLB-missing access under `scheme`.
    pub fn record(&mut self, scheme: Scheme) {
        match scheme {
            Scheme::OnTouch => self.on_touch += 1,
            Scheme::AccessCounter => self.access_counter += 1,
            Scheme::Duplication => self.duplication += 1,
        }
    }

    /// Total recorded misses.
    pub fn total(&self) -> u64 {
        self.on_touch + self.access_counter + self.duplication
    }

    /// `(on_touch, access_counter, duplication)` fractions.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.on_touch as f64 / t as f64,
            self.access_counter as f64 / t as f64,
            self.duplication as f64 / t as f64,
        )
    }
}

/// Everything one simulation run produces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Simulated execution time (max over GPUs of their finish cycle).
    pub total_cycles: u64,
    /// Total accesses replayed.
    pub accesses: u64,
    /// Accesses satisfied from the local memory.
    pub local_accesses: u64,
    /// Accesses that crossed NVLink to a peer.
    pub remote_accesses: u64,
    /// Six-way page-handling latency attribution (Fig. 3).
    pub breakdown: LatencyBreakdown,
    /// Fault/event counters (Fig. 18).
    pub faults: FaultCounters,
    /// Scheme usage at L2 TLB misses (Fig. 19).
    pub scheme_mix: SchemeMix,
    /// NVLink payload bytes.
    pub nvlink_bytes: u64,
    /// PCIe payload bytes.
    pub pcie_bytes: u64,
    /// Peak page-oversubscription ratio observed: resident+evicted demand
    /// over capacity, max across GPUs (GPS comparison, §VI-C2).
    pub oversubscription_rate: f64,
    /// Free-form auxiliary series keyed by name (figure-specific data).
    pub aux: HashMap<String, Vec<f64>>,
}

impl RunMetrics {
    /// Stores an auxiliary named series.
    pub fn set_aux<S: Into<String>>(&mut self, key: S, values: Vec<f64>) {
        self.aux.insert(key.into(), values);
    }

    /// Fetches an auxiliary named series.
    pub fn aux(&self, key: &str) -> Option<&[f64]> {
        self.aux.get(key).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_totals() {
        let f = FaultCounters {
            local_faults: 3,
            protection_faults: 4,
            ..Default::default()
        };
        assert_eq!(f.total_faults(), 7);
    }

    #[test]
    fn scheme_mix_fractions() {
        let mut m = SchemeMix::default();
        m.record(Scheme::OnTouch);
        m.record(Scheme::OnTouch);
        m.record(Scheme::Duplication);
        m.record(Scheme::AccessCounter);
        let (ot, ac, d) = m.fractions();
        assert!((ot - 0.5).abs() < 1e-12);
        assert!((ac - 0.25).abs() < 1e-12);
        assert!((d - 0.25).abs() < 1e-12);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn empty_scheme_mix_is_zero() {
        assert_eq!(SchemeMix::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn aux_round_trip() {
        let mut m = RunMetrics::default();
        m.set_aux("per_gpu", vec![1.0, 2.0]);
        assert_eq!(m.aux("per_gpu"), Some(&[1.0, 2.0][..]));
        assert_eq!(m.aux("missing"), None);
    }
}
