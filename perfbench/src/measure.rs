//! Result records and the small statistics the workloads share.

use grit::RunOutput;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Cells (or served cells) attempted in the run.
    pub attempted: u64,
    /// Of those, cells that did not complete `ok`, were refused, or whose
    /// result never arrived.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks that failed, one message each.
    pub failures: Vec<String>,
    /// FNV-1a digest of the deterministic per-cell counters.
    pub digest: u64,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// User plus system CPU seconds of this process, all threads included,
/// from `/proc/self/stat` (clock ticks of 1/100 s, Linux's fixed
/// `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Keeps `threads` cores busy with arithmetic for `seconds`, so that the
/// measured phases start on a host that has left its idle state (after an
/// idle spell the first second or two of work runs measurably slower).
pub fn warm_host(threads: usize, seconds: f64) {
    let until = std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut x = t as u64 + 1;
                while std::time::Instant::now() < until {
                    for _ in 0..10_000 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The deterministic counters of one cell that every repeat, worker count
/// and serving path must reproduce exactly.
pub fn cell_counters(out: &RunOutput) -> [u64; 9] {
    let m = &out.metrics;
    let f = &m.faults;
    [
        m.total_cycles,
        m.accesses,
        f.local_faults,
        f.protection_faults,
        f.migrations,
        f.duplications,
        f.collapses,
        f.evictions,
        f.scheme_changes,
    ]
}

/// Sum of one slot-strided aux series over a run's cells.
fn aux_sum(outs: &[&RunOutput], name: &str, slot: usize, stride: usize) -> f64 {
    outs.iter()
        .filter_map(|o| o.metrics.aux.get(name))
        .map(|v| v.iter().skip(slot).step_by(stride).sum::<f64>())
        .fold(0.0, |a, b| a + b)
}

/// Mean of a per-GPU aux series over every GPU of every cell that carries
/// it; 0 when no cell does.
fn aux_mean(outs: &[&RunOutput], name: &str) -> f64 {
    let vals: Vec<f64> =
        outs.iter().filter_map(|o| o.metrics.aux.get(name)).flatten().copied().collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// The per-layer counters read straight from the program's own run
/// outputs (`RunOutput::metrics`), summed over one grid of cells. They
/// repeat exactly for a given seed.
pub fn push_counters(o: &mut Outcome, outs: &[&RunOutput]) {
    let sum = |f: &dyn Fn(&RunOutput) -> u64| outs.iter().map(|x| f(x)).sum::<u64>();
    let accesses = sum(&|x| x.metrics.accesses);
    let faults = sum(&|x| x.metrics.faults.total_faults());
    o.push("runner.accesses", accesses as f64, "count");
    o.push(
        "runner.total_cycles",
        sum(&|x| x.metrics.total_cycles) as f64,
        "cycles",
    );
    o.push(
        "mem.tlb_l1_hit_rate",
        aux_mean(outs, "tlb_l1_hit_rate"),
        "ratio",
    );
    o.push(
        "mem.tlb_l2_hit_rate",
        aux_mean(outs, "tlb_l2_hit_rate"),
        "ratio",
    );
    o.push(
        "mem.tlb_l1_2m_hit_rate",
        aux_mean(outs, "tlb_l1_hit_rate_2m"),
        "ratio",
    );
    o.push(
        "uvm.faults_per_kaccess",
        faults as f64 * 1e3 / accesses.max(1) as f64,
        "1/k",
    );
    o.push(
        "uvm.migrations",
        sum(&|x| x.metrics.faults.migrations) as f64,
        "count",
    );
    o.push(
        "uvm.evictions",
        sum(&|x| x.metrics.faults.evictions) as f64,
        "count",
    );
    o.push(
        "uvm.duplications",
        sum(&|x| x.metrics.faults.duplications) as f64,
        "count",
    );
    o.push(
        "uvm.collapses",
        sum(&|x| x.metrics.faults.collapses) as f64,
        "count",
    );
    o.push(
        "core.scheme_changes",
        sum(&|x| x.metrics.faults.scheme_changes) as f64,
        "count",
    );
    // `pagesize_counters` slots: 0 coalesces, 1-3 splinters by cause.
    o.push(
        "pagesize.coalesces",
        aux_sum(outs, "pagesize_counters", 0, 9),
        "count",
    );
    let splinters: f64 = (1..4).map(|s| aux_sum(outs, "pagesize_counters", s, 9)).sum();
    o.push("pagesize.splinters", splinters, "count");
    // `fabric_class_bytes` slots: nvlink, switch, inter-node, pcie.
    let gpu_bytes: f64 = (0..3).map(|s| aux_sum(outs, "fabric_class_bytes", s, 4)).sum();
    o.push("interconnect.nvlink_mb", gpu_bytes / 1e6, "MB");
    o.push(
        "interconnect.pcie_mb",
        aux_sum(outs, "fabric_class_bytes", 3, 4) / 1e6,
        "MB",
    );
    let queue: f64 = (0..4).map(|s| aux_sum(outs, "fabric_queue_cycles", s, 4)).sum();
    o.push("interconnect.queue_kcycles", queue / 1e3, "kcycles");
}

/// 64-bit FNV-1a over every cell's deterministic counters.
pub fn digest_of(outs: &[&RunOutput]) -> u64 {
    let bytes = outs.iter().flat_map(|o| cell_counters(o)).flat_map(u64::to_le_bytes);
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
