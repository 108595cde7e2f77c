//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (campaign, cell, workload build, simulation, served round
//! trip, `run_spec`). Each has a name, a layer, start and end, its parent
//! and the id of the campaign it belongs to, plus the accesses counted at
//! that boundary. They are written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Layers that spans are attributed to, in report order.
pub const LAYERS: [&str; 5] = ["experiments", "workloads", "runner", "service", "serve"];

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval covers.
    pub name: &'static str,
    /// One of [`LAYERS`].
    pub layer: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created; NaN while open.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Campaign the span belongs to.
    pub campaign: u64,
    /// Simulated accesses counted at this boundary (0 when none).
    pub accesses: u64,
}

/// Thread-safe span store.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span starting now; returns its index.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        campaign: u64,
    ) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            layer,
            start,
            end: f64::NAN,
            parent,
            campaign,
            accesses: 0,
        });
        spans.len() - 1
    }

    /// Closes span `idx` now, recording `accesses` at its boundary.
    pub fn close(&self, idx: usize, accesses: u64) {
        let end = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[idx].end = end;
        spans[idx].accesses = accesses;
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time per layer, as a share of all self time: a span's duration
/// minus the part of its interval that its children cover.
pub fn self_time_shares(spans: &[Span]) -> [f64; LAYERS.len()] {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut by_layer = [0.0; LAYERS.len()];
    for (s, kids) in spans.iter().zip(&mut children) {
        if !s.end.is_finite() {
            continue;
        }
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let layer = LAYERS.iter().position(|&l| l == s.layer).expect("known layer");
        by_layer[layer] += (s.end - s.start - covered).max(0.0);
    }
    let total: f64 = by_layer.iter().sum();
    if total > 0.0 {
        for v in &mut by_layer {
            *v /= total;
        }
    }
    by_layer
}

/// Writes every span as one JSON line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
             \"parent\": {parent}, \"campaign\": {}, \"accesses\": {}}}",
            s.name,
            s.layer,
            s.start,
            if s.end.is_finite() { s.end } else { s.start },
            s.campaign,
            s.accesses
        )?;
    }
    f.flush()
}
