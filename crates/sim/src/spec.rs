//! The serializable description of one simulation cell.
//!
//! [`RunSpec`] names a cell: the `repro` CLI's batch-override flags,
//! `run_report.json` cell rows and the `grit-serve/v1` wire protocol all
//! derive from one `RunSpec` instead of parallel ad-hoc encodings. Its
//! canonical form is also the backbone of the on-disk `ResultStore`
//! key, which adds what the spec does not name: the `Debug` form of the
//! cell's `SimConfig` and of its observer.
//!
//! The struct is deliberately plain data: applications and policies are
//! named by their stable string labels (`App::abbr()`,
//! `PolicyKind::label()`), hardware overrides are optional strings in
//! the same grammar the CLI accepts (`--topology`, `--inject`), and the
//! experiment knobs carry the defaults `ExpConfig::default()` is built
//! from.
//! Higher layers resolve the strings into typed values; this crate only
//! validates and applies the pieces it owns ([`SimConfig`]).
//!
//! `RunSpec` is `#[non_exhaustive]` with a fluent builder so future
//! fields never break downstream callers; JSON encoding lives in
//! `grit-serve` (this crate has no JSON dependency).

use std::time::Duration;

use crate::config::{ConfigError, SimConfig, TopologyConfig};
use crate::inject::InjectConfig;

/// Default experiment scale (fraction of the paper's working-set size).
pub const DEFAULT_SCALE: f64 = 0.10;
/// Default compute-intensity multiplier.
pub const DEFAULT_INTENSITY: f64 = 2.0;
/// Default workload seed.
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// The per-cell wall-clock budget `secs` as a [`Duration`]: the one check
/// every `timeout_secs` from outside the program passes (`--cell-timeout`,
/// served specs) before a batch turns it into a deadline.
///
/// # Errors
///
/// A [`ConfigError`] on `timeout_secs` when `secs` is negative, NaN, or
/// too large for a `Duration`.
pub fn timeout_from_secs(secs: f64) -> Result<Duration, ConfigError> {
    Duration::try_from_secs_f64(secs).map_err(|e| ConfigError::new("timeout_secs", e.to_string()))
}

/// A complete, serializable description of one simulation cell: which
/// workload and placement policy to run, at what experiment scale, and
/// every batch-level override that changes the simulated machine or how
/// the cell executes.
///
/// Optional fields mean "use the configuration default"; a
/// default-constructed spec describes the paper's baseline machine
/// running `Gemm` under the GRIT policy.
///
/// ```
/// use grit_sim::{RunSpec, SimConfig};
///
/// let spec = RunSpec::new("bfs", "grit").gpus(8).topology("ring");
/// let mut cfg = SimConfig::default();
/// spec.apply_to(&mut cfg).unwrap();
/// assert_eq!(cfg.num_gpus, 8);
/// assert_eq!(cfg.topology.name(), "ring");
/// ```
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub struct RunSpec {
    /// Workload name: the stable `App::abbr()` label, case-insensitive
    /// (`"Gemm"`, `"bfs"`, ...).
    pub app: String,
    /// Placement-policy label as printed in tables (`"grit"`,
    /// `"on-touch"`, `"grit(t=4,cache=true,nap=false)"`, ...).
    pub policy: String,
    /// Working-set scale relative to the paper's footprint.
    pub scale: f64,
    /// Compute cycles per memory access (intensity multiplier).
    pub intensity: f64,
    /// Deterministic workload seed.
    pub seed: u64,
    /// GPU count override (`None` = config default, 4).
    pub gpus: Option<usize>,
    /// Page-size override in bytes (`None` = config default, 4 KiB).
    pub page_size: Option<u64>,
    /// Large-page management mode by stable name (`"uniform4k"` or
    /// `"mixed"`); `None` = uniform 4 KiB base pages.
    pub page_size_mode: Option<String>,
    /// Topology spec in `--topology` grammar (`"ring"`,
    /// `"nvswitch:16"`, ...); `None` = all-to-all.
    pub topology: Option<String>,
    /// Fault-injection plan in `--inject` grammar; `None` = healthy run.
    pub inject: Option<String>,
    /// Per-cell wall-clock budget in seconds (`None` = no timeout).
    pub timeout_secs: Option<f64>,
    /// Record structured trace events for this cell.
    pub trace: bool,
    /// Trace category filter in `--trace-filter` grammar (`None` = all
    /// categories). Only meaningful when `trace` is set.
    pub trace_filter: Option<String>,
    /// Keep every Nth trace event per category (1 = keep all).
    pub trace_sample: u64,
}

impl Default for RunSpec {
    /// The paper's baseline cell: `Gemm` under GRIT at the default
    /// experiment scale, no hardware overrides, no tracing.
    fn default() -> Self {
        RunSpec {
            app: "Gemm".to_string(),
            policy: "grit".to_string(),
            scale: DEFAULT_SCALE,
            intensity: DEFAULT_INTENSITY,
            seed: DEFAULT_SEED,
            gpus: None,
            page_size: None,
            page_size_mode: None,
            topology: None,
            inject: None,
            timeout_secs: None,
            trace: false,
            trace_filter: None,
            trace_sample: 1,
        }
    }
}

impl RunSpec {
    /// Builds a spec for `app` under `policy` with default experiment
    /// knobs and no overrides.
    pub fn new(app: impl Into<String>, policy: impl Into<String>) -> Self {
        RunSpec {
            app: app.into(),
            policy: policy.into(),
            ..RunSpec::default()
        }
    }

    /// Sets the workload label.
    pub fn app(mut self, app: impl Into<String>) -> Self {
        self.app = app.into();
        self
    }

    /// Sets the policy label.
    pub fn policy(mut self, policy: impl Into<String>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Sets the working-set scale.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the compute-intensity multiplier.
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the GPU count.
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.gpus = Some(gpus);
        self
    }

    /// Overrides the page size in bytes.
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.page_size = Some(bytes);
        self
    }

    /// Overrides the large-page management mode (CLI `--page-size-mode`
    /// grammar: `uniform4k` or `mixed`).
    pub fn page_size_mode(mut self, mode: impl Into<String>) -> Self {
        self.page_size_mode = Some(mode.into());
        self
    }

    /// Overrides the interconnect topology (CLI `--topology` grammar).
    pub fn topology(mut self, spec: impl Into<String>) -> Self {
        self.topology = Some(spec.into());
        self
    }

    /// Schedules fault injection (CLI `--inject` grammar).
    pub fn inject(mut self, spec: impl Into<String>) -> Self {
        self.inject = Some(spec.into());
        self
    }

    /// Accepted for compatibility and ignored: every cell runs its
    /// event loop on one thread (`--jobs` is the parallelism).
    pub fn sim_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the per-cell wall-clock budget in seconds.
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.timeout_secs = Some(secs);
        self
    }

    /// Enables structured trace recording for this cell.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Sets the trace category filter (CLI `--trace-filter` grammar).
    pub fn trace_filter(mut self, filter: impl Into<String>) -> Self {
        self.trace_filter = Some(filter.into());
        self
    }

    /// Keeps every Nth trace event per category (clamped to ≥ 1).
    pub fn trace_sample(mut self, every: u64) -> Self {
        self.trace_sample = every.max(1);
        self
    }

    /// Applies the machine-shaping overrides (`gpus`, `page_size`,
    /// `page_size_mode`, `topology`, `inject`) to `cfg`, parsing the
    /// string grammars and validating the result. Experiment knobs
    /// (`scale`/`intensity`/`seed`) and execution knobs
    /// (`timeout_secs`/trace) are left to other layers; `scale`,
    /// `intensity` and `timeout_secs` are only checked.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when `scale`
    /// or `intensity` is not a finite positive number, a topology or
    /// inject spec fails to parse, the timeout is not a valid duration
    /// ([`timeout_from_secs`]), or the resulting configuration fails
    /// [`SimConfig::validate`] (which also checks the fault plan against
    /// the machine's wires and GPUs).
    pub fn apply_to(&self, cfg: &mut SimConfig) -> Result<(), ConfigError> {
        for (field, value) in [("scale", self.scale), ("intensity", self.intensity)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::new(
                    field,
                    format!("{value} is not a finite positive number"),
                ));
            }
        }
        if let Some(gpus) = self.gpus {
            cfg.num_gpus = gpus;
        }
        if let Some(bytes) = self.page_size {
            cfg.page_size = bytes;
        }
        if let Some(mode) = &self.page_size_mode {
            cfg.page_size_mode = crate::config::PageSizeMode::parse(mode)
                .map_err(|e| ConfigError::new("page_size_mode", e))?;
        }
        if let Some(spec) = &self.topology {
            cfg.topology =
                TopologyConfig::parse(spec).map_err(|e| ConfigError::new("topology", e))?;
        }
        if let Some(spec) = &self.inject {
            cfg.inject = InjectConfig::parse(spec)?;
        }
        if let Some(secs) = self.timeout_secs {
            timeout_from_secs(secs)?;
        }
        cfg.validate().map(drop)
    }

    /// Renders the spec as a stable single-line `key=value;` string in
    /// fixed field order: the `spec` column of `run_report.json` cell
    /// rows and the backbone of the `ResultStore` cache key. Cells that
    /// differ only beyond the spec surface (a latency sweep's
    /// `SimConfig`, an observer) share a canonical form, so the store
    /// key adds the `Debug` form of both. Unset optional fields render
    /// as `-`; floats use Rust's shortest round-trip formatting.
    pub fn canonical(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            match v {
                Some(x) => x.to_string(),
                None => "-".to_string(),
            }
        }
        format!(
            "app={};policy={};scale={};intensity={};seed={};gpus={};page_size={};\
             page_size_mode={};topology={};inject={};timeout_secs={};\
             trace={};trace_filter={};trace_sample={}",
            self.app,
            self.policy,
            self.scale,
            self.intensity,
            self.seed,
            opt(&self.gpus),
            opt(&self.page_size),
            opt(&self.page_size_mode),
            opt(&self.topology),
            opt(&self.inject),
            opt(&self.timeout_secs),
            self.trace,
            opt(&self.trace_filter),
            self.trace_sample,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_a_config_no_op() {
        let mut cfg = SimConfig::default();
        RunSpec::default().apply_to(&mut cfg).unwrap();
        assert_eq!(cfg, SimConfig::default());
    }

    #[test]
    fn apply_to_sets_every_machine_field() {
        let spec = RunSpec::new("bfs", "on-touch")
            .gpus(8)
            .page_size(2 * 1024 * 1024)
            .topology("nvswitch:16")
            .inject("degrade@1000:wire=*:frac=0.5:for=500");
        let mut cfg = SimConfig::default();
        spec.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.num_gpus, 8);
        assert_eq!(cfg.page_size, 2 * 1024 * 1024);
        assert_eq!(cfg.topology.name(), "nvswitch");
        assert_eq!(cfg.topology.switch_radix, 16);
        assert!(!cfg.inject.is_empty());

        // Large-page mode threads through by stable name (the 2 MB
        // page-size override above must drop back to 4 KB base pages
        // for the mode to validate).
        let spec = RunSpec::new("bfs", "grit").page_size_mode("mixed");
        let mut cfg = SimConfig::default();
        spec.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.page_size_mode.name(), "mixed");
    }

    #[test]
    fn apply_to_rejects_bad_grammar_and_bad_configs() {
        let mut cfg = SimConfig::default();
        let err = RunSpec::default().topology("moebius").apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "topology");

        let err = RunSpec::default().inject("explode@now").apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "inject");

        // A plan is checked against the machine it runs on: a wire or a
        // GPU the default 4-GPU fabric lacks is rejected up front.
        for (bad, needle) in [
            ("outage@0:wire=99:for=10", "wire 99"),
            ("retire@0:gpu=9:frames=1", "gpu 9"),
        ] {
            let err = RunSpec::default().inject(bad).apply_to(&mut SimConfig::default());
            let err = err.unwrap_err();
            assert_eq!(err.field, "inject", "{bad}");
            assert!(err.reason.contains(needle), "{bad}: {err}");
        }

        // The removed second large-page mode is rejected, not aliased.
        for bad in ["huge", "uniform2m"] {
            let err = RunSpec::default().page_size_mode(bad).apply_to(&mut cfg).unwrap_err();
            assert_eq!(err.field, "page_size_mode");
        }

        // Out-of-range GPU counts are caught by validate(), not silently
        // applied.
        let err = RunSpec::default().gpus(64).apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "num_gpus");

        // A timeout must be a representable duration: negative, infinite
        // and overflowing budgets are rejected, not panicked on later.
        for bad in [-1.0, f64::INFINITY, 1e300, f64::NAN] {
            let err = RunSpec::default().timeout_secs(bad).apply_to(&mut cfg).unwrap_err();
            assert_eq!(err.field, "timeout_secs", "{bad}");
        }

        // Scale and intensity size the workload: a non-finite or
        // non-positive value is rejected before anything is built.
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let err = RunSpec::default().scale(bad).apply_to(&mut cfg).unwrap_err();
            assert_eq!(err.field, "scale", "{bad}");
            let err = RunSpec::default().intensity(bad).apply_to(&mut cfg).unwrap_err();
            assert_eq!(err.field, "intensity", "{bad}");
        }
    }

    #[test]
    fn canonical_is_stable_and_distinguishes_specs() {
        let a = RunSpec::new("Gemm", "grit");
        assert_eq!(
            a.canonical(),
            "app=Gemm;policy=grit;scale=0.1;intensity=2;seed=48879;gpus=-;page_size=-;\
             page_size_mode=-;topology=-;inject=-;timeout_secs=-;\
             trace=false;trace_filter=-;trace_sample=1"
        );
        let b = a.clone().gpus(8);
        assert_ne!(a.canonical(), b.canonical());
        // Page-size mode is part of the cell identity (cache keys must
        // not collide across modes).
        assert_ne!(a.canonical(), a.clone().page_size_mode("mixed").canonical());
        assert_eq!(a.canonical(), a.clone().canonical());
        // Floats render round-trip exact, so close-but-different scales
        // stay distinct.
        assert_ne!(
            a.clone().scale(0.1).canonical(),
            a.clone().scale(0.1 + 1e-12).canonical()
        );
    }

    #[test]
    fn builder_covers_every_field() {
        let spec = RunSpec::new("bfs", "ideal")
            .scale(0.5)
            .intensity(1.0)
            .seed(7)
            .gpus(2)
            .page_size(4096)
            .page_size_mode("mixed")
            .topology("ring")
            .inject("retire@10:gpu=0:frames=1")
            .sim_threads(4)
            .timeout_secs(1.5)
            .trace(true)
            .trace_filter("fault,migration")
            .trace_sample(8);
        assert_eq!(spec.app, "bfs");
        assert_eq!(spec.policy, "ideal");
        assert_eq!(spec.page_size_mode.as_deref(), Some("mixed"));
        // The former shard-count knob still chains, as a no-op.
        assert_eq!(spec, spec.clone().sim_threads(8));
        assert_eq!(spec.timeout_secs, Some(1.5));
        assert!(spec.trace);
        assert_eq!(spec.trace_sample, 8);
        // trace_sample clamps to >= 1 so "keep every 0th" can't divide
        // by zero downstream.
        assert_eq!(RunSpec::default().trace_sample(0).trace_sample, 1);
    }
}
