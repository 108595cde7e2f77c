//! Deterministic, cycle-scheduled hardware fault injection.
//!
//! A [`FaultPlan`] is compiled from an [`InjectConfig`] (itself parsed from
//! the `--inject <spec>` string) against a concrete system shape (wire and
//! GPU counts). Every query on the plan is a **pure function of the
//! simulated cycle** — no wall clock, no RNG — so a run with a plan is
//! byte-identical at any worker count, and a run with an *empty* plan is
//! byte-identical to a run with no plan at all.
//!
//! Four fault kinds are modeled:
//!
//! - **`degrade`** — a wire's bandwidth is cut to a fraction of nominal
//!   for a window of cycles.
//! - **`outage`** — a wire is down for a window; routing must go around
//!   it (or traffic stages through the host when no route remains).
//! - **`retire`** — ECC retires DRAM page frames on one GPU at a cycle;
//!   resident pages are force-evicted and re-placed.
//! - **`storm`** — the GPU's fault handler stalls an extra fixed cost per
//!   fault for a window (an interrupt storm).
//!
//! ## Spec grammar
//!
//! Events are separated by `;`. Each event is `kind@cycle` followed by
//! `:key=value` fields:
//!
//! ```text
//! degrade@CYCLE:wire=W:frac=F:for=DUR      bandwidth of wire W (or *) x F
//! outage@CYCLE:wire=W:for=DUR              wire W (or *) down for DUR
//! retire@CYCLE:gpu=G:frames=N              retire N frames on GPU G
//! retire@CYCLE:gpu=G:pct=P                 ... or P percent of capacity
//! storm@CYCLE:gpu=G:for=DUR:stall=S        +S cycles per fault for DUR
//! ```
//!
//! Example: `outage@50000:wire=*:for=150000;retire@30000:gpu=0:pct=20`.
//!
//! Every parse or compile failure is a [`ConfigError`] on `inject`.

use std::fmt;

use crate::config::ConfigError;
use crate::graph::TopoGraph;
use crate::Cycle;

/// Which fabric wire an event targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireSel {
    /// Every GPU-to-GPU wire in the fabric.
    All,
    /// One wire, by its fabric wire index.
    One(u32),
}

/// How many frames an ECC retirement removes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FrameCount {
    /// An absolute number of page frames.
    Frames(u64),
    /// A percentage of the GPU's DRAM capacity (0, 100].
    Percent(f64),
}

impl FrameCount {
    /// Resolves to an absolute frame count against a capacity.
    pub fn resolve(self, capacity_pages: u64) -> u64 {
        match self {
            FrameCount::Frames(n) => n.min(capacity_pages),
            FrameCount::Percent(p) => {
                ((capacity_pages as f64 * p / 100.0).floor() as u64).min(capacity_pages)
            }
        }
    }
}

/// One parsed fault event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultSpec {
    /// Cut a wire's bandwidth to `frac` of nominal for `duration` cycles.
    Degrade {
        /// Target wire(s).
        wire: WireSel,
        /// Start cycle.
        at: Cycle,
        /// Window length in cycles.
        duration: Cycle,
        /// Remaining bandwidth fraction, in (0, 1).
        frac: f64,
    },
    /// Take a wire down entirely for `duration` cycles.
    Outage {
        /// Target wire(s).
        wire: WireSel,
        /// Start cycle.
        at: Cycle,
        /// Window length in cycles.
        duration: Cycle,
    },
    /// Retire DRAM page frames on a GPU (ECC) at a cycle.
    Retire {
        /// Target GPU.
        gpu: u8,
        /// Retirement cycle.
        at: Cycle,
        /// How many frames go away.
        count: FrameCount,
    },
    /// Fault-handler stall storm: every fault on the GPU pays `stall`
    /// extra service cycles while the window is active.
    Storm {
        /// Target GPU.
        gpu: u8,
        /// Start cycle.
        at: Cycle,
        /// Window length in cycles.
        duration: Cycle,
        /// Extra service cycles per fault.
        stall: Cycle,
    },
}

impl FaultSpec {
    /// The event's start cycle.
    pub fn at(&self) -> Cycle {
        match *self {
            FaultSpec::Degrade { at, .. }
            | FaultSpec::Outage { at, .. }
            | FaultSpec::Retire { at, .. }
            | FaultSpec::Storm { at, .. } => at,
        }
    }

    /// The event's kind tag.
    pub fn kind(&self) -> InjectedKind {
        match self {
            FaultSpec::Degrade { .. } => InjectedKind::Degrade,
            FaultSpec::Outage { .. } => InjectedKind::Outage,
            FaultSpec::Retire { .. } => InjectedKind::Retire,
            FaultSpec::Storm { .. } => InjectedKind::Storm,
        }
    }
}

/// The kind tag of an injected fault (for trace events and transitions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum InjectedKind {
    /// Bandwidth degradation window.
    Degrade,
    /// Link outage window.
    Outage,
    /// ECC frame retirement.
    Retire,
    /// Fault-handler stall storm.
    Storm,
}

impl InjectedKind {
    /// Stable lowercase name (trace-event payload).
    pub fn name(self) -> &'static str {
        match self {
            InjectedKind::Degrade => "degrade",
            InjectedKind::Outage => "outage",
            InjectedKind::Retire => "retire",
            InjectedKind::Storm => "storm",
        }
    }
}

/// A parsed injection schedule: the plain-data form that travels inside
/// [`crate::SimConfig`] (and therefore through resume keys and run
/// reports).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct InjectConfig {
    /// The scheduled fault events, in specification order.
    pub events: Vec<FaultSpec>,
}

impl InjectConfig {
    /// No injected faults: the simulation behaves exactly as if the
    /// injection subsystem did not exist.
    pub fn none() -> Self {
        InjectConfig::default()
    }

    /// Whether the schedule carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the `--inject` grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending event and field.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut events = Vec::new();
        for (i, ev) in spec.split(';').enumerate() {
            let ev = ev.trim();
            if ev.is_empty() {
                continue;
            }
            events.push(parse_event(ev).map_err(|e| {
                ConfigError::new("inject", format!("event {} ({ev:?}): {e}", i + 1))
            })?);
        }
        Ok(InjectConfig { events })
    }
}

impl fmt::Display for InjectConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            match *ev {
                FaultSpec::Degrade {
                    wire,
                    at,
                    duration,
                    frac,
                } => write!(
                    f,
                    "degrade@{at}:wire={}:frac={frac}:for={duration}",
                    wire_str(wire)
                )?,
                FaultSpec::Outage { wire, at, duration } => {
                    write!(f, "outage@{at}:wire={}:for={duration}", wire_str(wire))?
                }
                FaultSpec::Retire { gpu, at, count } => match count {
                    FrameCount::Frames(n) => write!(f, "retire@{at}:gpu={gpu}:frames={n}")?,
                    FrameCount::Percent(p) => write!(f, "retire@{at}:gpu={gpu}:pct={p}")?,
                },
                FaultSpec::Storm {
                    gpu,
                    at,
                    duration,
                    stall,
                } => write!(f, "storm@{at}:gpu={gpu}:for={duration}:stall={stall}")?,
            }
        }
        Ok(())
    }
}

fn wire_str(w: WireSel) -> String {
    match w {
        WireSel::All => "*".into(),
        WireSel::One(i) => i.to_string(),
    }
}

fn parse_event(ev: &str) -> Result<FaultSpec, String> {
    let mut parts = ev.split(':');
    let head = parts.next().unwrap_or("");
    let (kind, at) = head.split_once('@').ok_or("expected kind@cycle")?;
    let at: Cycle = at.parse().map_err(|_| format!("bad cycle {at:?}"))?;
    let mut wire: Option<WireSel> = None;
    let mut gpu: Option<u8> = None;
    let mut frac: Option<f64> = None;
    let mut duration: Option<Cycle> = None;
    let mut stall: Option<Cycle> = None;
    let mut count: Option<FrameCount> = None;
    for field in parts {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("field {field:?} is not key=value"))?;
        let bad = || format!("bad value for {key}: {value:?}");
        match key {
            "wire" => {
                wire = Some(if value == "*" {
                    WireSel::All
                } else {
                    WireSel::One(value.parse().map_err(|_| bad())?)
                })
            }
            "gpu" => gpu = Some(value.parse().map_err(|_| bad())?),
            "frac" => frac = Some(value.parse().map_err(|_| bad())?),
            "for" => duration = Some(value.parse().map_err(|_| bad())?),
            "stall" => stall = Some(value.parse().map_err(|_| bad())?),
            "frames" => count = Some(FrameCount::Frames(value.parse().map_err(|_| bad())?)),
            "pct" => count = Some(FrameCount::Percent(value.parse().map_err(|_| bad())?)),
            _ => return Err(format!("unknown field {key:?}")),
        }
    }
    let need = |name: &str| format!("missing field {name}");
    let dur_ok = |d: Cycle| {
        if d == 0 {
            Err("for= must be positive".to_string())
        } else {
            Ok(d)
        }
    };
    match kind {
        "degrade" => {
            let frac = frac.ok_or_else(|| need("frac"))?;
            if !(frac > 0.0 && frac < 1.0) {
                return Err("frac must be in (0, 1)".into());
            }
            Ok(FaultSpec::Degrade {
                wire: wire.ok_or_else(|| need("wire"))?,
                at,
                duration: dur_ok(duration.ok_or_else(|| need("for"))?)?,
                frac,
            })
        }
        "outage" => Ok(FaultSpec::Outage {
            wire: wire.ok_or_else(|| need("wire"))?,
            at,
            duration: dur_ok(duration.ok_or_else(|| need("for"))?)?,
        }),
        "retire" => {
            let count = count.ok_or_else(|| need("frames (or pct)"))?;
            if let FrameCount::Percent(p) = count {
                if !(p > 0.0 && p <= 100.0) {
                    return Err("pct must be in (0, 100]".into());
                }
            }
            if let FrameCount::Frames(0) = count {
                return Err("frames must be positive".into());
            }
            Ok(FaultSpec::Retire {
                gpu: gpu.ok_or_else(|| need("gpu"))?,
                at,
                count,
            })
        }
        "storm" => {
            let stall = stall.ok_or_else(|| need("stall"))?;
            if stall == 0 {
                return Err("stall must be positive".into());
            }
            Ok(FaultSpec::Storm {
                gpu: gpu.ok_or_else(|| need("gpu"))?,
                at,
                duration: dur_ok(duration.ok_or_else(|| need("for"))?)?,
                stall,
            })
        }
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

/// One state change of the injected-fault machinery: a fault taking
/// effect (`starts`) or a window expiring (recovery). The driver walks
/// these in order with a cursor and emits trace events at each crossing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Transition {
    /// The simulated cycle at which the change applies.
    pub cycle: Cycle,
    /// The fault's kind.
    pub kind: InjectedKind,
    /// `true` when the fault takes effect, `false` on recovery.
    /// Retirements are permanent and only ever start.
    pub starts: bool,
    /// The affected wire (`None` for GPU-side faults or `wire=*`).
    pub wire: Option<u32>,
    /// The affected GPU (`None` for wire-side faults).
    pub gpu: Option<u8>,
}

/// Capped exponential backoff for migrations blocked by an outage.
///
/// Attempt `k` (0-based) waits `min(base << k, cap)` cycles before
/// re-checking the route; after `max_attempts` failed checks the
/// migration falls back (remote mapping or host staging). All values are
/// cycle counts, so the retry schedule is deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Backoff {
    /// First retry delay in cycles.
    pub base: Cycle,
    /// Upper bound on any single delay.
    pub cap: Cycle,
    /// Number of retry attempts before falling back.
    pub max_attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: 2_000,
            cap: 64_000,
            max_attempts: 4,
        }
    }
}

impl Backoff {
    /// The delay before 0-based retry attempt `attempt`.
    pub fn delay(&self, attempt: u32) -> Cycle {
        self.base.checked_shl(attempt).unwrap_or(Cycle::MAX).min(self.cap).max(1)
    }
}

/// Counters of injected faults and the degradation machinery's responses;
/// recorded as the `resilience_counters` aux series of a run's metrics.
/// [`ResilienceCounters::as_aux`] fixes the slot order and
/// [`ResilienceCounters::from_aux`] reads it back.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResilienceCounters {
    /// Fault events that took effect (window starts + retirements).
    pub faults_injected: u64,
    /// Fault windows that expired (degrade/outage/storm ends).
    pub recoveries: u64,
    /// DRAM page frames retired by ECC events.
    pub frames_retired: u64,
    /// Resident pages force-evicted by retirements.
    pub pages_force_evicted: u64,
    /// Faults that paid a storm stall.
    pub storm_stalled_faults: u64,
    /// Migration attempts that found their route down.
    pub migrations_blocked: u64,
    /// Backoff retry attempts made by blocked migrations.
    pub migration_retries: u64,
    /// Blocked migrations that eventually completed via retry.
    pub retry_successes: u64,
    /// Blocked migrations that fell back to a remote mapping.
    pub fallback_remote: u64,
    /// Blocked migrations that staged the page through host memory.
    pub host_staged: u64,
    /// Invariant sweeps the driver ran: one per applied transition and
    /// one per epoch boundary.
    pub invariant_checks: u64,
}

impl ResilienceCounters {
    /// Length of the aux-series encoding.
    pub const AUX_LEN: usize = 11;

    /// Encodes the counters as the `resilience_counters` aux series, in
    /// field-declaration order.
    pub fn as_aux(&self) -> Vec<f64> {
        vec![
            self.faults_injected as f64,
            self.recoveries as f64,
            self.frames_retired as f64,
            self.pages_force_evicted as f64,
            self.storm_stalled_faults as f64,
            self.migrations_blocked as f64,
            self.migration_retries as f64,
            self.retry_successes as f64,
            self.fallback_remote as f64,
            self.host_staged as f64,
            self.invariant_checks as f64,
        ]
    }

    /// Decodes a `resilience_counters` aux series written by
    /// [`ResilienceCounters::as_aux`]; missing slots read as zero, so an
    /// empty series (an uninjected run) decodes to all zeros.
    pub fn from_aux(series: &[f64]) -> Self {
        let mut slots = [0u64; Self::AUX_LEN];
        for (slot, v) in slots.iter_mut().zip(series) {
            *slot = *v as u64;
        }
        ResilienceCounters {
            faults_injected: slots[0],
            recoveries: slots[1],
            frames_retired: slots[2],
            pages_force_evicted: slots[3],
            storm_stalled_faults: slots[4],
            migrations_blocked: slots[5],
            migration_retries: slots[6],
            retry_successes: slots[7],
            fallback_remote: slots[8],
            host_staged: slots[9],
            invariant_checks: slots[10],
        }
    }

    /// Whether every blocked migration resolved: retried to success, fell
    /// back to remote access, or was staged through the host.
    pub fn all_blocked_resolved(&self) -> bool {
        self.migrations_blocked <= self.retry_successes + self.fallback_remote + self.host_staged
    }
}

/// A compiled, queryable fault schedule for a concrete system shape.
///
/// Every query is a pure function of the cycle argument, which is what
/// keeps injected runs deterministic under any execution order.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    num_wires: usize,
    /// Per wire: merged outage windows `[start, end)`, sorted by start.
    outages: Vec<Vec<(Cycle, Cycle)>>,
    /// Per wire: degrade windows `(start, end, frac)`, sorted by start.
    degrades: Vec<Vec<(Cycle, Cycle, f64)>>,
    /// Per GPU: retirements `(cycle, count)`, sorted by cycle.
    retirements: Vec<Vec<(Cycle, FrameCount)>>,
    /// Per GPU: storm windows `(start, end, stall)`, sorted by start.
    storms: Vec<Vec<(Cycle, Cycle, Cycle)>>,
    /// All state changes, sorted by cycle (ties broken deterministically).
    transitions: Vec<Transition>,
    /// Outage epochs: at `cycle`, the sorted set of down wires becomes
    /// exactly `wires`. Starts with an implicit all-up epoch at cycle 0.
    epochs: Vec<(Cycle, Vec<u32>)>,
    /// The wire layout [`SimConfig::validate`](crate::SimConfig::validate)
    /// compiled the plan against, until the fabric takes it.
    pub(crate) graph: Option<TopoGraph>,
}

impl FaultPlan {
    /// An inert plan (every query reports healthy hardware).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Takes the wire layout [`SimConfig::validate`](crate::SimConfig::validate)
    /// laid out to compile this plan, so the fabric does not lay it out
    /// again; `None` for a plan compiled from a bare wire count.
    pub fn take_graph(&mut self) -> Option<TopoGraph> {
        self.graph.take()
    }

    /// Compiles a schedule against a system shape.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] on `inject` for a wire or GPU index outside the
    /// fabric.
    pub fn compile(
        cfg: &InjectConfig,
        num_wires: usize,
        num_gpus: usize,
    ) -> Result<Self, ConfigError> {
        let mut plan = FaultPlan {
            num_wires,
            outages: vec![Vec::new(); num_wires],
            degrades: vec![Vec::new(); num_wires],
            retirements: vec![Vec::new(); num_gpus],
            storms: vec![Vec::new(); num_gpus],
            transitions: Vec::new(),
            epochs: Vec::new(),
            graph: None,
        };
        let wire_targets = |w: WireSel| -> Result<Vec<usize>, ConfigError> {
            match w {
                WireSel::All => Ok((0..num_wires).collect()),
                WireSel::One(i) => {
                    if (i as usize) < num_wires {
                        Ok(vec![i as usize])
                    } else {
                        Err(ConfigError::new(
                            "inject",
                            format!("wire {i} out of range (fabric has {num_wires} wires)"),
                        ))
                    }
                }
            }
        };
        let gpu_ok = |g: u8| -> Result<usize, ConfigError> {
            if (g as usize) < num_gpus {
                Ok(g as usize)
            } else {
                Err(ConfigError::new(
                    "inject",
                    format!("gpu {g} out of range (system has {num_gpus} GPUs)"),
                ))
            }
        };
        for ev in &cfg.events {
            match *ev {
                FaultSpec::Degrade {
                    wire,
                    at,
                    duration,
                    frac,
                } => {
                    let end = at.saturating_add(duration);
                    for w in wire_targets(wire)? {
                        plan.degrades[w].push((at, end, frac));
                    }
                    plan.push_window(ev.kind(), wire, at, Some(end));
                }
                FaultSpec::Outage { wire, at, duration } => {
                    let end = at.saturating_add(duration);
                    for w in wire_targets(wire)? {
                        plan.outages[w].push((at, end));
                    }
                    plan.push_window(ev.kind(), wire, at, Some(end));
                }
                FaultSpec::Retire { gpu, at, count } => {
                    let g = gpu_ok(gpu)?;
                    plan.retirements[g].push((at, count));
                    plan.transitions.push(Transition {
                        cycle: at,
                        kind: InjectedKind::Retire,
                        starts: true,
                        wire: None,
                        gpu: Some(gpu),
                    });
                }
                FaultSpec::Storm {
                    gpu,
                    at,
                    duration,
                    stall,
                } => {
                    let g = gpu_ok(gpu)?;
                    let end = at.saturating_add(duration);
                    plan.storms[g].push((at, end, stall));
                    for (cycle, starts) in [(at, true), (end, false)] {
                        plan.transitions.push(Transition {
                            cycle,
                            kind: InjectedKind::Storm,
                            starts,
                            wire: None,
                            gpu: Some(gpu),
                        });
                    }
                }
            }
        }
        for list in &mut plan.outages {
            list.sort_unstable();
        }
        for list in &mut plan.degrades {
            list.sort_unstable_by_key(|a| (a.0, a.1));
        }
        for list in &mut plan.retirements {
            list.sort_unstable_by_key(|&(at, _)| at);
        }
        for list in &mut plan.storms {
            list.sort_unstable();
        }
        plan.transitions.sort_by_key(|t| {
            (
                t.cycle,
                t.kind,
                t.starts,
                t.wire.unwrap_or(u32::MAX),
                t.gpu.unwrap_or(u8::MAX),
            )
        });
        plan.build_epochs();
        Ok(plan)
    }

    fn push_window(&mut self, kind: InjectedKind, wire: WireSel, at: Cycle, end: Option<Cycle>) {
        let wire = match wire {
            WireSel::All => None,
            WireSel::One(i) => Some(i),
        };
        self.transitions.push(Transition {
            cycle: at,
            kind,
            starts: true,
            wire,
            gpu: None,
        });
        if let Some(end) = end {
            self.transitions.push(Transition {
                cycle: end,
                kind,
                starts: false,
                wire,
                gpu: None,
            });
        }
    }

    /// Precomputes the epochs at which the set of down wires changes.
    fn build_epochs(&mut self) {
        let mut boundaries: Vec<Cycle> = Vec::new();
        for list in &self.outages {
            for &(s, e) in list {
                boundaries.push(s);
                boundaries.push(e);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut epochs: Vec<(Cycle, Vec<u32>)> = vec![(0, Vec::new())];
        for b in boundaries {
            let down: Vec<u32> = (0..self.num_wires)
                .filter(|&w| self.wire_down(w, b))
                .map(|w| w as u32)
                .collect();
            if b == 0 {
                // An outage can start at cycle 0: the initial epoch is
                // then not all-up.
                epochs[0].1 = down;
            } else if epochs.last().map(|(_, d)| d) != Some(&down) {
                epochs.push((b, down));
            }
        }
        self.epochs = epochs;
    }

    /// Whether the plan carries no faults at all.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Whether wire `wire` is inside an outage window at cycle `t`.
    pub fn wire_down(&self, wire: usize, t: Cycle) -> bool {
        self.outages.get(wire).is_some_and(|l| l.iter().any(|&(s, e)| s <= t && t < e))
    }

    /// The remaining bandwidth fraction of wire `wire` at cycle `t`
    /// (1.0 when healthy; overlapping degradations compound).
    pub fn bw_scale(&self, wire: usize, t: Cycle) -> f64 {
        match self.degrades.get(wire) {
            None => 1.0,
            Some(l) => l.iter().filter(|&&(s, e, _)| s <= t && t < e).map(|&(_, _, f)| f).product(),
        }
    }

    /// Whether wire `wire` is degraded or down at cycle `t`.
    pub fn wire_sick(&self, wire: usize, t: Cycle) -> bool {
        self.wire_down(wire, t) || self.bw_scale(wire, t) < 1.0
    }

    /// The outage epochs (cycle at which the down-set changes, and the
    /// sorted set of down wires from then on). Always starts with the
    /// all-up epoch at cycle 0.
    pub fn outage_epochs(&self) -> &[(Cycle, Vec<u32>)] {
        if self.epochs.is_empty() {
            const EMPTY: &[(Cycle, Vec<u32>)] = &[];
            return EMPTY;
        }
        &self.epochs
    }

    /// Index into [`FaultPlan::outage_epochs`] active at cycle `t`
    /// (0 when there are no epochs).
    pub fn epoch_at(&self, t: Cycle) -> usize {
        match self.epochs.binary_search_by_key(&t, |&(c, _)| c) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Extra fault-handler service cycles on GPU `gpu` at cycle `t`
    /// (overlapping storms sum).
    pub fn storm_stall(&self, gpu: usize, t: Cycle) -> Cycle {
        match self.storms.get(gpu) {
            None => 0,
            Some(l) => {
                l.iter().filter(|&&(s, e, _)| s <= t && t < e).map(|&(_, _, stall)| stall).sum()
            }
        }
    }

    /// The retirement schedule of GPU `gpu` (sorted by cycle); the driver
    /// applies entries with a one-shot cursor.
    pub fn retirements(&self, gpu: usize) -> &[(Cycle, FrameCount)] {
        self.retirements.get(gpu).map_or(&[], |l| l.as_slice())
    }

    /// All state changes in deterministic order; the driver walks them
    /// with a cursor to emit `FaultInjected`/`Recovered` trace events.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
}
