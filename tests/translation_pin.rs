//! Pins per-GPU TLB hit rates and cell counters across the address
//! translation path: one cell per Fig. 17 policy plus GPS, under uniform
//! 4 KB and `mixed` pages, with and without an injected fault plan.
//!
//! The runner replays a GPU's repeat of its last page as an L1-TLB hit
//! without probing, and drops that shortcut whenever a driver outcome
//! lands (fault, epoch, counter-trip migration, injected transition). If
//! the shortcut ever disagreed with a real probe, a hit-rate series here
//! would move. Re-bless only for an intentional model change:
//! `GRIT_BLESS=1 cargo test --test translation_pin`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit_sim::{InjectConfig, PageSizeMode, Scheme, SimConfig};
use grit_workloads::App;

const FIXTURE: &str = "translation_pin.txt";

/// Outages on every wire plus an ECC retirement, early enough to land
/// inside the runs below.
const INJECT: &str = "outage@20000:wire=*:for=150000;retire@50000:gpu=0:pct=20";

/// FIR and MM coalesce 2 MB frames under `mixed` pages at this scale (MM
/// under access-counter, FIR under on-touch and GRIT); ST shares and
/// writes replicated pages.
const APPS: [App; 3] = [App::Fir, App::Mm, App::St];

fn policies() -> [PolicyKind; 6] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
        PolicyKind::Gps,
    ]
}

fn cells() -> Vec<(String, CellSpec)> {
    let exp = ExpConfig {
        scale: 0.2,
        intensity: 0.5,
        seed: 0x7157,
    };
    let mut cells = Vec::new();
    for mode in PageSizeMode::ALL {
        for inject in ["", INJECT] {
            for (policy, app) in policies().into_iter().zip(APPS.into_iter().cycle()) {
                let cfg = SimConfig {
                    page_size_mode: mode,
                    inject: InjectConfig::parse(inject).expect("valid inject spec"),
                    ..SimConfig::default()
                };
                let label = format!(
                    "{} {} {} {}",
                    app.abbr(),
                    policy.label(),
                    mode.name(),
                    if inject.is_empty() {
                        "healthy"
                    } else {
                        "injected"
                    }
                );
                cells.push((label, CellSpec::new(app, policy, &exp).with_cfg(cfg)));
            }
        }
    }
    cells
}

/// One line per cell: its counters, then every per-GPU TLB series the
/// run reports (the 2 MB ones only under `mixed` pages).
fn render() -> String {
    let (labels, specs): (Vec<String>, Vec<CellSpec>) = cells().into_iter().unzip();
    let outputs = run_batch_with(&specs, &BatchOptions::new().jobs(2));
    let mut text = String::new();
    for (label, out) in labels.iter().zip(&outputs) {
        let m = &out.as_ref().unwrap_or_else(|e| panic!("{label}: {e}")).metrics;
        writeln!(
            text,
            "{label}: cycles={} accesses={} local={} remote={} {:?} {:?}",
            m.total_cycles, m.accesses, m.local_accesses, m.remote_accesses, m.faults, m.scheme_mix
        )
        .unwrap();
        for series in [
            "tlb_l1_hit_rate",
            "tlb_l2_hit_rate",
            "tlb_l1_hit_rate_2m",
            "tlb_l2_hit_rate_2m",
            "pagesize_counters",
            "resilience_counters",
            "prof_mlp_stall_cycles",
        ] {
            if let Some(v) = m.aux(series) {
                writeln!(text, "  {series} {v:?}").unwrap();
            }
        }
    }
    text
}

#[test]
fn tlb_hit_rates_and_counters_are_pinned() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(FIXTURE);
    if std::env::var_os("GRIT_BLESS").is_some() {
        fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "translation counters diverged from {FIXTURE}");
    }
    assert_eq!(actual, expected, "{FIXTURE}: cell count changed");
}
