//! Smoke test for every figure driver: at a tiny scale each one must
//! produce a well-formed table — correct row/column arity, finite values,
//! positive normalization columns. Catches regressions in any driver
//! without asserting specific magnitudes.

use grit::experiments as ex;
use grit::experiments::ExpConfig;
use grit_metrics::Table;

fn tiny() -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0xABCD,
    }
}

fn check(table: &Table, min_rows: usize) {
    assert!(
        table.rows().len() >= min_rows,
        "{}: {} rows",
        table.title(),
        table.rows().len()
    );
    let cols = table.columns().len();
    assert!(cols > 0, "{}: no columns", table.title());
    for (label, row) in table.rows() {
        assert_eq!(row.len(), cols, "{}: row {label} arity", table.title());
        for (c, v) in row.iter().enumerate() {
            assert!(
                v.is_finite(),
                "{}: {label}/{} is not finite: {v}",
                table.title(),
                table.columns()[c]
            );
        }
    }
}

#[test]
fn fig01_shape() {
    let t = ex::fig01_schemes::run(&tiny());
    check(&t, 9); // 8 apps + geomean
    assert_eq!(t.columns().len(), 4);
}

#[test]
fn fig03_shape() {
    let t = ex::fig03_breakdown::run(&tiny());
    check(&t, 24); // 8 apps x 3 schemes
    assert_eq!(t.columns().len(), 7); // 6 classes + total
}

#[test]
fn fig04_and_fig09_shapes() {
    check(&ex::fig04_sharing::run(&tiny()), 8);
    check(&ex::fig09_rw::run(&tiny()), 8);
}

#[test]
fn fig05_and_fig10_shapes() {
    for t in ex::fig05_page_timeline::run(&tiny()) {
        check(&t, 1);
    }
    check(&ex::fig10_rw_timeline::run(&tiny()), 1);
}

#[test]
fn fig06_grids_shape() {
    check(&ex::fig06_attr_grids::run(&tiny()), 3);
}

#[test]
fn fig17_to_fig21_shapes() {
    let t17 = ex::fig17_grit::run(&tiny());
    check(&t17, 9);
    // Every speedup is positive.
    for (_, row) in t17.rows() {
        assert!(row.iter().all(|&v| v > 0.0));
    }
    check(&ex::fig18_faults::run(&tiny()), 9);
    check(&ex::fig19_scheme_mix::run(&tiny()), 8);
    check(&ex::fig20_ablation::run(&tiny()), 9);
    check(&ex::fig21_threshold::run(&tiny()), 9);
}

#[test]
fn fig22_shape() {
    let (perf, faults) = ex::fig22_gpu_scaling::run_gpus(2, &tiny());
    check(&perf, 9);
    check(&faults, 9);
}

#[test]
fn fig25_to_fig31_shapes() {
    check(&ex::fig25_large_pages::run(&tiny()), 9);
    check(&ex::fig26_griffin::run(&tiny()), 9);
    check(&ex::fig27_gps::run(&tiny()), 8);
    check(&ex::fig28_transfw::run(&tiny()), 9);
    check(&ex::fig29_first_touch::run(&tiny()), 9);
    check(&ex::fig30_prefetch::run(&tiny()), 9);
    check(&ex::fig31_dnn::run(&tiny()), 2);
}

#[test]
fn extension_shapes() {
    check(&ex::ext_oracle::run(&tiny()), 9);
    check(&ex::ext_pa_cache::run(&tiny()), 9);
    check(&ex::ext_workloads::run(&tiny()), 2);
    for t in ex::ext_adaptation::run(&tiny()) {
        check(&t, 1);
    }
    check(&ex::ext_sweeps::run_capacity(&tiny()), 5);
    check(&ex::ext_sweeps::run_remote_gap(&tiny()), 5);
    check(&ex::ext_sweeps::run_mlp(&tiny()), 5);
}

/// The observed figures (Figs. 5–8 and 10, the adaptation timeline) at
/// the tiny scale, pinned byte for byte: their intervals are sized from
/// the run itself, so any drift in the observer shows here. Re-bless
/// only for an intentional model change:
/// `GRIT_BLESS=1 cargo test --test figures_smoke`.
#[test]
fn observed_figures_match_golden() {
    let exp = tiny();
    let mut tables = ex::fig05_page_timeline::run(&exp);
    tables.push(ex::fig06_attr_grids::run(&exp));
    tables.push(ex::fig10_rw_timeline::run(&exp));
    tables.extend(ex::ext_adaptation::run(&exp));
    let actual: String = tables.iter().map(|t| format!("{}\n", t.to_text())).collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/observed_tables.txt");
    if std::env::var_os("GRIT_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "observed figure tables drifted from {}",
        path.display()
    );
}
