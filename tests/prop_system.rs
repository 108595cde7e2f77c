//! Randomized end-to-end stress: arbitrary (application, policy, GPU
//! count, seed) combinations must run to completion with the driver's
//! cross-structure invariants intact (the runner re-checks them after
//! every run) and with sane aggregate metrics.

use proptest::prelude::*;

use grit::experiments::PolicyKind;
use grit::prelude::*;

fn app_strategy() -> impl Strategy<Value = App> {
    prop_oneof![
        Just(App::Bfs),
        Just(App::Bs),
        Just(App::C2d),
        Just(App::Fir),
        Just(App::Gemm),
        Just(App::Mm),
        Just(App::Sc),
        Just(App::St),
        Just(App::Vgg16),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Static(Scheme::OnTouch)),
        Just(PolicyKind::Static(Scheme::AccessCounter)),
        Just(PolicyKind::Static(Scheme::Duplication)),
        Just(PolicyKind::GRIT),
        Just(PolicyKind::Grit {
            threshold: 2,
            pa_cache: false,
            nap: true
        }),
        Just(PolicyKind::FirstTouch),
        Just(PolicyKind::Gps),
        Just(PolicyKind::GriffinDpc),
        Just(PolicyKind::Ideal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_combination_runs_clean(
        app in app_strategy(),
        policy in policy_strategy(),
        gpus in 1usize..=6,
        seed in any::<u64>(),
        tight_memory in any::<bool>(),
    ) {
        let mut cfg = SimConfig::with_gpus(gpus);
        if tight_memory {
            cfg.capacity_ratio = 0.3; // force heavy eviction churn
        }
        let workload = WorkloadBuilder::new(app)
            .num_gpus(gpus)
            .scale(0.012)
            .intensity(0.4)
            .seed(seed)
            .build();
        let expected_accesses = workload.total_accesses();
        let attrs = workload.page_attrs().summary();
        let p = policy.build(&cfg, workload.footprint_pages);
        // `Simulation::run` panics if any VM invariant breaks.
        let out = Simulation::try_new(cfg, workload, p).unwrap().try_run().unwrap();

        prop_assert_eq!(out.metrics.accesses, expected_accesses);
        prop_assert!(out.metrics.total_cycles > 0);
        prop_assert!(
            out.metrics.local_accesses + out.metrics.remote_accesses
                <= out.metrics.accesses,
            "cache hits may absorb accesses but never invent them"
        );
        // Single-GPU nodes can never share pages.
        if gpus == 1 {
            prop_assert_eq!(attrs.shared_pages, 0);
            prop_assert_eq!(out.metrics.faults.collapses, 0);
        }
    }

    #[test]
    fn single_gpu_all_policies_agree_on_fault_count(
        app in app_strategy(),
        seed in any::<u64>(),
    ) {
        // With one GPU and memory large enough for the whole footprint
        // there is no sharing and no eviction: every placement policy sees
        // exactly one cold fault per touched page.
        let mut counts = Vec::new();
        for policy in [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::Static(Scheme::AccessCounter),
            PolicyKind::Static(Scheme::Duplication),
            PolicyKind::GRIT,
        ] {
            let mut cfg = SimConfig::with_gpus(1);
            cfg.capacity_ratio = 1.2; // the lone GPU holds everything
            let w = WorkloadBuilder::new(app)
                .num_gpus(1)
                .scale(0.012)
                .intensity(0.4)
                .seed(seed)
                .build();
            let p = policy.build(&cfg, w.footprint_pages);
            let out = Simulation::try_new(cfg, w, p).unwrap().try_run().unwrap();
            prop_assert_eq!(out.metrics.faults.evictions, 0);
            // Migration-style policies never take protection faults; the
            // duplication scheme can (a lone GPU still writes to its own
            // read-only replica of a host-resident page).
            if matches!(
                policy,
                PolicyKind::Static(Scheme::OnTouch) | PolicyKind::Static(Scheme::AccessCounter)
            ) {
                prop_assert_eq!(out.metrics.faults.protection_faults, 0);
            }
            counts.push(out.metrics.faults.local_faults);
        }
        prop_assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "policies diverged on a shareless run: {:?}",
            counts
        );
    }
}
