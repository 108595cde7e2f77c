//! Property tests over every workload generator: traces must stay within
//! the footprint, keep aligned kernel boundaries, and reproduce exactly
//! from their seed regardless of scale, GPU count or page size.

use proptest::prelude::*;

use grit_workloads::{App, WorkloadBuilder};

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
        Just(App::Resnet18),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_stay_in_footprint_for_any_shape(
        app in app_strategy(),
        gpus in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let w = WorkloadBuilder::new(app)
            .num_gpus(gpus)
            .scale(0.015)
            .intensity(0.5)
            .seed(seed)
            .build();
        prop_assert_eq!(w.streams.len(), gpus);
        for mut s in w.streams {
            while let Some(a) = s.next_access() {
                prop_assert!(a.vpn.vpn() < w.footprint_pages);
                prop_assert!(a.think > 0);
                prop_assert!((a.line as u64) < 4096 / 64);
            }
        }
    }

    #[test]
    fn barriers_are_aligned_and_monotone(
        app in app_strategy(),
        gpus in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let w = WorkloadBuilder::new(app)
            .num_gpus(gpus)
            .scale(0.015)
            .intensity(0.5)
            .seed(seed)
            .build();
        let phases = w.barriers[0].len();
        prop_assert!(phases > 0, "{app}: every workload has kernel boundaries");
        for (g, (bars, stream)) in w.barriers.iter().zip(&w.streams).enumerate() {
            prop_assert_eq!(bars.len(), phases, "GPU{} barrier count", g);
            let mut prev = 0usize;
            for &b in bars {
                prop_assert!(b >= prev, "barriers must be monotone");
                prop_assert!(b <= stream.remaining(), "barrier beyond stream end");
                prev = b;
            }
        }
    }

    #[test]
    fn traces_reproduce_from_seed(app in app_strategy(), seed in any::<u64>()) {
        let build = || {
            WorkloadBuilder::new(app).scale(0.015).intensity(0.5).seed(seed).build()
        };
        let (a, b) = (build(), build());
        prop_assert_eq!(a.footprint_pages, b.footprint_pages);
        for (mut x, mut y) in a.streams.into_iter().zip(b.streams) {
            loop {
                let (ax, ay) = (x.next_access(), y.next_access());
                prop_assert_eq!(ax, ay);
                if ax.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn footprint_scales_monotonically(app in app_strategy()) {
        let small = WorkloadBuilder::new(app).scale(0.01).build().footprint_pages;
        let large = WorkloadBuilder::new(app).scale(0.03).build().footprint_pages;
        prop_assert!(large >= small);
    }

    #[test]
    fn intensity_lengthens_traces(app in app_strategy(), seed in any::<u64>()) {
        let short = WorkloadBuilder::new(app)
            .scale(0.015)
            .intensity(0.5)
            .seed(seed)
            .build()
            .total_accesses();
        let long = WorkloadBuilder::new(app)
            .scale(0.015)
            .intensity(2.0)
            .seed(seed)
            .build()
            .total_accesses();
        prop_assert!(long >= short, "{app}: intensity must not shorten traces");
    }
}
