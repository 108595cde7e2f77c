//! Every generator keeps its pages inside the footprint at the smallest
//! scales, where the footprint sits at its 64-page floor and a fixed
//! layer or block count can exceed the pages left for it.

use grit_sim::spec::DEFAULT_INTENSITY;
use grit_workloads::{App, WorkloadBuilder};

#[test]
fn every_app_stays_in_its_footprint_at_small_scales() {
    for scale in [0.0005, 0.001, 0.002, 0.003, 0.04] {
        for app in App::all() {
            let w = WorkloadBuilder::new(app).scale(scale).intensity(DEFAULT_INTENSITY).build();
            for mut s in w.streams {
                while let Some(a) = s.next_access() {
                    assert!(
                        a.vpn.vpn() < w.footprint_pages,
                        "{app} at scale {scale}: {} is outside the footprint of {} pages",
                        a.vpn,
                        w.footprint_pages
                    );
                }
            }
        }
    }
}
