//! Neighboring-Aware Prediction (paper §V-D, Fig. 15).
//!
//! NAP exploits the attribute similarity of consecutive pages (§IV-C):
//! when a page's scheme changes, the eight-page aligned group around it is
//! checked; if more than half of those pages already use the new scheme,
//! the scheme is propagated to the whole group and the group is *promoted*
//! (group bits `01`), recursively up to 64-page (`10`) and 512-page (`11`)
//! groups. A divergent scheme change inside a promoted group *degrades* it
//! back into eight sub-groups. Group bits live only in each group's base
//! page (Table V); this module maintains that invariant on the centralized
//! page table.
//!
//! The group work happens in the background (§V-D: "does not block GPU
//! execution"), so NAP adds no critical-path latency — only PTE updates.

use grit_sim::{GroupSize, PageId, Scheme};
use grit_uvm::CentralPageTable;

/// Promotion/degradation activity counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NapStats {
    /// Group promotions performed (any size).
    pub promotions: u64,
    /// Group degradations performed (any size).
    pub degradations: u64,
    /// Scheme bits written by propagation.
    pub pages_propagated: u64,
}

/// The Neighboring-Aware Predictor.
#[derive(Clone, Debug)]
pub struct Nap {
    footprint_pages: u64,
    stats: NapStats,
}

impl Nap {
    /// A predictor for an address space of `footprint_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is zero.
    pub fn new(footprint_pages: u64) -> Self {
        assert!(footprint_pages > 0, "footprint must be non-zero");
        Nap {
            footprint_pages,
            stats: NapStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> NapStats {
        self.stats
    }

    /// The group currently covering `p`, resolved top-down from base-page
    /// group bits: `(base, size)`.
    pub fn covering_group(table: &CentralPageTable, p: PageId) -> (PageId, GroupSize) {
        for size in [
            GroupSize::FiveTwelve,
            GroupSize::SixtyFour,
            GroupSize::Eight,
        ] {
            let base = p.group_base(size.pages());
            if table.group_of(base) == size {
                return (base, size);
            }
        }
        (p, GroupSize::One)
    }

    /// Handles a scheme change of page `p` from `prev` to `new`:
    /// degradation of any covering group, then promotion checks.
    ///
    /// Per §V-D, when the newly determined scheme equals the previous one
    /// (possible only for access-counter pages) the group check is skipped
    /// entirely to avoid promotion/degradation ping-pong — the caller must
    /// not invoke this method in that case; it is asserted here.
    pub fn on_scheme_change(
        &mut self,
        table: &mut CentralPageTable,
        p: PageId,
        new: Scheme,
        prev: Option<Scheme>,
    ) {
        assert!(
            prev != Some(new),
            "NAP must not run when the scheme is unchanged (anti ping-pong rule)"
        );

        // 1. Degrade the covering group, if any: the group no longer shares
        //    one scheme.
        let (base, size) = Self::covering_group(table, p);
        if size != GroupSize::One {
            self.degrade(table, base, size, p);
        }

        // 2. Promotion: check the eight-page neighborhood, then recurse
        //    upward while the majority condition holds.
        self.try_promote(table, p, new);
    }

    /// Splits `(base, size)` into eight sub-groups; the sub-group holding
    /// `p` degrades recursively down to single pages.
    fn degrade(&mut self, table: &mut CentralPageTable, base: PageId, size: GroupSize, p: PageId) {
        self.stats.degradations += 1;
        let sub = size.demote().expect("degrade never called on single pages");
        let sub_pages = sub.pages();
        for i in 0..8 {
            let sub_base = base.offset(i * sub_pages);
            self.set_sub_group(table, sub_base, sub);
        }
        let p_sub_base = p.group_base(sub_pages);
        if sub == GroupSize::One {
            // Table V has no explicit entry below eight pages: the paper
            // sets the changed page's group bits to "00" and leaves the
            // other seven pages as singles too (an 8-group dissolves).
            table.set_group(p_sub_base, GroupSize::One);
        } else {
            self.degrade(table, p_sub_base, sub, p);
        }
    }

    /// Attempts promotion of the group containing `p`, recursively growing
    /// while more than half of the members already use `new`.
    fn try_promote(&mut self, table: &mut CentralPageTable, p: PageId, new: Scheme) {
        // Level 1: eight single pages -> 8-group.
        let base8 = p.group_base(8);
        let matching = (0..8)
            .filter(|&i| {
                let q = base8.offset(i);
                q.vpn() < self.footprint_pages && table.scheme_of(q) == Some(new)
            })
            .count();
        if matching <= 4 {
            return;
        }
        self.propagate(table, base8, 8, new);
        table.set_group(base8, GroupSize::Eight);
        self.stats.promotions += 1;

        // Level 2: eight 8-groups -> 64-group.
        let base64 = p.group_base(64);
        let matching = (0..8)
            .filter(|&i| {
                let b = base64.offset(i * 8);
                b.vpn() < self.footprint_pages
                    && table.group_of(b) == GroupSize::Eight
                    && table.scheme_of(b) == Some(new)
            })
            .count();
        if matching <= 4 {
            return;
        }
        self.propagate(table, base64, 64, new);
        for i in 0..8 {
            self.set_sub_group(table, base64.offset(i * 8), GroupSize::One);
        }
        table.set_group(base64, GroupSize::SixtyFour);
        self.stats.promotions += 1;

        // Level 3: eight 64-groups -> 512-group (one 2 MB page-table page).
        let base512 = p.group_base(512);
        let matching = (0..8)
            .filter(|&i| {
                let b = base512.offset(i * 64);
                b.vpn() < self.footprint_pages
                    && table.group_of(b) == GroupSize::SixtyFour
                    && table.scheme_of(b) == Some(new)
            })
            .count();
        if matching <= 4 {
            return;
        }
        self.propagate(table, base512, 512, new);
        for i in 0..8 {
            self.set_sub_group(table, base512.offset(i * 64), GroupSize::One);
        }
        table.set_group(base512, GroupSize::FiveTwelve);
        self.stats.promotions += 1;
    }

    /// Writes the group bits of a sub-group's base page. A group can reach
    /// past the end of the footprint; sub-groups there have no PTE to hold
    /// the bits and are skipped.
    fn set_sub_group(&self, table: &mut CentralPageTable, base: PageId, size: GroupSize) {
        if base.vpn() < self.footprint_pages {
            table.set_group(base, size);
        }
    }

    /// Writes `new` into the scheme bits of every in-footprint page of the
    /// group.
    fn propagate(&mut self, table: &mut CentralPageTable, base: PageId, pages: u64, new: Scheme) {
        for i in 0..pages {
            let q = base.offset(i);
            if q.vpn() >= self.footprint_pages {
                break;
            }
            if table.scheme_of(q) != Some(new) {
                table.set_scheme(q, new);
                self.stats.pages_propagated += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(schemes: &[(u64, Scheme)]) -> CentralPageTable {
        let mut t = CentralPageTable::new();
        for &(p, s) in schemes {
            t.set_scheme(PageId(p), s);
        }
        t
    }

    #[test]
    fn majority_promotes_to_eight_group() {
        // Pages 0..5 use duplication; page 5 just changed to duplication.
        let mut t = table_with(&[
            (0, Scheme::Duplication),
            (1, Scheme::Duplication),
            (2, Scheme::Duplication),
            (3, Scheme::Duplication),
            (4, Scheme::Duplication),
            (5, Scheme::Duplication),
        ]);
        let mut nap = Nap::new(4096);
        nap.on_scheme_change(&mut t, PageId(5), Scheme::Duplication, None);
        assert_eq!(t.group_of(PageId(0)), GroupSize::Eight);
        // Propagation covered the whole group.
        for p in 0..8 {
            assert_eq!(t.scheme_of(PageId(p)), Some(Scheme::Duplication));
        }
        assert_eq!(nap.stats().promotions, 1);
        assert_eq!(nap.stats().pages_propagated, 2); // pages 6 and 7
    }

    #[test]
    fn minority_does_not_promote() {
        let mut t = table_with(&[
            (0, Scheme::Duplication),
            (1, Scheme::Duplication),
            (2, Scheme::Duplication),
            (3, Scheme::AccessCounter),
        ]);
        let mut nap = Nap::new(4096);
        // Page 3 changed to AC; only 1 of 8 pages uses AC.
        nap.on_scheme_change(
            &mut t,
            PageId(3),
            Scheme::AccessCounter,
            Some(Scheme::Duplication),
        );
        assert_eq!(t.group_of(PageId(0)), GroupSize::One);
        assert_eq!(nap.stats().promotions, 0);
        // Page 5 untouched.
        assert_eq!(t.scheme_of(PageId(5)), None);
    }

    #[test]
    fn recursive_promotion_to_sixty_four() {
        let mut t = CentralPageTable::new();
        // Seven 8-groups (pages 8..64) already promoted with on-touch.
        for p in 8..64 {
            t.set_scheme(PageId(p), Scheme::OnTouch);
        }
        for g in 1..8 {
            t.set_group(PageId(g * 8), GroupSize::Eight);
        }
        // First group's pages mostly on-touch; page 0 now changes to it.
        for p in 0..8 {
            t.set_scheme(PageId(p), Scheme::OnTouch);
        }
        let mut nap = Nap::new(4096);
        nap.on_scheme_change(&mut t, PageId(0), Scheme::OnTouch, None);
        // Promoted twice: to 8-group and then to 64-group.
        assert_eq!(t.group_of(PageId(0)), GroupSize::SixtyFour);
        // Sub-base group bits were folded into the big group.
        for g in 1..8 {
            assert_eq!(t.group_of(PageId(g * 8)), GroupSize::One);
        }
        assert_eq!(nap.stats().promotions, 2);
    }

    #[test]
    fn degradation_splits_sixty_four_group() {
        let mut t = CentralPageTable::new();
        for p in 0..64 {
            t.set_scheme(PageId(p), Scheme::AccessCounter);
        }
        t.set_group(PageId(0), GroupSize::SixtyFour);
        let mut nap = Nap::new(4096);
        // Page 20 (inside sub-group 2, pages 16..24) changes to duplication.
        t.set_scheme(PageId(20), Scheme::Duplication);
        nap.on_scheme_change(
            &mut t,
            PageId(20),
            Scheme::Duplication,
            Some(Scheme::AccessCounter),
        );
        // The seven unaffected 8-groups stay promoted as 8-groups.
        for g in [0u64, 1, 3, 4, 5, 6, 7] {
            assert_eq!(t.group_of(PageId(g * 8)), GroupSize::Eight, "sub-group {g}");
        }
        // The group containing page 20 dissolved.
        assert_eq!(t.group_of(PageId(16)), GroupSize::One);
        assert!(nap.stats().degradations >= 1);
    }

    #[test]
    fn covering_group_resolves_top_down() {
        let mut t = CentralPageTable::new();
        t.set_group(PageId(0), GroupSize::FiveTwelve);
        assert_eq!(
            Nap::covering_group(&t, PageId(300)),
            (PageId(0), GroupSize::FiveTwelve)
        );
        let mut t = CentralPageTable::new();
        t.set_group(PageId(64), GroupSize::SixtyFour);
        assert_eq!(
            Nap::covering_group(&t, PageId(100)),
            (PageId(64), GroupSize::SixtyFour)
        );
        let t = CentralPageTable::new();
        assert_eq!(
            Nap::covering_group(&t, PageId(9)),
            (PageId(9), GroupSize::One)
        );
    }

    #[test]
    fn footprint_bounds_promotion_checks() {
        // Only 6 pages exist; 5 use duplication -> still a majority of the
        // 8-slot window, so promotion happens but propagation stops at the
        // footprint edge.
        let mut t = table_with(&[
            (0, Scheme::Duplication),
            (1, Scheme::Duplication),
            (2, Scheme::Duplication),
            (3, Scheme::Duplication),
            (4, Scheme::Duplication),
        ]);
        let mut nap = Nap::new(6);
        nap.on_scheme_change(&mut t, PageId(4), Scheme::Duplication, None);
        assert_eq!(t.group_of(PageId(0)), GroupSize::Eight);
        assert_eq!(t.scheme_of(PageId(5)), Some(Scheme::Duplication));
        // Pages 6, 7 are beyond the footprint and untouched.
        assert_eq!(t.scheme_of(PageId(6)), None);
        assert_eq!(t.scheme_of(PageId(7)), None);
    }

    #[test]
    fn degrading_a_group_past_the_footprint_skips_the_missing_sub_groups() {
        // A 64-group over a 50-page footprint: its last sub-group starts
        // at page 56, which has no PTE.
        let mut t = CentralPageTable::with_footprint(50);
        t.set_group(PageId(0), GroupSize::SixtyFour);
        let mut nap = Nap::new(50);
        nap.on_scheme_change(
            &mut t,
            PageId(3),
            Scheme::AccessCounter,
            Some(Scheme::Duplication),
        );
        assert_eq!(t.group_of(PageId(0)), GroupSize::One);
        assert_eq!(t.group_of(PageId(48)), GroupSize::Eight);
        assert!(t.iter().all(|(p, _)| p.vpn() < 50));
    }

    #[test]
    #[should_panic(expected = "anti ping-pong")]
    fn unchanged_scheme_is_rejected() {
        let mut t = CentralPageTable::new();
        let mut nap = Nap::new(64);
        nap.on_scheme_change(
            &mut t,
            PageId(0),
            Scheme::AccessCounter,
            Some(Scheme::AccessCounter),
        );
    }
}
