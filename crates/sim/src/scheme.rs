//! Page-placement scheme and page-group vocabulary (paper Tables IV & V).
//!
//! These enums are shared vocabulary across the UVM driver, the GRIT
//! policy, and the metrics layer; the PTE bit packing that carries them
//! lives in `grit-uvm::pte`.

/// One of the three page placement schemes a page can employ (Table IV).
///
/// The two-bit encodings match the paper's PTE scheme bits: `01` on-touch,
/// `10` access-counter, `11` duplication (`00` means "unset", represented
/// here as `Option<Scheme>::None`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Scheme {
    /// Migrate the page to the requester on every non-local touch (§II-B1).
    OnTouch,
    /// Map remotely and migrate only after the 64 KB-group access counter
    /// reaches its threshold (§II-B2).
    AccessCounter,
    /// Replicate read-shared pages locally; writes collapse replicas
    /// (§II-B3).
    Duplication,
}

impl Scheme {
    /// The PTE scheme-bit encoding (Table IV).
    pub fn bits(self) -> u64 {
        match self {
            Scheme::OnTouch => 0b01,
            Scheme::AccessCounter => 0b10,
            Scheme::Duplication => 0b11,
        }
    }

    /// Decodes PTE scheme bits; `None` for the unset `00` pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 0b11`.
    pub fn from_bits(bits: u64) -> Option<Scheme> {
        match bits {
            0b00 => None,
            0b01 => Some(Scheme::OnTouch),
            0b10 => Some(Scheme::AccessCounter),
            0b11 => Some(Scheme::Duplication),
            _ => panic!("scheme bits out of range: {bits:#b}"),
        }
    }

    /// All three schemes, in Table IV order.
    pub const ALL: [Scheme; 3] = [Scheme::OnTouch, Scheme::AccessCounter, Scheme::Duplication];

    /// Short label used in reports ("OT"/"AC"/"D" as in Fig. 3).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::OnTouch => "OT",
            Scheme::AccessCounter => "AC",
            Scheme::Duplication => "D",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scheme::OnTouch => "on-touch",
            Scheme::AccessCounter => "access-counter",
            Scheme::Duplication => "duplication",
        };
        f.write_str(name)
    }
}

/// Page-group size for Neighboring-Aware Prediction (Table V).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum GroupSize {
    /// A single 4 KB page (`00`).
    #[default]
    One,
    /// Eight consecutive pages, 32 KB (`01`).
    Eight,
    /// Sixty-four consecutive pages, 256 KB (`10`).
    SixtyFour,
    /// Five hundred twelve consecutive pages, 2 MB (`11`).
    FiveTwelve,
}

impl GroupSize {
    /// Number of 4 KB pages in the group (Table V).
    pub fn pages(self) -> u64 {
        match self {
            GroupSize::One => 1,
            GroupSize::Eight => 8,
            GroupSize::SixtyFour => 64,
            GroupSize::FiveTwelve => 512,
        }
    }

    /// The PTE group-bit encoding (Table V).
    pub fn bits(self) -> u64 {
        match self {
            GroupSize::One => 0b00,
            GroupSize::Eight => 0b01,
            GroupSize::SixtyFour => 0b10,
            GroupSize::FiveTwelve => 0b11,
        }
    }

    /// Decodes PTE group bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 0b11`.
    pub fn from_bits(bits: u64) -> GroupSize {
        match bits {
            0b00 => GroupSize::One,
            0b01 => GroupSize::Eight,
            0b10 => GroupSize::SixtyFour,
            0b11 => GroupSize::FiveTwelve,
            _ => panic!("group bits out of range: {bits:#b}"),
        }
    }

    /// The next smaller group (degradation), or `None` at one page.
    pub fn demote(self) -> Option<GroupSize> {
        match self {
            GroupSize::One => None,
            GroupSize::Eight => Some(GroupSize::One),
            GroupSize::SixtyFour => Some(GroupSize::Eight),
            GroupSize::FiveTwelve => Some(GroupSize::SixtyFour),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_bits_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_bits(s.bits()), Some(s));
        }
        assert_eq!(Scheme::from_bits(0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scheme_bits_reject_garbage() {
        let _ = Scheme::from_bits(4);
    }

    #[test]
    fn group_bits_round_trip_and_pages() {
        let all = [
            GroupSize::One,
            GroupSize::Eight,
            GroupSize::SixtyFour,
            GroupSize::FiveTwelve,
        ];
        let pages = [1u64, 8, 64, 512];
        for (g, p) in all.iter().zip(pages) {
            assert_eq!(GroupSize::from_bits(g.bits()), *g);
            assert_eq!(g.pages(), p);
        }
    }

    #[test]
    fn promotion_chain() {
        assert_eq!(GroupSize::FiveTwelve.demote(), Some(GroupSize::SixtyFour));
        assert_eq!(GroupSize::One.demote(), None);
    }

    #[test]
    fn labels_match_figure3() {
        assert_eq!(Scheme::OnTouch.label(), "OT");
        assert_eq!(Scheme::AccessCounter.label(), "AC");
        assert_eq!(Scheme::Duplication.label(), "D");
        assert_eq!(format!("{}", Scheme::Duplication), "duplication");
    }
}
