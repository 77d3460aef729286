//! The 19 MIG partition configurations.
//!
//! Paper Fig. 1: "One can partition the GPU into 19 different MIG
//! configurations consisting of these slice types." The figure names four of
//! them explicitly, which pin our table: configuration 1 is the whole GPU
//! ({7g}), configuration 3 is {4g, 2g, 1g}, configuration 10 is
//! {3g, 2g, 1g, 1g}, and configuration 19 is seven 1g slices. The remaining
//! entries enumerate the other slice multisets an A100 supports (at most one
//! 4g, at most two 3g, at most seven compute units); exact NVIDIA placement
//! rules are approximated.

use crate::slice::{SliceCensus, SliceType};
use serde::{Deserialize, Serialize};
use std::fmt;

use SliceType::{G1, G2, G3, G4, G7};

/// Slice multisets for configurations 1..=19, largest-first within each.
const CONFIG_TABLE: [&[SliceType]; 19] = [
    /* 1 */ &[G7],
    /* 2 */ &[G4, G3],
    /* 3 */ &[G4, G2, G1],
    /* 4 */ &[G4, G1, G1, G1],
    /* 5 */ &[G4, G2],
    /* 6 */ &[G4, G1, G1],
    /* 7 */ &[G3, G3],
    /* 8 */ &[G3, G3, G1],
    /* 9 */ &[G3, G2, G2],
    /* 10 */ &[G3, G2, G1, G1],
    /* 11 */ &[G3, G2, G1],
    /* 12 */ &[G3, G1, G1, G1, G1],
    /* 13 */ &[G3, G1, G1, G1],
    /* 14 */ &[G2, G2, G2, G1],
    /* 15 */ &[G2, G2, G2],
    /* 16 */ &[G2, G2, G1, G1, G1],
    /* 17 */ &[G2, G2, G1, G1],
    /* 18 */ &[G2, G1, G1, G1, G1, G1],
    /* 19 */ &[G1, G1, G1, G1, G1, G1, G1],
];

/// One of the 19 MIG partition configurations (1-based, matching the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MigConfig(u8);

impl MigConfig {
    /// The unpartitioned GPU (configuration 1, the paper's BASE layout).
    pub const FULL: MigConfig = MigConfig(1);

    /// The most aggressive partition: seven 1g slices (configuration 19,
    /// used by the paper's CO2OPT scheme).
    pub const FINEST: MigConfig = MigConfig(19);

    /// Number of configurations.
    pub const COUNT: usize = 19;

    /// Creates a configuration from its 1-based id.
    ///
    /// # Panics
    /// Panics if `id` is not in `1..=19`.
    pub fn new(id: u8) -> Self {
        assert!(
            (1..=Self::COUNT as u8).contains(&id),
            "invalid MIG configuration id: {id}"
        );
        MigConfig(id)
    }

    /// All 19 configurations in id order.
    pub fn all() -> impl Iterator<Item = MigConfig> {
        (1..=Self::COUNT as u8).map(MigConfig)
    }

    /// The 1-based configuration id (as in the paper's Fig. 1).
    pub fn id(self) -> u8 {
        self.0
    }

    /// The slice multiset of this configuration, largest slice first.
    pub fn slices(self) -> &'static [SliceType] {
        CONFIG_TABLE[(self.0 - 1) as usize]
    }

    /// Number of partitions (service instances this GPU can host).
    pub fn num_slices(self) -> usize {
        self.slices().len()
    }

    /// Total allocated compute units (≤ 7).
    pub fn total_units(self) -> u32 {
        self.slices().iter().map(|s| s.compute_units()).sum()
    }

    /// Slice census of this configuration.
    pub fn census(self) -> SliceCensus {
        SliceCensus::from_slices(self.slices())
    }
}

impl fmt::Display for MigConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}{}", self.0, self.census())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_pinned_configurations() {
        assert_eq!(MigConfig::new(1).slices(), &[G7]);
        assert_eq!(MigConfig::new(3).slices(), &[G4, G2, G1]);
        assert_eq!(MigConfig::new(10).slices(), &[G3, G2, G1, G1]);
        assert_eq!(MigConfig::new(19).slices(), &[G1; 7]);
        assert_eq!(MigConfig::FULL, MigConfig::new(1));
        assert_eq!(MigConfig::FINEST, MigConfig::new(19));
    }

    #[test]
    fn nineteen_distinct_configurations() {
        let censuses: HashSet<SliceCensus> = MigConfig::all().map(|c| c.census()).collect();
        assert_eq!(censuses.len(), 19);
        assert_eq!(MigConfig::all().count(), 19);
    }

    #[test]
    fn unit_budget_respected() {
        for c in MigConfig::all() {
            assert!(c.total_units() <= 7, "{c} exceeds 7 units");
            assert!(c.total_units() >= 3, "{c} suspiciously small");
            assert!(c.num_slices() <= 7);
            // A100 constraints: at most one 4g, at most two 3g.
            assert!(c.census()[G4] <= 1, "{c}");
            assert!(c.census()[G3] <= 2, "{c}");
        }
    }

    #[test]
    fn max_partitions_is_seven() {
        let max = MigConfig::all().map(|c| c.num_slices()).max().unwrap();
        assert_eq!(max, 7);
        assert_eq!(MigConfig::FINEST.num_slices(), 7);
    }

    #[test]
    fn census_round_trip() {
        // A census names exactly one configuration.
        for c in MigConfig::all() {
            assert_eq!(MigConfig::all().find(|d| d.census() == c.census()), Some(c));
        }
        let bogus = SliceCensus::from_slices(&[G7, G7]);
        assert!(MigConfig::all().all(|c| c.census() != bogus));
    }

    #[test]
    #[should_panic]
    fn id_zero_rejected() {
        let _ = MigConfig::new(0);
    }

    #[test]
    #[should_panic]
    fn id_twenty_rejected() {
        let _ = MigConfig::new(20);
    }

    #[test]
    fn display() {
        assert_eq!(MigConfig::new(1).to_string(), "C1{1x7g}");
        assert_eq!(MigConfig::new(3).to_string(), "C3{1x1g, 1x2g, 1x4g}");
    }
}
