//! MIG slice types.
//!
//! NVIDIA A100/H100 GPUs expose five Multi-Instance GPU slice types (paper
//! Fig. 1): 7g, 4g, 3g, 2g and 1g, named for the number of dedicated compute
//! units. On the 40 GB A100 used in the paper they carry 40/20/20/10/5 GB of
//! dedicated memory respectively; the 5 GB floor of the 1g slice is what
//! forces Clover to disable variant↔slice pairings that would OOM.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// One of the five MIG slice types of an A100-class GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SliceType {
    /// 1g slice: 1 compute unit, 5 GB.
    G1,
    /// 2g slice: 2 compute units, 10 GB.
    G2,
    /// 3g slice: 3 compute units, 20 GB.
    G3,
    /// 4g slice: 4 compute units, 20 GB.
    G4,
    /// 7g slice: the whole GPU, 7 compute units, 40 GB.
    G7,
}

impl SliceType {
    /// All slice types, smallest first.
    pub const ALL: [SliceType; 5] = [
        SliceType::G1,
        SliceType::G2,
        SliceType::G3,
        SliceType::G4,
        SliceType::G7,
    ];

    /// Number of slice types.
    pub const COUNT: usize = 5;

    /// Dedicated compute units (sevenths of a GPU).
    pub fn compute_units(self) -> u32 {
        match self {
            SliceType::G1 => 1,
            SliceType::G2 => 2,
            SliceType::G3 => 3,
            SliceType::G4 => 4,
            SliceType::G7 => 7,
        }
    }

    /// Dedicated memory in GB (A100 40 GB profile).
    pub fn memory_gb(self) -> f64 {
        match self {
            SliceType::G1 => 5.0,
            SliceType::G2 => 10.0,
            SliceType::G3 => 20.0,
            SliceType::G4 => 20.0,
            SliceType::G7 => 40.0,
        }
    }

    /// Dense index 0..5 (ordered smallest first), for array-backed tables.
    pub fn index(self) -> usize {
        match self {
            SliceType::G1 => 0,
            SliceType::G2 => 1,
            SliceType::G3 => 2,
            SliceType::G4 => 3,
            SliceType::G7 => 4,
        }
    }
}

impl fmt::Display for SliceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}g", self.compute_units())
    }
}

/// A census of slices by type: how many of each slice type exist in a GPU
/// configuration or across a cluster. This is also the "slice side" of
/// Clover's configuration graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SliceCensus([u32; SliceType::COUNT]);

impl SliceCensus {
    /// The empty census.
    pub const EMPTY: SliceCensus = SliceCensus([0; SliceType::COUNT]);

    /// Builds a census from a list of slices.
    pub fn from_slices(slices: &[SliceType]) -> Self {
        let mut c = SliceCensus::EMPTY;
        for &s in slices {
            c[s] += 1;
        }
        c
    }

    /// Total number of slices.
    pub fn total_slices(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Total compute units across all slices.
    pub fn total_units(&self) -> u32 {
        SliceType::ALL
            .iter()
            .map(|&s| self[s] * s.compute_units())
            .sum()
    }

    /// True when every count is zero.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// True when `other` fits within this census component-wise.
    pub fn contains(&self, other: &SliceCensus) -> bool {
        SliceType::ALL.iter().all(|&s| self[s] >= other[s])
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &SliceCensus) -> SliceCensus {
        let mut out = SliceCensus::EMPTY;
        for &s in &SliceType::ALL {
            out[s] = self[s].saturating_sub(other[s]);
        }
        out
    }

    /// Iterates `(slice_type, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (SliceType, u32)> + '_ {
        SliceType::ALL
            .iter()
            .map(move |&s| (s, self[s]))
            .filter(|&(_, c)| c > 0)
    }
}

impl Index<SliceType> for SliceCensus {
    type Output = u32;
    fn index(&self, s: SliceType) -> &u32 {
        &self.0[s.index()]
    }
}

impl IndexMut<SliceType> for SliceCensus {
    fn index_mut(&mut self, s: SliceType) -> &mut u32 {
        &mut self.0[s.index()]
    }
}

impl Add for SliceCensus {
    type Output = SliceCensus;
    fn add(self, rhs: SliceCensus) -> SliceCensus {
        let mut out = self;
        for &s in &SliceType::ALL {
            out[s] += rhs[s];
        }
        out
    }
}

impl AddAssign for SliceCensus {
    fn add_assign(&mut self, rhs: SliceCensus) {
        *self = *self + rhs;
    }
}

impl Sub for SliceCensus {
    type Output = SliceCensus;
    /// # Panics
    /// Panics on component-wise underflow.
    fn sub(self, rhs: SliceCensus) -> SliceCensus {
        assert!(self.contains(&rhs), "census subtraction underflow");
        self.saturating_sub(&rhs)
    }
}

impl fmt::Display for SliceCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (s, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}x{s}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_and_memory() {
        assert_eq!(SliceType::G7.compute_units(), 7);
        assert_eq!(SliceType::G1.memory_gb(), 5.0);
        assert_eq!(SliceType::G4.memory_gb(), 20.0);
        let total: u32 = SliceType::ALL.iter().map(|s| s.compute_units()).sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn index_round_trip() {
        for &s in &SliceType::ALL {
            assert_eq!(SliceType::ALL[s.index()], s);
        }
    }

    #[test]
    fn census_counting() {
        let c = SliceCensus::from_slices(&[SliceType::G1, SliceType::G1, SliceType::G3]);
        assert_eq!(c[SliceType::G1], 2);
        assert_eq!(c[SliceType::G3], 1);
        assert_eq!(c[SliceType::G7], 0);
        assert_eq!(c.total_slices(), 3);
        assert_eq!(c.total_units(), 5);
        assert!(!c.is_empty());
        assert!(SliceCensus::EMPTY.is_empty());
    }

    #[test]
    fn census_arithmetic() {
        let a = SliceCensus::from_slices(&[SliceType::G1, SliceType::G2]);
        let b = SliceCensus::from_slices(&[SliceType::G1]);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert_eq!((a + b).total_slices(), 3);
        assert_eq!((a - b)[SliceType::G1], 0);
        assert_eq!((a - b)[SliceType::G2], 1);
        assert_eq!(b.saturating_sub(&a), SliceCensus::EMPTY);
    }

    #[test]
    #[should_panic]
    fn census_sub_underflow_panics() {
        let a = SliceCensus::from_slices(&[SliceType::G1]);
        let b = SliceCensus::from_slices(&[SliceType::G2]);
        let _ = a - b;
    }

    #[test]
    fn display() {
        assert_eq!(SliceType::G7.to_string(), "7g");
        let c = SliceCensus::from_slices(&[SliceType::G1, SliceType::G1, SliceType::G4]);
        assert_eq!(c.to_string(), "{2x1g, 1x4g}");
    }
}
