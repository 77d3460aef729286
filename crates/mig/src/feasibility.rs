//! Realizability of aggregate slice demands.
//!
//! Clover's configuration graph collapses the per-GPU detail of `x_p` into
//! an aggregate *slice census* (how many slices of each type exist across
//! the cluster). That compaction is sound only because census values can be
//! mapped back to concrete per-GPU configurations — this module implements
//! that mapping: [`Packer::decompose`] finds an assignment of one MIG
//! configuration per GPU whose slice multiset union equals the census
//! exactly, or proves none exists.
//!
//! The search is a depth-first enumeration over configurations in
//! non-decreasing id order (so each multiset of configurations is visited
//! once) with memoized failure states, which keeps the optimizer's many
//! feasibility probes cheap.

use crate::config::MigConfig;
use crate::slice::{SliceCensus, SliceType};
use std::collections::HashSet;

/// Memoizing census-to-configurations packer.
#[derive(Debug, Default)]
pub struct Packer {
    /// States (census, gpus_left, min_config_id) proven infeasible.
    dead: HashSet<(u64, u8, u8)>,
}

fn census_key(c: &SliceCensus) -> u64 {
    // 7 bits per slice type comfortably covers clusters of ≤ 18 GPUs
    // (≤ 126 slices of one type).
    SliceType::ALL
        .iter()
        .fold(0u64, |k, &s| (k << 7) | u64::from(c[s] & 0x7F))
}

impl Packer {
    /// Creates a packer with an empty memo table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds per-GPU configurations (non-decreasing id order) whose combined
    /// slice census equals `census` exactly, using every one of the
    /// `n_gpus` GPUs. Returns `None` when infeasible.
    pub fn decompose(&mut self, census: &SliceCensus, n_gpus: usize) -> Option<Vec<MigConfig>> {
        if n_gpus == 0 || n_gpus > 0x7F {
            return if n_gpus == 0 && census.is_empty() {
                Some(Vec::new())
            } else {
                None
            };
        }
        let mut out = Vec::with_capacity(n_gpus);
        if self.dfs(*census, n_gpus as u8, 1, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn dfs(
        &mut self,
        remaining: SliceCensus,
        gpus_left: u8,
        min_id: u8,
        out: &mut Vec<MigConfig>,
    ) -> bool {
        if gpus_left == 0 {
            return remaining.is_empty();
        }
        // Prune: every remaining GPU contributes at least one slice and at
        // most seven; unit capacity is seven per GPU.
        let slices = remaining.total_slices();
        if slices < u32::from(gpus_left)
            || slices > 7 * u32::from(gpus_left)
            || remaining.total_units() > 7 * u32::from(gpus_left)
        {
            return false;
        }
        let key = (census_key(&remaining), gpus_left, min_id);
        if self.dead.contains(&key) {
            return false;
        }
        for id in min_id..=MigConfig::COUNT as u8 {
            let config = MigConfig::new(id);
            let c = config.census();
            if !remaining.contains(&c) {
                continue;
            }
            out.push(config);
            if self.dfs(remaining - c, gpus_left - 1, id, out) {
                return true;
            }
            out.pop();
        }
        self.dead.insert(key);
        false
    }
}

/// One-shot convenience wrapper around [`Packer::decompose`].
pub fn decompose(census: &SliceCensus, n_gpus: usize) -> Option<Vec<MigConfig>> {
    Packer::new().decompose(census, n_gpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Partitioning;
    use clover_simkit::SimRng;

    #[test]
    fn single_gpu_round_trips_every_config() {
        let mut packer = Packer::new();
        for c in MigConfig::all() {
            let found = packer
                .decompose(&c.census(), 1)
                .unwrap_or_else(|| panic!("{c} not decomposable"));
            assert_eq!(found, vec![c]);
        }
    }

    #[test]
    fn multi_gpu_census_round_trip() {
        let mut packer = Packer::new();
        let p = Partitioning::new(vec![
            MigConfig::new(3),
            MigConfig::new(10),
            MigConfig::new(19),
            MigConfig::new(1),
        ]);
        let configs = packer.decompose(&p.census(), 4).expect("feasible");
        let rebuilt = Partitioning::new(configs).census();
        assert_eq!(rebuilt, p.census());
    }

    #[test]
    fn infeasible_censuses_rejected() {
        let mut packer = Packer::new();
        // Two 7g slices cannot fit on one GPU.
        let two_full = SliceCensus::from_slices(&[SliceType::G7, SliceType::G7]);
        assert_eq!(packer.decompose(&two_full, 1), None);
        assert!(packer.decompose(&two_full, 2).is_some());
        // 8x 1g is infeasible everywhere: the only all-1g configuration is
        // C19 with seven slices, and no configuration is a lone 1g.
        let eight_1g = SliceCensus::from_slices(&[SliceType::G1; 8]);
        assert_eq!(packer.decompose(&eight_1g, 1), None);
        assert_eq!(packer.decompose(&eight_1g, 2), None);
        // 14x 1g is two C19 GPUs.
        let fourteen_1g = SliceCensus::from_slices(&[SliceType::G1; 14]);
        assert_eq!(
            packer.decompose(&fourteen_1g, 2),
            Some(vec![MigConfig::new(19), MigConfig::new(19)])
        );
    }

    #[test]
    fn exactness_no_leftover_slices() {
        let mut packer = Packer::new();
        // One 1g slice alone on a GPU: no configuration is a single 1g,
        // so this census is infeasible on 1 GPU.
        let lone = SliceCensus::from_slices(&[SliceType::G1]);
        assert_eq!(packer.decompose(&lone, 1), None);
    }

    #[test]
    fn every_gpu_must_be_used() {
        let mut packer = Packer::new();
        let c = MigConfig::new(1).census();
        // Census of one full GPU cannot occupy two GPUs.
        assert_eq!(packer.decompose(&c, 2), None);
        assert!(packer.decompose(&c, 1).is_some());
        // Zero GPUs only realize the empty census.
        assert_eq!(packer.decompose(&SliceCensus::EMPTY, 0), Some(vec![]));
        assert_eq!(packer.decompose(&c, 0), None);
    }

    #[test]
    fn random_partitionings_always_feasible() {
        let mut rng = SimRng::new(99);
        let mut packer = Packer::new();
        for _ in 0..200 {
            let n = rng.range_usize(1, 11);
            let configs: Vec<MigConfig> = (0..n)
                .map(|_| MigConfig::new(rng.range_usize(1, 20) as u8))
                .collect();
            let census = Partitioning::new(configs.clone()).census();
            let found = packer
                .decompose(&census, n)
                .unwrap_or_else(|| panic!("feasible census declared infeasible: {census}"));
            assert_eq!(Partitioning::new(found).census(), census);
        }
    }

    #[test]
    fn memoization_is_consistent() {
        // The same query answered twice (second time through the memo) must
        // agree.
        let mut packer = Packer::new();
        let c = SliceCensus::from_slices(&[SliceType::G4, SliceType::G4, SliceType::G3]);
        let first = packer.decompose(&c, 1);
        let second = packer.decompose(&c, 1);
        assert_eq!(first, second);
        assert_eq!(first, None);
    }

    #[test]
    fn one_shot_helper() {
        assert!(decompose(&MigConfig::new(10).census(), 1).is_some());
    }
}
