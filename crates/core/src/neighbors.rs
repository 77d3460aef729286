//! Neighborhood sampling in the graph-represented search space.
//!
//! Paper Sec. 4.2: "marking a particular configuration as a center, all
//! other configurations whose graph edit distance (GED) to the center ... is
//! within a distance threshold are considered as neighbors. Clover sets
//! this GED threshold to be four because swapping the model variant of one
//! service instance incurs two GED and switching a model copy to be hosted
//! on a different MIG slice type also incurs two GED."
//!
//! We sample neighbors as *concrete deployments* (so they are realizable by
//! construction — every candidate has a valid per-GPU decomposition) and
//! verify the GED bound against the center's graph:
//!
//! - **Variant swap** (GED 2): re-host one instance with a different
//!   variant that fits its slice.
//! - **Repartition** (GED ≤ threshold): re-configure one GPU to a different
//!   MIG configuration, re-placing its variants so as few edges move as
//!   possible (same-slice-type assignments are preserved first).
//!
//! Candidates whose resulting GED exceeds the threshold are rejected and
//! re-sampled.

use crate::graph::ConfigGraph;
use clover_mig::{MigConfig, Partitioning, SliceType};
use clover_models::{ModelFamily, VariantId};
use clover_serving::Deployment;
use clover_simkit::SimRng;

/// Samples GED-bounded neighbors of a deployment.
#[derive(Debug, Clone, Copy)]
pub struct NeighborSampler {
    /// Maximum GED between center and neighbor (paper: 4).
    pub ged_threshold: u32,
    /// Re-sampling attempts before giving up.
    pub max_attempts: usize,
}

impl Default for NeighborSampler {
    fn default() -> Self {
        NeighborSampler {
            ged_threshold: 4,
            max_attempts: 64,
        }
    }
}

impl NeighborSampler {
    /// Draws one neighbor of `center`, or `None` if no acceptable move was
    /// found within the attempt budget (extremely rare for real zoos).
    pub fn sample(
        &self,
        family: &ModelFamily,
        center: &Deployment,
        rng: &mut SimRng,
    ) -> Option<Deployment> {
        let center_graph = ConfigGraph::from_deployment(family, center);
        for _ in 0..self.max_attempts {
            // The GED-4 threshold admits compound moves: two variant swaps
            // (2 + 2), a swap plus a re-slice, etc. Sampling them directly
            // lets the annealer take full-size steps within the paper's
            // neighborhood definition.
            let candidate = match rng.below(10) {
                0..=3 => self.swap_variant(family, center, rng),
                4..=6 => self.repartition_one_gpu(family, center, rng),
                _ => self
                    .swap_variant(family, center, rng)
                    .and_then(|mid| self.swap_variant(family, &mid, rng)),
            };
            if let Some(candidate) = candidate {
                let g = ConfigGraph::from_deployment(family, &candidate);
                let d = center_graph.ged(&g);
                if d > 0 && d <= self.ged_threshold {
                    return Some(candidate);
                }
            }
        }
        None
    }

    /// Re-hosts one randomly chosen instance with a different variant that
    /// fits the same slice.
    fn swap_variant(
        &self,
        family: &ModelFamily,
        center: &Deployment,
        rng: &mut SimRng,
    ) -> Option<Deployment> {
        let idx = rng.below(center.n_instances());
        let slice_ty = center
            .partitioning()
            .slice_types()
            .nth(idx)
            .expect("one slice per instance");
        let current = center.variants()[idx];
        let options: Vec<VariantId> = family
            .fitting(slice_ty)
            .into_iter()
            .filter(|&v| v != current)
            .collect();
        if options.is_empty() {
            return None;
        }
        let choice = *rng.choose(&options);
        let mut variants = center.variants().to_vec();
        variants[idx] = choice;
        Deployment::new(family, center.partitioning().clone(), variants).ok()
    }

    /// Re-configures one random GPU to a different MIG configuration,
    /// preserving as many (variant, slice type) pairings as possible.
    fn repartition_one_gpu(
        &self,
        family: &ModelFamily,
        center: &Deployment,
        rng: &mut SimRng,
    ) -> Option<Deployment> {
        let n = center.n_gpus();
        let gpu = rng.below(n);
        let old_config = center.partitioning().configs()[gpu];
        let new_config = MigConfig::new(rng.range_usize(1, MigConfig::COUNT + 1) as u8);
        if new_config == old_config {
            return None;
        }

        // Variants currently hosted on this GPU, with their slice types.
        let slots = center.partitioning().slot_range(gpu);
        let mut pool: Vec<(SliceType, VariantId)> = old_config
            .slices()
            .iter()
            .copied()
            .zip(center.variants()[slots.clone()].iter().copied())
            .collect();

        // Assign variants to the new slices: exact slice-type matches first
        // (zero GED contribution), then arbitrary leftovers, then fresh
        // fitting variants for surplus slices.
        let mut new_vars: Vec<VariantId> = Vec::with_capacity(new_config.num_slices());
        for &ty in new_config.slices() {
            let pick = pool
                .iter()
                .position(|&(pty, v)| pty == ty && family.variant(v).fits(ty))
                .or_else(|| pool.iter().position(|&(_, v)| family.variant(v).fits(ty)));
            if let Some(i) = pick {
                new_vars.push(pool.swap_remove(i).1);
            } else {
                let fitting = family.fitting(ty);
                if fitting.is_empty() {
                    return None;
                }
                new_vars.push(*rng.choose(&fitting));
            }
        }

        // Build the full assignment: other GPUs unchanged.
        let mut configs = center.partitioning().configs().to_vec();
        configs[gpu] = new_config;
        let mut variants = Vec::with_capacity(center.n_instances());
        variants.extend_from_slice(&center.variants()[..slots.start]);
        variants.extend_from_slice(&new_vars);
        variants.extend_from_slice(&center.variants()[slots.end..]);
        Deployment::new(family, Partitioning::new(configs), variants).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::{efficientnet, yolo_v5};

    #[test]
    fn neighbors_respect_ged_threshold() {
        let fam = efficientnet();
        let center = Deployment::base(&fam, 4);
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(1);
        let cg = ConfigGraph::from_deployment(&fam, &center);
        for _ in 0..100 {
            let n = sampler.sample(&fam, &center, &mut rng).expect("neighbor");
            let g = ConfigGraph::from_deployment(&fam, &n);
            let d = cg.ged(&g);
            assert!((1..=4).contains(&d), "GED {d} out of bounds");
        }
    }

    #[test]
    fn neighbors_are_valid_deployments() {
        let fam = yolo_v5();
        let center = Deployment::base(&fam, 3);
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            let n = sampler.sample(&fam, &center, &mut rng).expect("neighbor");
            // Construction re-validates fit and length internally; check the
            // OOM rule explicitly: no x6 on 1g.
            for (v, s) in n.instances() {
                assert!(fam.variant(v).fits(s));
            }
            assert_eq!(n.n_gpus(), 3);
        }
    }

    #[test]
    fn sampler_reaches_both_move_kinds() {
        let fam = efficientnet();
        let center = Deployment::base(&fam, 4);
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(3);
        let mut saw_variant_move = false;
        let mut saw_partition_move = false;
        for _ in 0..200 {
            let n = sampler.sample(&fam, &center, &mut rng).expect("neighbor");
            if n.partitioning() != center.partitioning() {
                saw_partition_move = true;
            } else if n.variants() != center.variants() {
                saw_variant_move = true;
            }
            if saw_variant_move && saw_partition_move {
                break;
            }
        }
        assert!(saw_variant_move, "no variant swap seen");
        assert!(saw_partition_move, "no repartition seen");
    }

    #[test]
    fn repeated_walks_explore_space() {
        // Random-walking through neighbors must reach mixed-quality,
        // partitioned configurations from BASE.
        let fam = efficientnet();
        let mut current = Deployment::base(&fam, 2);
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(7);
        for _ in 0..200 {
            if let Some(next) = sampler.sample(&fam, &current, &mut rng) {
                current = next;
            }
        }
        let g = ConfigGraph::from_deployment(&fam, &current);
        let base_g = ConfigGraph::from_deployment(&fam, &Deployment::base(&fam, 2));
        assert!(g.ged(&base_g) > 4, "walk stayed near BASE");
    }

    #[test]
    fn deterministic_sampling() {
        let fam = efficientnet();
        let center = Deployment::base(&fam, 4);
        let sampler = NeighborSampler::default();
        let a = sampler.sample(&fam, &center, &mut SimRng::new(11));
        let b = sampler.sample(&fam, &center, &mut SimRng::new(11));
        assert_eq!(a, b);
    }
}
