//! GPU cluster state: which GPUs exist and how each is partitioned.
//!
//! The paper's testbed is ten A100s across five nodes; the optimization
//! variable `x_p` assigns one of the 19 MIG configurations to each GPU.
//! [`Partitioning`] is exactly `x_p`: it lists every GPU's slice types in
//! one flat GPU-major order, the order a deployment's instances follow,
//! and gives each GPU's range in it; [`ReconfigCost`] knows the cost of
//! moving between partitionings (a GPU must drain, repartition, and reload
//! models).

use crate::config::MigConfig;
use crate::slice::{SliceCensus, SliceType};
use clover_simkit::SimDuration;
use std::fmt;
use std::ops::Range;

/// The paper's `x_p` vector: one MIG configuration per GPU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partitioning(Vec<MigConfig>);

impl Partitioning {
    /// Creates a partitioning for `configs.len()` GPUs.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn new(configs: Vec<MigConfig>) -> Self {
        assert!(!configs.is_empty(), "empty partitioning");
        Partitioning(configs)
    }

    /// Every GPU in the same configuration (the paper standardizes across
    /// GPUs for ORACLE's search space, and BASE/CO2OPT are uniform too).
    pub fn uniform(n_gpus: usize, config: MigConfig) -> Self {
        Self::new(vec![config; n_gpus])
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.0.len()
    }

    /// All per-GPU configurations.
    pub fn configs(&self) -> &[MigConfig] {
        &self.0
    }

    /// Total number of slices (service instances), `m` in the paper.
    /// Satisfies `n ≤ m ≤ 7n`.
    pub fn total_slices(&self) -> usize {
        self.0.iter().map(|c| c.num_slices()).sum()
    }

    /// Aggregate slice census across the cluster.
    pub fn census(&self) -> SliceCensus {
        self.0
            .iter()
            .fold(SliceCensus::EMPTY, |acc, c| acc + c.census())
    }

    /// Every slice's type, GPU-major, slot order: the `i`-th is the
    /// slice a deployment's instance `i` runs on.
    pub fn slice_types(&self) -> impl Iterator<Item = SliceType> + '_ {
        self.0.iter().flat_map(|c| c.slices().iter().copied())
    }

    /// The positions of GPU `gpu`'s slices in [`Partitioning::slice_types`].
    ///
    /// # Panics
    /// Panics if `gpu >= n_gpus()`.
    pub fn slot_range(&self, gpu: usize) -> Range<usize> {
        let start = self.0[..gpu].iter().map(|c| c.num_slices()).sum();
        start..start + self.0[gpu].num_slices()
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "C{}", c.id())?;
        }
        write!(f, "]")
    }
}

/// Reconfiguration cost model.
///
/// Repartitioning a GPU requires draining its in-flight requests, destroying
/// and recreating GPU instances, and reloading model weights into every new
/// slice. The paper includes this overhead in all reported results
/// (Sec. 4.3); we charge a fixed per-GPU repartition time plus a per-slice
/// model (re)load time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigCost {
    /// Seconds to destroy and recreate MIG instances on one GPU.
    pub repartition_secs: f64,
    /// Seconds to load one model copy into a slice.
    pub model_load_secs: f64,
}

impl ReconfigCost {
    /// Default calibration: ~5 s to repartition, ~2 s per model load
    /// (weights from page cache onto the device).
    pub fn default_calibration() -> Self {
        ReconfigCost {
            repartition_secs: 5.0,
            model_load_secs: 2.0,
        }
    }

    /// Downtime for moving one GPU from `from` to `to`: zero if unchanged,
    /// otherwise repartition plus a model load per new slice.
    pub fn gpu_downtime(&self, from: MigConfig, to: MigConfig) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs(
                self.repartition_secs + self.model_load_secs * to.num_slices() as f64,
            )
        }
    }

    /// Downtime for swapping the model variant hosted on one existing slice
    /// (no repartition, just a reload).
    pub fn variant_swap_downtime(&self) -> SimDuration {
        SimDuration::from_secs(self.model_load_secs)
    }

    /// Reconfiguration downtime when applying `to` over `from`: the max
    /// over changed GPUs (they reconfigure in parallel). Tolerant of the
    /// fleet itself resizing (autoscaling): GPUs present in both fleets are
    /// compared positionally — the active fleet is always a prefix of the
    /// provisioned one — and reconfigure in parallel. GPUs *joining* the
    /// fleet were repartitioned and loaded during their provisioning
    /// warm-up lag (the autoscaler only hands them over once ready), and
    /// GPUs *leaving* simply drain, so neither side adds downtime for the
    /// surviving service.
    pub fn fleet_downtime(&self, from: &Partitioning, to: &Partitioning) -> SimDuration {
        let shared = from.n_gpus().min(to.n_gpus());
        from.configs()[..shared]
            .iter()
            .zip(to.configs()[..shared].iter())
            .map(|(&f, &t)| self.gpu_downtime(f, t))
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
            .unwrap_or(SimDuration::ZERO)
    }
}

impl Default for ReconfigCost {
    fn default() -> Self {
        Self::default_calibration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partitioning_counts() {
        let p = Partitioning::uniform(10, MigConfig::FULL);
        assert_eq!(p.n_gpus(), 10);
        assert_eq!(p.total_slices(), 10);
        let p19 = Partitioning::uniform(10, MigConfig::FINEST);
        assert_eq!(p19.total_slices(), 70); // paper: 70 MIG slices total
        assert_eq!(p19.census()[SliceType::G1], 70);
    }

    #[test]
    fn slice_bounds_match_paper() {
        // n <= m <= 7n for every possible uniform partitioning.
        for c in MigConfig::all() {
            let p = Partitioning::uniform(4, c);
            let m = p.total_slices();
            assert!((4..=28).contains(&m), "{c}: m={m}");
        }
    }

    #[test]
    fn slices_are_addressable_and_ordered() {
        let mixed = Partitioning::new(vec![
            MigConfig::new(3),
            MigConfig::new(1),
            MigConfig::new(19),
        ]);
        let uniform = MigConfig::all().map(|c| Partitioning::uniform(3, c));
        for p in uniform.chain([mixed]) {
            let types: Vec<SliceType> = p.slice_types().collect();
            assert_eq!(types.len(), p.total_slices(), "{p}");
            let mut next = 0;
            for (g, config) in p.configs().iter().enumerate() {
                let range = p.slot_range(g);
                assert_eq!(range.start, next, "{p}: GPU {g}");
                assert_eq!(&types[range.clone()], config.slices(), "{p}: GPU {g}");
                next = range.end;
            }
            assert_eq!(next, p.total_slices(), "{p}");
        }
        let p = Partitioning::new(vec![MigConfig::new(3), MigConfig::new(1)]);
        assert_eq!(p.slot_range(0), 0..3);
        assert_eq!(p.slot_range(1), 3..4);
        let types: Vec<SliceType> = p.slice_types().collect();
        assert_eq!(
            types,
            [SliceType::G4, SliceType::G2, SliceType::G1, SliceType::G7]
        );
    }

    #[test]
    fn census_is_additive_over_gpus() {
        let p = Partitioning::new(vec![MigConfig::new(3), MigConfig::new(19)]);
        let c = p.census();
        assert_eq!(c[SliceType::G4], 1);
        assert_eq!(c[SliceType::G2], 1);
        assert_eq!(c[SliceType::G1], 8);
    }

    #[test]
    fn reconfig_costs() {
        let cost = ReconfigCost::default_calibration();
        let same = cost.gpu_downtime(MigConfig::new(1), MigConfig::new(1));
        assert!(same.is_zero());
        let change = cost.gpu_downtime(MigConfig::new(1), MigConfig::new(19));
        assert!((change.as_secs() - (5.0 + 7.0 * 2.0)).abs() < 1e-12);
        assert_eq!(cost.variant_swap_downtime().as_secs(), 2.0);
    }

    #[test]
    fn cluster_downtime_is_parallel_max() {
        let cost = ReconfigCost::default_calibration();
        let from = Partitioning::uniform(3, MigConfig::new(1));
        let to = Partitioning::new(vec![
            MigConfig::new(19), // 5 + 7*2 = 19 s
            MigConfig::new(7),  // 5 + 2*2 = 9 s
            MigConfig::new(1),
        ]);
        assert_eq!(cost.fleet_downtime(&from, &to).as_secs(), 19.0);
    }

    #[test]
    fn fleet_downtime_tolerates_resizes() {
        let cost = ReconfigCost::default_calibration();
        let four = Partitioning::uniform(4, MigConfig::new(1));
        let two = Partitioning::uniform(2, MigConfig::new(1));
        // Shrinking the fleet without touching the survivors is free.
        assert_eq!(cost.fleet_downtime(&four, &two), SimDuration::ZERO);
        // Growing it is too (new GPUs are prepared during warm-up).
        assert_eq!(cost.fleet_downtime(&two, &four), SimDuration::ZERO);
        // Repartitioning a surviving GPU is still charged.
        let two = Partitioning::new(vec![MigConfig::new(19), MigConfig::new(1)]); // 5 + 7*2 = 19 s
        assert_eq!(cost.fleet_downtime(&four, &two).as_secs(), 19.0);
        // With equal counts every GPU is compared.
        let same = Partitioning::uniform(3, MigConfig::new(7));
        let other = Partitioning::uniform(3, MigConfig::new(1));
        assert_eq!(
            cost.fleet_downtime(&same, &other),
            cost.gpu_downtime(MigConfig::new(7), MigConfig::new(1))
        );
    }
}
