//! Property-based tests of Clover's graph machinery, spanning
//! `clover-core`, `clover-serving`, `clover-mig` and `clover-models`.
//!
//! Written as deterministic seed sweeps (the container has no registry
//! access for a property-testing framework): each test drives the same
//! invariant across a grid of applications, seeds, and cluster sizes.

use clover::core::graph::ConfigGraph;
use clover::core::neighbors::NeighborSampler;
use clover::core::schedulers::random_raw_deployment;
use clover::mig::{Packer, Partitioning, SliceType};
use clover::models::zoo::Application;
use clover::models::VariantId;
use clover::simkit::SimRng;

const APPS: [Application; 3] = [
    Application::ObjectDetection,
    Application::LanguageModeling,
    Application::ImageClassification,
];

/// The sweep grid: (app, seed, n_gpus) cases, deterministic.
fn cases() -> impl Iterator<Item = (Application, u64, usize)> {
    APPS.into_iter()
        .flat_map(|app| (0u64..24).map(move |seed| (app, seed * 41 + 7, 1 + (seed as usize % 7))))
}

/// GED is a metric: identity, symmetry, triangle inequality.
#[test]
fn ged_is_a_metric() {
    for (app, seed, n_gpus) in cases() {
        let family = app.family();
        let mut rng = SimRng::new(seed);
        let a = ConfigGraph::from_deployment(
            &family,
            &random_raw_deployment(&family, n_gpus, &mut rng),
        );
        let b = ConfigGraph::from_deployment(
            &family,
            &random_raw_deployment(&family, n_gpus, &mut rng),
        );
        let c = ConfigGraph::from_deployment(
            &family,
            &random_raw_deployment(&family, n_gpus, &mut rng),
        );
        assert_eq!(a.ged(&a), 0);
        assert_eq!(a.ged(&b), b.ged(&a));
        assert!(a.ged(&c) <= a.ged(&b) + b.ged(&c));
    }
}

/// The graph's total weight equals the instance count, and its census
/// equals the deployment's partitioning census.
#[test]
fn graph_is_consistent_with_deployment() {
    for (app, seed, n_gpus) in cases() {
        let family = app.family();
        let mut rng = SimRng::new(seed);
        let d = random_raw_deployment(&family, n_gpus, &mut rng);
        let g = ConfigGraph::from_deployment(&family, &d);
        assert_eq!(g.total_weight() as usize, d.n_instances());
        assert_eq!(g.census(), d.census());
    }
}

/// Graph additivity: the graph of two clusters equals the sum of their
/// graphs (paper Sec. 4.2's scaling argument).
#[test]
fn graph_additivity() {
    for (app, seed, _) in cases() {
        let family = app.family();
        let mut rng = SimRng::new(seed);
        let a = random_raw_deployment(&family, 3, &mut rng);
        let b = random_raw_deployment(&family, 2, &mut rng);
        let (ga, gb) = (
            ConfigGraph::from_deployment(&family, &a),
            ConfigGraph::from_deployment(&family, &b),
        );
        let mut sum = ga.clone();
        sum.add(&gb);
        for v in (0..family.len()).map(|v| VariantId(v as u8)) {
            for s in SliceType::ALL {
                assert_eq!(sum.weight(v, s), ga.weight(v, s) + gb.weight(v, s));
            }
        }
    }
}

/// Every sampled neighbor stays within the paper's GED threshold of 4,
/// is OOM-valid, and preserves the GPU count.
#[test]
fn neighbors_bounded_and_valid() {
    for (app, seed, n_gpus) in cases() {
        let family = app.family();
        let mut rng = SimRng::new(seed);
        let center = random_raw_deployment(&family, n_gpus, &mut rng);
        let center_graph = ConfigGraph::from_deployment(&family, &center);
        let sampler = NeighborSampler::default();
        if let Some(neighbor) = sampler.sample(&family, &center, &mut rng) {
            let g = ConfigGraph::from_deployment(&family, &neighbor);
            let d = center_graph.ged(&g);
            assert!((1..=4).contains(&d), "GED {d} out of bounds");
            assert_eq!(neighbor.n_gpus(), n_gpus);
            for (v, s) in neighbor.instances() {
                assert!(family.variant(v).fits(s));
            }
        }
    }
}

/// Any census that comes from a real partitioning decomposes back into
/// valid per-GPU configurations with the same census.
#[test]
fn census_round_trips_through_packer() {
    for (app, seed, n_gpus) in cases() {
        let family = app.family();
        let mut rng = SimRng::new(seed);
        let d = random_raw_deployment(&family, n_gpus, &mut rng);
        let census = d.census();
        let configs = Packer::new()
            .decompose(&census, n_gpus)
            .expect("census of a real partitioning must decompose");
        assert_eq!(Partitioning::new(configs).census(), census);
    }
}
