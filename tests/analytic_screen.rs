//! The error of CLOVER's analytic screen against the DES.
//!
//! CLOVER re-samples a neighbour unless `analytic::estimate` calls it
//! stable with a p95 within 1.3 × the SLA. This file measures how far that
//! estimate sits from the kernel on a fixed candidate set: per application,
//! BASE on 10 GPUs plus 300 seeded GED ≤ 4 neighbours of it, at 65% of
//! BASE's analytic capacity, each measured by one seeded 160 s DES window
//! after a 16 s warm-up. Run with `--nocapture` to see the quantiles.

use clover::core::neighbors::NeighborSampler;
use clover::models::zoo::Application;
use clover::models::PerfModel;
use clover::serving::{analytic, Deployment, ServingSim};
use clover::simkit::{default_threads, par_map, ExactQuantiles, SimDuration, SimRng};

const N_GPUS: usize = 10;
const LOAD: f64 = 0.65;
const NEIGHBOURS: usize = 300;
const SAMPLER_SEED: u64 = 9;
const DES_SEED: u64 = 2023;

/// The ratio of analytic to DES p95 for BASE and for each analytically
/// stable neighbour, in draw order.
fn p95_ratios(app: Application) -> (f64, Vec<f64>) {
    let family = app.family();
    let perf = PerfModel::a100();
    let base = Deployment::base(&family, N_GPUS);
    let rate = LOAD * analytic::estimate(&family, &perf, &base, 1.0).capacity_rps;
    let sampler = NeighborSampler::default();
    let mut rng = SimRng::new(SAMPLER_SEED);
    let mut candidates = vec![base.clone()];
    candidates.extend(
        (0..NEIGHBOURS)
            .filter_map(|_| sampler.sample(&family, &base, &mut rng))
            .filter(|d| analytic::estimate(&family, &perf, d, rate).stable),
    );
    let mut ratios = par_map(candidates, default_threads(), |d| {
        let analytic_p95 = analytic::estimate(&family, &perf, &d, rate).p95_latency_s;
        let mut sim = ServingSim::new(family.clone(), perf, d, DES_SEED);
        let des_p95 = sim
            .run_window(
                rate,
                SimDuration::from_secs(160.0),
                SimDuration::from_secs(16.0),
            )
            .p95_latency_s()
            .expect("a stable window serves requests");
        analytic_p95 / des_p95
    });
    let base_ratio = ratios.remove(0);
    (base_ratio, ratios)
}

/// Recorded (q10, q50, q90) of the neighbours' ratio, per application.
const RECORDED: [(Application, [f64; 3]); 3] = [
    (
        Application::ObjectDetection,
        [1.007886561200547, 1.0179654268125533, 1.0228129315347776],
    ),
    (
        Application::LanguageModeling,
        [1.0103868724751544, 1.096086609073044, 1.1529517053855154],
    ),
    (
        Application::ImageClassification,
        [1.0151924084493518, 1.0791076235662906, 1.1323754813004594],
    ),
];

#[test]
fn analytic_p95_error_against_the_des_is_pinned() {
    let measured = RECORDED.map(|(app, _)| {
        let (base, neighbours) = p95_ratios(app);
        let mut q = ExactQuantiles::with_capacity(neighbours.len());
        for &r in &neighbours {
            q.record(r);
        }
        let quantiles = [0.1, 0.5, 0.9].map(|p| q.quantile(p).expect("neighbours measured"));
        println!(
            "{app}: BASE {base:.4}; {} neighbours q10/q50/q90 {quantiles:?}",
            neighbours.len()
        );
        (base, quantiles)
    });
    for ((app, recorded), (base, quantiles)) in RECORDED.into_iter().zip(measured) {
        // M/M/c overstates the wait of near-deterministic service, so the
        // screen is pessimistic on BASE: the ratio centres on 1.18-1.19,
        // and one window's p95 moves it by a few percent (1.11-1.22 for
        // Detection over DES seeds 0-18 and 2023).
        assert!((1.10..=1.25).contains(&base), "{app}: BASE ratio {base}");
        for (got, want) in quantiles.into_iter().zip(recorded) {
            assert!(
                ((got - want) / want).abs() < 1e-9,
                "{app}: quantiles {quantiles:?}, recorded {recorded:?}"
            );
        }
    }
}
