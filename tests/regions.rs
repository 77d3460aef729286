//! Integration tests for the regional carbon-trace generators — the
//! ground the geo-router stands on. The single-region figures pinned the
//! generators implicitly through experiment digests; the router samples
//! all three traces in one run, so their contracts get pinned explicitly:
//! determinism per seed, the documented intensity envelopes, distinct
//! per-region streams from a shared experiment seed, and a trace that
//! covers an experiment's whole horizon.

use clover::carbon::regions::Region;
use clover::core::{Experiment, ExperimentConfig};
use clover::models::zoo::Application;
use clover::simkit::SimTime;

/// The documented floor/ceiling envelope for each region's generator.
fn envelope(region: Region) -> (f64, f64) {
    match region {
        Region::CisoMarch => (95.0, 360.0),
        Region::CisoSeptember => (100.0, 310.0),
        Region::EsoMarch => (50.0, 305.0),
    }
}

#[test]
fn traces_are_deterministic_per_seed() {
    for region in Region::ALL {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = region.trace(72, seed);
            let b = region.trace(72, seed);
            assert_eq!(a.len(), b.len());
            for ((ta, va), (tb, vb)) in a.samples().zip(b.samples()) {
                assert_eq!(ta, tb);
                assert_eq!(va, vb, "{region}: seed {seed} not reproducible");
            }
        }
    }
}

#[test]
fn intensities_stay_inside_the_documented_envelope() {
    for region in Region::ALL {
        let (floor, ceil) = envelope(region);
        for seed in 0..32u64 {
            let t = region.trace(96, seed);
            for (_, v) in t.samples() {
                let g = v.g_per_kwh();
                assert!(
                    (floor..=ceil).contains(&g),
                    "{region}: seed {seed} produced {g} outside [{floor}, {ceil}]"
                );
                assert!(g > 0.0, "carbon intensity is never negative");
            }
        }
    }
}

#[test]
fn trace_covers_the_requested_hours_inclusive() {
    for hours in [1usize, 24, 48, 200] {
        let t = Region::CisoMarch.trace(hours, 7);
        assert_eq!(t.len(), hours + 1, "hourly samples, both endpoints");
    }
}

#[test]
fn regions_draw_distinct_streams_from_one_experiment_seed() {
    // The router hands every fleet the *same* experiment seed; the
    // per-region stream tags must still decorrelate the noise, or three
    // "different" grids would wiggle in lockstep.
    let seed = 1234;
    for (i, a) in Region::ALL.iter().enumerate() {
        for b in &Region::ALL[i + 1..] {
            let ta = a.trace(48, seed);
            let tb = b.trace(48, seed);
            let near = ta
                .samples()
                .zip(tb.samples())
                .filter(|((_, x), (_, y))| (x.g_per_kwh() - y.g_per_kwh()).abs() < 1.0)
                .count();
            assert!(
                near < 10,
                "{a} and {b} nearly coincide at {near}/49 samples under seed {seed}"
            );
        }
    }
}

#[test]
fn eval_and_motivation_traces_are_views_of_the_generator() {
    let seed = 9;
    let eval = Region::EsoMarch.eval_trace(seed);
    let direct = Region::EsoMarch.trace(48, seed);
    for ((_, a), (_, b)) in eval.samples().zip(direct.samples()) {
        assert_eq!(a, b, "eval_trace must be trace(48, ..)");
    }
    assert_eq!(Region::EsoMarch.motivation_trace(seed).len(), 14 * 24 + 1);
}

#[test]
fn an_experiment_past_48_hours_keeps_sampling_its_region() {
    // A 72 h cell must not see carbon flat-line after hour 48: its trace
    // is the region's generator over the whole horizon.
    let seed = 17;
    let cfg = ExperimentConfig::builder(Application::ImageClassification)
        .n_gpus(2)
        .region(Region::CisoMarch)
        .horizon_hours(72.0)
        .seed(seed)
        .build();
    let (e, direct) = (Experiment::new(cfg), Region::CisoMarch.trace(72, seed));
    let at_60 = SimTime::from_hours(60.0);
    assert_eq!(e.trace().at(at_60), direct.at(at_60));
    assert!(e.trace().samples().eq(direct.samples()));
}
