//! End-to-end integration tests: the full experiment pipeline across all
//! crates, checking the paper's qualitative orderings at smoke scale.

use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;

fn experiment(app: Application, scheme: SchemeKind, n_gpus: usize) -> Experiment {
    let cfg = ExperimentConfig::builder(app)
        .scheme(scheme)
        .n_gpus(n_gpus)
        .horizon_hours(6.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
        .seed(11)
        .build();
    Experiment::new(cfg)
}

fn run(app: Application, scheme: SchemeKind, n_gpus: usize) -> ExperimentOutcome {
    experiment(app, scheme, n_gpus).run()
}

#[test]
fn all_schemes_complete_for_all_apps() {
    for app in Application::ALL {
        for scheme in SchemeKind::ALL {
            let out = run(app, scheme, 2);
            assert!(out.served_scaled > 0.0, "{app} {scheme}: nothing served");
            assert!(out.total_carbon_g > 0.0);
            assert_eq!(out.timeline.len(), 6);
            assert!(
                out.accuracy_loss_pct >= -1e-9,
                "{app} {scheme}: negative accuracy loss"
            );
        }
    }
}

#[test]
fn carbon_aware_schemes_beat_base_on_carbon() {
    for scheme in [SchemeKind::Co2Opt, SchemeKind::Clover, SchemeKind::Oracle] {
        let out = run(Application::ImageClassification, scheme, 4);
        assert!(
            out.carbon_saving_pct > 40.0,
            "{scheme}: saving only {:.1}%",
            out.carbon_saving_pct
        );
    }
}

#[test]
fn clover_more_accurate_than_co2opt() {
    let clover = run(Application::ImageClassification, SchemeKind::Clover, 4);
    let co2opt = run(Application::ImageClassification, SchemeKind::Co2Opt, 4);
    assert!(
        clover.accuracy_pct > co2opt.accuracy_pct,
        "clover {:.2}% <= co2opt {:.2}%",
        clover.accuracy_pct,
        co2opt.accuracy_pct
    );
}

#[test]
fn clover_meets_the_sla_base_defines() {
    for app in Application::ALL {
        let out = run(app, SchemeKind::Clover, 4);
        assert!(
            out.sla_met,
            "{app}: p95 {:.1} ms vs SLA {:.1} ms",
            out.p95_s * 1e3,
            out.sla_p95_s * 1e3
        );
    }
}

#[test]
fn oracle_charges_no_optimization_time() {
    let out = run(Application::LanguageModeling, SchemeKind::Oracle, 2);
    assert_eq!(out.optimization_time_s, 0.0);
    assert_eq!(out.evals_total(), 0);
}

#[test]
fn optimization_overhead_is_small() {
    let out = run(Application::ImageClassification, SchemeKind::Clover, 4);
    assert!(
        out.optimization_fraction < 0.10,
        "overhead {:.1}%",
        out.optimization_fraction * 100.0
    );
    assert!(out.evals_total() > 0);
}

#[test]
fn reduced_provisioning_breaks_base_not_clover() {
    // Fig. 15's core claim at smoke scale: with the 10-GPU workload on
    // 2 GPUs, BASE violates the SLA while Clover recovers and holds it.
    let base = {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Base)
            .n_gpus(2)
            .reference_gpus(10)
            .horizon_hours(4.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(11)
            .build();
        Experiment::new(cfg).run()
    };
    let clover = {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(2)
            .reference_gpus(10)
            .horizon_hours(8.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(11)
            .build();
        Experiment::new(cfg).run()
    };
    assert!(!base.sla_met, "BASE on 2 GPUs should blow the SLA");
    assert!(
        base.p95_norm_to_base > 2.0,
        "norm {:.2}",
        base.p95_norm_to_base
    );
    // Once Clover has reconfigured away from the cold-start overload, the
    // steady-state hours must meet the SLA (the run-level p95 still carries
    // the recovery transient at this short horizon).
    let steady: Vec<_> = clover.timeline.iter().skip(4).collect();
    assert!(
        steady.iter().all(|h| h.p95_s <= clover.sla_p95_s),
        "Clover steady-state p95s {:?} vs SLA {:.1} ms",
        steady.iter().map(|h| h.p95_s * 1e3).collect::<Vec<_>>(),
        clover.sla_p95_s * 1e3
    );
}

#[test]
fn outcomes_are_deterministic() {
    let e = experiment(Application::ObjectDetection, SchemeKind::Clover, 2);
    // The default scenario is the paper's Poisson.
    assert_eq!(e.workload.label(), "poisson");
    let a = e.run();
    let b = run(Application::ObjectDetection, SchemeKind::Clover, 2);
    assert_eq!(a.total_carbon_g, b.total_carbon_g);
    assert_eq!(a.p95_s, b.p95_s);
    // Outcomes carry their scheme label for reporting.
    assert_eq!(a.scheme, "CLOVER");
}

#[test]
fn accuracy_floor_is_respected() {
    let cfg = ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::Clover)
        .n_gpus(4)
        .accuracy_floor(1.0)
        .horizon_hours(6.0)
        .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
        .seed(13)
        .build();
    let out = Experiment::new(cfg).run();
    assert!(
        out.accuracy_loss_pct < 2.5,
        "floor 1.0% but lost {:.2}%",
        out.accuracy_loss_pct
    );
}

#[test]
fn lambda_extremes_trade_carbon_for_accuracy() {
    let low = {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(4)
            .lambda(0.1)
            .constant_ci(100.0)
            .horizon_hours(4.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(17)
            .build();
        Experiment::new(cfg).run()
    };
    let high = {
        let cfg = ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(4)
            .lambda(0.9)
            .constant_ci(100.0)
            .horizon_hours(4.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(17)
            .build();
        Experiment::new(cfg).run()
    };
    assert!(
        high.carbon_saving_pct >= low.carbon_saving_pct - 3.0,
        "lambda 0.9 saved {:.1}% vs 0.1 {:.1}%",
        high.carbon_saving_pct,
        low.carbon_saving_pct
    );
    assert!(
        low.accuracy_loss_pct <= high.accuracy_loss_pct + 1.0,
        "lambda 0.1 lost {:.2}% vs 0.9 {:.2}%",
        low.accuracy_loss_pct,
        high.accuracy_loss_pct
    );
}
