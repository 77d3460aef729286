//! The paper's evaluation figures over experiment grids: Figs. 9–16 and
//! the §5.2.1 savings estimate.

use super::Spec;
use crate::{header, outcome_row, scaled_horizon, std_config};
use clover_carbon::estimate::SavingsEstimate;
use clover_carbon::Region;
use clover_core::experiment::{ExperimentConfig, ExperimentOutcome, TraceSource};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;

/// The carbon-aware schemes Figs. 10 and 11 compare, in column order.
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Co2Opt,
    SchemeKind::Blover,
    SchemeKind::Clover,
    SchemeKind::Oracle,
];

/// The cells of Figs. 10 and 11: every application × [`SCHEMES`].
fn scheme_grid() -> Vec<ExperimentConfig> {
    Application::ALL
        .into_iter()
        .flat_map(|app| SCHEMES.map(|s| std_config(app, s)))
        .collect()
}

/// The one cell of §5.2.1 and Fig. 13: Clover on Classification.
fn classification_clover() -> Vec<ExperimentConfig> {
    vec![std_config(
        Application::ImageClassification,
        SchemeKind::Clover,
    )]
}

/// Fig. 9: Clover's effectiveness vs BASE — accuracy loss, carbon
/// reduction, and normalized SLA (p95) latency, per application and
/// overall, over 48 h of the US CISO March trace.
///
/// Paper claims to reproduce: >75% carbon saving per application at 2-4%
/// accuracy loss (~80% / ~3% overall), with p95 at or below BASE.
pub(super) fn fig09() -> Spec {
    let cells = Application::ALL
        .map(|app| std_config(app, SchemeKind::Clover))
        .to_vec();
    Spec::grid(cells, |runs| {
        header(
            "Fig. 9",
            "Clover vs BASE: accuracy, carbon, SLA (CISO March, 48 h)",
        );
        println!(
            "{:<16} {:>14} {:>14} {:>18}",
            "application", "acc loss (%)", "carbon red. (%)", "p95 (norm. BASE)"
        );
        let mut loss_sum = 0.0;
        let mut save_sum = 0.0;
        let mut p95_sum = 0.0;
        for out in runs.outcomes() {
            println!(
                "{:<16} {:>14.2} {:>14.1} {:>18.2}",
                out.app, out.accuracy_loss_pct, out.carbon_saving_pct, out.p95_norm_to_base
            );
            loss_sum += out.accuracy_loss_pct;
            save_sum += out.carbon_saving_pct;
            p95_sum += out.p95_norm_to_base;
        }
        println!(
            "{:<16} {:>14.2} {:>14.1} {:>18.2}",
            "Overall",
            loss_sum / 3.0,
            save_sum / 3.0,
            p95_sum / 3.0
        );
        println!();
        println!("(paper: >75% carbon saving per app, 2-4% accuracy loss, p95 <= BASE)");
    })
}

/// §5.2.1: the physical significance of Clover's savings — the paper's
/// back-of-the-envelope translation to kilograms of CO₂ per day, gasoline
/// car kilometres, and kilograms of coal.
pub(super) fn est01() -> Spec {
    Spec::grid(classification_clover(), |runs| {
        header("Sec. 5.2.1", "Back-of-the-envelope savings estimate");
        println!("Paper scenario (6.77e-3 gCO2/request, 25M inferences/day):");
        print_estimate(&SavingsEstimate::paper_scenario());
        println!("(paper: ~170 kg CO2/day, ~680 km gasoline car, ~85 kg coal)");
        println!();

        println!("Measured from this reproduction (Clover vs BASE, Classification):");
        let out = runs.outcomes()[0];
        let measured = SavingsEstimate::from_per_request(out.saving_g_per_request.max(0.0), 25e6);
        println!(
            "  measured saving: {:.3e} gCO2/request ({:.1}% of BASE)",
            out.saving_g_per_request, out.carbon_saving_pct
        );
        print_estimate(&measured);
    })
}

fn print_estimate(e: &SavingsEstimate) {
    println!("  daily CO2 saved:     {:>10.1} kg", e.daily_saving_kg);
    println!("  gasoline-car travel: {:>10.1} km", e.gasoline_car_km);
    println!("  coal not burned:     {:>10.1} kg", e.coal_kg);
}

/// Fig. 10: scheme comparison — carbon saved vs accuracy gain (both
/// relative to BASE) for CO2OPT, BLOVER, CLOVER and ORACLE, per
/// application.
///
/// Paper claims to reproduce: CO2OPT saves the most carbon with the lowest
/// accuracy; CLOVER sits closest to ORACLE and dominates BLOVER; CLOVER is
/// within ~5% of optimal carbon savings.
pub(super) fn fig10() -> Spec {
    Spec::grid(scheme_grid(), |runs| {
        header(
            "Fig. 10",
            "Scheme comparison: carbon save vs accuracy gain (CISO March, 48 h)",
        );
        let outs = runs.outcomes();
        let at = |kind| SCHEMES.iter().position(|&s| s == kind).expect("in roster");
        let (clover, oracle) = (at(SchemeKind::Clover), at(SchemeKind::Oracle));
        for (app, rows) in Application::ALL.into_iter().zip(outs.chunks(SCHEMES.len())) {
            println!("--- {} ---", app.label());
            for out in rows {
                outcome_row(out);
            }
            println!(
                "    CLOVER vs ORACLE carbon gap: {:.1} pp (paper: within ~5%)",
                rows[oracle].carbon_saving_pct - rows[clover].carbon_saving_pct
            );
            println!();
        }
    })
}

/// Fig. 11: the optimization objective over time for every carbon-aware
/// scheme plus CO2OPT — Clover should track ORACLE closely while BLOVER
/// lags and CO2OPT stays flat.
pub(super) fn fig11() -> Spec {
    Spec::grid(scheme_grid(), |runs| {
        header("Fig. 11", "Objective f over time per scheme (CISO March)");
        let all = runs.outcomes();
        for (app, outs) in Application::ALL.into_iter().zip(all.chunks(SCHEMES.len())) {
            println!("--- {} ---", app.label());
            print!("{:>6}", "hour");
            for s in &SCHEMES {
                print!(" {:>9}", s.label());
            }
            println!();
            let hours = outs[0].timeline.len();
            for h in (0..hours).step_by(4) {
                print!("{h:>6}");
                for out in outs {
                    print!(" {:>9.2}", out.timeline[h].objective_f);
                }
                println!();
            }
            // Mean objective summary: the ordering the paper reports.
            print!("{:>6}", "mean");
            for out in outs {
                let mean: f64 = out.timeline.iter().map(|p| p.objective_f).sum::<f64>()
                    / out.timeline.len() as f64;
                print!(" {mean:>9.2}");
            }
            println!();
            println!();
        }
        println!("(paper: CLOVER overlaps ORACLE most of the time; BLOVER worse; CO2OPT flat)");
    })
}

/// Fig. 12: optimization overhead — (a) time spent optimizing per 8-hour
/// window as a fraction of the window, Clover vs Blover; (b) the SLA
/// compliance of configurations explored during optimization.
///
/// Paper claims to reproduce: Clover ~1.2% total vs Blover ~2.3%; Clover
/// evaluates fewer configurations (the "Saved" share) and a larger fraction
/// of its evaluations meet the SLA.
pub(super) fn fig12() -> Spec {
    let app = Application::ImageClassification;
    let cells = vec![
        std_config(app, SchemeKind::Blover),
        std_config(app, SchemeKind::Clover),
    ];
    Spec::grid(cells, |runs| {
        header(
            "Fig. 12",
            "Optimization time and exploration SLA compliance (Classification)",
        );
        let outs = runs.outcomes();
        let (blover, clover) = (outs[0], outs[1]);

        println!("(a) optimization time as % of each 8 h window:");
        let bw = blover.opt_fraction_by_window(8.0);
        let cw = clover.opt_fraction_by_window(8.0);
        println!("{:>10} {:>8} {:>8}", "window", "BLOVER", "CLOVER");
        for (i, (b, c)) in bw.iter().zip(cw.iter()).enumerate() {
            println!(
                "{:>10} {:>7.2}% {:>7.2}%",
                format!("{}-{}h", i * 8, i * 8 + 8),
                b * 100.0,
                c * 100.0
            );
        }
        println!(
            "{:>10} {:>7.2}% {:>7.2}%   (paper: 2.3% vs 1.2%)",
            "total",
            blover.optimization_fraction * 100.0,
            clover.optimization_fraction * 100.0
        );

        println!();
        println!("(b) configurations explored during optimization:");
        let b_total = blover.evals_total();
        let c_total = clover.evals_total();
        let b_ok = blover.evals_sla_ok();
        let c_ok = clover.evals_sla_ok();
        println!(
            "BLOVER: {} evals  meets SLA {:.1}%  violates {:.1}%",
            b_total,
            100.0 * b_ok as f64 / b_total as f64,
            100.0 * (b_total - b_ok) as f64 / b_total as f64
        );
        let saved = b_total.saturating_sub(c_total);
        let denom = b_total.max(c_total) as f64;
        println!(
            "CLOVER: {} evals  meets SLA {:.1}%  violates {:.1}%  saved {:.1}% (vs BLOVER count)",
            c_total,
            100.0 * c_ok as f64 / denom,
            100.0 * (c_total - c_ok) as f64 / denom,
            100.0 * saved as f64 / denom
        );
        println!();
        println!("(paper: Clover explores <50% of Blover's configurations; ~60% of its");
        println!(" evaluations meet the SLA)");
    })
}

/// Fig. 13: what Clover's optimizer explores — the configurations
/// evaluated during the first, second, and last invocations, with their
/// carbon saving, accuracy gain and SLA compliance.
///
/// Paper claims to reproduce: invocation I starts blind and most of its
/// evaluations violate the SLA; invocation II starts from I's best and is
/// mostly SLA-compliant; the last invocation converges in a handful of
/// evaluations, all SLA-compliant.
pub(super) fn fig13() -> Spec {
    Spec::checked(classification_clover(), Vec::new(), |runs| {
        header(
            "Fig. 13",
            "Configurations evaluated per invocation (Classification)",
        );
        let out = runs.outcomes()[0];
        let n = out.invocations.len();
        ensure!(n >= 2, "need at least two invocations, got {n}");
        let picks = [
            ("Invocation I", 0),
            ("Invocation II", 1),
            ("Last invocation", n - 1),
        ];
        for (label, idx) in picks {
            let inv = &out.invocations[idx];
            println!(
                "{label} (t = {:.0} h, {:.0} s spent):",
                inv.at_hours, inv.time_spent_s
            );
            println!(
                "  {:>3} {:>14} {:>12} {:>6} {:>9}",
                "ord", "carbon_save%", "acc_gain%", "SLA", "accepted"
            );
            for e in &inv.evals {
                println!(
                    "  {:>3} {:>14.1} {:>12.2} {:>6} {:>9}",
                    e.order,
                    e.delta_carbon_pct,
                    e.delta_accuracy_pct,
                    if e.sla_ok { "ok" } else { "VIOL" },
                    if e.accepted { "yes" } else { "no" }
                );
            }
            let ok = inv.evals.iter().filter(|e| e.sla_ok).count();
            println!("  -> {}/{} SLA-compliant evaluations", ok, inv.evals.len());
            println!();
        }
        println!(
            "evaluations: first={} second={} last={} (paper: later invocations need fewer)",
            out.invocations[0].evals.len(),
            out.invocations[1].evals.len(),
            out.invocations[n - 1].evals.len()
        );
        Ok(())
    })
}

/// Fig. 14: configurability — (a) the λ sweep at 100 gCO₂/kWh trading
/// accuracy for carbon, and (b) the accuracy-limit mode: carbon saving when
/// a maximum accuracy loss is enforced.
///
/// Paper claims to reproduce: larger λ yields more carbon saving and less
/// accuracy; with only 0.2-0.8% allowed loss Clover still saves 60-75%.
pub(super) fn fig14() -> Spec {
    let (lambdas, floors) = ([0.1, 0.5, 0.9], [0.2, 0.4, 0.8, 1.6, 3.2]);
    let cell = || {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(10)
            .horizon_hours((scaled_horizon() / 2.0).max(6.0))
            .seed(2023)
    };
    // The λ sweep at constant 100 gCO₂/kWh, then the accuracy-loss limits.
    let sweep = lambdas.map(|lambda| cell().constant_ci(100.0).lambda(lambda).build());
    let limited = floors.map(|floor| cell().accuracy_floor(floor).build());
    Spec::grid(sweep.into_iter().chain(limited).collect(), move |runs| {
        header("Fig. 14", "Adjusting lambda and enforcing accuracy limits");
        let outs = runs.outcomes();
        let (sweep, limited) = outs.split_at(lambdas.len());

        println!("(a) lambda sweep at constant 100 gCO2/kWh:");
        println!("{:>8} {:>14} {:>12}", "lambda", "carbon_save%", "acc_gain%");
        for (lambda, out) in lambdas.into_iter().zip(sweep) {
            println!(
                "{lambda:>8.1} {:>14.1} {:>12.2}",
                out.carbon_saving_pct, out.accuracy_gain_pct
            );
        }

        println!();
        println!("(b) enforcing an accuracy-loss limit (CISO March trace):");
        println!(
            "{:>12} {:>14} {:>14}",
            "allowed loss", "carbon_save%", "actual loss%"
        );
        for (floor, out) in floors.into_iter().zip(limited) {
            println!(
                "{floor:>11.1}% {:>14.1} {:>14.2}",
                out.carbon_saving_pct, out.accuracy_loss_pct
            );
        }
        println!();
        println!("(paper: 0.2-0.8% allowed loss still yields 60-75% carbon saving)");
    })
}

/// Steady-state tail: the worst hourly p95 after the first quarter of the
/// horizon, normalized to the 10-GPU BASE reference. The run starts from
/// the BASE layout, so a reduced-GPU run begins overloaded until the
/// scheduler reconfigures; the paper's deployments are not cold-started
/// into overload.
fn steady_norm(out: &ExperimentOutcome) -> String {
    let skip = out.timeline.len() / 4;
    let steady = out
        .timeline
        .iter()
        .skip(skip)
        .map(|h| h.p95_s)
        .fold(0.0f64, f64::max);
    let norm = steady / out.base_p95_s;
    if norm > 3.0 {
        "> 3".to_string()
    } else {
        format!("{norm:.2}")
    }
}

/// Fig. 15: provisioning fewer GPUs — p95 tail latency (normalized to the
/// 10-GPU unpartitioned BASE) when the cluster shrinks to 1/2.5× (4 GPUs)
/// and 1/5× (2 GPUs), for BASE and CLOVER.
///
/// Paper claims to reproduce: BASE blows far past the SLA (>3×) with
/// reduced GPUs; Clover meets the same service goals even with 2 GPUs.
pub(super) fn fig15() -> Spec {
    let sizes = [("1/1x", 10usize), ("1/2.5x", 4), ("1/5x", 2)];
    // Application × size × (BASE, CLOVER), every size against the 10-GPU
    // reference.
    let cells = Application::ALL
        .into_iter()
        .flat_map(|app| {
            sizes.into_iter().flat_map(move |(_, n)| {
                [SchemeKind::Base, SchemeKind::Clover].map(|scheme| {
                    ExperimentConfig::builder(app)
                        .scheme(scheme)
                        .n_gpus(n)
                        .reference_gpus(10)
                        .horizon_hours((scaled_horizon() / 2.0).max(6.0))
                        .seed(2023)
                        .build()
                })
            })
        })
        .collect();
    Spec::grid(cells, move |runs| {
        header(
            "Fig. 15",
            "p95 latency (normalized to 10-GPU BASE) with reduced provisioning",
        );
        println!(
            "{:<16} {:>8} {:>12} {:>12}",
            "application", "GPUs", "BASE", "CLOVER"
        );
        let outs = runs.outcomes();
        let mut pairs = outs.chunks(2);
        for app in Application::ALL {
            for (frac, n) in sizes {
                let pair = pairs.next().expect("grid row");
                println!(
                    "{:<16} {:>8} {:>12} {:>12}",
                    app.label(),
                    format!("{n} ({frac})"),
                    steady_norm(pair[0]),
                    steady_norm(pair[1])
                );
            }
        }
        println!();
        println!("(paper: BASE >3x at reduced GPUs; CLOVER within SLA even at 2 GPUs)");
    })
}

/// Fig. 16: robustness across geographies and seasons — Clover's accuracy
/// loss and carbon saving on US CISO March, US CISO September and UK ESO
/// March traces.
///
/// Paper claims to reproduce: >60% carbon saving with limited accuracy
/// loss across all three traces and all applications.
pub(super) fn fig16() -> Spec {
    let grid: Vec<(Region, Application)> = Region::ALL
        .into_iter()
        .flat_map(|region| Application::ALL.map(|app| (region, app)))
        .collect();
    let cells = grid
        .iter()
        .map(|&(region, app)| ExperimentConfig {
            trace: TraceSource::Region(region),
            ..std_config(app, SchemeKind::Clover)
        })
        .collect();
    Spec::grid(cells, move |runs| {
        header("Fig. 16", "Clover across geographies and seasons");
        println!(
            "{:<22} {:<16} {:>14} {:>14}",
            "trace", "application", "acc loss (%)", "carbon save (%)"
        );
        for ((region, app), out) in grid.into_iter().zip(runs.outcomes()) {
            println!(
                "{:<22} {:<16} {:>14.2} {:>14.1}",
                region.to_string(),
                app.label(),
                out.accuracy_loss_pct,
                out.carbon_saving_pct
            );
        }
        println!();
        println!("(paper: >60% carbon saving with limited accuracy loss everywhere)");
    })
}
