//! The elastic-fleet studies beyond the paper: scaling policies across
//! workloads (Fig. A1) and flash crowds against control cadence and
//! fidelity (Fig. A2).

use super::Spec;
use crate::{header, scaled_horizon};
use clover_core::autoscale::ScalingPolicy;
use clover_core::control::Fidelity;
use clover_core::experiment::{ExperimentConfig, ExperimentOutcome};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_workload::WorkloadKind;

/// Autoscaling study (beyond the paper): operational carbon and SLA
/// attainment of the three fleet policies — the paper's static fleet, a
/// reactive scaler, and the forecast-driven scaler — across the bursty
/// workload scenarios, with CLOVER doing the partitioning in every cell.
///
/// Claims to reproduce/establish: under a predictable diurnal swing the
/// forecast policy powers GPUs down through the trough and cuts total
/// operational carbon versus the static fleet at equal SLA attainment;
/// under MMPP (whose forecast is flat) and sub-hour flash crowds the
/// policies converge, because hourly scaling epochs cannot track bursts —
/// the honest negative result that motivates burst-aware optimization.
pub(super) fn autoscale() -> Spec {
    // The fleet policies, in column order; the first is the baseline.
    let policies = [
        ScalingPolicy::Static,
        ScalingPolicy::reactive(),
        ScalingPolicy::forecast(),
    ];
    let kinds = [
        WorkloadKind::diurnal(),
        WorkloadKind::flash_crowd(),
        WorkloadKind::mmpp(),
    ];
    let cell = |kind: &WorkloadKind, policy| {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .workload(kind.clone())
            .scaling(policy)
            .n_gpus(8)
            .min_gpus(2)
            .horizon_hours(scaled_horizon().max(24.0))
            // Leave diurnal-peak headroom on the fleet (peak = 1.6× the
            // mean rate) and on the SLA, so the policies are compared at
            // equal, attainable service goals rather than all violating at
            // the peak.
            .utilization(0.5)
            .sla_headroom(1.6)
            .seed(2023)
            .build()
    };
    let cells = kinds
        .iter()
        .flat_map(|kind| policies.map(|p| cell(kind, p)))
        .collect();
    Spec::grid(cells, move |runs| {
        header(
            "Fig. A1 (beyond the paper)",
            "elastic GPU fleet: scaling policy x workload, CLOVER partitioning",
        );
        let outs = runs.outcomes();
        println!(
            "{:<12} {:<10} {:>12} {:>14} {:>12} {:>10} {:>6}",
            "workload", "policy", "carbon_kg", "vs static %", "mean_gpus", "p95/sla", "sla"
        );
        for (kind, row) in kinds.iter().zip(outs.chunks(policies.len())) {
            let static_carbon = row[0].total_carbon_g;
            for (policy, out) in policies.iter().zip(row) {
                let vs_static = (out.total_carbon_g - static_carbon) / static_carbon * 100.0;
                println!(
                    "{:<12} {:<10} {:>12.2} {:>+14.1} {:>12.2} {:>10.2} {:>6}",
                    kind.label(),
                    policy.label(),
                    out.total_carbon_g / 1000.0,
                    vs_static,
                    out.mean_active_gpus,
                    out.p95_s / out.sla_p95_s,
                    if out.sla_met { "ok" } else { "VIOL" }
                );
            }
            println!();
        }

        // The acceptance check this figure exists for, stated in its output:
        // the diurnal row's static vs forecast cells.
        let (stat, fore) = (outs[0], outs[2]);
        let saved = (stat.total_carbon_g - fore.total_carbon_g) / stat.total_carbon_g * 100.0;
        println!(
            "diurnal: forecast scaling saves {saved:.1}% operational carbon vs the static fleet \
             (SLA {} vs {})",
            if fore.sla_met { "met" } else { "VIOLATED" },
            if stat.sla_met { "met" } else { "VIOLATED" },
        );
        println!(
            "(mmpp/flash-crowd: hourly epochs cannot track sub-hour bursts; policies converge)"
        );
    })
}

/// One Fig. A2 cell: control cadence, serving fidelity and fleet policy.
struct Cell {
    label: &'static str,
    epoch_s: f64,
    fidelity: Fidelity,
    policy: ScalingPolicy,
}

/// Fig. A2's seven cells, in table order.
fn crowd_cells() -> [Cell; 7] {
    let full = |label, epoch_s, policy| Cell {
        label,
        epoch_s,
        fidelity: Fidelity::FullEpoch,
        policy,
    };
    [
        // The carbon/SLA reference is measured at full fidelity too:
        // cross-fidelity carbon comparisons would be skewed by how much
        // spike energy a representative window happens to sample.
        full("hourly/full/static", 3600.0, ScalingPolicy::Static),
        Cell {
            label: "hourly/window/reactive",
            epoch_s: 3600.0,
            fidelity: Fidelity::RepresentativeWindow { window_s: 240.0 },
            policy: ScalingPolicy::reactive(),
        },
        full("hourly/full/reactive", 3600.0, ScalingPolicy::reactive()),
        full("10min/full/reactive", 600.0, ScalingPolicy::reactive()),
        full("2min/full/reactive", 120.0, ScalingPolicy::reactive()),
        // Pre-warm lookaheads cover detection plus the one-epoch
        // provisioning delay at their cadence: the warm-up lands before
        // the ramp, not mid-crowd.
        full(
            "10min/full/prewarm",
            600.0,
            ScalingPolicy::PreWarm {
                lookahead_hours: 0.35,
            },
        ),
        full(
            "2min/full/prewarm",
            120.0,
            ScalingPolicy::PreWarm {
                lookahead_hours: 0.075,
            },
        ),
    ]
}

/// Flash-crowd study (beyond the paper): what the control plane's cadence
/// and fidelity are worth when demand spikes inside the hour.
///
/// The workload is a recurring flash crowd whose ramp opens exactly at an
/// hourly boundary and is over well before the next one — the adversarial
/// case for the paper's hourly control loop. Every cell serves the BASE
/// layout (quality held fixed) so only the fleet and the measurement move,
/// and all but one serve at `FullEpoch` fidelity **continuously**: queue
/// and in-flight state carry across every epoch boundary.
///
/// 1. **hourly / full-epoch / static** — the carbon and SLA reference.
/// 2. **hourly / window / reactive** — the 240 s representative window at
///    the top of the hour misses the crowd and reports healthy latency.
/// 3. **hourly / full-epoch / reactive** — same decisions, honest
///    measurement: the SLA violation the window missed.
/// 4. **10-minute / full-epoch / reactive** — borderline: detection plus
///    the one-epoch provisioning delay concede ~20 minutes per crowd.
/// 5. **2-minute / full-epoch / reactive** — catches the crowd and meets
///    the SLA at less carbon than the static fleet.
/// 6. and 7. **10- and 2-minute / full-epoch / prewarm** — the
///    forecast-peak policy warms capacity *before* the ramp and runs lean
///    in between, meeting the SLA at less carbon than reaction at the same
///    cadence (pinned by `tests/autoscale.rs`).
///
/// Each cell's decision journal (scaler reasons, plan triggers,
/// conservation checkpoints) lands in `FIG_flashcrowd_journal.jsonl`;
/// `docs/control-plane.md` reads the figure.
pub(super) fn flashcrowd() -> Spec {
    // A crowd the hourly loop cannot see coming: the ramp opens at the top
    // of the hour (right after the hourly control decision), plateaus at
    // 2.5× the baseline for 30 minutes, and is gone before the next
    // decision.
    let crowd = WorkloadKind::FlashCrowd {
        spike_mult: 2.5,
        period_hours: 2.0,
        ramp_s: 300.0,
        hold_s: 1800.0,
    };
    let cells = crowd_cells();
    let configs = cells
        .iter()
        .map(|cell| {
            ExperimentConfig::builder(Application::ImageClassification)
                .scheme(SchemeKind::Base)
                .workload(crowd.clone())
                .scaling(cell.policy)
                .control_epoch_s(cell.epoch_s)
                .fidelity(cell.fidelity.clone())
                .n_gpus(8)
                .min_gpus(2)
                .horizon_hours(scaled_horizon().max(12.0))
                // Leave spike headroom on the fleet (plateau ≈ 1.8× the
                // mean after normalization) and a tail budget the full
                // fleet can meet even mid-crowd — what the shrunken fleet
                // cannot.
                .utilization(0.4)
                .sla_headroom(2.2)
                .seed(2023)
                .build()
        })
        .collect();
    // Each cell's journal marker names its control cadence.
    let markers = cells
        .iter()
        .map(|cell| {
            format!(
                "{{\"event\":\"cell\",\"label\":\"{}\",\"control_epoch_s\":{}}}",
                cell.label, cell.epoch_s
            )
        })
        .collect();
    Spec::grid(configs, move |runs| {
        header(
            "Fig. A2 (beyond the paper)",
            "flash crowds vs control cadence and fidelity (BASE layout, reactive fleet)",
        );

        let outs = runs.outcomes();
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>10} {:>6}",
            "cell", "carbon_kg", "vs static %", "mean_gpus", "p95/sla", "sla"
        );
        let static_carbon = outs[0].total_carbon_g;
        for (cell, out) in cells.iter().zip(&outs) {
            println!(
                "{:<24} {:>10.2} {:>+12.1} {:>12.2} {:>10.2} {:>6}",
                cell.label,
                out.total_carbon_g / 1000.0,
                (out.total_carbon_g - static_carbon) / static_carbon * 100.0,
                out.mean_active_gpus,
                out.p95_s / out.sla_p95_s,
                if out.sla_met { "ok" } else { "VIOL" }
            );
        }
        println!();

        // The cells the claims compare, in `crowd_cells` order.
        let (blind, honest, fast, warm10, warm) = (outs[1], outs[2], outs[4], outs[5], outs[6]);

        // The fidelity artifact: same hourly decisions, opposite verdicts.
        println!(
            "fidelity artifact: hourly reactive measures p95/sla {:.2} through its representative \
             window but {:.2} when the whole epoch is simulated — the crowd falls between windows",
            blind.p95_s / blind.sla_p95_s,
            honest.p95_s / honest.sla_p95_s,
        );
        // The cadence win: sub-hour reaction bounds the tail the hourly loop
        // cannot, while still beating the static fleet on carbon.
        println!(
            "cadence win: 2-minute epochs cut the honest p95/sla from {:.2} to {:.2} ({} the SLA) \
             at {:.1}% less carbon than the static fleet",
            honest.p95_s / honest.sla_p95_s,
            fast.p95_s / fast.sla_p95_s,
            if fast.sla_met {
                "meeting"
            } else {
                "still missing"
            },
            (static_carbon - fast.total_carbon_g) / static_carbon * 100.0,
        );
        // The pre-warm win: the fleet is warm when the crowd lands (the
        // lookahead sees the ramp coming) and lean in between (forecast
        // insurance replaces the reactive policy's standing headroom), so the
        // SLA is met at *less* carbon than reaction at the same cadence.
        println!("pre-warm win: at 2-minute epochs the forecast-peak policy holds p95/sla {:.2} vs \
             reactive {:.2} ({} the SLA) at {:+.1}% carbon vs reactive and {:.1}% less than static; \
             at 10-minute epochs pre-warming already {} the SLA (p95/sla {:.2}) where reactive is \
             borderline",
            warm.p95_s / warm.sla_p95_s,
            fast.p95_s / fast.sla_p95_s,
            if warm.sla_met { "meeting" } else { "missing" },
            (warm.total_carbon_g - fast.total_carbon_g) / fast.total_carbon_g * 100.0,
            (static_carbon - warm.total_carbon_g) / static_carbon * 100.0,
            if warm10.sla_met { "meets" } else { "misses" },
            warm10.p95_s / warm10.sla_p95_s,
        );
        // The continuity dividend: backlog crossing epoch boundaries is real
        // state the cold-start path silently discarded.
        let peak_backlog =
            |o: &ExperimentOutcome| o.timeline.iter().map(|h| h.backlog).max().unwrap();
        println!("continuity: the 2-minute reactive run carries up to {} requests across an epoch \
             boundary mid-crowd (pre-warm: {}) — state a cold-start-per-epoch simulation would drop",
            peak_backlog(fast),
            peak_backlog(warm),
        );
        // Sub-hour timeline: the fleet visibly breathes within the hour.
        let resizes = |o: &ExperimentOutcome| {
            o.timeline
                .windows(2)
                .filter(|w| w[0].active_gpus != w[1].active_gpus)
                .count()
        };
        println!(
            "the 2-minute fleet resized {} times over {} epochs (hourly reactive: {} over {})",
            resizes(fast),
            fast.timeline.len(),
            resizes(honest),
            honest.timeline.len(),
        );
        println!();
    })
    .journaling("FIG_flashcrowd_journal.jsonl", markers)
}
