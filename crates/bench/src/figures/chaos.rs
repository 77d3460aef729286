//! The fault-injection studies beyond the paper: deterministic chaos
//! across the five schemes (Fig. A3) and multi-region carbon routing with
//! a regional outage (Fig. A4). Both gate determinism by replaying cells
//! serially against the suite's parallel runs.

use super::Spec;
use crate::{count_events, header, journal, journal_leaks, replay_gate, scaled_horizon};
use clover_core::autoscale::ScalingPolicy;
use clover_core::chaos::{ChaosConfig, FaultSpec};
use clover_core::control::Fidelity;
use clover_core::experiment::ExperimentConfig;
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_router::{Cell, GlobalOutcome, Outcome, RoutePolicy, RouterConfig};

fn resilience_config(scheme: SchemeKind, mtbf_hours: f64) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .chaos(ChaosConfig::resilience(mtbf_hours))
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .fidelity(Fidelity::FullEpoch)
        .n_gpus(6)
        .min_gpus(1)
        .horizon_hours(scaled_horizon().max(12.0))
        .sla_headroom(2.2)
        .seed(2023)
        .build()
}

/// Resilience study (beyond the paper): what deterministic chaos does to
/// the five schemes — and what it provably does not do to the numbers.
///
/// Every scheme runs at three fault severities, each a
/// [`ChaosConfig::resilience`] preset keyed by GPU MTBF: chaos off (the
/// digests `tests/chaos.rs` pins), 24 h and 6 h. All faults are drawn up
/// front from the experiment seed. The render checks that every cell
/// serves and that conservation closes at every epoch, then replays the
/// harsh level serially: a digest or journal byte that differs from the
/// parallel grid fails the figure. Each cell's decision journal lands in
/// `FIG_resilience_journal.jsonl`; `docs/resilience.md` reads the figure.
pub(super) fn resilience() -> Spec {
    // The fault-severity levels: label and GPU MTBF in hours (0 turns
    // chaos off).
    let levels = [("chaos-off", 0.0), ("mtbf-24h", 24.0), ("mtbf-6h", 6.0)];
    let schemes = SchemeKind::ALL;
    let (mut labels, mut cells) = (Vec::new(), Vec::new());
    for (level, mtbf) in levels {
        for scheme in schemes {
            labels.push(format!("{}/{level}", scheme.label()));
            cells.push(Cell::Cluster(resilience_config(scheme, mtbf)));
        }
    }
    let (replay, markers) = (cells[2 * schemes.len()..].to_vec(), markers(&labels));
    Spec::checked(cells, move |runs| {
        header(
            "Fig. A3 (beyond the paper)",
            "deterministic chaos: fault injection and degraded-data fallbacks across all five schemes",
        );
        let pairs = runs.pairs(Outcome::cluster);

        println!("{:<20} {:>10} {:>10} {:>8} {:>6} {:>7} {:>8} {:>9}",
            "cell",
            "carbon_kg",
            "served",
            "p95/sla",
            "sla",
            "faults",
            "repairs",
            "fallbacks"
        );
        for (label, (out, report)) in labels.iter().zip(&pairs) {
            let journal = journal(report);
            println!("{:<20} {:>10.2} {:>10.0} {:>8.2} {:>6} {:>7} {:>8} {:>9}",
                label,
                out.total_carbon_g / 1000.0,
                out.served_scaled,
                out.p95_s / out.sla_p95_s,
                if out.sla_met { "ok" } else { "VIOL" },
                count_events(journal, "fault"),
                count_events(journal, "repair"),
                count_events(journal, "fallback"),
            );
        }
        println!();

        // Liveness: chaos degrades service, it must never halt it. Every cell
        // — including harsh chaos with fully-dead stretches — serves work.
        let starved: Vec<&String> = labels
            .iter()
            .zip(&pairs)
            .filter(|(_, (out, _))| out.served_scaled <= 0.0)
            .map(|(label, _)| label)
            .collect();
        ensure!(
            starved.is_empty(),
            "cells served nothing under chaos: {starved:?}"
        );

        // Conservation under fire: every epoch checkpoint in every journal
        // must close the law exactly (leak 0), faulted or not.
        let leaks: usize = pairs.iter().map(|(_, r)| journal_leaks(journal(r))).sum();
        ensure!(
            leaks == 0,
            "conservation leaked at {leaks} epoch boundaries"
        );
        println!("liveness: all {} cells served; conservation closed at every epoch boundary",
            labels.len()
        );

        // Degradation summary at the harsh level, per scheme vs its own
        // chaos-off cell — the resilience cost in carbon and tail.
        let (clean, harsh) = (&pairs[..schemes.len()], &pairs[2 * schemes.len()..]);
        for ((scheme, (clean, _)), (harsh, _)) in schemes.iter().zip(clean).zip(harsh) {
            println!("{:<8} harsh chaos: carbon {:+.1}%, p95/sla {:.2} -> {:.2}, served {:.1}% of clean",
                scheme.label(),
                (harsh.total_carbon_g - clean.total_carbon_g) / clean.total_carbon_g * 100.0,
                clean.p95_s / clean.sla_p95_s,
                harsh.p95_s / harsh.sla_p95_s,
                harsh.served_scaled / clean.served_scaled * 100.0,
            );
        }
        println!();

        // The chaos-enabled determinism gate: replay the harsh level serially
        // and require byte-identical digests and journals against the parallel
        // grid. This is the property that makes a resilience study citable —
        // the faults are part of the experiment, not noise.
        replay_gate(
            "chaos",
            schemes.map(|s| s.label()),
            &runs.runs[2 * schemes.len()..],
            runs.replay,
        )?;
        println!("chaos determinism gate: serial == parallel digests for all {} schemes at {}",
            schemes.len(),
            levels[2].0
        );
        Ok(())
    })
    .replaying(replay)
    // Fault/repair onsets, fallback epochs and conservation checkpoints.
    .journaling("FIG_resilience_journal.jsonl", markers)
}

/// Each cell's journal marker, naming its label.
fn markers(labels: &[String]) -> Vec<String> {
    let marker = |label| format!("{{\"event\":\"cell\",\"label\":\"{label}\"}}");
    labels.iter().map(marker).collect()
}

fn georouting_config(policy: &str, scheme: SchemeKind, chaos: ChaosConfig) -> RouterConfig {
    RouterConfig::builder(Application::LanguageModeling)
        .policy(policy)
        .scheme(scheme)
        .chaos(chaos)
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .n_gpus_per_region(4)
        .min_gpus(1)
        .horizon_hours(scaled_horizon().max(12.0))
        .utilization(0.6)
        .sla_headroom(2.0)
        .seed(31)
        .build()
}

/// Geo-routing study (beyond the paper): what moving *traffic between
/// grids* buys, and how it interacts with Clover's local adaptation.
///
/// Every policy in [`RoutePolicy::ALL`] splits traffic over a 3-region fleet
/// running `Base` locally; two `clover` cells rerun `uniform` and
/// `forecast-aware` with Clover in each region, and two `outage` cells run
/// `uniform` and `carbon-greedy` through a mid-horizon
/// [`FaultSpec::RegionOutage`]. The render checks that every cell serves,
/// that both conservation laws close at every epoch, that carbon-aware
/// routing beats `uniform` at equal SLA, that outages migrate backlog, and
/// that a serial replay of the whole grid reproduces every digest and
/// journal. Each cell's decision journal lands in
/// `FIG_georouting_journal.jsonl`; `docs/georouting.md` reads the figure.
pub(super) fn georouting() -> Spec {
    // A 3-hour single-region blackout in the middle of the horizon.
    let outage = ChaosConfig::off().with(FaultSpec::RegionOutage {
        region: 0,
        start_h: 4.0,
        duration_h: 3.0,
    });
    let cell = |policy: &str, kind: &str, scheme, chaos| {
        (
            format!("{policy}/{kind}"),
            georouting_config(policy, scheme, chaos),
        )
    };
    let base =
        RoutePolicy::ALL.map(|p| cell(p.label(), "base", SchemeKind::Base, ChaosConfig::off()));
    let clover = ["uniform", "forecast-aware"]
        .map(|p| cell(p, "clover", SchemeKind::Clover, ChaosConfig::off()));
    let dark =
        ["uniform", "carbon-greedy"].map(|p| cell(p, "outage", SchemeKind::Base, outage.clone()));
    let (labels, cells): (Vec<String>, Vec<Cell>) = base
        .into_iter()
        .chain(clover)
        .chain(dark)
        .map(|(label, cfg)| (label, Cell::Routed(cfg)))
        .unzip();
    let markers = markers(&labels);
    Spec::checked(cells.clone(), move |runs| {
        header(
            "Fig. A4 (beyond the paper)",
            "geo-distributed carbon routing: multi-region fleets under a global traffic router",
        );
        let pairs = runs.pairs(Outcome::routed);

        println!("{:<24} {:>10} {:>11} {:>8} {:>6} {:>9} {:>8} {:>15}",
            "cell",
            "carbon_kg",
            "served",
            "p95/sla",
            "sla",
            "migrated",
            "outages",
            "mean weights"
        );
        for (label, (out, report)) in labels.iter().zip(&pairs) {
            let weights = out
                .mean_weights
                .iter()
                .map(|w| format!("{w:.2}"))
                .collect::<Vec<_>>()
                .join("/");
            println!("{:<24} {:>10.2} {:>11.0} {:>8.2} {:>6} {:>9} {:>8} {:>15}",
                label,
                out.total_carbon_g / 1000.0,
                out.served_scaled,
                out.p95_s / out.sla_p95_s,
                if out.sla_met { "ok" } else { "VIOL" },
                out.migrated_requests,
                count_events(journal(report), "region_outage"),
                weights
            );
        }
        println!();

        // Liveness: every cell — outage cells included — serves work.
        let starved: Vec<&String> = labels
            .iter()
            .zip(&pairs)
            .filter(|(_, (out, _))| out.served_scaled <= 0.0)
            .map(|(label, _)| label)
            .collect();
        ensure!(starved.is_empty(), "cells served nothing: {starved:?}");

        // The checked invariant: global request conservation closes at every
        // epoch of every cell — in the outcome totals and in every journaled
        // checkpoint.
        for (label, (out, report)) in labels.iter().zip(&pairs) {
            ensure!(
                out.conservation_leak == 0,
                "{label}: global serve-side conservation leaked"
            );
            ensure!(
                out.boundary_leak == 0,
                "{label}: backlog+transit not preserved across a migration boundary"
            );
            let leaks = journal_leaks(journal(report));
            ensure!(leaks == 0, "{label}: {leaks} journaled conservation leaks");
        }
        println!("conservation: closed at every epoch in all {} cells (boundary and serve laws)",
            labels.len()
        );

        let cell = |want: &str| -> &GlobalOutcome {
            labels
                .iter()
                .position(|l| l == want)
                .map(|i| pairs[i].0)
                .expect("cell present")
        };

        // The deliverable claim: carbon-aware routing beats per-region-local
        // serving (the uniform split) on global carbon at equal global SLA.
        let uniform = cell("uniform/base");
        ensure!(uniform.sla_met, "baseline must meet the global SLA");
        for policy in ["carbon-greedy", "forecast-aware"] {
            let aware = cell(&format!("{policy}/base"));
            ensure!(aware.sla_met, "{policy} must meet the global SLA");
            ensure!(
                aware.total_carbon_g < uniform.total_carbon_g,
                "{policy} ({:.0} g) must beat uniform ({:.0} g)",
                aware.total_carbon_g,
                uniform.total_carbon_g
            );
            println!("{:<16} saves {:.1}% global carbon vs per-region-local at equal SLA",
                policy,
                (uniform.total_carbon_g - aware.total_carbon_g) / uniform.total_carbon_g * 100.0
            );
        }

        // The interaction: Clover inside each region dwarfs what routing adds
        // on top of it — temporal and spatial arbitrage chase the same dips.
        let local_clover = cell("uniform/clover");
        let routed_clover = cell("forecast-aware/clover");
        ensure!(
            local_clover.total_carbon_g < uniform.total_carbon_g,
            "local Clover scheduling must beat Base under the same uniform split"
        );
        println!("local Clover saves {:.1}% vs Base at the same uniform split; routing on top adds {:+.1}%",
            (uniform.total_carbon_g - local_clover.total_carbon_g) / uniform.total_carbon_g * 100.0,
            (routed_clover.total_carbon_g - local_clover.total_carbon_g) / local_clover.total_carbon_g
                * 100.0
        );

        // Outage failover: the dark region's backlog migrates to survivors
        // and its weight pins to zero while it is down.
        for policy in ["uniform", "carbon-greedy"] {
            let out = cell(&format!("{policy}/outage"));
            ensure!(out.outage_epochs > 0, "{policy}: outage epochs recorded");
            ensure!(
                out.migrated_requests > 0,
                "{policy}: outage must migrate the drained backlog"
            );
            println!("{:<16} outage: {} region-epochs dark, {} requests migrated, sla {}",
                policy,
                out.outage_epochs,
                out.migrated_requests,
                if out.sla_met { "ok" } else { "VIOL" }
            );
        }
        println!();

        // The multi-region determinism gate: replay the whole grid serially
        // and require byte-identical digests against the parallel run.
        replay_gate("georouting", &labels, &runs.runs, runs.replay)?;
        println!("determinism gate: serial == parallel digests and journals for all {} cells",
            labels.len()
        );
        Ok(())
    })
    .replaying(cells)
    // Per-epoch route splits, outage drains and restores, conservation
    // checkpoints.
    .journaling("FIG_georouting_journal.jsonl", markers)
}
