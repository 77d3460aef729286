//! Geo-routing study (beyond the paper): what moving *traffic between
//! grids* buys, and how it interacts with Clover's local adaptation.
//!
//! The paper's motivation data shows regional carbon curves that are out
//! of phase — California's solar duck curve against Great Britain's wind
//! fronts. Clover exploits its *own* grid's dips in time; this study adds
//! the spatial axis: one regional fleet per grid trace and a global
//! router splitting live traffic each control epoch.
//!
//! The main grid sweeps every routing policy in `ROUTE_POLICIES` over a
//! 3-region fleet running the carbon-unaware `Base` scheme locally
//! (full-epoch continuous serving, reactive autoscaling):
//!
//! - `uniform` **is** per-region-local serving — each region keeps its
//!   origin share; this is the baseline the study measures against;
//! - `random`, `round-robin`, `smallest-queue` — classic balancing
//!   strawmen (round-robin at epoch granularity is deliberately terrible
//!   for the tail: one region serves everything while two drain);
//! - `carbon-greedy` and `forecast-aware` — penalized effective-carbon
//!   routing; the deliverable claim is lower global carbon than `uniform`
//!   at equal global SLA.
//!
//! Two `clover` cells rerun the comparison with Clover scheduling inside
//! each region. That pair documents an interaction the figure is careful
//! not to bury: local temporal adaptation already harvests most of the
//! same dips spatial routing chases (and answers clean air with bigger
//! variants, raising energy per request exactly where the router wants to
//! send load), so routing's increment on top of Clover is marginal while
//! Clover's own win stays ~3x. Spatial and temporal arbitrage are
//! substitutes here, not complements.
//!
//! An outage sweep replays `uniform` and `carbon-greedy` through a
//! mid-horizon [`clover_core::chaos::FaultSpec::RegionOutage`]: the dark
//! region's backlog drains to survivors over the transfer link, the
//! survivors pick up its traffic, and global conservation still closes at
//! every epoch. Finally the whole grid is replayed **serially** and
//! compared digest-for-digest against the parallel run — the multi-region
//! determinism gate; a mismatch exits non-zero so CI fails the build.
//!
//! Every cell's decision journal (route splits, outage drains,
//! conservation checkpoints) lands in `FIG_georouting_journal.jsonl`, the
//! artifact CI uploads. See `docs/georouting.md` for the architecture and
//! how to read this figure.

use clover_bench::{
    bench_threads, count_events, header, log_line, scaled_horizon, write_journals, LogLevel,
};
use clover_core::autoscale::ScalingPolicy;
use clover_core::chaos::{ChaosConfig, FaultSpec};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;
use clover_router::{GlobalOutcome, GlobalRouter, RouterConfig, ROUTE_POLICIES};
use clover_telemetry::TelemetrySpec;

fn config(policy: &str, scheme: SchemeKind, chaos: ChaosConfig) -> RouterConfig {
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

/// A 3-hour single-region blackout in the middle of the horizon.
fn outage() -> ChaosConfig {
    ChaosConfig::off().with(FaultSpec::RegionOutage {
        region: 0,
        start_h: 4.0,
        duration_h: 3.0,
    })
}

fn main() {
    header(
        "Fig. A4 (beyond the paper)",
        "geo-distributed carbon routing: multi-region fleets under a global traffic router",
    );
    let mut labels: Vec<String> = Vec::new();
    let mut configs: Vec<RouterConfig> = Vec::new();
    for policy in ROUTE_POLICIES {
        labels.push(format!("{policy}/base"));
        configs.push(config(policy, SchemeKind::Base, ChaosConfig::off()));
    }
    for policy in ["uniform", "forecast-aware"] {
        labels.push(format!("{policy}/clover"));
        configs.push(config(policy, SchemeKind::Clover, ChaosConfig::off()));
    }
    for policy in ["uniform", "carbon-greedy"] {
        labels.push(format!("{policy}/outage"));
        configs.push(config(policy, SchemeKind::Base, outage()));
    }
    let pairs =
        GlobalRouter::run_cells_with(configs.clone(), bench_threads(), TelemetrySpec::JOURNAL);

    // One JSONL artifact for the whole figure: per-epoch route splits,
    // outage drains and restores, conservation checkpoints, per cell.
    let journal_path = "FIG_georouting_journal.jsonl";
    write_journals(
        journal_path,
        labels.iter().zip(pairs.iter()).map(|(label, (_, report))| {
            (
                format!("{{\"event\":\"cell\",\"label\":\"{label}\"}}"),
                report,
            )
        }),
    );

    log_line!(
        LogLevel::Info,
        "{:<24} {:>10} {:>11} {:>8} {:>6} {:>9} {:>8} {:>15}",
        "cell",
        "carbon_kg",
        "served",
        "p95/sla",
        "sla",
        "migrated",
        "outages",
        "mean weights"
    );
    for (label, (out, report)) in labels.iter().zip(pairs.iter()) {
        let journal = report.journal.as_ref().map(|j| j.as_str()).unwrap_or("");
        let weights = out
            .mean_weights
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>()
            .join("/");
        log_line!(
            LogLevel::Info,
            "{:<24} {:>10.2} {:>11.0} {:>8.2} {:>6} {:>9} {:>8} {:>15}",
            label,
            out.total_carbon_g / 1000.0,
            out.served_scaled,
            out.p95_s / out.sla_p95_s,
            if out.sla_met { "ok" } else { "VIOL" },
            out.migrated_requests,
            count_events(journal, "region_outage"),
            weights
        );
    }
    log_line!(LogLevel::Info, "");

    // Liveness: every cell — outage cells included — serves work.
    let starved: Vec<&String> = labels
        .iter()
        .zip(pairs.iter())
        .filter(|(_, (out, _))| out.served_scaled <= 0.0)
        .map(|(label, _)| label)
        .collect();
    assert!(starved.is_empty(), "cells served nothing: {starved:?}");

    // The checked invariant: global request conservation closes at every
    // epoch of every cell — in the outcome totals and in every journaled
    // checkpoint.
    for (label, (out, report)) in labels.iter().zip(pairs.iter()) {
        assert_eq!(
            out.conservation_leak, 0,
            "{label}: global serve-side conservation leaked"
        );
        assert_eq!(
            out.boundary_leak, 0,
            "{label}: backlog+transit not preserved across a migration boundary"
        );
        let journal = report.journal.as_ref().map(|j| j.as_str()).unwrap_or("");
        let leaks = journal
            .lines()
            .filter(|l| l.contains("\"event\":\"conservation\"") && !l.contains("\"leak\":0"))
            .count();
        assert_eq!(leaks, 0, "{label}: {leaks} journaled conservation leaks");
    }
    log_line!(
        LogLevel::Info,
        "conservation: closed at every epoch in all {} cells (boundary and serve laws)",
        labels.len()
    );

    let cell = |want: &str| -> &GlobalOutcome {
        labels
            .iter()
            .position(|l| l == want)
            .map(|i| &pairs[i].0)
            .expect("cell present")
    };

    // The deliverable claim: carbon-aware routing beats per-region-local
    // serving (the uniform split) on global carbon at equal global SLA.
    let uniform = cell("uniform/base");
    assert!(uniform.sla_met, "baseline must meet the global SLA");
    for policy in ["carbon-greedy", "forecast-aware"] {
        let aware = cell(&format!("{policy}/base"));
        assert!(aware.sla_met, "{policy} must meet the global SLA");
        assert!(
            aware.total_carbon_g < uniform.total_carbon_g,
            "{policy} ({:.0} g) must beat uniform ({:.0} g)",
            aware.total_carbon_g,
            uniform.total_carbon_g
        );
        log_line!(
            LogLevel::Info,
            "{:<16} saves {:.1}% global carbon vs per-region-local at equal SLA",
            policy,
            (uniform.total_carbon_g - aware.total_carbon_g) / uniform.total_carbon_g * 100.0
        );
    }

    // The interaction: Clover inside each region dwarfs what routing adds
    // on top of it — temporal and spatial arbitrage chase the same dips.
    let local_clover = cell("uniform/clover");
    let routed_clover = cell("forecast-aware/clover");
    assert!(
        local_clover.total_carbon_g < uniform.total_carbon_g,
        "local Clover scheduling must beat Base under the same uniform split"
    );
    log_line!(
        LogLevel::Info,
        "local Clover saves {:.1}% vs Base at the same uniform split; routing on top adds {:+.1}%",
        (uniform.total_carbon_g - local_clover.total_carbon_g) / uniform.total_carbon_g * 100.0,
        (routed_clover.total_carbon_g - local_clover.total_carbon_g) / local_clover.total_carbon_g
            * 100.0
    );

    // Outage failover: the dark region's backlog migrates to survivors
    // and its weight pins to zero while it is down.
    for policy in ["uniform", "carbon-greedy"] {
        let out = cell(&format!("{policy}/outage"));
        assert!(out.outage_epochs > 0, "{policy}: outage epochs recorded");
        assert!(
            out.migrated_requests > 0,
            "{policy}: outage must migrate the drained backlog"
        );
        log_line!(
            LogLevel::Info,
            "{:<16} outage: {} region-epochs dark, {} requests migrated, sla {}",
            policy,
            out.outage_epochs,
            out.migrated_requests,
            if out.sla_met { "ok" } else { "VIOL" }
        );
    }
    log_line!(LogLevel::Info, "");

    // The multi-region determinism gate: replay the whole grid serially
    // and require byte-identical digests against the parallel run.
    let serial = GlobalRouter::run_cells_with(configs, 1, TelemetrySpec::JOURNAL);
    let mut mismatches = 0usize;
    for ((label, (p_out, p_rep)), (s_out, s_rep)) in
        labels.iter().zip(pairs.iter()).zip(serial.iter())
    {
        let (sd, pd) = (s_out.digest(), p_out.digest());
        let journals_match = s_rep.journal.as_ref().map(|j| j.as_str())
            == p_rep.journal.as_ref().map(|j| j.as_str());
        if sd != pd || !journals_match {
            mismatches += 1;
            eprintln!(
                "DIGEST MISMATCH {label}: serial {sd:#018X} != parallel {pd:#018X} (journals match: {journals_match})"
            );
        }
    }
    if mismatches > 0 {
        eprintln!("georouting determinism gate FAILED: {mismatches} cell(s) diverged");
        std::process::exit(1);
    }
    log_line!(
        LogLevel::Info,
        "determinism gate: serial == parallel digests and journals for all {} cells",
        labels.len()
    );
    log_line!(
        LogLevel::Info,
        "wrote {journal_path} ({} cells' decision journals)",
        labels.len()
    );
}
