//! Integration tests for the geo-distributed router: determinism of
//! multi-region runs, global request conservation, outage failover, and
//! the closed routing-policy set.
//!
//! Five properties are pinned here:
//!
//! 1. **Multi-region runs are reproducible.** The same `RouterConfig`
//!    produces byte-identical digests run to run, and a grid of router
//!    cells is byte-identical serial vs parallel — journals included.
//! 2. **Requests are conserved globally.** Over any run,
//!    `arrived == served + dropped + final backlog + in transit`, and the
//!    router's own per-epoch leak counters stay at exactly zero.
//! 3. **A region outage fails over, it does not lose work.** The dark
//!    region's backlog migrates to survivors, its weight pins to zero
//!    while it is down, and conservation still closes.
//! 4. **One region degenerates to the single-cluster shape.** A
//!    single-region "fleet" routes weight 1.0 to itself every epoch, and
//!    derives the single-cluster experiment's rate, SLA and `C_base` bit
//!    for bit.
//! 5. **The policy set is closed.** A config naming a policy outside
//!    `RoutePolicy::ALL` is rejected when it is built, before any run.
//! 6. **GPU-level chaos reaches every regional fleet.** Failures, kills
//!    and crashes land inside the regions' cells (each drawn from its own
//!    substream), conservation still closes, and the faulted run stays
//!    serial == parallel.
//! 7. **Every region plans at start-up.** A region dark from t = 0 runs
//!    its start-up plan on the first epoch it serves, not never.

use clover::carbon::regions::Region;
use clover::core::autoscale::ScalingPolicy;
use clover::core::chaos::{ChaosConfig, FaultSpec};
use clover::core::schedulers::SchemeKind;
use clover::core::{Experiment, ExperimentConfig, Objective};
use clover::models::zoo::Application;
use clover::router::{run_cells_with, Cell, GlobalOutcome, GlobalRouter, Outcome, RouterConfig};
use clover::telemetry::{TelemetryReport, TelemetrySpec};

/// Runs `configs` as multi-region cells through the grid entry point.
fn run_fleets(
    configs: Vec<RouterConfig>,
    threads: usize,
    spec: TelemetrySpec,
) -> Vec<(GlobalOutcome, TelemetryReport)> {
    let cells = configs.into_iter().map(Cell::Routed).collect();
    run_cells_with(cells, threads, spec)
        .into_iter()
        .map(|(out, report)| match out {
            Outcome::Routed(out) => (out, report),
            Outcome::Cluster(_) => unreachable!("a multi-region cell"),
        })
        .collect()
}

/// A small-but-live router cell: three regions, sub-hour epochs, reactive
/// fleets — every router code path (planning, serving, snapshots,
/// rebalancing) runs, in seconds of wall time.
fn quick(policy: &str) -> RouterConfig {
    RouterConfig::builder(Application::LanguageModeling)
        .policy(policy)
        .scheme(SchemeKind::Base)
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .n_gpus_per_region(2)
        .min_gpus(1)
        .horizon_hours(4.0)
        .utilization(0.6)
        .sla_headroom(2.0)
        .seed(11)
        .build()
}

/// `quick(policy)` under GPU failures at a 0.5 h MTBF (with brownouts,
/// carbon-feed gaps and forecast error) plus instance crashes — harsh
/// enough that the 4 h horizon sees boundary failures, mid-epoch kills
/// and crashes.
fn chaotic(policy: &str) -> RouterConfig {
    let mut cfg = quick(policy);
    cfg.chaos = ChaosConfig::resilience(0.5).with(FaultSpec::InstanceCrashes {
        rate_per_hour: 12.0,
    });
    cfg
}

#[test]
fn same_config_reruns_are_bit_identical() {
    let a = GlobalRouter::new(quick("carbon-greedy")).run();
    let b = GlobalRouter::new(quick("carbon-greedy")).run();
    assert_eq!(
        a.digest(),
        b.digest(),
        "identical router configs must reproduce bit-identically"
    );
}

/// Outcome and journal digests of `quick(policy)` for every routing
/// policy. Every regional fleet serves through the continuous epoch, so
/// these pin it end to end. The `carbon-greedy` row was recorded while
/// the continuous epoch still ran on its own DES loop; the other two were
/// recorded while the policies were still boxed trait objects, so they
/// also pin that each policy's split kept its bits in the closed enum.
#[test]
fn router_cell_reproduces_the_recorded_digests() {
    const PINS: [(&str, u64, u64); 3] = [
        ("uniform", 0x4042_8EFB_1BA8_8870, 0xEC95_F35A_70E5_7EAE),
        (
            "carbon-greedy",
            0x24AD_CC44_209F_F082,
            0xB542_DB51_44B3_8CF8,
        ),
        (
            "forecast-aware",
            0x9518_8931_95E1_FB82,
            0x5BB8_AD06_BC11_B8C9,
        ),
    ];
    let configs = PINS.iter().map(|&(policy, _, _)| quick(policy)).collect();
    let runs = run_fleets(configs, 2, TelemetrySpec::JOURNAL);
    for ((policy, digest, journal), (out, report)) in PINS.into_iter().zip(&runs) {
        assert_eq!(
            (out.digest(), report.journal_digest()),
            (digest, journal),
            "{policy}: router run drifted (got 0x{:016X}, journal 0x{:016X})",
            out.digest(),
            report.journal_digest()
        );
    }
}

#[test]
fn gpu_level_chaos_reaches_every_regional_fleet() {
    let configs = || vec![chaotic("carbon-greedy"), chaotic("uniform")];
    let serial = run_fleets(configs(), 1, TelemetrySpec::JOURNAL);
    let parallel = run_fleets(configs(), 2, TelemetrySpec::JOURNAL);
    for ((s, sr), (p, pr)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.digest(), p.digest(), "{}: faulted run diverged", s.policy);
        assert_eq!(
            sr.journal.as_ref().map(|j| j.as_str()),
            pr.journal.as_ref().map(|j| j.as_str()),
            "{}: faulted journals diverged across thread counts",
            s.policy
        );
        let journal = sr.journal.as_ref().expect("journal enabled").as_str();
        for kind in ["gpu", "kill", "crash"] {
            assert!(
                journal.lines().any(|l| l.contains("\"event\":\"fault\"")
                    && l.contains(&format!("\"kind\":\"{kind}\""))),
                "{}: no {kind} fault reached a regional fleet",
                s.policy
            );
        }
        assert_eq!(s.conservation_leak, 0, "{}: serve-law leak", s.policy);
        assert_eq!(s.boundary_leak, 0, "{}: boundary-law leak", s.policy);
    }
    let (out, report) = &serial[0];
    assert_ne!(
        out.digest(),
        GlobalRouter::new(quick("carbon-greedy")).run().digest(),
        "GPU-level chaos must change the outcome"
    );
    // Recorded when GPU-level chaos first reached the regional fleets.
    assert_eq!(
        (out.digest(), report.journal_digest()),
        (0x7578_F3F7_90A1_1BD5, 0xA572_4B99_C0B7_31F3),
        "faulted router run drifted (got 0x{:016X}, journal 0x{:016X})",
        out.digest(),
        report.journal_digest()
    );
}

#[test]
#[should_panic(expected = "lambda must lie in (0, 1]")]
fn zero_lambda_is_rejected() {
    // λ = 0 drops carbon from Eq. 3, exactly as for a single cluster.
    let _ = RouterConfig::builder(Application::LanguageModeling)
        .lambda(0.0)
        .build();
}

#[test]
#[should_panic(expected = "utilization target must lie in (0, 1]")]
fn zero_utilization_is_rejected() {
    let _ = RouterConfig::builder(Application::LanguageModeling)
        .utilization(0.0)
        .build();
}

#[test]
fn router_grid_is_bit_identical_serial_vs_parallel() {
    let configs = || -> Vec<RouterConfig> {
        ["uniform", "carbon-greedy", "forecast-aware"]
            .into_iter()
            .map(quick)
            .collect()
    };
    let serial = run_fleets(configs(), 1, TelemetrySpec::JOURNAL);
    let parallel = run_fleets(configs(), 4, TelemetrySpec::JOURNAL);
    for ((s, sr), (p, pr)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            s.digest(),
            p.digest(),
            "{}: router run diverged across thread counts",
            s.policy
        );
        assert_eq!(
            sr.journal.as_ref().map(|j| j.as_str()),
            pr.journal.as_ref().map(|j| j.as_str()),
            "{}: decision journals diverged across thread counts",
            s.policy
        );
    }
}

#[test]
fn requests_are_conserved_globally() {
    for policy in ["uniform", "forecast-aware", "carbon-greedy"] {
        let out = GlobalRouter::new(quick(policy)).run();
        assert_eq!(out.conservation_leak, 0, "{policy}: serve-law leak");
        assert_eq!(out.boundary_leak, 0, "{policy}: boundary-law leak");
        let last = out.timeline.last().expect("nonempty timeline");
        assert_eq!(
            out.arrived,
            out.served + out.dropped + last.backlog + last.in_transit,
            "{policy}: arrivals not accounted for (arrived {}, served {}, \
             dropped {}, backlog {}, in transit {})",
            out.arrived,
            out.served,
            out.dropped,
            last.backlog,
            last.in_transit
        );
    }
}

#[test]
fn a_region_outage_fails_over_without_losing_work() {
    let mut cfg = quick("carbon-greedy");
    cfg.chaos = ChaosConfig::off().with(FaultSpec::RegionOutage {
        region: 1,
        start_h: 1.0,
        duration_h: 1.5,
    });
    let out = GlobalRouter::new(cfg).run();
    assert!(out.outage_epochs > 0, "the outage must register");
    assert!(
        out.migrated_requests > 0,
        "the drained backlog must migrate to survivors"
    );
    for pt in &out.timeline {
        if pt.down[1] {
            assert_eq!(
                pt.weights[1], 0.0,
                "epoch {}: a dark region must carry no traffic",
                pt.epoch
            );
        }
    }
    assert!(
        out.timeline.iter().any(|pt| pt.down[1]),
        "the timeline must record the dark epochs"
    );
    assert!(
        out.timeline.last().map(|pt| !pt.down[1]).unwrap(),
        "the region must come back before the horizon ends"
    );
    assert_eq!(
        out.conservation_leak, 0,
        "conservation must survive the outage"
    );
    assert_eq!(out.boundary_leak, 0, "boundary law must survive the outage");
}

#[test]
fn a_region_dark_at_start_plans_at_startup_when_it_comes_up() {
    let mut cfg = quick("carbon-greedy");
    cfg.chaos = ChaosConfig::off().with(FaultSpec::RegionOutage {
        region: 1,
        start_h: 0.0,
        duration_h: 1.0,
    });
    let (_, report) = run_fleets(vec![cfg], 1, TelemetrySpec::JOURNAL)
        .pop()
        .expect("one cell");
    let journal = report.journal.expect("journal enabled");
    let startups: Vec<&str> = journal
        .as_str()
        .lines()
        .filter(|l| l.contains("\"event\":\"plan\"") && l.contains("\"cause\":\"startup\""))
        .collect();
    assert_eq!(
        startups.len(),
        3,
        "one start-up plan per region: {startups:#?}"
    );
    assert!(
        startups.iter().any(|l| l.starts_with("{\"t_s\":3600,")),
        "the dark region plans at start-up when it first serves: {startups:#?}"
    );
}

#[test]
fn a_single_region_fleet_degenerates_to_weight_one() {
    let mut cfg = RouterConfig::builder(Application::LanguageModeling)
        .regions(vec![Region::EsoMarch])
        .policy("carbon-greedy")
        .scheme(SchemeKind::Base)
        .control_epoch_s(600.0)
        .n_gpus_per_region(2)
        .min_gpus(1)
        .horizon_hours(2.0)
        .utilization(0.6)
        .sla_headroom(2.0)
        .seed(5)
        .build();
    cfg.scaling = ScalingPolicy::Static;
    let out = GlobalRouter::new(cfg).run();
    assert!(out.served > 0, "a one-region fleet still serves");
    for pt in &out.timeline {
        assert_eq!(
            pt.weights,
            vec![1.0],
            "epoch {}: weight must be 1.0",
            pt.epoch
        );
    }
    assert_eq!(out.migrated_requests, 0, "nowhere to migrate to");
    assert_eq!(out.conservation_leak, 0);
}

#[test]
fn a_single_region_router_derives_the_single_cluster_yardstick() {
    use Application::*;
    use Region::*;
    let points = [
        (ImageClassification, CisoMarch, 4, 0.65, 7, 6.0),
        (LanguageModeling, EsoMarch, 3, 0.6, 11, 12.0),
        (ObjectDetection, CisoSeptember, 10, 0.65, 2023, 48.0),
    ];
    for (app, region, gpus, utilization, seed, horizon) in points {
        let router = GlobalRouter::new(
            RouterConfig::builder(app)
                .regions(vec![region])
                .n_gpus_per_region(gpus)
                .utilization(utilization)
                .horizon_hours(horizon)
                .seed(seed)
                .build(),
        );
        let cell = Experiment::new(
            ExperimentConfig::builder(app)
                .region(region)
                .n_gpus(gpus)
                .utilization(utilization)
                .horizon_hours(horizon)
                .seed(seed)
                .build(),
        );
        let bits =
            |rate: f64, o: Objective| [rate, o.l_tail_s, o.c_base_g_per_req].map(f64::to_bits);
        assert_eq!(
            bits(router.rate_rps, router.objective),
            bits(cell.rate_rps, cell.objective),
            "{app:?} on {region}, seed {seed}"
        );
    }
}

#[test]
#[should_panic(
    expected = "unknown route policy \"no-such-policy\"; known: uniform, carbon-greedy, \
                forecast-aware"
)]
fn an_unknown_policy_name_is_rejected_at_build() {
    let _ = RouterConfig::builder(Application::LanguageModeling)
        .policy("no-such-policy")
        .build();
}
