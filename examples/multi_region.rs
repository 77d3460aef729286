//! One service, three grids: the global router end to end.
//!
//! Stands up a regional fleet on each of the paper's grid traces
//! (California in March and September, Great Britain in March) and lets
//! the global router split live traffic across them each control epoch,
//! once per routing policy. The interesting comparison is the carbon-aware
//! policies against `uniform` — the latter *is* per-region-local serving,
//! each region keeping its origin share of traffic.
//!
//! Regions run the carbon-unaware `Base` scheme locally so the table
//! isolates what *spatial* arbitrage alone buys; `fig_georouting` shows
//! the interaction with Clover's local (temporal) adaptation, which
//! harvests most of the same dips.
//!
//! ```sh
//! cargo run --release --example multi_region
//! ```

use clover::core::autoscale::ScalingPolicy;
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{GlobalRouter, RoutePolicy, RouterConfig};

fn main() {
    let app = Application::LanguageModeling;
    println!("Global router serving {app} across 3 regions for 12 simulated hours:");
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>9} {:>10} {:>9}",
        "policy", "kg CO2", "p95 (s)", "SLA", "migrated", "mean gpus", "weights"
    );
    let mut uniform_carbon = None;
    for policy in RoutePolicy::ALL {
        let cfg = RouterConfig::builder(app)
            .policy(policy.label())
            .scheme(SchemeKind::Base)
            .n_gpus_per_region(4)
            .min_gpus(1)
            .scaling(ScalingPolicy::reactive())
            .horizon_hours(12.0)
            .utilization(0.6)
            .sla_headroom(2.0)
            .seed(31)
            .build();
        let out = GlobalRouter::new(cfg).run();
        assert_eq!(
            out.conservation_leak, 0,
            "global conservation must hold for {policy}"
        );
        assert_eq!(out.boundary_leak, 0, "boundary law must hold for {policy}");
        if policy == RoutePolicy::Uniform {
            uniform_carbon = Some(out.total_carbon_g);
        }
        let weights = out
            .mean_weights
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{:<16} {:>10.2} {:>10.3} {:>8} {:>9} {:>10.1} {:>9}",
            out.policy,
            out.total_carbon_g / 1e3,
            out.p95_s,
            if out.sla_met { "met" } else { "MISS" },
            out.migrated_requests,
            out.mean_active_gpus,
            weights
        );
    }
    if let Some(base) = uniform_carbon {
        println!();
        println!(
            "uniform == per-region-local serving ({:.2} kg CO2); carbon-aware",
            base / 1e3
        );
        println!("routing chases clean energy across grids whose curves are out of phase.");
    }
}
