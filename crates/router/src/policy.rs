//! Routing policies: how the [`crate::GlobalRouter`] splits live traffic
//! across regions each control epoch.
//!
//! A policy sees one `RegionSnapshot` per region — liveness, carbon view,
//! live capacity, last epoch's energy per request and weight — and returns
//! a raw weight per region. The router masks regions that are dark, clamps
//! negatives, and normalizes, so a policy is free to return unnormalized
//! scores (or even all zeros, which falls back to a uniform split over the
//! surviving regions).
//!
//! The set is closed: [`RoutePolicy::ALL`] names the study's three
//! policies, and adding one means adding a variant and its match arms.

use std::fmt;

/// Effective-carbon spread (gCO₂/kWh, after scaling by relative energy per
/// request) that must separate two regions before the greedy policies move
/// traffic — the migration penalty expressed in the objective's currency.
/// Too low and the policies chase noise (and epoch-level weight churn
/// thrashes the regional autoscalers); 50 is robust across seeds on the
/// paper's three grids.
const PENALTY_G_PER_KWH: f64 = 50.0;

/// Utilization ceiling the carbon policies respect when concentrating
/// traffic on a clean region, fraction of regional capacity.
const MAX_REGION_UTILIZATION: f64 = 0.85;

/// Fraction of the gap to the greedy target closed per epoch. Jumping
/// straight to the target every epoch thrashes the regional autoscalers,
/// and the energy cost of that churn can exceed the carbon spread being
/// chased; half-stepping keeps the split following the grids' diurnal
/// phase at control-epoch timescales while filtering epoch-to-epoch noise.
const DAMPING: f64 = 0.5;

/// What a [`RoutePolicy`] sees of one region at an epoch boundary.
#[derive(Debug, Clone)]
pub(crate) struct RegionSnapshot {
    /// Position in the router's region list (the weight vector's index).
    pub index: usize,
    /// False while the region is inside a
    /// [`clover_core::chaos::FaultSpec::RegionOutage`] window — the router
    /// forces a dark region's weight to zero whatever the policy returns.
    pub up: bool,
    /// Carbon intensity in force now, gCO₂/kWh, read from the region's
    /// true trace, not its [`clover_carbon::CarbonMonitor`]: under a
    /// carbon-feed gap the router still sees the live intensity that the
    /// region's controller does not.
    pub ci_now_g_per_kwh: f64,
    /// Mean intensity over the router's lookahead window, gCO₂/kWh
    /// (hourly samples of the same true trace).
    pub ci_forecast_g_per_kwh: f64,
    /// Serving capacity of the active fleet at full utilization, req/s.
    pub capacity_rps: f64,
    /// Observed IT energy per served request last epoch, joules (0 until
    /// the region has served). Carbon-aware policies relativize grid
    /// intensity by it: what matters is what a request *costs* here.
    pub energy_per_request_j: f64,
    /// The weight this region carried last epoch (0 on the first).
    pub prev_weight: f64,
}

/// One of the study's traffic-split policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Static equal split — every region serves its origin share and
    /// nothing moves. With healthy regions this *is* per-region-local
    /// scheduling, the baseline the carbon-aware policies are measured
    /// against.
    Uniform,
    /// Latency-penalized carbon greedy on the carbon intensity in force
    /// now, sized against this epoch's demand peak.
    CarbonGreedy,
    /// The same greedy on the lookahead-mean intensity, sized against the
    /// lookahead demand *peak* ([`clover_workload::Workload::peak_over`]) —
    /// follow-the-sun that will not chase a dip about to end into a region
    /// about to brown out.
    ForecastAware,
}

impl RoutePolicy {
    /// Every policy, in the study's order: the per-region-local baseline,
    /// then the two carbon-aware policies.
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::Uniform,
        RoutePolicy::CarbonGreedy,
        RoutePolicy::ForecastAware,
    ];

    /// The policy's name, as configs, outcomes and the journal spell it.
    pub fn label(self) -> &'static str {
        match self {
            RoutePolicy::Uniform => "uniform",
            RoutePolicy::CarbonGreedy => "carbon-greedy",
            RoutePolicy::ForecastAware => "forecast-aware",
        }
    }

    /// Resolves a policy by its label; `None` for any other name.
    pub fn parse(name: &str) -> Option<RoutePolicy> {
        RoutePolicy::ALL.into_iter().find(|p| p.label() == name)
    }

    /// Whether the router should also *migrate queued backlog* toward this
    /// policy's weights at epoch boundaries (spatial arbitrage on work
    /// already admitted, paying the transfer latency per request). The
    /// baseline keeps queues local.
    pub fn rebalances_backlog(self) -> bool {
        self != RoutePolicy::Uniform
    }

    /// Raw, non-negative weight per region for this epoch, given the
    /// global demand forecast peak over this epoch (`demand_rps`) and over
    /// the lookahead window (`demand_peak_rps`), both req/s. The router
    /// masks dark regions, clamps, and normalizes; all-zero falls back to
    /// uniform over the surviving regions.
    pub(crate) fn weights(
        self,
        regions: &[RegionSnapshot],
        demand_rps: f64,
        demand_peak_rps: f64,
    ) -> Vec<f64> {
        match self {
            RoutePolicy::Uniform => vec![1.0; regions.len()],
            RoutePolicy::CarbonGreedy => greedy(regions, demand_rps, false),
            RoutePolicy::ForecastAware => greedy(regions, demand_peak_rps, true),
        }
    }
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency-penalized carbon greedy: start from the uniform (origin) split,
/// then move share from dirty regions to clean ones — but only when the
/// carbon spread beats [`PENALTY_G_PER_KWH`] (the inter-region hop is not
/// free), and never past a clean region's utilization ceiling at
/// `demand`. With `use_forecast` the decision runs on the lookahead-mean
/// intensity instead of the one in force now.
fn greedy(regions: &[RegionSnapshot], demand: f64, use_forecast: bool) -> Vec<f64> {
    let n = regions.len();
    let up: Vec<usize> = regions.iter().filter(|r| r.up).map(|r| r.index).collect();
    let mut w = vec![0.0; n];
    if up.is_empty() {
        return w;
    }
    for &i in &up {
        w[i] = 1.0 / up.len() as f64;
    }
    // Effective intensity: grid g/kWh scaled by the region's observed
    // energy per request relative to the live-fleet mean. A clean grid
    // whose local scheduler answers the clean air with the big, hungry
    // variants is less attractive than its intensity alone suggests —
    // routing on raw intensity chases grams/kWh, serving pays
    // grams/request. Regions with no observation yet (epoch one) sit
    // at the mean (scale one).
    let observed: Vec<f64> = up
        .iter()
        .map(|&i| regions[i].energy_per_request_j)
        .filter(|&e| e > 0.0)
        .collect();
    let e_mean = observed.iter().sum::<f64>() / observed.len().max(1) as f64;
    let ci = |i: usize| -> f64 {
        let r = &regions[i];
        let raw = if use_forecast {
            r.ci_forecast_g_per_kwh
        } else {
            r.ci_now_g_per_kwh
        };
        if r.energy_per_request_j > 0.0 && e_mean > 0.0 {
            raw * r.energy_per_request_j / e_mean
        } else {
            raw
        }
    };
    // Share of global demand a region can absorb before crossing the
    // utilization ceiling (unbounded when demand forecasts zero).
    let cap_share = |i: usize| -> f64 {
        if demand > 0.0 {
            MAX_REGION_UTILIZATION * regions[i].capacity_rps / demand
        } else {
            1.0
        }
    };
    // Cleanest-first receivers fed by dirtiest-first donors; ties
    // break on region index, so the transfer order is deterministic.
    let mut order = up.clone();
    order.sort_by(|&a, &b| {
        ci(a)
            .partial_cmp(&ci(b))
            .expect("finite carbon intensities")
            .then(a.cmp(&b))
    });
    for (ri, &recv) in order.iter().enumerate() {
        for &donor in order[ri + 1..].iter().rev() {
            if ci(donor) - ci(recv) <= PENALTY_G_PER_KWH {
                // Donors only get cleaner from here: stop this receiver.
                break;
            }
            let headroom = cap_share(recv) - w[recv];
            if headroom <= 0.0 {
                break;
            }
            let delta = w[donor].min(headroom);
            w[donor] -= delta;
            w[recv] += delta;
        }
    }
    // Damp the move: blend half-way from the split actually served
    // last epoch toward the greedy target. Both the normalized
    // history and the target sum to one over live regions, so the
    // blend does too. No history (first epoch, or every live region
    // fresh from an outage) means no damping.
    let prev_up: f64 = up.iter().map(|&i| regions[i].prev_weight).sum();
    if prev_up > 0.0 {
        for &i in &up {
            let prev = regions[i].prev_weight / prev_up;
            w[i] = prev + DAMPING * (w[i] - prev);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: usize, up: bool, ci: f64, cap: f64) -> RegionSnapshot {
        RegionSnapshot {
            index,
            up,
            ci_now_g_per_kwh: ci,
            ci_forecast_g_per_kwh: ci,
            capacity_rps: cap,
            energy_per_request_j: 0.0,
            prev_weight: 0.0,
        }
    }

    #[test]
    fn builtin_names_resolve() {
        let regions = vec![snap(0, true, 200.0, 400.0)];
        for policy in RoutePolicy::ALL {
            assert_eq!(RoutePolicy::parse(policy.label()), Some(policy));
            let w = policy.weights(&regions, 400.0, 400.0);
            assert_eq!(w.len(), 1, "{policy}");
        }
        assert_eq!(RoutePolicy::parse("random"), None);
    }

    #[test]
    fn carbon_greedy_moves_share_toward_clean_regions_within_caps() {
        let regions = vec![
            snap(0, true, 300.0, 400.0),
            snap(1, true, 100.0, 400.0),
            snap(2, true, 280.0, 400.0),
        ];
        // Demand 600 rps, cap share = 0.85*400/600 ≈ 0.567: the clean
        // region absorbs up to its ceiling, the dirty two keep the rest.
        let w = RoutePolicy::CarbonGreedy.weights(&regions, 600.0, 600.0);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(w[1] > w[0] && w[1] > w[2], "{w:?}");
        assert!(
            w[1] <= MAX_REGION_UTILIZATION * 400.0 / 600.0 + 1e-12,
            "{w:?}"
        );
    }

    #[test]
    fn carbon_greedy_stays_home_when_spread_is_below_the_penalty() {
        let regions = vec![snap(0, true, 210.0, 400.0), snap(1, true, 200.0, 400.0)];
        let w = RoutePolicy::CarbonGreedy.weights(&regions, 400.0, 400.0);
        assert_eq!(w, vec![0.5, 0.5]);
    }
}
