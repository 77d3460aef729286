//! Routing policies: how the [`crate::GlobalRouter`] splits live traffic
//! across regions each control epoch.
//!
//! A policy sees one [`RegionSnapshot`] per region — carbon view, queue
//! depths, live capacity — and returns a raw weight per region. The router
//! masks regions that are dark, clamps negatives, and normalizes, so a
//! policy is free to return unnormalized scores (or even all zeros, which
//! falls back to a uniform split over the surviving regions).
//!
//! The study's six policies are named in [`ROUTE_POLICIES`] and built by
//! [`make_route_policy`]. The set is closed: adding a policy means adding
//! a name and a `make_route_policy` arm.

use clover_core::ControlEpoch;
use clover_simkit::SimRng;

/// Every route policy name, in the study's order: four baselines
/// (`uniform`, `random`, `round-robin`, `smallest-queue`), then the two
/// carbon-aware policies (`carbon-greedy`, `forecast-aware`).
pub const ROUTE_POLICIES: [&str; 6] = [
    "uniform",
    "random",
    "round-robin",
    "smallest-queue",
    "carbon-greedy",
    "forecast-aware",
];

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

/// What a [`RoutePolicy`] sees of one region at an epoch boundary.
#[derive(Debug, Clone)]
pub struct RegionSnapshot {
    /// Position in the router's region list (the weight vector's index).
    pub index: usize,
    /// Region display name.
    pub label: String,
    /// False while the region is inside a
    /// [`clover_core::chaos::FaultSpec::RegionOutage`] window — the router
    /// forces a dark region's weight to zero whatever the policy returns.
    pub up: bool,
    /// Carbon intensity in force now, gCO₂/kWh (the region's
    /// [`clover_carbon::CarbonMonitor`] view).
    pub ci_now_g_per_kwh: f64,
    /// Mean forecast intensity over the router's lookahead window,
    /// gCO₂/kWh (hourly samples of the same monitor).
    pub ci_forecast_g_per_kwh: f64,
    /// Requests waiting in the region's boundary carry.
    pub queued: u64,
    /// Requests mid-service in the region's boundary carry.
    pub in_flight: u64,
    /// GPUs actively serving in the region.
    pub active_gpus: usize,
    /// Serving capacity of the active fleet at full utilization, req/s.
    pub capacity_rps: f64,
    /// Observed IT energy per served request last epoch, joules (0 until
    /// the region has served). Carbon-aware policies relativize grid
    /// intensity by it: what matters is what a request *costs* here.
    pub energy_per_request_j: f64,
    /// The weight this region carried last epoch (0 on the first).
    pub prev_weight: f64,
}

impl RegionSnapshot {
    /// Queued plus in-flight — the backlog the region drags into the epoch.
    pub fn backlog(&self) -> u64 {
        self.queued + self.in_flight
    }
}

/// Everything a policy may condition its split on for one epoch.
pub struct RouteCtx<'a> {
    /// The control epoch being opened.
    pub epoch: &'a ControlEpoch,
    /// One snapshot per region, in region order.
    pub regions: &'a [RegionSnapshot],
    /// Global demand forecast peak over this epoch, req/s.
    pub demand_rps: f64,
    /// Global demand forecast peak over the lookahead window, req/s.
    pub demand_peak_rps: f64,
    /// The router's own RNG substream (isolated from every fleet's).
    pub rng: &'a mut SimRng,
}

/// A traffic-split policy. Stateful implementations are fine — one policy
/// instance drives one run, and all its randomness must come from
/// [`RouteCtx::rng`] so runs stay byte-identical between serial and
/// parallel grid execution.
pub trait RoutePolicy: Send {
    /// Whether the router should also *migrate queued backlog* toward this
    /// policy's weights at epoch boundaries (spatial arbitrage on work
    /// already admitted, paying the transfer latency per request). The
    /// baselines keep queues local.
    fn rebalances_backlog(&self) -> bool {
        false
    }

    /// Raw, non-negative weight per region for this epoch. The router
    /// masks dark regions, clamps, and normalizes; all-zero falls back to
    /// uniform over the surviving regions.
    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64>;
}

/// Static equal split — every region serves its origin share and nothing
/// moves. With healthy regions this *is* per-region-local scheduling, the
/// baseline the carbon-aware policies are measured against.
struct UniformPolicy;

impl RoutePolicy for UniformPolicy {
    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64> {
        vec![1.0; ctx.regions.len()]
    }
}

/// Random proportions each epoch, drawn from the router's RNG substream.
struct RandomPolicy;

impl RoutePolicy for RandomPolicy {
    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64> {
        // One draw per region, dark ones included: the stream is a fixed
        // function of the epoch index, so an outage elsewhere in the run
        // cannot re-deal every later epoch's split.
        (0..ctx.regions.len()).map(|_| ctx.rng.f64()).collect()
    }
}

/// All traffic to one region, rotating per epoch over the live ones.
struct RoundRobinPolicy;

impl RoutePolicy for RoundRobinPolicy {
    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64> {
        let up: Vec<usize> = ctx
            .regions
            .iter()
            .filter(|r| r.up)
            .map(|r| r.index)
            .collect();
        let mut w = vec![0.0; ctx.regions.len()];
        if !up.is_empty() {
            w[up[ctx.epoch.index as usize % up.len()]] = 1.0;
        }
        w
    }
}

/// Join-the-shortest-queue at epoch granularity: weight proportional to
/// live capacity discounted by the backlog already waiting there.
struct SmallestQueuePolicy;

impl RoutePolicy for SmallestQueuePolicy {
    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64> {
        ctx.regions
            .iter()
            .map(|r| r.capacity_rps / (1.0 + r.backlog() as f64))
            .collect()
    }
}

/// Latency-penalized carbon greedy: start from the uniform (origin) split,
/// then move share from dirty regions to clean ones — but only when the
/// carbon spread beats [`PENALTY_G_PER_KWH`] (the inter-region hop is not
/// free), and never past a clean region's utilization ceiling.
///
/// With `use_forecast` the decision runs on the lookahead-mean intensity
/// and sizes the capacity ceiling against the lookahead demand *peak*
/// ([`clover_workload::Workload::peak_over`]) — follow-the-sun that
/// will not chase a dip about to end into a region about to brown out.
struct GreedyCarbonPolicy {
    use_forecast: bool,
}

/// Fraction of the gap to the greedy target closed per epoch. Jumping
/// straight to the target every epoch thrashes the regional autoscalers,
/// and the energy cost of that churn can exceed the carbon spread being
/// chased; half-stepping keeps the split following the grids' diurnal
/// phase at control-epoch timescales while filtering epoch-to-epoch noise.
const DAMPING: f64 = 0.5;

impl RoutePolicy for GreedyCarbonPolicy {
    fn rebalances_backlog(&self) -> bool {
        true
    }

    fn weights(&mut self, ctx: &mut RouteCtx<'_>) -> Vec<f64> {
        let n = ctx.regions.len();
        let up: Vec<usize> = ctx
            .regions
            .iter()
            .filter(|r| r.up)
            .map(|r| r.index)
            .collect();
        let mut w = vec![0.0; n];
        if up.is_empty() {
            return w;
        }
        for &i in &up {
            w[i] = 1.0 / up.len() as f64;
        }
        let demand = if self.use_forecast {
            ctx.demand_peak_rps
        } else {
            ctx.demand_rps
        };
        // Effective intensity: grid g/kWh scaled by the region's observed
        // energy per request relative to the live-fleet mean. A clean grid
        // whose local scheduler answers the clean air with the big, hungry
        // variants is less attractive than its intensity alone suggests —
        // routing on raw intensity chases grams/kWh, serving pays
        // grams/request. Regions with no observation yet (epoch one) sit
        // at the mean (scale one).
        let observed: Vec<f64> = up
            .iter()
            .map(|&i| ctx.regions[i].energy_per_request_j)
            .filter(|&e| e > 0.0)
            .collect();
        let e_mean = observed.iter().sum::<f64>() / observed.len().max(1) as f64;
        let ci = |i: usize| -> f64 {
            let r = &ctx.regions[i];
            let raw = if self.use_forecast {
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
                MAX_REGION_UTILIZATION * ctx.regions[i].capacity_rps / demand
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
        let prev_up: f64 = up.iter().map(|&i| ctx.regions[i].prev_weight).sum();
        if prev_up > 0.0 {
            for &i in &up {
                let prev = ctx.regions[i].prev_weight / prev_up;
                w[i] = prev + DAMPING * (w[i] - prev);
            }
        }
        w
    }
}

/// Builds a fresh instance of the policy named `name`.
///
/// # Panics
/// On a name outside [`ROUTE_POLICIES`].
pub fn make_route_policy(name: &str) -> Box<dyn RoutePolicy> {
    match name {
        "uniform" => Box::new(UniformPolicy),
        "random" => Box::new(RandomPolicy),
        "round-robin" => Box::new(RoundRobinPolicy),
        "smallest-queue" => Box::new(SmallestQueuePolicy),
        "carbon-greedy" => Box::new(GreedyCarbonPolicy {
            use_forecast: false,
        }),
        "forecast-aware" => Box::new(GreedyCarbonPolicy { use_forecast: true }),
        _ => panic!(
            "unknown route policy {name:?}; known: {}",
            ROUTE_POLICIES.join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_core::EpochSchedule;

    fn snap(index: usize, up: bool, ci: f64, queued: u64, cap: f64) -> RegionSnapshot {
        RegionSnapshot {
            index,
            label: format!("r{index}"),
            up,
            ci_now_g_per_kwh: ci,
            ci_forecast_g_per_kwh: ci,
            queued,
            in_flight: 0,
            active_gpus: 4,
            capacity_rps: cap,
            energy_per_request_j: 0.0,
            prev_weight: 0.0,
        }
    }

    fn ctx_weights(
        policy: &mut dyn RoutePolicy,
        regions: &[RegionSnapshot],
        demand: f64,
    ) -> Vec<f64> {
        let schedule = EpochSchedule::new(1.0, 3600.0);
        let epoch = schedule.iter().next().unwrap();
        let mut rng = SimRng::new(7);
        policy.weights(&mut RouteCtx {
            epoch: &epoch,
            regions,
            demand_rps: demand,
            demand_peak_rps: demand,
            rng: &mut rng,
        })
    }

    #[test]
    fn builtin_names_resolve() {
        let regions = vec![snap(0, true, 200.0, 0, 400.0)];
        for name in ROUTE_POLICIES {
            let w = ctx_weights(make_route_policy(name).as_mut(), &regions, 400.0);
            assert_eq!(w.len(), 1, "{name}");
        }
    }

    #[test]
    fn carbon_greedy_moves_share_toward_clean_regions_within_caps() {
        let regions = vec![
            snap(0, true, 300.0, 0, 400.0),
            snap(1, true, 100.0, 0, 400.0),
            snap(2, true, 280.0, 0, 400.0),
        ];
        let mut p = make_route_policy("carbon-greedy");
        // Demand 600 rps, cap share = 0.85*400/600 ≈ 0.567: the clean
        // region absorbs up to its ceiling, the dirty two keep the rest.
        let w = ctx_weights(p.as_mut(), &regions, 600.0);
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
        let regions = vec![
            snap(0, true, 210.0, 0, 400.0),
            snap(1, true, 200.0, 0, 400.0),
        ];
        let mut p = make_route_policy("carbon-greedy");
        let w = ctx_weights(p.as_mut(), &regions, 400.0);
        assert_eq!(w, vec![0.5, 0.5]);
    }

    #[test]
    fn smallest_queue_prefers_the_empty_region() {
        let regions = vec![
            snap(0, true, 200.0, 500, 400.0),
            snap(1, true, 200.0, 0, 400.0),
        ];
        let mut p = make_route_policy("smallest-queue");
        let w = ctx_weights(p.as_mut(), &regions, 400.0);
        assert!(w[1] > w[0]);
    }

    #[test]
    fn round_robin_rotates_over_live_regions_only() {
        let regions = vec![
            snap(0, false, 200.0, 0, 400.0),
            snap(1, true, 200.0, 0, 400.0),
            snap(2, true, 200.0, 0, 400.0),
        ];
        let schedule = EpochSchedule::new(2.0, 3600.0);
        let mut p = make_route_policy("round-robin");
        let mut rng = SimRng::new(7);
        let picks: Vec<Vec<f64>> = schedule
            .iter()
            .map(|epoch| {
                p.weights(&mut RouteCtx {
                    epoch: &epoch,
                    regions: &regions,
                    demand_rps: 400.0,
                    demand_peak_rps: 400.0,
                    rng: &mut rng,
                })
            })
            .collect();
        assert_eq!(picks[0], vec![0.0, 1.0, 0.0]);
        assert_eq!(picks[1], vec![0.0, 0.0, 1.0]);
    }
}
