//! The global router: one serving system spanning N grid regions.
//!
//! A [`GlobalRouter`] is the multi-region counterpart of the single-cluster
//! experiment runtime. It stands up one [`CellRuntime`] per configured
//! region — under the region's carbon trace, with its own control loop,
//! continuous serving simulator, carbon ledger and GPU-level fault plan, on
//! its own RNG substream, so adding or removing a region never re-deals
//! another region's randomness — and, each control epoch:
//!
//! 1. reconciles region outages ([`clover_core::chaos::FaultSpec::RegionOutage`])
//!    — a region going dark drains its entire backlog into a transit pool,
//!    each request aged by the inter-region transfer latency;
//! 2. snapshots every region (carbon now and ahead, live capacity) and
//!    asks the configured [`RoutePolicy`] for a traffic split, which the
//!    router masks to live regions and normalizes;
//! 3. optionally rebalances queued backlog toward the split (carbon-aware
//!    policies opt in via [`RoutePolicy::rebalances_backlog`]) and delivers
//!    the transit pool to surviving regions — both paid for with the
//!    transfer latency, both riding the serving carry so request ages
//!    survive the hop;
//! 4. serves the epoch in every live region — continuously, full-epoch
//!    fidelity — with arrivals thinned to the region's weight (a Poisson
//!    split of a Poisson stream is exact; for the other scenarios it is
//!    the standard independent-thinning approximation);
//! 5. checks conservation globally: over each boundary, backlog + transit
//!    is preserved; over each epoch,
//!    `Σ carried_in + Σ arrived == Σ served + Σ dropped + Σ carried_out`
//!    (requests in transit are constant within an epoch). Both residuals
//!    are journaled and surface in the outcome.
//!
//! During a **total blackout** (every region dark) nothing is admitted:
//! clients cannot reach any frontend, so the epoch's traffic never enters
//! the system (it is neither served nor counted as dropped), transit
//! requests age in place, and serving resumes at the first boundary with a
//! live region.

use crate::policy::{RegionSnapshot, RoutePolicy};
use clover_carbon::{CarbonIntensity, CarbonTrace, Region};
use clover_core::anneal::SaParams;
use clover_core::chaos::ChaosConfig;
use clover_core::control::{ControlEpoch, EpochSchedule, Fidelity, SearchBudget};
use clover_core::schedulers::SchemeKind;
use clover_core::{BaseYardstick, CellRuntime, ExperimentConfig, Objective, ScalingPolicy};
use clover_models::zoo::Application;
use clover_models::{served_weighted_accuracy, ModelFamily, PerfModel};
use clover_serving::WindowMetrics;
use clover_simkit::{LatencyHistogram, SimDuration, SimRng, SimTime};
use clover_telemetry::{Event, Telemetry, TelemetryReport, TelemetrySpec};
use clover_workload::{ArrivalProcess, Workload, WorkloadKind};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Salt deriving the per-fleet seed space from the experiment seed. Each
/// fleet's master seed is an independent substream of this, so region
/// count and order never re-deal another region's randomness.
const FLEET_SALT: u64 = 0xF1EE_75A1;

/// Extra latency a request pays for an inter-region hop, seconds.
const TRANSFER_LATENCY_S: f64 = 0.08;

/// Forecast lookahead for the forecast-aware policy, hours: the window
/// both the regions' mean forecast intensity and the demand peak are
/// taken over.
const FORECAST_LOOKAHEAD_H: f64 = 3.0;

/// Weight floor the *planning* workload is held at for a region routed
/// zero traffic. The serving side genuinely admits nothing (see
/// [`NoArrivals`]), but the cell still runs its epoch — draining backlog,
/// letting the scaler shrink toward `min_gpus` — and its evaluator needs a
/// well-posed (positive) planning rate to measure candidate deployments
/// against.
const PLANNING_FLOOR_W: f64 = 0.01;

/// An arrival process that never produces a request — what a region routed
/// weight zero serves its epoch against (backlog still drains).
struct NoArrivals;

impl ArrivalProcess for NoArrivals {
    fn next_after(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
        None
    }

    fn mean_rate(&self) -> f64 {
        0.0
    }
}

/// One region's cell runtime plus what the router tracks of it.
struct Fleet {
    cell: CellRuntime,
    /// Live-traffic requests served here.
    served: u64,
    /// What a request cost here in the last epoch that served any, joules
    /// (0 until the region has served).
    energy_per_request_j: f64,
    /// Inside an outage window: the cell is not stepped, so its scaler and
    /// ledger freeze and its boards draw nothing.
    dark: bool,
}

/// Full specification of one multi-region serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Application under test (served in every region).
    pub app: Application,
    /// Scheduling scheme each region runs locally.
    pub scheme: SchemeKind,
    /// The fleet's grid regions, in routing order. A region may repeat
    /// (two data centers on the same grid): each occurrence is its own
    /// fleet on the same trace.
    pub regions: Vec<Region>,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Global traffic scenario.
    pub workload: WorkloadKind,
    /// GPUs provisioned per region.
    pub n_gpus_per_region: usize,
    /// Scale-down floor for each region's autoscaler.
    pub min_gpus: usize,
    /// Autoscaling policy in every region.
    pub scaling: ScalingPolicy,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
    /// Objective weight λ.
    pub lambda: f64,
    /// Aggregate utilization the global rate is tuned to.
    pub utilization_target: f64,
    /// Master seed.
    pub seed: u64,
    /// Control-plane cadence, seconds (must divide one hour).
    pub control_epoch_s: f64,
    /// SLA headroom multiplier over the measured BASE p95.
    pub sla_headroom: f64,
    /// Simulated-annealing parameters (the builder leaves the defaults).
    pub sa: SaParams,
    /// How the SA budget relates to the control cadence (the builder
    /// leaves [`SearchBudget::epoch_scaled`]).
    pub search_budget: SearchBudget,
    /// Fault processes. The router consumes
    /// [`clover_core::chaos::FaultSpec::RegionOutage`] entries; every other
    /// fault kind (GPU failures, brownouts, instance crashes, carbon-feed
    /// gaps, forecast error) reaches each region's cell runtime, drawn from
    /// that region's own seed substream.
    pub chaos: ChaosConfig,
}

impl RouterConfig {
    /// Starts a builder with the single-cluster defaults for `app`,
    /// [`Region::ALL`] as the fleet, and the `uniform` (per-region-local)
    /// policy.
    pub fn builder(app: Application) -> RouterConfigBuilder {
        RouterConfigBuilder {
            cfg: RouterConfig {
                app,
                scheme: SchemeKind::Clover,
                regions: Region::ALL.to_vec(),
                policy: RoutePolicy::Uniform,
                workload: WorkloadKind::Poisson,
                n_gpus_per_region: 10,
                min_gpus: 1,
                scaling: ScalingPolicy::Static,
                horizon_hours: 48.0,
                lambda: 0.5,
                utilization_target: 0.65,
                seed: 42,
                control_epoch_s: 3600.0,
                sla_headroom: 1.05,
                sa: SaParams::default(),
                search_budget: SearchBudget::epoch_scaled(),
                chaos: ChaosConfig::off(),
            },
        }
    }

    /// The cell configuration every regional fleet runs: this config's
    /// per-region fields at [`Fidelity::FullEpoch`], with the router's
    /// seed (each fleet stamps its own seed and region over it).
    ///
    /// # Panics
    /// With [`clover_core::experiment::ExperimentConfigBuilder::build`]'s
    /// messages when those fields are inconsistent.
    pub fn cell_config(&self) -> ExperimentConfig {
        ExperimentConfig::builder(self.app)
            .scheme(self.scheme)
            .workload(self.workload.clone())
            .n_gpus(self.n_gpus_per_region)
            .min_gpus(self.min_gpus)
            .scaling(self.scaling)
            .horizon_hours(self.horizon_hours)
            .lambda(self.lambda)
            .utilization(self.utilization_target)
            .seed(self.seed)
            .control_epoch_s(self.control_epoch_s)
            .fidelity(Fidelity::FullEpoch)
            .sla_headroom(self.sla_headroom)
            .sa(self.sa)
            .search_budget(self.search_budget)
            .chaos(self.chaos.clone())
            .build()
    }
}

/// Builder for [`RouterConfig`].
pub struct RouterConfigBuilder {
    cfg: RouterConfig,
}

impl RouterConfigBuilder {
    /// Sets the per-region scheduling scheme.
    pub fn scheme(mut self, s: SchemeKind) -> Self {
        self.cfg.scheme = s;
        self
    }

    /// Sets the fleet's regions.
    pub fn regions(mut self, regions: Vec<Region>) -> Self {
        self.cfg.regions = regions;
        self
    }

    /// Sets the routing policy by its label (see [`RoutePolicy::ALL`]).
    ///
    /// # Panics
    /// On any other name, listing the known ones.
    pub fn policy(mut self, name: &str) -> Self {
        self.cfg.policy = RoutePolicy::parse(name).unwrap_or_else(|| {
            let known = RoutePolicy::ALL.map(RoutePolicy::label).join(", ");
            panic!("unknown route policy {name:?}; known: {known}")
        });
        self
    }

    /// Sets the traffic scenario.
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.cfg.workload = kind;
        self
    }

    /// Sets GPUs provisioned per region.
    pub fn n_gpus_per_region(mut self, n: usize) -> Self {
        self.cfg.n_gpus_per_region = n;
        self
    }

    /// Sets the autoscaler floor.
    pub fn min_gpus(mut self, n: usize) -> Self {
        self.cfg.min_gpus = n;
        self
    }

    /// Sets the autoscaling policy.
    pub fn scaling(mut self, policy: ScalingPolicy) -> Self {
        self.cfg.scaling = policy;
        self
    }

    /// Sets the horizon in hours.
    pub fn horizon_hours(mut self, h: f64) -> Self {
        self.cfg.horizon_hours = h;
        self
    }

    /// Sets λ.
    pub fn lambda(mut self, l: f64) -> Self {
        self.cfg.lambda = l;
        self
    }

    /// Sets the aggregate utilization target.
    pub fn utilization(mut self, u: f64) -> Self {
        self.cfg.utilization_target = u;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Sets the control cadence in seconds.
    pub fn control_epoch_s(mut self, s: f64) -> Self {
        self.cfg.control_epoch_s = s;
        self
    }

    /// Sets the SLA headroom multiplier.
    pub fn sla_headroom(mut self, h: f64) -> Self {
        self.cfg.sla_headroom = h;
        self
    }

    /// Sets the fault configuration.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.cfg.chaos = chaos;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Panics
    /// On an empty region list or a `RegionOutage` naming a region index
    /// outside the fleet; and, with the experiment config's own messages,
    /// on per-region fields a cell rejects (GPU counts, horizon, cadence, λ
    /// or a utilization target outside `(0, 1]`, SLA headroom, an invalid
    /// chaos config; see [`RouterConfig::cell_config`]).
    pub fn build(self) -> RouterConfig {
        let cfg = self.cfg;
        assert!(!cfg.regions.is_empty(), "at least one region");
        let _ = cfg.cell_config();
        for (region, _, _) in cfg.chaos.region_outages() {
            assert!(
                region < cfg.regions.len(),
                "RegionOutage names region {region}, fleet has {}",
                cfg.regions.len()
            );
        }
        cfg
    }
}

/// One control epoch of the global timeline (per-region vectors are in
/// region order).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterEpochPoint {
    /// Epoch index.
    pub epoch: u32,
    /// Simulated time at the epoch's start, hours.
    pub t_hours: f64,
    /// Normalized traffic split applied this epoch.
    pub weights: Vec<f64>,
    /// Carbon intensity seen per region at the boundary, gCO₂/kWh.
    pub ci_g_per_kwh: Vec<f64>,
    /// Active GPUs per region after planning.
    pub active_gpus: Vec<u32>,
    /// Which regions were dark this epoch.
    pub down: Vec<bool>,
    /// Live-traffic arrivals admitted globally this epoch.
    pub arrived: u64,
    /// Requests served globally this epoch.
    pub served: u64,
    /// Requests dropped globally this epoch.
    pub dropped: u64,
    /// Global backlog carried out of the epoch.
    pub backlog: u64,
    /// Requests sitting in inter-region transit during the epoch.
    pub in_transit: u64,
    /// Requests migrated at this epoch's boundary (outage drains plus
    /// backlog rebalancing plus transit deliveries are all counted once,
    /// at the hop that moved them out of a region).
    pub migrated: u64,
}

/// Results of one multi-region run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalOutcome {
    /// Routing policy name.
    pub policy: String,
    /// Per-region scheduling scheme label.
    pub scheme: String,
    /// Region display names, in routing order.
    pub regions: Vec<String>,
    /// Traffic scenario label.
    pub workload: String,
    /// Autoscaling policy label.
    pub scaling: String,
    /// Control cadence, seconds.
    pub control_epoch_s: f64,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
    /// GPUs provisioned per region.
    pub n_gpus_per_region: usize,
    /// Global offered base rate, req/s.
    pub rate_rps: f64,
    /// The global SLA (BASE-calibrated p95 bound), seconds.
    pub sla_p95_s: f64,
    /// Total operational carbon across all regions, grams.
    pub total_carbon_g: f64,
    /// Carbon per region, grams.
    pub region_carbon_g: Vec<f64>,
    /// Requests served per region (live traffic).
    pub region_served: Vec<u64>,
    /// Mean applied weight per region over the horizon.
    pub mean_weights: Vec<f64>,
    /// Request-weighted mean accuracy, percent.
    pub accuracy_pct: f64,
    /// Global p95 latency, seconds (NaN when nothing was served).
    pub p95_s: f64,
    /// Whether the global p95 met the SLA.
    pub sla_met: bool,
    /// Mean IT energy per served request, joules.
    pub energy_per_request_j: f64,
    /// Mean carbon per served request, grams.
    pub carbon_per_request_g: f64,
    /// Live-traffic arrivals admitted globally.
    pub arrived: u64,
    /// Requests served globally (live traffic).
    pub served: u64,
    /// Requests dropped globally.
    pub dropped: u64,
    /// Backlog still queued or in flight at the horizon.
    pub final_backlog: u64,
    /// Requests still in inter-region transit at the horizon.
    pub final_in_transit: u64,
    /// Requests that paid an inter-region hop.
    pub migrated_requests: u64,
    /// Epoch boundaries at which at least one request migrated.
    pub migration_boundaries: u64,
    /// Region-epochs spent dark.
    pub outage_epochs: u64,
    /// Mean GPUs active across the whole fleet.
    pub mean_active_gpus: f64,
    /// Served requests including scheduler evaluation windows.
    pub served_scaled: f64,
    /// Scheduler search time charged, seconds.
    pub optimization_time_s: f64,
    /// Discrete events simulated.
    pub sim_events: u64,
    /// Total residual of the per-epoch serve-side conservation law
    /// (`Σ carried_in + Σ arrived - Σ served - Σ dropped - Σ carried_out`).
    /// Zero unless the bookkeeping itself is broken.
    pub conservation_leak: i64,
    /// Total residual of the boundary law (backlog + transit preserved
    /// across every migration boundary). Zero unless broken.
    pub boundary_leak: i64,
    /// Per-epoch global timeline.
    pub timeline: Vec<RouterEpochPoint>,
}

impl GlobalOutcome {
    /// Order-sensitive digest of everything the run measured — the
    /// serial==parallel determinism check for multi-region runs, same
    /// FNV-1a idiom as the single-cluster outcome digest.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for s in [&self.policy, &self.scheme, &self.workload] {
            for b in s.as_bytes() {
                eat(u64::from(*b));
            }
        }
        eat(self.regions.len() as u64);
        for v in [
            self.rate_rps,
            self.sla_p95_s,
            self.total_carbon_g,
            self.accuracy_pct,
            self.p95_s,
            self.energy_per_request_j,
            self.carbon_per_request_g,
            self.optimization_time_s,
            self.served_scaled,
            self.mean_active_gpus,
        ] {
            eat(v.to_bits());
        }
        for v in &self.region_carbon_g {
            eat(v.to_bits());
        }
        for v in &self.region_served {
            eat(*v);
        }
        for v in &self.mean_weights {
            eat(v.to_bits());
        }
        for v in [
            self.arrived,
            self.served,
            self.dropped,
            self.final_backlog,
            self.final_in_transit,
            self.migrated_requests,
            self.migration_boundaries,
            self.outage_epochs,
            self.sim_events,
        ] {
            eat(v);
        }
        eat(self.conservation_leak as u64);
        eat(self.boundary_leak as u64);
        for p in &self.timeline {
            eat(u64::from(p.epoch));
            for w in &p.weights {
                eat(w.to_bits());
            }
            for ci in &p.ci_g_per_kwh {
                eat(ci.to_bits());
            }
            for g in &p.active_gpus {
                eat(u64::from(*g));
            }
            for d in &p.down {
                eat(u64::from(*d));
            }
            eat(p.arrived);
            eat(p.served);
            eat(p.dropped);
            eat(p.backlog);
            eat(p.in_transit);
            eat(p.migrated);
        }
        h
    }
}

/// The multi-region experiment runtime (see the module docs for the
/// per-epoch protocol).
pub struct GlobalRouter {
    cfg: RouterConfig,
    family: Arc<ModelFamily>,
    perf: PerfModel,
    /// Each region's carbon trace, in region order.
    traces: Vec<Arc<CarbonTrace>>,
    /// Global offered base rate, req/s.
    pub rate_rps: f64,
    /// Serving capacity one BASE GPU contributes, req/s.
    pub capacity_per_gpu_rps: f64,
    /// The global traffic scenario bound to the derived rate.
    pub workload: Workload,
    /// The derived objective (λ, C_base, A_base, SLA) — shared by every
    /// region, because the SLA is a property of the service, not of where
    /// a request happens to be served.
    pub objective: Objective,
    /// Held so that cells built while this one lives share the
    /// calibration window.
    _calibration: Arc<OnceLock<BaseYardstick>>,
}

impl GlobalRouter {
    /// Derives the global workload, SLA and objective for `cfg`.
    ///
    /// The [`BaseYardstick`] has one share per region, and `C_base` is
    /// priced at the fleet-mean carbon intensity of the regions.
    pub fn new(cfg: RouterConfig) -> Self {
        let family = Arc::new(cfg.app.family());
        let perf = PerfModel::a100();
        let n = cfg.regions.len();
        let (gpus, u) = (cfg.n_gpus_per_region, cfg.utilization_target);
        let (yardstick, calibration) =
            BaseYardstick::shared(cfg.app, &family, perf, gpus, n, u, cfg.seed);
        let workload = Workload::new(cfg.workload.clone(), yardstick.rate_rps);

        // Region traces are keyed by the experiment seed alone: the grid
        // does not care how many fleets the operator runs.
        let traces: Vec<Arc<CarbonTrace>> = cfg
            .regions
            .iter()
            .map(|r| Arc::new(r.run_trace(cfg.horizon_hours, cfg.seed)))
            .collect();
        let ci_ref = traces.iter().map(|t| t.mean().g_per_kwh()).sum::<f64>() / n as f64;
        let objective = yardstick.objective(
            family.accuracy_base(),
            CarbonIntensity::from_g_per_kwh(ci_ref),
            cfg.sla_headroom,
            cfg.lambda,
        );

        GlobalRouter {
            cfg,
            family,
            perf,
            traces,
            rate_rps: yardstick.rate_rps,
            capacity_per_gpu_rps: yardstick.capacity_per_gpu_rps,
            workload,
            objective,
            _calibration: calibration,
        }
    }

    /// The configuration this run executes.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Runs one cell per config on `threads` workers, each with its own
    /// telemetry sink from `spec`; outcomes and reports come back in input
    /// order. Every cell derives all randomness from its own seed, so the
    /// parallel grid is byte-identical to the serial run.
    ///
    /// Every cell is built first, so cells that share a calibration window
    /// are alive together and derive it once.
    pub fn run_cells_with(
        configs: Vec<RouterConfig>,
        threads: usize,
        spec: TelemetrySpec,
    ) -> Vec<(GlobalOutcome, TelemetryReport)> {
        let cells = clover_simkit::par_map(configs, threads, GlobalRouter::new);
        clover_simkit::par_map(cells.iter().collect(), threads, |r| {
            let mut telemetry = Telemetry::new(spec);
            let out = r.run_with(&mut telemetry);
            (out, telemetry.take_report())
        })
    }

    /// Runs the multi-region experiment without telemetry.
    pub fn run(&self) -> GlobalOutcome {
        self.run_with(&mut Telemetry::disabled())
    }

    /// Runs the multi-region experiment with a telemetry sink. Emits one
    /// `route` and one `conservation` event per epoch, `region_outage` /
    /// `region_restore` on transitions; telemetry is a strict overlay (the
    /// no-op sink gives [`GlobalRouter::run`], bit for bit).
    pub fn run_with(&self, telemetry: &mut Telemetry) -> GlobalOutcome {
        let cfg = &self.cfg;
        let n = cfg.regions.len();
        let schedule = EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s);
        let epoch_len = schedule.epoch_len();
        let epoch_s = epoch_len.as_secs();
        let mut fleets = self.fleets(telemetry);
        // Region outages, as (region, start_s, end_s), already validated.
        let outages = cfg.chaos.region_outages();

        // Requests mid-hop between regions, as ages (transfer latency
        // already added). Constant within an epoch; delivered or aged at
        // boundaries.
        let mut transit: Vec<f64> = Vec::new();
        let mut prev_weights = vec![0.0f64; n];
        let mut weight_sums = vec![0.0f64; n];
        let mut arrived = 0u64;
        let mut served = 0u64;
        let mut dropped = 0u64;
        let mut migrated_requests = 0u64;
        let mut migration_boundaries = 0u64;
        let mut outage_epochs = 0u64;
        let mut conservation_leak = 0i64;
        let mut boundary_leak = 0i64;
        let mut timeline = Vec::with_capacity(schedule.count() as usize);

        for epoch in schedule.iter() {
            let t = epoch.start;
            let t_s = t.as_secs();
            let end_s = t_s + epoch_s;
            let before = backlog(&fleets) + transit.len() as u64;
            let mut migrated_now = 0u64;

            // Outage transitions. An epoch is dark when any outage window
            // overlaps it — an outage covers every epoch it touches. A
            // region going dark hands its entire backlog — queued and in
            // flight alike (mid-service progress is lost with the region) —
            // to the transit pool, aged by the transfer latency. It comes
            // back with an empty carry and its scaler as the outage left it
            // (warm-up happens through the normal epoch loop).
            for (i, fleet) in fleets.iter_mut().enumerate() {
                let down_now = outages
                    .iter()
                    .any(|&(r, start, end)| r == i && start < end_s && end > t_s);
                if down_now && !fleet.dark {
                    fleet.dark = true;
                    let ages = fleet.cell.carry_mut().drain_for_migration();
                    migrated_now += ages.len() as u64;
                    if telemetry.journal_mut().is_some() {
                        telemetry.emit(
                            Event::new("region_outage", t)
                                .u64("region", i as u64)
                                .u64("epoch", u64::from(epoch.index))
                                .u64("drained", ages.len() as u64),
                        );
                    }
                    transit.extend(ages.iter().map(|a| a + TRANSFER_LATENCY_S));
                } else if !down_now && fleet.dark {
                    fleet.dark = false;
                    if telemetry.journal_mut().is_some() {
                        telemetry.emit(
                            Event::new("region_restore", t)
                                .u64("region", i as u64)
                                .u64("epoch", u64::from(epoch.index)),
                        );
                    }
                }
            }
            let up: Vec<bool> = fleets.iter().map(|f| !f.dark).collect();
            let n_up = up.iter().filter(|&&u| u).count();

            // The policy's view and decision.
            let snapshots: Vec<_> = fleets
                .iter()
                .enumerate()
                .map(|(i, f)| self.snapshot(i, f, t, prev_weights[i]))
                .collect();
            let raw = cfg.policy.weights(
                &snapshots,
                self.workload.peak_over(t, epoch_len),
                self.workload
                    .peak_over(t, SimDuration::from_hours(FORECAST_LOOKAHEAD_H)),
            );
            let weights = normalize_weights(&raw, &up);

            // Backlog rebalancing (carbon-aware policies only): move
            // queued work toward the new split when a region's queue is
            // far over its share, paying the transfer latency per request.
            // In-flight work never moves — restarting it elsewhere would
            // waste the service time already invested.
            if cfg.policy.rebalances_backlog() && n_up > 1 {
                migrated_now += rebalance_backlog(&mut fleets, &up, &weights);
            }

            // Transit delivery: surviving regions absorb the pool in
            // proportion to their weights (largest-remainder, oldest
            // first); with everyone dark the pool just ages in place.
            if n_up > 0 && !transit.is_empty() {
                let pool = std::mem::take(&mut transit);
                deliver_transit(&mut fleets, &up, &weights, pool);
            } else if n_up == 0 {
                for a in &mut transit {
                    *a += epoch_s;
                }
            }

            let after = backlog(&fleets) + transit.len() as u64;
            boundary_leak += after as i64 - before as i64;
            if migrated_now > 0 {
                migration_boundaries += 1;
                migrated_requests += migrated_now;
            }

            // Serve the epoch in every live region. Dark regions are
            // skipped entirely: boards draw nothing, the scaler freezes.
            // With *every* region dark nothing is admitted at all — the
            // service is unreachable, so the epoch's traffic never enters
            // the system (not counted as drops).
            let carried_in = backlog(&fleets);
            let mut e_arrived = 0u64;
            let mut e_served = 0u64;
            let mut e_dropped = 0u64;
            for (i, fleet) in fleets.iter_mut().enumerate() {
                if up[i] {
                    let w = self.serve(fleet, &epoch, weights[i], telemetry);
                    e_arrived += w.arrived;
                    e_served += w.served;
                    e_dropped += w.dropped;
                    conservation_leak += w.conservation_leak;
                } else {
                    outage_epochs += 1;
                }
            }
            let backlog_after = backlog(&fleets);
            // The global serve law; transit is constant within the epoch
            // so it cancels out of the balance.
            let leak =
                (carried_in + e_arrived) as i64 - (e_served + e_dropped + backlog_after) as i64;
            conservation_leak += leak;
            arrived += e_arrived;
            served += e_served;
            dropped += e_dropped;
            for (acc, w) in weight_sums.iter_mut().zip(weights.iter()) {
                *acc += w;
            }

            if telemetry.journal_mut().is_some() {
                // f64 Display is shortest-roundtrip, so the joined vector
                // is as deterministic as the weights themselves.
                let weights_s = weights
                    .iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                telemetry.emit(
                    Event::new("route", t)
                        .u64("epoch", u64::from(epoch.index))
                        .str("policy", cfg.policy.label())
                        .str("weights", weights_s)
                        .u64("in_transit", transit.len() as u64)
                        .u64("migrated", migrated_now)
                        .u64("down", (n - n_up) as u64),
                );
                telemetry.emit(
                    Event::new("conservation", t)
                        .u64("epoch", u64::from(epoch.index))
                        .u64("arrived", e_arrived)
                        .u64("served", e_served)
                        .u64("dropped", e_dropped)
                        .u64("backlog", backlog_after)
                        .u64("in_transit", transit.len() as u64)
                        .f64("leak", leak as f64),
                );
            }
            timeline.push(RouterEpochPoint {
                epoch: epoch.index,
                t_hours: epoch.start_hours(),
                weights: weights.clone(),
                ci_g_per_kwh: snapshots.iter().map(|s| s.ci_now_g_per_kwh).collect(),
                active_gpus: fleets.iter().map(|f| f.cell.active_gpus() as u32).collect(),
                down: up.iter().map(|&u| !u).collect(),
                arrived: e_arrived,
                served: e_served,
                dropped: e_dropped,
                backlog: backlog_after,
                in_transit: transit.len() as u64,
                migrated: migrated_now,
            });
            prev_weights = weights;
        }

        // Global roll-up across the regional ledgers and histograms.
        let epochs = schedule.count().max(1) as f64;
        let totals: Vec<_> = fleets.iter().map(|f| f.cell.totals()).collect();
        let region_carbon_g: Vec<f64> = totals.iter().map(|t| t.ledger.carbon().grams()).collect();
        let total_carbon_g: f64 = region_carbon_g.iter().sum();
        let it_energy_j: f64 = totals.iter().map(|t| t.ledger.it_energy().joules()).sum();
        let served_scaled: f64 = totals.iter().map(|t| t.served_scaled).sum();
        let mut hist = LatencyHistogram::for_latency();
        let mut per_variant = vec![0.0f64; self.family.len()];
        for t in &totals {
            hist.merge(&t.hist);
            for (acc, v) in per_variant.iter_mut().zip(t.per_variant.iter()) {
                *acc += v;
            }
        }
        let accuracy_pct = served_weighted_accuracy(&self.family, per_variant)
            .unwrap_or(self.family.accuracy_base());
        let p95_s = hist.quantile(0.95).unwrap_or(f64::NAN);

        GlobalOutcome {
            policy: cfg.policy.label().to_string(),
            scheme: cfg.scheme.label().to_string(),
            regions: cfg.regions.iter().map(|r| r.to_string()).collect(),
            workload: self.workload.label().to_string(),
            scaling: cfg.scaling.label().to_string(),
            control_epoch_s: cfg.control_epoch_s,
            horizon_hours: cfg.horizon_hours,
            n_gpus_per_region: cfg.n_gpus_per_region,
            rate_rps: self.rate_rps,
            sla_p95_s: self.objective.l_tail_s,
            total_carbon_g,
            region_carbon_g,
            region_served: fleets.iter().map(|f| f.served).collect(),
            mean_weights: weight_sums.iter().map(|s| s / epochs).collect(),
            accuracy_pct,
            p95_s,
            sla_met: p95_s <= self.objective.l_tail_s,
            energy_per_request_j: if served_scaled > 0.0 {
                it_energy_j / served_scaled
            } else {
                f64::NAN
            },
            carbon_per_request_g: if served_scaled > 0.0 {
                total_carbon_g / served_scaled
            } else {
                f64::NAN
            },
            arrived,
            served,
            dropped,
            final_backlog: backlog(&fleets),
            final_in_transit: transit.len() as u64,
            migrated_requests,
            migration_boundaries,
            outage_epochs,
            mean_active_gpus: totals.iter().map(|t| t.active_gpu_hours).sum::<f64>()
                / (epochs * schedule.epoch_hours()),
            served_scaled,
            optimization_time_s: totals.iter().map(|t| t.optimization_time_s).sum(),
            sim_events: totals.iter().map(|t| t.sim_events).sum(),
            conservation_leak,
            boundary_leak,
            timeline,
        }
    }

    /// One fleet per region, each cell under the region's trace, seeded
    /// from its own substream of [`FLEET_SALT`] (the standard per-component
    /// salts are applied inside) and profiled into `telemetry`. Evaluators
    /// start at the planning floor's rate.
    fn fleets(&self, telemetry: &Telemetry) -> Vec<Fleet> {
        let config = self.cfg.cell_config();
        let seeder = SimRng::new(self.cfg.seed ^ FLEET_SALT);
        self.traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                let mut config = config.clone();
                config.seed = seeder.substream(i as u64).next_u64();
                let mut cell = CellRuntime::new(
                    &config,
                    self.family.clone(),
                    self.perf,
                    trace.clone(),
                    self.capacity_per_gpu_rps,
                    self.rate_rps * PLANNING_FLOOR_W,
                );
                cell.set_profiler(telemetry.profiler());
                Fleet {
                    cell,
                    served: 0,
                    energy_per_request_j: 0.0,
                    dark: false,
                }
            })
            .collect()
    }

    /// What a routing policy sees of region `i` at `t`: current and
    /// lookahead carbon (hourly samples of the region's trace) and live
    /// capacity.
    fn snapshot(&self, i: usize, fleet: &Fleet, t: SimTime, prev_weight: f64) -> RegionSnapshot {
        let trace = &self.traces[i];
        let hours = (FORECAST_LOOKAHEAD_H.ceil() as usize).max(1);
        let mut sum = 0.0;
        for k in 0..hours {
            let at = SimTime::from_secs(t.as_secs() + k as f64 * 3600.0);
            sum += trace.at(at).g_per_kwh();
        }
        RegionSnapshot {
            index: i,
            up: !fleet.dark,
            ci_now_g_per_kwh: trace.at(t).g_per_kwh(),
            ci_forecast_g_per_kwh: sum / hours as f64,
            capacity_rps: fleet.cell.active_gpus() as f64 * self.capacity_per_gpu_rps,
            energy_per_request_j: fleet.energy_per_request_j,
            prev_weight,
        }
    }

    /// Runs one control epoch of `fleet` at routed `weight`: plans against
    /// the weight-scaled workload (floored at [`PLANNING_FLOOR_W`]) and
    /// serves the full epoch continuously (weight zero serves
    /// [`NoArrivals`] — the backlog still drains).
    fn serve(
        &self,
        fleet: &mut Fleet,
        epoch: &ControlEpoch,
        weight: f64,
        telemetry: &mut Telemetry,
    ) -> WindowMetrics {
        assert!(!fleet.dark, "a dark region serves nothing");
        let kind = &self.cfg.workload;
        let planning = Workload::new(kind.clone(), weight.max(PLANNING_FLOOR_W) * self.rate_rps);
        let mut arrivals: Box<dyn ArrivalProcess> = if weight > 0.0 {
            Workload::new(kind.clone(), weight * self.rate_rps).process_from(epoch.start)
        } else {
            Box::new(NoArrivals)
        };
        let w = fleet
            .cell
            .step(
                epoch,
                &self.objective,
                &planning,
                arrivals.as_mut(),
                telemetry,
            )
            .window;
        fleet.served += w.served;
        // What a request actually cost here this epoch — the routing
        // policies relativize grid intensity by it (a clean grid serving
        // the big hungry variants is less attractive than its intensity
        // alone suggests). Dry epochs keep the last observation.
        if w.served > 0 {
            fleet.energy_per_request_j = w.it_energy_j() / w.served as f64;
        }
        w
    }
}

/// Backlog (queued + in flight) across every fleet's boundary carry.
fn backlog(fleets: &[Fleet]) -> u64 {
    fleets.iter().map(|f| f.cell.carry().backlog()).sum()
}

/// Masks `raw` to live regions, clamps negatives and non-finite entries to
/// zero, and normalizes to sum 1. All-zero over live regions falls back to
/// a uniform split over them; with no live region everything is zero.
fn normalize_weights(raw: &[f64], up: &[bool]) -> Vec<f64> {
    let mut w: Vec<f64> = raw
        .iter()
        .zip(up.iter())
        .map(|(&v, &u)| {
            if u && v.is_finite() && v > 0.0 {
                v
            } else {
                0.0
            }
        })
        .collect();
    let sum: f64 = w.iter().sum();
    if sum > 0.0 {
        for v in &mut w {
            *v /= sum;
        }
    } else {
        let n_up = up.iter().filter(|&&u| u).count();
        if n_up > 0 {
            for (v, &u) in w.iter_mut().zip(up.iter()) {
                *v = if u { 1.0 / n_up as f64 } else { 0.0 };
            }
        }
    }
    w
}

/// Moves queued backlog from regions far over their weighted share to
/// regions under it, newest requests first (the oldest keep their place in
/// their home queue), each migrant aged by the transfer latency. A
/// hysteresis slack keeps small imbalances from thrashing back and forth
/// every epoch. Returns the number of requests moved.
fn rebalance_backlog(fleets: &mut [Fleet], up: &[bool], weights: &[f64]) -> u64 {
    let n_up = up.iter().filter(|&&u| u).count();
    let total_queued: u64 = fleets
        .iter()
        .zip(up.iter())
        .filter(|(_, &u)| u)
        .map(|(f, _)| f.cell.carry().queued() as u64)
        .sum();
    if total_queued == 0 {
        return 0;
    }
    let slack = 32u64.max(total_queued / (4 * n_up as u64));
    let mut pool: Vec<f64> = Vec::new();
    let mut deficits: Vec<(usize, u64)> = Vec::new();
    for (i, fleet) in fleets.iter_mut().enumerate() {
        if !up[i] {
            continue;
        }
        let queued = fleet.cell.carry().queued() as u64;
        let target = weights[i] * total_queued as f64;
        if (queued as f64) > target + slack as f64 {
            let excess = queued - target.ceil() as u64;
            let mut taken = fleet.cell.carry_mut().take_queued_newest(excess as usize);
            for a in &mut taken {
                *a += TRANSFER_LATENCY_S;
            }
            pool.extend(taken);
        } else if (queued as f64) < target.floor() {
            deficits.push((i, target.floor() as u64 - queued));
        }
    }
    if pool.is_empty() {
        return 0;
    }
    let moved = pool.len() as u64;
    // Largest deficit first (ties to the lower region index), each
    // receiver absorbing up to its deficit; any tail the deficits cannot
    // place goes back where the ordering put it last — the first live
    // region — so nothing is lost.
    deficits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    // Oldest first, so receivers absorb the most urgent work.
    pool.sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
    let mut cursor = 0usize;
    for (i, deficit) in deficits {
        if cursor >= pool.len() {
            break;
        }
        let take = (deficit as usize).min(pool.len() - cursor);
        fleets[i]
            .cell
            .carry_mut()
            .absorb_queued(&pool[cursor..cursor + take]);
        cursor += take;
    }
    if cursor < pool.len() {
        let first_up = up.iter().position(|&u| u).expect("n_up > 1");
        fleets[first_up]
            .cell
            .carry_mut()
            .absorb_queued(&pool[cursor..]);
    }
    moved
}

/// Deals the transit pool to live regions in proportion to their weights
/// (largest-remainder apportionment, remainder ties to the lower index),
/// oldest requests first.
fn deliver_transit(fleets: &mut [Fleet], up: &[bool], weights: &[f64], mut pool: Vec<f64>) {
    pool.sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
    let total = pool.len();
    let mut counts: Vec<usize> = weights
        .iter()
        .zip(up.iter())
        .map(|(&w, &u)| {
            if u {
                (w * total as f64).floor() as usize
            } else {
                0
            }
        })
        .collect();
    let assigned: usize = counts.iter().sum();
    let mut rema: Vec<(usize, f64)> = weights
        .iter()
        .enumerate()
        .filter(|&(i, _)| up[i])
        .map(|(i, &w)| (i, w * total as f64 - (w * total as f64).floor()))
        .collect();
    rema.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite remainders")
            .then(a.0.cmp(&b.0))
    });
    let mut leftover = total - assigned;
    for (i, _) in rema {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    let mut cursor = 0usize;
    for (i, count) in counts.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        fleets[i]
            .cell
            .carry_mut()
            .absorb_queued(&pool[cursor..cursor + count]);
        cursor += count;
    }
    debug_assert_eq!(cursor, total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_core::Experiment;

    /// A small two-region router for the sharing tests. Each test passes a
    /// seed no other test uses, so no concurrent test shares its slot.
    fn sharing_config(seed: u64) -> RouterConfig {
        RouterConfig::builder(Application::ImageClassification)
            .regions(vec![Region::CisoMarch, Region::EsoMarch])
            .scheme(SchemeKind::Base)
            .scaling(ScalingPolicy::reactive())
            .control_epoch_s(600.0)
            .n_gpus_per_region(2)
            .horizon_hours(1.0)
            .seed(seed)
            .build()
    }

    /// Idle fleets, one per region of `cfg`: nothing queued, nothing in
    /// flight, no epoch served.
    fn idle_fleets(cfg: &RouterConfig) -> Vec<Fleet> {
        GlobalRouter::new(cfg.clone()).fleets(&Telemetry::disabled())
    }

    /// Each fleet's queued ages, oldest first, emptying the queues.
    fn take_queues(fleets: &mut [Fleet]) -> Vec<Vec<f64>> {
        fleets
            .iter_mut()
            .map(|f| f.cell.carry_mut().take_queued_newest(usize::MAX))
            .collect()
    }

    #[test]
    fn a_region_routed_zero_traffic_serves_nothing_but_plans_at_the_floor() {
        // A region routed zero traffic every epoch, as any region a policy
        // starves is. It serves no request, so per-request metrics are
        // undefined; its boards still burn carbon; and every plan (CLOVER's
        // search included) measures candidates at the floored planning
        // rate, not at zero.
        for scheme in [SchemeKind::Base, SchemeKind::Clover] {
            let cfg = RouterConfig::builder(Application::LanguageModeling)
                .regions(vec![Region::EsoMarch])
                .scheme(scheme)
                .control_epoch_s(600.0)
                .n_gpus_per_region(2)
                .min_gpus(1)
                .horizon_hours(2.0)
                .utilization(0.6)
                .sla_headroom(2.0)
                .seed(5)
                .build();
            let router = GlobalRouter::new(cfg.clone());
            let mut telemetry = Telemetry::new(TelemetrySpec::JOURNAL);
            let mut fleets = router.fleets(&telemetry);
            let fleet = &mut fleets[0];
            let mut carbon_g = 0.0;
            for epoch in EpochSchedule::new(cfg.horizon_hours, cfg.control_epoch_s).iter() {
                let w = router.serve(fleet, &epoch, 0.0, &mut telemetry);
                assert_eq!(
                    (w.arrived, w.served),
                    (0, 0),
                    "{scheme}: a dry epoch admits nothing"
                );
                assert_eq!(
                    w.energy_per_request_j(),
                    None,
                    "{scheme}: energy per request"
                );
                assert_eq!(w.p95_latency_s, None, "{scheme}: tail latency");
                let charged = fleet.cell.totals().ledger.carbon().grams();
                assert!(
                    charged > carbon_g,
                    "{scheme}: dry epoch {} charged no carbon",
                    epoch.index
                );
                carbon_g = charged;
            }
            let journal = telemetry.take_report().journal.expect("journal enabled");
            let floor = PLANNING_FLOOR_W * router.rate_rps;
            let planned: Vec<f64> = journal
                .as_str()
                .lines()
                .filter(|l| l.contains("\"event\":\"forecast\""))
                .map(|l| {
                    let v = l
                        .split("\"planning_rate_rps\":")
                        .nth(1)
                        .expect("rate field");
                    v[..v.find([',', '}']).expect("field end")]
                        .parse()
                        .expect("numeric rate")
                })
                .collect();
            assert!(!planned.is_empty(), "{scheme}: the dry cell never planned");
            for rate in planned {
                assert!(
                    rate > 0.0 && (rate - floor).abs() <= floor * 1e-12,
                    "{scheme}: planned at {rate} req/s, floor {floor}"
                );
            }
            if scheme == SchemeKind::Clover {
                assert!(
                    journal.as_str().contains("\"event\":\"search\""),
                    "CLOVER never searched at the floored rate"
                );
            }
        }
    }

    #[test]
    fn normalize_weights_masks_dark_regions() {
        let w = normalize_weights(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert_eq!(w, vec![0.25, 0.0, 0.75]);
    }

    #[test]
    fn an_all_zero_vote_over_live_regions_becomes_uniform_over_them() {
        // Negative and non-finite votes count as zero; the dark region's
        // positive vote is masked before the fallback is considered.
        let w = normalize_weights(&[-1.0, f64::NAN, 0.0, 5.0], &[true, true, true, false]);
        let third = 1.0 / 3.0;
        assert_eq!(w, vec![third, third, third, 0.0]);
    }

    #[test]
    fn with_every_region_dark_every_weight_is_zero() {
        let w = normalize_weights(&[1.0, 0.0, 2.0], &[false; 3]);
        assert_eq!(w, vec![0.0; 3]);
    }

    #[test]
    fn deliver_transit_deals_the_oldest_first_with_remainder_ties_to_the_lower_index() {
        let mut cfg = sharing_config(0x5EED_01D1);
        cfg.regions.push(Region::CisoSeptember);
        let mut fleets = idle_fleets(&cfg);
        let up = [true; 3];
        let weights = normalize_weights(&[1.0; 3], &up);
        // 4 requests over equal thirds: one each, and the remainders tie,
        // so the extra one goes to region 0.
        deliver_transit(&mut fleets, &up, &weights, vec![0.1, 0.4, 0.3, 0.2]);
        let queues = take_queues(&mut fleets);
        assert_eq!(queues, vec![vec![0.4, 0.3], vec![0.2], vec![0.1]]);
    }

    #[test]
    fn deliver_transit_gives_dark_regions_nothing_and_places_the_whole_pool() {
        let mut cfg = sharing_config(0x5EED_01E1);
        cfg.regions.push(Region::CisoSeptember);
        let mut fleets = idle_fleets(&cfg);
        let up = [false, true, true];
        let weights = normalize_weights(&[5.0, 1.0, 3.0], &up);
        let pool: Vec<f64> = (1..=7).map(f64::from).collect();
        deliver_transit(&mut fleets, &up, &weights, pool);
        let queues = take_queues(&mut fleets);
        // 7 × (0.25, 0.75) = (1.75, 5.25): floors 1 and 5, and region 1's
        // larger remainder takes the seventh request.
        assert_eq!(
            queues,
            vec![vec![], vec![7.0, 6.0], vec![5.0, 4.0, 3.0, 2.0, 1.0]]
        );
        assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), 7);
    }

    #[test]
    fn calibration_is_shared_by_exactly_its_key() {
        type Edit = fn(&mut RouterConfig);
        let base_cfg = sharing_config(0x5EED_01A1);
        let base = GlobalRouter::new(base_cfg.clone());
        let key_fields: [(&str, Edit); 5] = [
            ("app", |c| c.app = Application::ObjectDetection),
            ("n_gpus_per_region", |c| c.n_gpus_per_region = 3),
            ("region count", |c| c.regions.push(Region::CisoSeptember)),
            ("utilization_target", |c| c.utilization_target = 0.6),
            ("seed", |c| c.seed += 1),
        ];
        for (name, edit) in key_fields {
            let mut cfg = base_cfg.clone();
            edit(&mut cfg);
            let r = GlobalRouter::new(cfg);
            assert!(
                !Arc::ptr_eq(&base._calibration, &r._calibration),
                "changing {name} kept the calibration slot"
            );
        }
        let other_fields: [(&str, Edit); 6] = [
            ("policy", |c| c.policy = RoutePolicy::CarbonGreedy),
            ("scheme", |c| c.scheme = SchemeKind::Clover),
            ("sla_headroom", |c| c.sla_headroom = 1.5),
            ("lambda", |c| c.lambda = 0.9),
            ("chaos", |c| c.chaos = ChaosConfig::resilience(24.0)),
            ("scaling", |c| c.scaling = ScalingPolicy::Static),
        ];
        for (name, edit) in other_fields {
            let mut cfg = base_cfg.clone();
            edit(&mut cfg);
            let r = GlobalRouter::new(cfg);
            assert!(
                Arc::ptr_eq(&base._calibration, &r._calibration),
                "changing {name} split the calibration slot"
            );
        }
    }

    #[test]
    fn a_one_region_router_shares_the_matching_experiments_calibration() {
        let mut cfg = sharing_config(0x5EED_01B1);
        cfg.regions.truncate(1);
        let router = GlobalRouter::new(cfg.clone());
        let cell = Experiment::new(
            ExperimentConfig::builder(cfg.app)
                .region(cfg.regions[0])
                .n_gpus(cfg.n_gpus_per_region)
                .utilization(cfg.utilization_target)
                .horizon_hours(cfg.horizon_hours)
                .seed(cfg.seed)
                .build(),
        );
        let (yardstick, slot) = BaseYardstick::shared(
            cfg.app,
            &router.family,
            router.perf,
            cfg.n_gpus_per_region,
            1,
            cfg.utilization_target,
            cfg.seed,
        );
        assert!(Arc::ptr_eq(&router._calibration, &slot));
        // The router, the experiment and `slot` hold it; nothing else does.
        assert_eq!(
            Arc::strong_count(&slot),
            3,
            "the experiment holds another slot"
        );
        assert_eq!(yardstick.rate_rps.to_bits(), cell.rate_rps.to_bits());
    }

    #[test]
    fn a_router_reading_a_sibling_calibration_matches_its_solo_run() {
        let cfg = sharing_config(0x5EED_01C1);
        let solo = GlobalRouter::new(cfg.clone()).run();
        let sibling = GlobalRouter::new(RouterConfig {
            policy: RoutePolicy::CarbonGreedy,
            ..cfg.clone()
        });
        let cell = GlobalRouter::new(cfg);
        assert!(Arc::ptr_eq(&sibling._calibration, &cell._calibration));
        sibling.run();
        assert_eq!(cell.run().digest(), solo.digest());
    }
}
