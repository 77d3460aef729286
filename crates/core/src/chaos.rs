//! Deterministic chaos: the fault plan an experiment runs against.
//!
//! The paper evaluates Clover on a healthy fleet with a clean carbon feed
//! and an honest forecast. Real deployments get none of those guarantees:
//! GPUs fail and take hours to repair, whole racks brown out, carbon-API
//! feeds gap for an afternoon, and demand forecasts are biased. This
//! module injects all four — **deterministically**. Every fault an
//! experiment will ever see is drawn up front into a [`FaultPlan`] from
//! the experiment seed, so a faulted run is exactly as reproducible (and
//! exactly as parallelizable) as a clean one.
//!
//! ## Determinism contract
//!
//! The plan's randomness comes from `SimRng::new(seed ^ CHAOS_SALT)` — a
//! root that no other experiment component derives from — and each
//! [`FaultSpec`] draws from its own [`SimRng::substream`] of that root
//! (label `spec_index << 32 | gpu`). Two consequences, both load-bearing:
//!
//! - **Chaos off is bit-identical to no chaos.** An empty spec list draws
//!   nothing and schedules nothing, so every pinned digest from the
//!   fault-free era still holds (`tests/chaos.rs`).
//! - **Specs are independent.** Adding a brownout spec cannot perturb the
//!   GPU-failure timelines, because substream derivation never advances
//!   the root.
//!
//! ## Fault semantics
//!
//! - GPU failures and brownouts produce *down intervals* per physical
//!   GPU. A failure onset inside a control epoch kills that GPU's
//!   instances mid-window in the serving DES (in-flight work re-queues
//!   oldest-first); the control plane sees the loss at the next epoch
//!   boundary and replans against the survivors. Repairs are quantized
//!   **up** to the next control-epoch boundary, where the board re-enters
//!   through the scaler's warming state ([`crate::autoscale::Scaler::repair`]) —
//!   sub-epoch repairs are below the control plane's resolution.
//! - Instance crashes kill a single instance mid-window; the restart is
//!   the next boundary's redeploy, no hardware repair involved.
//! - Carbon gaps feed [`clover_carbon::CarbonMonitor`]'s staleness
//!   fallback; the *ledger* keeps integrating the true trace — only the
//!   controller's view degrades.
//! - Forecast error multiplies every demand the scaler reads by a
//!   per-epoch factor `bias × exp(σ·N(0,1))` (the `forecast_factor` of
//!   [`crate::autoscale::Scaler::step`]).

use clover_simkit::{SimRng, SimTime};

/// Salt folded into the experiment seed for the chaos root generator.
/// Shares no stream with calibration (`^ 0xCA11_B007`), the evaluator
/// (`^ 0xE7A1`), the scheduler (`^ 0x5C8E`) or the serving sims (`^ 0x11`
/// for a cell, `^ 0x22` for its BASE reference's cell, built chaos-off).
const CHAOS_SALT: u64 = 0xC4A0_5F17;

/// One fault process to inject. A [`FaultPlan`] is generated from a list
/// of these; each spec draws from its own substream, so specs compose
/// without perturbing one another.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Independent hardware failures per GPU: an alternating renewal
    /// process with exponential time-to-failure (mean `mtbf_hours`) and
    /// exponential repair time (mean `mttr_hours`). Repairs land at the
    /// next control-epoch boundary and return through the scaler's
    /// warming state.
    GpuFailures {
        /// Mean time between failures of one GPU, hours.
        mtbf_hours: f64,
        /// Mean time to repair a failed GPU, hours.
        mttr_hours: f64,
    },
    /// Fleet-wide Poisson process of single-instance crashes (model
    /// server dies, MIG slice survives). Each crash kills one instance
    /// mid-window; the next epoch's redeploy restarts it.
    InstanceCrashes {
        /// Expected crashes per hour across the whole fleet.
        rate_per_hour: f64,
    },
    /// Brownouts: a fraction of the fleet drops at once (rack power
    /// event), returning together at the boundary after the episode
    /// ends. Episodes arrive as a renewal process.
    Brownouts {
        /// Mean time between brownout episodes, hours.
        mtbf_hours: f64,
        /// Mean episode duration, hours (exponentially distributed).
        duration_hours: f64,
        /// Fraction of the fleet taken down, `(0, 1]`; at least one GPU.
        frac: f64,
    },
    /// Carbon-feed outages: windows during which the intensity trace is
    /// unreadable and the monitor serves last-known-good (then goes
    /// blind past its age cap). The carbon *ledger* is unaffected.
    CarbonGaps {
        /// Mean time between gap onsets, hours.
        mtbf_hours: f64,
        /// Mean gap duration, hours (exponentially distributed).
        duration_hours: f64,
    },
    /// Demand-forecast error: every epoch the scaler's demand view is
    /// multiplied by `bias × exp(sigma · N(0,1))` — a systematic over- or
    /// under-forecast plus lognormal noise.
    ForecastError {
        /// Multiplicative bias; `1.0` is an honest forecast, `1.3` a 30%
        /// over-forecast.
        bias: f64,
        /// Lognormal noise σ per epoch; `0.0` is noise-free.
        sigma: f64,
    },
    /// A whole serving region going dark for a fixed window — the
    /// deterministic fault the multi-region router fails over across
    /// (`clover-router`): the region serves nothing, its backlog drains
    /// to the surviving regions through the transit buffer, and it
    /// rejoins at the first epoch boundary at or after
    /// `start_h + duration_h`.
    ///
    /// Unlike the stochastic specs above this one draws **no randomness**:
    /// the window is the spec. The single-cluster runtime has no region
    /// axis and ignores it entirely ([`FaultPlan::generate`] emits
    /// nothing for it and touches no RNG), so adding a region outage to a
    /// config leaves every single-cluster digest bit-identical; the
    /// router reads the windows via [`ChaosConfig::region_outages`].
    RegionOutage {
        /// Index of the region taken down, in the router's region order.
        region: usize,
        /// Outage onset, hours from the start of the run.
        start_h: f64,
        /// Outage length, hours.
        duration_h: f64,
    },
}

impl FaultSpec {
    /// Validates parameters, returning a description of the first
    /// problem. Every rate and duration must be finite and positive.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and positive, got {v}"))
            }
        };
        match *self {
            FaultSpec::GpuFailures {
                mtbf_hours,
                mttr_hours,
            } => {
                pos("gpu mtbf_hours", mtbf_hours)?;
                pos("gpu mttr_hours", mttr_hours)
            }
            FaultSpec::InstanceCrashes { rate_per_hour } => {
                pos("crash rate_per_hour", rate_per_hour)
            }
            FaultSpec::Brownouts {
                mtbf_hours,
                duration_hours,
                frac,
            } => {
                pos("brownout mtbf_hours", mtbf_hours)?;
                pos("brownout duration_hours", duration_hours)?;
                if frac.is_finite() && frac > 0.0 && frac <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("brownout frac must be in (0, 1], got {frac}"))
                }
            }
            FaultSpec::CarbonGaps {
                mtbf_hours,
                duration_hours,
            } => {
                pos("carbon gap mtbf_hours", mtbf_hours)?;
                pos("carbon gap duration_hours", duration_hours)
            }
            FaultSpec::ForecastError { bias, sigma } => {
                pos("forecast bias", bias)?;
                if sigma.is_finite() && sigma >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "forecast sigma must be finite and >= 0, got {sigma}"
                    ))
                }
            }
            FaultSpec::RegionOutage {
                start_h,
                duration_h,
                ..
            } => {
                if !(start_h.is_finite() && start_h >= 0.0) {
                    return Err(format!(
                        "region outage start_h must be finite and >= 0, got {start_h}"
                    ));
                }
                pos("region outage duration_h", duration_h)
            }
        }
    }
}

/// The experiment-facing chaos knob: a list of [`FaultSpec`]s. The
/// default is empty — chaos off — and an off config draws no randomness
/// at all, keeping every fault-free digest bit-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// The fault processes to inject; empty means a healthy world.
    pub specs: Vec<FaultSpec>,
}

impl ChaosConfig {
    /// Chaos off (the default): no faults, no RNG draws.
    pub fn off() -> Self {
        ChaosConfig::default()
    }

    /// True when no fault process is configured.
    pub fn is_off(&self) -> bool {
        self.specs.is_empty()
    }

    /// Builder-style: adds a spec.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Validates every spec (see [`FaultSpec::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        for (i, spec) in self.specs.iter().enumerate() {
            spec.validate()
                .map_err(|e| format!("chaos spec {i}: {e}"))?;
        }
        Ok(())
    }

    /// The configured whole-region outage windows, as
    /// `(region, start_s, end_s)` sorted by region then onset — the
    /// multi-region router's view of [`FaultSpec::RegionOutage`] specs
    /// (every other runtime ignores them). Windows are half-open
    /// `[start, end)` in run-global seconds; the router quantizes both
    /// edges to its control-epoch boundaries when applying them.
    pub fn region_outages(&self) -> Vec<(usize, f64, f64)> {
        let mut out: Vec<(usize, f64, f64)> = self
            .specs
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::RegionOutage {
                    region,
                    start_h,
                    duration_h,
                } => Some((region, start_h * 3600.0, (start_h + duration_h) * 3600.0)),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| {
            (a.0, a.1)
                .partial_cmp(&(b.0, b.1))
                .expect("finite outage windows")
        });
        out
    }

    /// The `fig_resilience` sweep cell: GPU failures at the given MTBF
    /// with 2 h mean repair, occasional half-fleet brownouts an order of
    /// magnitude rarer, 6 h-mean carbon gaps, and a 15% over-forecast
    /// with 10% lognormal noise. `mtbf_hours <= 0` returns chaos off.
    pub fn resilience(mtbf_hours: f64) -> Self {
        if mtbf_hours <= 0.0 {
            return ChaosConfig::off();
        }
        ChaosConfig::off()
            .with(FaultSpec::GpuFailures {
                mtbf_hours,
                mttr_hours: 2.0,
            })
            .with(FaultSpec::Brownouts {
                mtbf_hours: mtbf_hours * 10.0,
                duration_hours: 0.5,
                frac: 0.5,
            })
            .with(FaultSpec::CarbonGaps {
                mtbf_hours: 24.0,
                duration_hours: 6.0,
            })
            .with(FaultSpec::ForecastError {
                bias: 1.15,
                sigma: 0.10,
            })
    }
}

/// A single instance-crash event: when, and a selector in `[0, 1)` the
/// experiment maps onto whatever instance count is deployed that window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Global simulation time of the crash, seconds.
    pub at_s: f64,
    /// Uniform selector in `[0, 1)`; multiplied by the deployed instance
    /// count (and floored) to pick the victim.
    pub selector: f64,
}

/// A GPU-failure onset inside a control epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuKill {
    /// Physical GPU index going down.
    pub gpu: usize,
    /// Global onset time in integer milliseconds (kept integral so the
    /// plan is `Eq`-comparable; millisecond resolution is far below the
    /// serving DES's discrimination).
    pub at_ms: u64,
}

impl GpuKill {
    /// Onset time in seconds.
    pub fn at_s(&self) -> f64 {
        self.at_ms as f64 / 1e3
    }
}

/// Everything that will go wrong over one experiment, drawn up front.
///
/// Generated once per experiment run by [`FaultPlan::generate`]; queried
/// at epoch boundaries (who is down? who just came back?) and per window
/// (which kills land mid-serve?).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Merged down intervals per physical GPU, seconds, sorted and
    /// non-overlapping; repair edges quantized to epoch boundaries.
    down: Vec<Vec<(f64, f64)>>,
    /// Instance-crash events, time-sorted.
    crashes: Vec<CrashEvent>,
    /// Carbon-feed gap windows, seconds, sorted.
    gaps: Vec<(f64, f64)>,
    /// Per-epoch forecast factors (empty when no `ForecastError` spec).
    factors: Vec<f64>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fails. Equivalent to generating from
    /// [`ChaosConfig::off`], but draws nothing and allocates nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draws the whole experiment's fault history from `seed`.
    ///
    /// `n_epochs × epoch_s` bounds the horizon; repair and brownout-end
    /// edges are quantized up to the next multiple of `epoch_s` so every
    /// recovery passes through a control boundary (and the scaler's
    /// warming state). An off config returns [`FaultPlan::none`] without
    /// touching the RNG.
    pub fn generate(
        cfg: &ChaosConfig,
        seed: u64,
        n_gpus: usize,
        n_epochs: usize,
        epoch_s: f64,
    ) -> Self {
        if cfg.is_off() || n_gpus == 0 || n_epochs == 0 {
            return FaultPlan::none();
        }
        cfg.validate().expect("invalid chaos config");
        assert!(
            epoch_s.is_finite() && epoch_s > 0.0,
            "non-positive epoch length {epoch_s}"
        );
        let horizon_s = n_epochs as f64 * epoch_s;
        let quantize_up = |t: f64| ((t / epoch_s).ceil() * epoch_s).min(horizon_s);
        let root = SimRng::new(seed ^ CHAOS_SALT);
        let mut plan = FaultPlan {
            down: vec![Vec::new(); n_gpus],
            ..FaultPlan::default()
        };

        for (idx, spec) in cfg.specs.iter().enumerate() {
            let label_base = (idx as u64) << 32;
            match *spec {
                FaultSpec::GpuFailures {
                    mtbf_hours,
                    mttr_hours,
                } => {
                    for (gpu, timeline) in plan.down.iter_mut().enumerate() {
                        let rng = root.substream(label_base | gpu as u64);
                        alternating_renewal(rng, mtbf_hours, mttr_hours, horizon_s, |t, up| {
                            timeline.push((t, quantize_up(up)));
                            // The renewal process continues from the raw
                            // repair instant; overlaps introduced by the
                            // quantization are merged below.
                            up
                        });
                    }
                }
                FaultSpec::InstanceCrashes { rate_per_hour } => {
                    let mut rng = root.substream(label_base);
                    let rate = rate_per_hour / 3600.0;
                    let mut t = rng.exponential(rate);
                    while t < horizon_s {
                        plan.crashes.push(CrashEvent {
                            at_s: t,
                            selector: rng.f64(),
                        });
                        t += rng.exponential(rate);
                    }
                }
                FaultSpec::Brownouts {
                    mtbf_hours,
                    duration_hours,
                    frac,
                } => {
                    let rng = root.substream(label_base);
                    let hit = ((frac * n_gpus as f64).round() as usize).clamp(1, n_gpus);
                    alternating_renewal(rng, mtbf_hours, duration_hours, horizon_s, |t, end| {
                        // Deterministic victim choice: the episode takes
                        // the highest-indexed GPUs, leaving the low end —
                        // where single-GPU deployments concentrate — to
                        // independent failures.
                        for timeline in plan.down.iter_mut().skip(n_gpus - hit) {
                            timeline.push((t, quantize_up(end)));
                        }
                        end
                    });
                }
                FaultSpec::CarbonGaps {
                    mtbf_hours,
                    duration_hours,
                } => {
                    let rng = root.substream(label_base);
                    alternating_renewal(rng, mtbf_hours, duration_hours, horizon_s, |t, end| {
                        let end = end.min(horizon_s);
                        plan.gaps.push((t, end));
                        end
                    });
                }
                FaultSpec::ForecastError { bias, sigma } => {
                    let mut rng = root.substream(label_base);
                    if plan.factors.is_empty() {
                        plan.factors = vec![1.0; n_epochs];
                    }
                    for factor in plan.factors.iter_mut() {
                        *factor *= bias * (sigma * rng.normal()).exp();
                    }
                }
                // Deterministic by construction and meaningless to a
                // single cluster: interpreted by the multi-region runtime
                // (`clover-router`) via `ChaosConfig::region_outages`.
                // Draws nothing, so its presence leaves every
                // single-cluster digest bit-identical.
                FaultSpec::RegionOutage { .. } => {}
            }
        }

        for timeline in plan.down.iter_mut() {
            merge_intervals(timeline, horizon_s);
        }
        plan.crashes
            .sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite crash times"));
        plan
    }

    /// True when the plan contains no fault of any kind.
    pub fn is_empty(&self) -> bool {
        self.down.iter().all(Vec::is_empty)
            && self.crashes.is_empty()
            && self.gaps.is_empty()
            && self.factors.is_empty()
    }

    /// Is physical GPU `gpu` down at global time `t_s`? Down intervals
    /// are half-open `[onset, repair)`: at the repair boundary itself the
    /// board is back (entering the scaler's warming state).
    pub fn is_down(&self, gpu: usize, t_s: f64) -> bool {
        self.down
            .get(gpu)
            .is_some_and(|tl| tl.iter().any(|&(a, b)| t_s >= a && t_s < b))
    }

    /// The physical GPUs down at global time `t_s`, ascending.
    pub fn down_at(&self, t_s: f64) -> Vec<usize> {
        (0..self.down.len())
            .filter(|&g| self.is_down(g, t_s))
            .collect()
    }

    /// GPU-failure onsets strictly inside `(from_s, to_s)` — the kills
    /// that land mid-window. Onsets exactly at a boundary are excluded:
    /// the boundary's `down_at` diff already accounts for them.
    pub fn kills_in(&self, from_s: f64, to_s: f64) -> Vec<GpuKill> {
        let mut kills: Vec<GpuKill> = self
            .down
            .iter()
            .enumerate()
            .flat_map(|(gpu, tl)| {
                tl.iter()
                    .filter(move |&&(a, _)| a > from_s && a < to_s)
                    .map(move |&(a, _)| GpuKill {
                        gpu,
                        at_ms: (a * 1e3).round() as u64,
                    })
            })
            .collect();
        kills.sort_by_key(|k| (k.at_ms, k.gpu));
        kills
    }

    /// Instance crashes strictly inside `(from_s, to_s)`.
    pub fn crashes_in(&self, from_s: f64, to_s: f64) -> Vec<CrashEvent> {
        self.crashes
            .iter()
            .filter(|c| c.at_s > from_s && c.at_s < to_s)
            .copied()
            .collect()
    }

    /// Carbon-feed gap windows for [`clover_carbon::CarbonMonitor::set_gaps`].
    pub fn carbon_gaps(&self) -> Vec<(SimTime, SimTime)> {
        self.gaps
            .iter()
            .map(|&(a, b)| (SimTime::from_secs(a), SimTime::from_secs(b)))
            .collect()
    }

    /// The forecast multiplier for `epoch` (`1.0` when no forecast-error
    /// spec is configured or the epoch is past the horizon).
    pub fn forecast_factor(&self, epoch: usize) -> f64 {
        self.factors.get(epoch).copied().unwrap_or(1.0)
    }
}

/// Draws an alternating renewal process from `rng` up to `horizon_s`: an
/// exponential onset (mean `mtbf_hours`), an exponential episode (mean
/// `mean_hours`), then the next onset from the instant `episode` returns.
/// `episode(onset_s, end_s)` records one episode with its raw end.
fn alternating_renewal(
    mut rng: SimRng,
    mtbf_hours: f64,
    mean_hours: f64,
    horizon_s: f64,
    mut episode: impl FnMut(f64, f64) -> f64,
) {
    let onset_rate = 1.0 / (mtbf_hours * 3600.0);
    let end_rate = 1.0 / (mean_hours * 3600.0);
    let mut t = rng.exponential(onset_rate);
    while t < horizon_s {
        let end = t + rng.exponential(end_rate);
        t = episode(t, end) + rng.exponential(onset_rate);
    }
}

/// Sorts, clips to `[0, horizon_s]`, and merges overlapping or touching
/// intervals in place.
fn merge_intervals(intervals: &mut Vec<(f64, f64)>, horizon_s: f64) {
    intervals.retain(|&(a, b)| a < horizon_s && b > a);
    for iv in intervals.iter_mut() {
        iv.1 = iv.1.min(horizon_s);
    }
    intervals.sort_by(|x, y| x.partial_cmp(y).expect("finite fault intervals"));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for &(a, b) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    *intervals = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_only(mtbf: f64, mttr: f64) -> ChaosConfig {
        ChaosConfig::off().with(FaultSpec::GpuFailures {
            mtbf_hours: mtbf,
            mttr_hours: mttr,
        })
    }

    #[test]
    fn off_config_generates_the_empty_plan() {
        let plan = FaultPlan::generate(&ChaosConfig::off(), 3, 4, 48, 3600.0);
        assert!(plan.is_empty());
        assert!(plan.down_at(0.0).is_empty());
        assert!(plan.kills_in(0.0, 1e9).is_empty());
        assert_eq!(plan.forecast_factor(0), 1.0);
        assert!(plan.carbon_gaps().is_empty());
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = ChaosConfig::resilience(8.0);
        let a = FaultPlan::generate(&cfg, 42, 4, 48, 3600.0);
        let b = FaultPlan::generate(&cfg, 42, 4, 48, 3600.0);
        assert_eq!(a.kills_in(0.0, 1e9), b.kills_in(0.0, 1e9));
        assert_eq!(a.gaps, b.gaps);
        assert_eq!(a.factors, b.factors);
        let c = FaultPlan::generate(&cfg, 43, 4, 48, 3600.0);
        assert_ne!(
            (a.kills_in(0.0, 1e9), a.gaps.clone()),
            (c.kills_in(0.0, 1e9), c.gaps.clone()),
            "different seeds should draw different histories"
        );
    }

    #[test]
    fn timelines_are_sorted_disjoint_and_within_the_horizon() {
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(&ChaosConfig::resilience(4.0), seed, 4, 24, 1800.0);
            let horizon = 24.0 * 1800.0;
            for gpu in 0..4 {
                let tl = &plan.down[gpu];
                for w in tl.windows(2) {
                    assert!(w[0].1 < w[1].0, "gpu {gpu} overlapping: {w:?}");
                }
                for &(a, b) in tl {
                    assert!(a < b, "empty interval ({a}, {b})");
                    assert!(a >= 0.0 && b <= horizon, "escapes horizon: ({a}, {b})");
                    // Repair edges are quantized to epoch boundaries (or
                    // the horizon): a repair always passes through the
                    // control plane's warming path.
                    let frac = (b / 1800.0).fract();
                    assert!(
                        !(1e-9..=1.0 - 1e-9).contains(&frac),
                        "repair edge {b} not on an epoch boundary"
                    );
                }
            }
        }
    }

    #[test]
    fn repairs_only_follow_failures_and_no_double_fail_while_down() {
        // The interval representation makes "repair before failure" and
        // "fail while already down" representable only as malformed or
        // overlapping intervals — sweep seeds and rates to check neither
        // survives generation.
        for seed in 0..30u64 {
            for mtbf in [0.5, 4.0, 24.0] {
                let plan = FaultPlan::generate(&gpu_only(mtbf, 1.0), seed, 3, 48, 3600.0);
                for gpu in 0..3 {
                    let mut last_repair = -1.0;
                    for &(fail, repair) in &plan.down[gpu] {
                        assert!(
                            fail > last_repair,
                            "seed {seed}: failure at {fail} before repair at {last_repair}"
                        );
                        assert!(repair > fail, "repair precedes its failure");
                        last_repair = repair;
                    }
                }
            }
        }
    }

    #[test]
    fn adding_a_spec_does_not_perturb_earlier_specs() {
        // Substream isolation: the GPU-failure timelines must be
        // identical with and without a brownout spec appended.
        let base = FaultPlan::generate(&gpu_only(4.0, 1.0), 7, 4, 48, 3600.0);
        let more = FaultPlan::generate(
            &gpu_only(4.0, 1.0).with(FaultSpec::CarbonGaps {
                mtbf_hours: 12.0,
                duration_hours: 2.0,
            }),
            7,
            4,
            48,
            3600.0,
        );
        // Gaps don't touch GPU timelines at all, so they compare exactly.
        for gpu in 0..4 {
            assert_eq!(base.down[gpu], more.down[gpu]);
        }
    }

    #[test]
    fn brownouts_hit_the_top_of_the_fleet_together() {
        let cfg = ChaosConfig::off().with(FaultSpec::Brownouts {
            mtbf_hours: 2.0,
            duration_hours: 1.0,
            frac: 0.5,
        });
        let plan = FaultPlan::generate(&cfg, 11, 4, 48, 3600.0);
        // Half of 4 GPUs: indices 2 and 3 share every episode; 0 and 1
        // never brown out.
        assert!(plan.down[0].is_empty());
        assert!(plan.down[1].is_empty());
        assert_eq!(plan.down[2], plan.down[3]);
        assert!(!plan.down[2].is_empty(), "no episode in 48 h at 2 h MTBF");
    }

    #[test]
    fn forecast_factors_are_positive_and_biased() {
        let cfg = ChaosConfig::off().with(FaultSpec::ForecastError {
            bias: 1.5,
            sigma: 0.05,
        });
        let plan = FaultPlan::generate(&cfg, 5, 4, 200, 3600.0);
        let mean: f64 = (0..200).map(|e| plan.forecast_factor(e)).sum::<f64>() / 200.0;
        for e in 0..200 {
            let f = plan.forecast_factor(e);
            assert!(f.is_finite() && f > 0.0, "epoch {e}: factor {f}");
        }
        assert!(
            (mean - 1.5).abs() < 0.1,
            "200-epoch mean factor {mean} strays from the 1.5 bias"
        );
        assert_eq!(
            plan.forecast_factor(10_000),
            1.0,
            "past-horizon epochs are honest"
        );
    }

    #[test]
    fn kills_in_excludes_boundary_onsets() {
        // A hand-built plan (via generate determinism we can't place
        // onsets exactly, so probe the query contract directly).
        let plan = FaultPlan {
            down: vec![vec![(3600.0, 7200.0)], vec![(3700.0, 7200.0)]],
            ..FaultPlan::default()
        };
        assert!(plan.kills_in(3600.0, 7200.0).iter().all(|k| k.gpu == 1));
        assert_eq!(plan.kills_in(0.0, 3601.0).len(), 1);
        assert!(plan.is_down(0, 3600.0));
        assert!(!plan.is_down(0, 7200.0), "repair edge is up (warming)");
        assert_eq!(plan.down_at(3650.0), vec![0]);
        assert_eq!(plan.down_at(4000.0), vec![0, 1]);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            FaultSpec::GpuFailures {
                mtbf_hours: 0.0,
                mttr_hours: 1.0,
            },
            FaultSpec::GpuFailures {
                mtbf_hours: f64::NAN,
                mttr_hours: 1.0,
            },
            FaultSpec::Brownouts {
                mtbf_hours: 4.0,
                duration_hours: 1.0,
                frac: 1.5,
            },
            FaultSpec::ForecastError {
                bias: -1.0,
                sigma: 0.1,
            },
            FaultSpec::ForecastError {
                bias: 1.0,
                sigma: -0.1,
            },
            FaultSpec::InstanceCrashes { rate_per_hour: 0.0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        assert!(ChaosConfig::resilience(8.0).validate().is_ok());
        assert!(ChaosConfig::resilience(0.0).is_off());
    }

    #[test]
    fn region_outages_are_deterministic_data_not_faults() {
        let cfg = ChaosConfig::off()
            .with(FaultSpec::RegionOutage {
                region: 2,
                start_h: 6.0,
                duration_h: 3.0,
            })
            .with(FaultSpec::RegionOutage {
                region: 0,
                start_h: 1.5,
                duration_h: 0.5,
            });
        assert!(cfg.validate().is_ok());
        // The single-cluster fault machinery emits nothing for them —
        // the generated plan is empty (and therefore chaos_on = false in
        // the experiment runtime: digests stay bit-identical).
        let plan = FaultPlan::generate(&cfg, 7, 8, 24, 3600.0);
        assert!(plan.is_empty());
        // The router's view: sorted (region, start_s, end_s) windows.
        assert_eq!(
            cfg.region_outages(),
            vec![(0, 5400.0, 7200.0), (2, 21600.0, 32400.0)]
        );
        assert!(ChaosConfig::off().region_outages().is_empty());
    }

    #[test]
    fn invalid_region_outages_are_rejected() {
        for bad in [
            FaultSpec::RegionOutage {
                region: 0,
                start_h: -1.0,
                duration_h: 1.0,
            },
            FaultSpec::RegionOutage {
                region: 0,
                start_h: 0.0,
                duration_h: 0.0,
            },
            FaultSpec::RegionOutage {
                region: 0,
                start_h: f64::NAN,
                duration_h: 1.0,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
