//! Forecast-driven autoscaling: powering GPUs on and off ahead of demand.
//!
//! The paper's schemes repartition a *fixed* GPU fleet; the carbon they
//! cannot touch is the static and idle draw of capacity that nothing needs.
//! This module adds the elastic dimension: each decision epoch (the
//! experiment's control step — hourly by default, sub-hour via
//! [`crate::control::ControlEpoch`]), a [`Scaler`] consults the workload's
//! demand forecast (scaled by a forecast-error factor when the chaos layer
//! injects one) and chooses how many of the provisioned GPUs should be
//! *active* — serving instances — with the rest *warming* (powered,
//! loading models, joining after a provisioning lag), *draining* (recently
//! retired: finishing in-flight work, admitting nothing, still drawing
//! power until confirmed empty), or *off* (drawing only standby watts).
//!
//! Four policies are compared ([`ScalingPolicy`]):
//!
//! - **Static** — the paper's setup: the whole fleet stays powered.
//! - **Reactive** — sizes against the *current* demand estimate
//!   (`rate_at(now)`); cheap, but a provisioning delay means it chases
//!   ramps from behind.
//! - **Forecast** — sizes against the forecast mean over a look-ahead
//!   horizon (`windowed_mean(now, lookahead)`), so capacity for a diurnal
//!   ramp is powering up *before* the traffic arrives.
//! - **PreWarm** — sizes against the forecast *peak* over a look-ahead
//!   horizon (`peak_over(now, lookahead)`): a short flash crowd barely
//!   moves a windowed mean, but its peak is visible to the lookahead, so
//!   the fleet is warm before the ramp opens (see `fig_flashcrowd`).
//!
//! The scaler is deliberately free of randomness: decisions are pure
//! arithmetic over the forecast, so autoscaled experiments stay
//! byte-identical between serial and parallel grid runs (pinned by
//! `tests/autoscale.rs`).
//!
//! ## Faults
//!
//! The chaos layer ([`crate::chaos`]) removes failed GPUs from the fleet
//! with [`Scaler::fail`] — effective immediately, since the hardware does
//! not wait for a decision epoch — and returns repaired boards with
//! [`Scaler::repair`], which routes them through the normal *warming*
//! state: a repaired GPU repartitions and reloads models exactly like one
//! a scale-up just powered on. While boards are down, every policy's
//! scale-up is clamped to the surviving fleet.

use clover_simkit::{SimDuration, SimTime};
use clover_workload::Workload;
use std::fmt;

/// Epochs to wait after a scaling action before acting again.
pub const COOLDOWN_EPOCHS: u64 = 1;

/// Epochs a newly powered GPU spends warming (repartitioning, loading
/// models) before it joins the active fleet. It draws full static power
/// while warming.
pub const PROVISION_DELAY_EPOCHS: u64 = 1;

/// How the active GPU count is chosen each decision epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingPolicy {
    /// No elasticity: the full provisioned fleet stays powered (the
    /// paper's evaluation setup, and the default).
    Static,
    /// Size against the current demand estimate, with hysteresis: scale up
    /// when fleet utilization exceeds [`ScalingPolicy::UP_THRESHOLD`], down
    /// when it falls below [`ScalingPolicy::DOWN_THRESHOLD`].
    Reactive,
    /// Size against the forecast windowed mean over the next
    /// [`ScalingPolicy::FORECAST_LOOKAHEAD_HOURS`], powering capacity up
    /// *ahead* of predicted ramps, within the same hysteresis band.
    Forecast,
    /// Size against the forecast **peak** over a look-ahead horizon
    /// ([`Workload::peak_over`]): capacity for a predicted spike is
    /// warming *before* the ramp opens, not chasing it from behind. The
    /// windowed mean smears a short flash crowd into near-invisibility
    /// (a 5-minute 5× spike barely moves a 2-hour mean); the peak is what
    /// a pre-warming fleet must actually be sized for. Between spikes the
    /// peak falls back to the baseline, so the fleet still powers down.
    ///
    /// Because the lookahead guarantees ramps are met from the front, the
    /// policy also runs **lean between them**: it sizes toward a
    /// utilization just under the scale-up threshold
    /// ([`ScalingPolicy::PREWARM_TARGET_FRAC`] ×
    /// [`ScalingPolicy::UP_THRESHOLD`]) instead of the conservative reactive
    /// target — forecast insurance replaces the standing headroom a reactive
    /// fleet must keep against surprise. This is where the policy's carbon
    /// win over the reactive loop comes from (`fig_flashcrowd`).
    PreWarm {
        /// Forecast horizon scanned for predicted peaks, hours. Must cover
        /// at least the provisioning delay (epochs × epoch length), or the
        /// warm-up lands mid-ramp like the reactive policy's.
        lookahead_hours: f64,
    },
}

impl ScalingPolicy {
    /// Utilization above which every scaling policy grows the fleet.
    pub const UP_THRESHOLD: f64 = 0.80;
    /// Utilization below which every scaling policy shrinks the fleet.
    pub const DOWN_THRESHOLD: f64 = 0.40;
    /// The forecast policy's look-ahead, hours.
    pub const FORECAST_LOOKAHEAD_HOURS: f64 = 2.0;
    /// The pre-warm policy's lean sizing target as a fraction of the
    /// scale-up threshold: the calm fleet sits just under the hysteresis
    /// trigger (0.9 × 0.80 = 0.72 utilization) because the lookahead — not
    /// spare capacity — covers predicted ramps.
    pub const PREWARM_TARGET_FRAC: f64 = 0.9;

    /// The reactive policy.
    pub fn reactive() -> Self {
        ScalingPolicy::Reactive
    }

    /// The forecast policy.
    pub fn forecast() -> Self {
        ScalingPolicy::Forecast
    }

    /// Short display label (figure legends, CSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            ScalingPolicy::Static => "static",
            ScalingPolicy::Reactive => "reactive",
            ScalingPolicy::Forecast => "forecast",
            ScalingPolicy::PreWarm { .. } => "prewarm",
        }
    }
}

impl Default for ScalingPolicy {
    /// The paper's fixed-fleet setup.
    fn default() -> Self {
        ScalingPolicy::Static
    }
}

impl fmt::Display for ScalingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything a [`Scaler`] needs to size a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalerConfig {
    /// The scaling policy.
    pub policy: ScalingPolicy,
    /// Active GPUs never drop below this.
    pub min_gpus: usize,
    /// Provisioned fleet size; active + warming GPUs never exceed it.
    pub max_gpus: usize,
    /// Serving capacity one fleet GPU contributes, req/s (derived from the
    /// BASE deployment in the experiment runtime).
    pub capacity_per_gpu_rps: f64,
    /// Utilization the fleet is resized *toward* when it scales (the
    /// experiment's BASE utilization target).
    pub target_utilization: f64,
}

impl ScalerConfig {
    /// A scaler configuration; cooldown and provisioning delay are the
    /// module's one-epoch constants, and a drain lasts one epoch.
    pub fn new(
        policy: ScalingPolicy,
        min_gpus: usize,
        max_gpus: usize,
        capacity_per_gpu_rps: f64,
        target_utilization: f64,
    ) -> Self {
        assert!(
            min_gpus >= 1 && min_gpus <= max_gpus,
            "scaler bounds invalid: min_gpus {min_gpus}, max_gpus {max_gpus}"
        );
        assert!(
            capacity_per_gpu_rps.is_finite() && capacity_per_gpu_rps > 0.0,
            "non-positive per-GPU capacity"
        );
        ScalerConfig {
            policy,
            min_gpus,
            max_gpus,
            capacity_per_gpu_rps,
            target_utilization,
        }
    }
}

/// The fleet partition a scaling decision produces; counts always sum to
/// the provisioned `max_gpus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetState {
    /// GPUs serving the deployment this epoch.
    pub active: usize,
    /// GPUs powered and warming up (full static draw, no instances yet).
    pub warming: usize,
    /// Recently retired GPUs still draining: finishing in-flight work,
    /// admitting nothing, drawing power until confirmed empty.
    pub draining: usize,
    /// GPUs powered off (standby draw only).
    pub off: usize,
}

impl FleetState {
    /// GPUs drawing wall power (active, warming, or draining).
    pub fn powered(&self) -> usize {
        self.active + self.warming + self.draining
    }
}

/// Why the last [`Scaler::step`] did what it did — recorded for the
/// decision journal's `scaler` events, never consulted by the scaler
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleReason {
    /// Static policy: the fleet never moves.
    #[default]
    Static,
    /// Utilization inside the hysteresis band: nothing to do.
    Hold,
    /// A recent action's cooldown suppressed this epoch's decision.
    Cooldown,
    /// Powered utilization crossed the upper threshold: capacity added
    /// (warming through the provisioning delay).
    ScaleUp,
    /// Active utilization fell below the lower threshold: capacity
    /// retired into the drain window.
    ScaleDown,
    /// Scale-up wanted but no uncommitted GPU exists (every board is
    /// active, warming or down).
    AtCeiling,
    /// Scale-down wanted but the fleet already sits at `min_gpus`.
    AtFloor,
}

impl ScaleReason {
    /// Stable lower-snake label used in journal events.
    pub fn label(self) -> &'static str {
        match self {
            ScaleReason::Static => "static",
            ScaleReason::Hold => "hold",
            ScaleReason::Cooldown => "cooldown",
            ScaleReason::ScaleUp => "scale_up",
            ScaleReason::ScaleDown => "scale_down",
            ScaleReason::AtCeiling => "at_ceiling",
            ScaleReason::AtFloor => "at_floor",
        }
    }
}

/// The per-experiment autoscaler: hysteresis, cooldown and provisioning
/// delay around a demand-driven sizing rule.
///
/// Call [`Scaler::step`] once per decision epoch, in epoch order; the
/// returned [`FleetState`] says how many GPUs serve, warm up, and sleep.
///
/// # Examples
///
/// Under a diurnal workload the forecast policy powers part of the fleet
/// down through the overnight trough and has it back before the peak:
///
/// ```
/// use clover_core::autoscale::{FleetState, Scaler, ScalerConfig, ScalingPolicy};
/// use clover_simkit::SimTime;
/// use clover_workload::{Workload, WorkloadKind};
///
/// // 4 GPUs of 40 req/s each; demand swings ±60% around 80 req/s daily.
/// let workload = Workload::new(WorkloadKind::diurnal(), 80.0);
/// let cfg = ScalerConfig::new(ScalingPolicy::forecast(), 1, 4, 40.0, 0.65);
/// let mut scaler = Scaler::new(cfg);
///
/// let fleet: Vec<FleetState> = (0..24)
///     .map(|h| scaler.step(SimTime::from_hours(h as f64), &workload, 1.0))
///     .collect();
///
/// let min_active = fleet.iter().map(|f| f.active).min().unwrap();
/// let max_active = fleet.iter().map(|f| f.active).max().unwrap();
/// assert!(min_active <= 2, "trough should power GPUs down");
/// assert_eq!(max_active, 4, "peak should restore the full fleet");
/// // The partition always accounts for every provisioned GPU.
/// assert!(fleet
///     .iter()
///     .all(|f| f.active + f.warming + f.draining + f.off == 4));
/// ```
#[derive(Debug, Clone)]
pub struct Scaler {
    cfg: ScalerConfig,
    /// GPUs currently serving.
    active: usize,
    /// Batches of powered-but-warming GPUs: `(ready_epoch, count)`.
    warming: Vec<(u64, usize)>,
    /// GPUs retired by the last step, still draining: they finish
    /// in-flight work, admit nothing, and keep drawing power (static floor
    /// plus the residual of their resident slices) until the next step
    /// confirms them empty and they fall to standby. A drain lasts one
    /// epoch and the cooldown forbids a scaling action at the next step,
    /// so at most one retirement drains at a time.
    draining: usize,
    /// Failed GPUs currently out of the fleet (chaos layer). Counted
    /// inside `off` in [`FleetState`] — they draw nothing, not even
    /// standby — and they cap every policy's scale-up until repaired.
    down: usize,
    /// No scaling action before this epoch.
    cooldown_until: u64,
    /// Next epoch index `step` will process.
    epoch: u64,
    /// Why the last `step` decided what it decided (journal only).
    last_reason: ScaleReason,
}

impl Scaler {
    /// Creates a scaler with the whole fleet initially active (experiments
    /// start fully provisioned, exactly like the paper's fixed fleet).
    pub fn new(cfg: ScalerConfig) -> Self {
        Scaler {
            active: cfg.max_gpus,
            warming: Vec::new(),
            draining: 0,
            down: 0,
            cooldown_until: 0,
            epoch: 0,
            last_reason: ScaleReason::default(),
            cfg,
        }
    }

    /// Epochs [`Scaler::step`] has advanced so far.
    pub(crate) fn epochs_stepped(&self) -> u64 {
        self.epoch
    }

    /// Why the most recent [`Scaler::step`] did what it did.
    pub fn last_reason(&self) -> ScaleReason {
        self.last_reason
    }

    /// The current fleet partition, without advancing an epoch.
    pub fn fleet(&self) -> FleetState {
        self.state()
    }

    /// Advances one decision epoch at global time `now` and returns the
    /// fleet partition to run with. Deterministic: no randomness is
    /// consumed, so scaled experiments parallelize byte-identically.
    ///
    /// The demand `workload` forecasts is multiplied by `forecast_factor`:
    /// the chaos layer's forecast error (`bias × noise`, drawn per epoch),
    /// or exactly `1.0` for an honest forecast. The scaler cannot tell a
    /// biased forecast from a clean one, which is the point.
    ///
    /// # Panics
    /// Panics unless `forecast_factor` is finite and positive — a
    /// non-positive "demand" is not an error model, it is a broken planner.
    pub fn step(&mut self, now: SimTime, workload: &Workload, forecast_factor: f64) -> FleetState {
        assert!(
            forecast_factor.is_finite() && forecast_factor > 0.0,
            "non-positive forecast factor {forecast_factor}"
        );
        let epoch = self.epoch;
        self.epoch += 1;

        // Promote batches whose warm-up lag has elapsed, and power down the
        // last step's retirement, whose drain is over (it falls to standby —
        // `state()` derives `off` from what remains committed). Static
        // fleets run this too: repaired boards re-enter through warming
        // even when the policy itself never scales.
        self.promote_ready(epoch);

        if self.cfg.policy == ScalingPolicy::Static {
            self.last_reason = ScaleReason::Static;
            return self.state();
        }

        let demand = match self.cfg.policy {
            ScalingPolicy::Static => unreachable!("handled above"),
            ScalingPolicy::Reactive => workload.rate_at(now),
            ScalingPolicy::Forecast => workload.windowed_mean(
                now,
                SimDuration::from_hours(ScalingPolicy::FORECAST_LOOKAHEAD_HOURS),
            ),
            // Size on the predicted *peak*: the worst demand the forecast
            // sees inside the look-ahead. Ahead of a ramp the peak appears
            // as soon as the horizon touches the spike, so capacity is
            // warming before traffic arrives; once the horizon clears the
            // spike the peak collapses back to the baseline and the fleet
            // scales down again.
            ScalingPolicy::PreWarm { lookahead_hours } => {
                workload.peak_over(now, SimDuration::from_hours(lookahead_hours))
            }
        } * forecast_factor;
        let (up, down) = (ScalingPolicy::UP_THRESHOLD, ScalingPolicy::DOWN_THRESHOLD);
        let cap = self.cfg.capacity_per_gpu_rps;
        // The pre-warm policy trades standing headroom for forecast
        // insurance: it sizes toward a utilization just under the scale-up
        // trigger (never below the configured target), where the other
        // policies keep the conservative target as their cushion against
        // demand they cannot see coming.
        let target = match self.cfg.policy {
            ScalingPolicy::PreWarm { .. } => self
                .cfg
                .target_utilization
                .max(up * ScalingPolicy::PREWARM_TARGET_FRAC),
            _ => self.cfg.target_utilization,
        };

        self.last_reason = if epoch < self.cooldown_until {
            ScaleReason::Cooldown
        } else {
            ScaleReason::Hold
        };
        if epoch >= self.cooldown_until {
            let powered = self.active + self.pending();
            let util_powered = demand / (powered as f64 * cap);
            let util_active = demand / (self.active as f64 * cap);
            if util_powered > up {
                self.last_reason = ScaleReason::AtCeiling;
            } else if util_active < down && self.active <= self.cfg.min_gpus {
                self.last_reason = ScaleReason::AtFloor;
            }
            if util_powered > up && powered < self.available() {
                // Grow toward the target utilization; the new GPUs draw
                // power now but serve only after the provisioning delay.
                // Failed boards cannot be powered on at all: growth is
                // bounded by what is genuinely uncommitted *and* alive.
                let uncommitted = self.available().saturating_sub(powered);
                let add = self
                    .desired(demand, target)
                    .saturating_sub(powered)
                    .min(uncommitted);
                if add > 0 {
                    self.warming.push((epoch + PROVISION_DELAY_EPOCHS, add));
                    self.cooldown_until = epoch + 1 + COOLDOWN_EPOCHS;
                    self.last_reason = ScaleReason::ScaleUp;
                }
            } else if util_active < down && self.active > self.cfg.min_gpus && self.pending() == 0 {
                // Shrink toward the target utilization: the retired GPUs
                // enter the drain window — in-flight work finishes, nothing
                // new is admitted, power keeps flowing — and only then fall
                // to standby.
                let desired = self.desired(demand, target);
                if desired < self.active {
                    let retired = self.active - desired;
                    self.active = desired;
                    self.draining = retired;
                    self.cooldown_until = epoch + 1 + COOLDOWN_EPOCHS;
                    self.last_reason = ScaleReason::ScaleDown;
                }
            }
        }

        self.state()
    }

    /// Removes `n` failed GPUs from the fleet, effective immediately —
    /// hardware does not wait for a decision epoch. Boards are taken from
    /// the active set first (their instances are already dead in the
    /// serving layer), then from warming batches, then from the draining
    /// ones; any remainder fell on boards that were already off. Returns
    /// how many boards actually left (never more than the fleet holds).
    ///
    /// Failures bypass cooldown and hysteresis: this is physics, not a
    /// scaling decision, and it must not suppress the policy's recovery
    /// response at the next epoch.
    pub fn fail(&mut self, n: usize) -> usize {
        let n = n.min(self.cfg.max_gpus - self.down);
        let mut left = n;
        let from_active = left.min(self.active);
        self.active -= from_active;
        left -= from_active;
        for batch in self.warming.iter_mut() {
            let take = left.min(batch.1);
            batch.1 -= take;
            left -= take;
        }
        self.warming.retain(|&(_, count)| count > 0);
        // What exceeds the drain fell on boards already in standby:
        // nothing to power down, but they still join the repair queue.
        self.draining -= left.min(self.draining);
        self.down += n;
        n
    }

    /// Returns `n` repaired GPUs to the fleet through the warming path:
    /// they power up now and join the active set after the provisioning
    /// delay, exactly like a scale-up — a repaired board still has to
    /// repartition and reload models. Returns how many boards actually
    /// came back (never more than are down). Static fleets take the same
    /// path; [`Scaler::step`] promotes their warming batches too.
    pub fn repair(&mut self, n: usize) -> usize {
        let n = n.min(self.down);
        self.down -= n;
        if n > 0 {
            self.warming.push((self.epoch + PROVISION_DELAY_EPOCHS, n));
        }
        n
    }

    /// Failed GPUs currently out of the fleet.
    pub fn down(&self) -> usize {
        self.down
    }

    /// GPUs the fleet can actually field: the provisioned maximum minus
    /// whatever the chaos layer has taken down.
    pub fn available(&self) -> usize {
        self.cfg.max_gpus - self.down
    }

    /// Promotes warming batches whose lag elapsed, clamping the active set
    /// to the surviving fleet, and powers down the last step's drain.
    fn promote_ready(&mut self, epoch: u64) {
        let mut ready = 0usize;
        self.warming.retain(|&(at, n)| {
            if at <= epoch {
                ready += n;
                false
            } else {
                true
            }
        });
        self.active = (self.active + ready).min(self.available());
        self.draining = 0;
    }

    /// GPU count that would serve `demand` at utilization `target`,
    /// clamped to the configured bounds.
    fn desired(&self, demand_rps: f64, target: f64) -> usize {
        let ideal = demand_rps / (self.cfg.capacity_per_gpu_rps * target);
        (ideal.ceil() as usize).clamp(self.cfg.min_gpus, self.cfg.max_gpus)
    }

    fn pending(&self) -> usize {
        self.warming.iter().map(|&(_, n)| n).sum()
    }

    fn state(&self) -> FleetState {
        let warming = self.pending();
        FleetState {
            active: self.active,
            warming,
            draining: self.draining,
            off: self.cfg.max_gpus - self.active - warming - self.draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_workload::{Workload, WorkloadKind};

    /// 4 GPUs × 50 req/s each, sized toward 0.65 utilization.
    fn config(policy: ScalingPolicy) -> ScalerConfig {
        ScalerConfig::new(policy, 1, 4, 50.0, 0.65)
    }

    /// 15-minute pre-warm look-ahead: enough to beat a flash-crowd ramp at
    /// sub-hour cadences.
    const PREWARM: ScalingPolicy = ScalingPolicy::PreWarm {
        lookahead_hours: 0.25,
    };

    /// [`config`]'s fleet, demand described by `kind` around 100 req/s.
    fn scaler_over(kind: WorkloadKind, policy: ScalingPolicy) -> (Scaler, Workload) {
        let workload = Workload::new(kind, 100.0);
        (Scaler::new(config(policy)), workload)
    }

    fn run_day(scaler: &mut Scaler, workload: &Workload) -> Vec<FleetState> {
        (0..24)
            .map(|h| scaler.step(SimTime::from_hours(f64::from(h)), workload, 1.0))
            .collect()
    }

    #[test]
    fn static_policy_never_moves() {
        let (mut scaler, workload) = scaler_over(WorkloadKind::diurnal(), ScalingPolicy::Static);
        for fleet in run_day(&mut scaler, &workload) {
            assert_eq!(
                fleet,
                FleetState {
                    active: 4,
                    warming: 0,
                    draining: 0,
                    off: 0
                }
            );
        }
    }

    #[test]
    fn step_records_its_reason() {
        let (mut scaler, workload) = scaler_over(WorkloadKind::diurnal(), ScalingPolicy::Static);
        scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(scaler.last_reason(), ScaleReason::Static);

        // Steady Poisson inside the hysteresis band: every epoch holds.
        let (mut scaler, workload) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::reactive());
        scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(scaler.last_reason(), ScaleReason::Hold);

        // Diurnal through a day must produce at least one scale-down (the
        // trough) and one scale-up (the recovery), each with its reason.
        let (mut scaler, workload) =
            scaler_over(WorkloadKind::diurnal(), ScalingPolicy::reactive());
        let mut reasons = Vec::new();
        for h in 0..24 {
            scaler.step(SimTime::from_hours(f64::from(h)), &workload, 1.0);
            reasons.push(scaler.last_reason());
        }
        assert!(reasons.contains(&ScaleReason::ScaleDown), "{reasons:?}");
        assert!(reasons.contains(&ScaleReason::ScaleUp), "{reasons:?}");
        assert!(reasons.contains(&ScaleReason::Cooldown), "{reasons:?}");
    }

    #[test]
    fn steady_demand_inside_the_band_never_scales() {
        // Poisson at 100 req/s on 4×50 req/s: utilization 0.5, inside
        // (0.40, 0.80) — hysteresis holds the fleet still.
        let (mut scaler, workload) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::reactive());
        for fleet in run_day(&mut scaler, &workload) {
            assert_eq!(fleet.active, 4);
            assert_eq!(fleet.off, 0);
        }
    }

    #[test]
    fn diurnal_trough_powers_down_and_peak_restores() {
        for policy in [ScalingPolicy::reactive(), ScalingPolicy::forecast()] {
            let (mut scaler, workload) = scaler_over(WorkloadKind::diurnal(), policy);
            let fleet = run_day(&mut scaler, &workload);
            let min = fleet.iter().map(|f| f.active).min().unwrap();
            let max = fleet.iter().map(|f| f.active).max().unwrap();
            assert!(min <= 2, "{}: trough kept {min} GPUs", policy.label());
            assert_eq!(max, 4, "{}: peak never restored", policy.label());
            for f in &fleet {
                assert_eq!(
                    f.active + f.warming + f.draining + f.off,
                    4,
                    "{}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn forecast_powers_up_before_reactive_on_the_ramp() {
        // Trough at hour 0, ramp toward the peak after: phase the sinusoid
        // so the scalers start scaled down and must re-grow.
        let kind = WorkloadKind::Diurnal {
            amplitude_frac: 0.6,
            period_hours: 24.0,
            phase_hours: 18.0, // sin(2π(t+18)/24) = -1 at t = 0
        };
        let first_full = |policy: ScalingPolicy| {
            let (mut scaler, workload) = scaler_over(kind.clone(), policy);
            run_day(&mut scaler, &workload)
                .iter()
                .position(|f| f.active == 4)
                .expect("fleet should eventually be restored")
        };
        let forecast = first_full(ScalingPolicy::forecast());
        let reactive = first_full(ScalingPolicy::reactive());
        assert!(
            forecast <= reactive,
            "forecast restored at hour {forecast}, reactive at {reactive}"
        );
    }

    #[test]
    fn provisioning_delay_defers_the_join() {
        let workload = Workload::poisson(200.0); // 4×50: utilization 1.0
        let mut scaler = Scaler::new(config(ScalingPolicy::reactive()));
        scaler.active = 2; // start scaled down, demand demands 4
        let f0 = scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(f0.active, 2, "no join before the warm-up lag");
        assert_eq!(f0.warming, 2);
        assert_eq!(f0.off, 0, "warming GPUs draw power immediately");
        let f1 = scaler.step(SimTime::from_hours(1.0), &workload, 1.0);
        assert_eq!(f1.active, 4, "one-epoch warm-up elapsed, GPUs join");
        assert_eq!(f1.warming, 0);
    }

    #[test]
    fn cooldown_spaces_scaling_actions() {
        // Demand at the floor: the scaler wants min_gpus immediately, but
        // the cooldown forces it to hold for an epoch after acting.
        let workload = Workload::poisson(10.0);
        let mut scaler = Scaler::new(config(ScalingPolicy::reactive()));
        let f0 = scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(f0.active, 1, "first action scales to the floor");
        // desired() clamps to min_gpus, so one action suffices; what the
        // cooldown must guarantee is no further action for one epoch even
        // if demand moved. Raise demand mid-cooldown: no response.
        let surge = Workload::poisson(500.0);
        let f1 = scaler.step(SimTime::from_hours(1.0), &surge, 1.0);
        assert_eq!(f1.active, 1, "acted inside the cooldown");
        assert_eq!(f1.warming, 0);
        assert_eq!(scaler.last_reason(), ScaleReason::Cooldown);
        let f2 = scaler.step(SimTime::from_hours(2.0), &surge, 1.0);
        assert!(f2.powered() > 1, "cooldown over, surge answered");
    }

    #[test]
    fn bounds_are_respected() {
        let (mut scaler, _) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::reactive());
        // Walk the fleet down with near-zero demand...
        let whisper = Workload::poisson(1e-6);
        for h in 0..6 {
            let f = scaler.step(SimTime::from_hours(f64::from(h)), &whisper, 1.0);
            assert!(f.active >= 1, "fell below min_gpus");
        }
        // ...then slam it with far more than the fleet can serve.
        let flood = Workload::poisson(1e6);
        for h in 6..12 {
            let f = scaler.step(SimTime::from_hours(f64::from(h)), &flood, 1.0);
            assert!(f.powered() <= 4, "exceeded max_gpus");
        }
    }

    #[test]
    fn prewarm_powers_up_before_the_spike_and_down_after() {
        // Flash crowd at 60 req/s mean on 4×50 req/s GPUs: calm demand is
        // ~50 req/s (2 GPUs at the 0.65 target), the ~5-minute spike peaks
        // at ~250 req/s and opens at hour 1. Stepping every 2 minutes with
        // a 15-minute lookahead, the fleet must be growing before the ramp
        // opens and shrunken again between spikes.
        let workload = Workload::new(WorkloadKind::flash_crowd(), 60.0);
        let mut scaler = Scaler::new(config(PREWARM));
        let epoch_s = 120.0;
        let fleet: Vec<FleetState> = (0..60)
            .map(|i| scaler.step(SimTime::from_secs(i as f64 * epoch_s), &workload, 1.0))
            .collect();
        let at = |t_s: f64| &fleet[(t_s / epoch_s) as usize];
        // Quiet stretch, spike not yet on the horizon: scaled down.
        assert!(at(1800.0).active <= 2, "calm fleet {:?}", at(1800.0));
        // Just before the ramp opens (spike at 3600 s, visible from
        // 2700 s): capacity is powered or powering.
        let pre = at(3600.0 - epoch_s);
        assert_eq!(
            pre.powered(),
            4,
            "fleet not pre-warmed ahead of the ramp: {pre:?}"
        );
        // Well after the spike (over by ~4020 s; lookahead clears it, then
        // the drain window empties): scaled down again.
        let post = at(5400.0);
        assert!(
            post.active <= 2,
            "fleet never relaxed after the spike: {post:?}"
        );
    }

    #[test]
    fn prewarm_beats_reactive_to_a_flash_crowd() {
        // The reactive policy cannot see the spike until traffic arrives;
        // the pre-warm policy powers up while rate_at(now) is still calm.
        let workload = Workload::new(WorkloadKind::flash_crowd(), 60.0);
        let first_grow = |policy: ScalingPolicy| {
            let mut scaler = Scaler::new(config(policy));
            // Growth always passes through the warming state (the
            // provisioning delay is one epoch), so `warming > 0` is the
            // unambiguous "began powering up" signal.
            (0..120)
                .map(|i| scaler.step(SimTime::from_secs(i as f64 * 60.0), &workload, 1.0))
                .position(|f| f.warming > 0)
        };
        let prewarm = first_grow(PREWARM);
        let reactive = first_grow(ScalingPolicy::reactive());
        match (prewarm, reactive) {
            (Some(p), Some(r)) => assert!(p < r, "prewarm grew at {p}, reactive at {r}"),
            (Some(_), None) => {} // reactive never even caught the spike
            (p, r) => panic!("prewarm {p:?} reactive {r:?}"),
        }
    }

    #[test]
    fn labels_and_defaults() {
        assert_eq!(ScalingPolicy::default(), ScalingPolicy::Static);
        assert_eq!(ScalingPolicy::Static.label(), "static");
        assert_eq!(ScalingPolicy::reactive().label(), "reactive");
        assert_eq!(format!("{}", ScalingPolicy::forecast()), "forecast");
        assert_eq!(PREWARM.label(), "prewarm");
        let cfg = ScalerConfig::new(ScalingPolicy::forecast(), 2, 8, 25.0, 0.65);
        assert_eq!(cfg.min_gpus, 2);
        assert_eq!(Scaler::new(cfg).state().active, 8);
    }

    #[test]
    #[should_panic(expected = "scaler bounds invalid")]
    fn min_above_max_rejected() {
        let _ = ScalerConfig::new(ScalingPolicy::Static, 5, 4, 50.0, 0.65);
    }

    #[test]
    fn failed_gpus_leave_immediately_and_return_through_warming() {
        // Static fleet, 4 GPUs: kill two, watch them come back through
        // the warming state after the provisioning delay.
        let (mut scaler, workload) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::Static);
        scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(scaler.fail(2), 2);
        assert_eq!(scaler.down(), 2);
        assert_eq!(scaler.available(), 2);
        let f = scaler.fleet();
        assert_eq!(f.active, 2, "failure takes effect immediately");
        assert_eq!(f.off, 2, "dead boards are carried as off");
        assert_eq!(scaler.repair(2), 2);
        assert_eq!(scaler.down(), 0);
        let f = scaler.fleet();
        assert_eq!(f.warming, 2, "repair routes through warming");
        assert_eq!(f.active, 2, "repaired boards do not serve yet");
        // The provisioning delay is one epoch: the next step promotes.
        scaler.step(SimTime::from_hours(1.0), &workload, 1.0);
        let f2 = scaler.step(SimTime::from_hours(2.0), &workload, 1.0);
        assert_eq!(f2.active, 4, "static fleet fully recovered: {f2:?}");
        assert_eq!(f2.warming, 0);
    }

    #[test]
    fn scale_up_is_clamped_to_the_surviving_fleet() {
        // Flood demand on a fleet with two dead boards: the reactive
        // policy may only power what is actually alive.
        let flood = Workload::poisson(1e6);
        let (mut scaler, _quiet) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::reactive());
        scaler.fail(2);
        for h in 0..6 {
            let f = scaler.step(SimTime::from_hours(f64::from(h)), &flood, 1.0);
            assert!(
                f.powered() <= 2,
                "hour {h}: powered {} of a 2-survivor fleet",
                f.powered()
            );
            assert_eq!(f.active + f.warming + f.draining + f.off, 4);
        }
        // Repair lifts the ceiling again.
        scaler.repair(2);
        let mut restored = false;
        for h in 6..10 {
            let f = scaler.step(SimTime::from_hours(f64::from(h)), &flood, 1.0);
            restored |= f.powered() == 4;
        }
        assert!(restored, "fleet never regrew after repair");
    }

    #[test]
    fn fail_takes_warming_and_draining_boards_too() {
        // Retire three boards into the drain, then fail all four: the
        // active board and the draining ones all leave the fleet.
        let quiet = Workload::poisson(10.0);
        let mut scaler = Scaler::new(config(ScalingPolicy::reactive()));
        let f0 = scaler.step(SimTime::ZERO, &quiet, 1.0);
        assert_eq!((f0.active, f0.draining), (1, 3));
        assert_eq!(scaler.fail(4), 4);
        let f = scaler.fleet();
        assert_eq!((f.active, f.warming, f.draining), (0, 0, 0));
        assert_eq!(f.off, 4);
        assert_eq!(scaler.down(), 4);
        // A fifth failure has nothing left to take.
        assert_eq!(scaler.fail(1), 0);
        // Repairing more than is down caps at the down count.
        assert_eq!(scaler.repair(9), 4);
    }

    #[test]
    fn noisy_forecast_biases_the_sizing_decision() {
        // Steady 100 req/s on 4×50: a clean reactive scaler holds at
        // utilization 0.5. A 2× biased forecast reads 200 req/s —
        // utilization 1.0 — and scales up on fiction.
        let workload = Workload::poisson(100.0);
        let (mut clean, _) = scaler_over(WorkloadKind::Poisson, ScalingPolicy::reactive());
        let f = clean.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(f.active, 4);
        assert_eq!(clean.last_reason(), ScaleReason::Hold);

        let mut fooled = Scaler::new(config(ScalingPolicy::reactive()));
        fooled.active = 2; // scaled down; the clean view would hold here
        let f = fooled.step(SimTime::ZERO, &workload, 2.0);
        assert_eq!(fooled.last_reason(), ScaleReason::ScaleUp);
        assert!(
            f.warming > 0,
            "biased forecast should trigger growth: {f:?}"
        );
    }

    #[test]
    fn scale_down_drains_before_standby() {
        // Demand at the floor: the scaler retires three of four GPUs; they
        // must spend the one-epoch drain window finishing in-flight work
        // (powered, admitting nothing) before falling to standby.
        let workload = Workload::poisson(10.0);
        let mut scaler = Scaler::new(config(ScalingPolicy::reactive()));
        let f0 = scaler.step(SimTime::ZERO, &workload, 1.0);
        assert_eq!(f0.active, 1);
        assert_eq!(f0.draining, 3, "retired GPUs must drain first");
        assert_eq!(f0.off, 0, "nothing powers down during the drain");
        assert_eq!(f0.powered(), 4, "draining boards still draw wall power");
        let f1 = scaler.step(SimTime::from_hours(1.0), &workload, 1.0);
        assert_eq!(f1.draining, 0, "drained GPUs fall to standby");
        assert_eq!(f1.off, 3);
    }

    #[test]
    fn draining_boards_are_not_reconscripted() {
        // Retire three boards, then surge: growth may only commit boards
        // whose drain is over, so the fleet never double-books.
        let quiet = Workload::poisson(10.0);
        let surge = Workload::poisson(1000.0);
        let mut scaler = Scaler::new(config(ScalingPolicy::reactive()));
        let f0 = scaler.step(SimTime::ZERO, &quiet, 1.0);
        assert_eq!((f0.active, f0.draining), (1, 3));
        let f1 = scaler.step(SimTime::from_hours(1.0), &surge, 1.0);
        assert_eq!(f1.draining, 0, "the one-epoch drain is over");
        assert_eq!(f1.warming, 0, "the cooldown holds the surge back");
        assert!(f1.active + f1.warming + f1.draining + f1.off == 4);
        // After the cooldown the surge is answered from the freed boards.
        let mut grown = false;
        for h in 2..6 {
            let f = scaler.step(SimTime::from_hours(f64::from(h)), &surge, 1.0);
            assert!(f.active + f.warming + f.draining + f.off == 4);
            grown |= f.powered() > 1;
        }
        assert!(grown, "surge never answered after the drain");
    }
}
