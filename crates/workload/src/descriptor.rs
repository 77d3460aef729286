//! Workload descriptors: the serializable scenario parameterization that
//! rides inside experiment configs, and the bound [`Workload`] that turns
//! it into arrival processes and demand forecasts.
//!
//! A [`WorkloadKind`] describes traffic **shape** only; intensity comes from
//! the base rate the experiment derives (in the paper's methodology, the
//! rate at which the BASE deployment sits at its utilization target). Every
//! shape is normalized so its long-run mean equals that base rate —
//! experiments under different scenarios then serve the same total demand,
//! shaped differently, which keeps carbon-per-request comparisons
//! meaningful.

use crate::process::{ArrivalProcess, MmppProcess, NhppProcess, PoissonProcess};
use crate::rate::RateCurve;
use clover_simkit::{SimDuration, SimTime};
use std::fmt;

/// The traffic scenarios the serving stack can be driven with.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Open-loop homogeneous Poisson arrivals (the paper's Sec. 5.1 setup).
    Poisson,
    /// Diurnal sinusoid: smooth day/night swing around the base rate.
    Diurnal {
        /// Peak deviation as a fraction of the base rate, in `[0, 1]`.
        amplitude_frac: f64,
        /// Cycle length, hours (24 for a day).
        period_hours: f64,
        /// Phase shift, hours.
        phase_hours: f64,
    },
    /// Markov-modulated Poisson: calm traffic with exponential bursts.
    Mmpp {
        /// Burst-state rate as a multiple of the calm-state rate (> 1).
        burst_mult: f64,
        /// Mean burst sojourn, seconds.
        mean_burst_s: f64,
        /// Mean calm sojourn, seconds.
        mean_calm_s: f64,
    },
    /// Flash crowd: baseline with a recurring trapezoid spike.
    FlashCrowd {
        /// Peak multiplier during the spike (> 1).
        spike_mult: f64,
        /// Spike recurrence period, hours.
        period_hours: f64,
        /// Ramp-up (= ramp-down) duration, seconds.
        ramp_s: f64,
        /// Plateau duration at the peak, seconds.
        hold_s: f64,
    },
}

impl WorkloadKind {
    /// Diurnal defaults: ±60% swing over a 24-hour cycle, morning trough.
    pub fn diurnal() -> Self {
        WorkloadKind::Diurnal {
            amplitude_frac: 0.6,
            period_hours: 24.0,
            phase_hours: 0.0,
        }
    }

    /// MMPP defaults: 4× bursts, 2-minute bursts every ~10 minutes.
    pub fn mmpp() -> Self {
        WorkloadKind::Mmpp {
            burst_mult: 4.0,
            mean_burst_s: 120.0,
            mean_calm_s: 480.0,
        }
    }

    /// Flash-crowd defaults: 5× spike every 2 hours, 60 s ramps, 5-minute
    /// plateau.
    pub fn flash_crowd() -> Self {
        WorkloadKind::FlashCrowd {
            spike_mult: 5.0,
            period_hours: 2.0,
            ramp_s: 60.0,
            hold_s: 300.0,
        }
    }

    /// Short display label (figure legends, CSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Poisson => "poisson",
            WorkloadKind::Diurnal { .. } => "diurnal",
            WorkloadKind::Mmpp { .. } => "mmpp",
            WorkloadKind::FlashCrowd { .. } => "flash-crowd",
        }
    }
}

impl Default for WorkloadKind {
    /// The paper's evaluation workload.
    fn default() -> Self {
        WorkloadKind::Poisson
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A [`WorkloadKind`] bound to a base rate: the object experiments hold.
///
/// Provides both faces of a workload — the *generator*
/// ([`Workload::process_from`]) the simulator pulls arrivals from, and the
/// *forecast* ([`Workload::rate_at`], [`Workload::windowed_mean`],
/// [`Workload::peak_over`]) schedulers and the autoscaler plan against.
/// Both are views of the same normalized description, so a scheduler that
/// trusts the forecast is judged against traffic actually drawn from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    kind: WorkloadKind,
    base_rps: f64,
    /// The normalized generation engine, derived once from `kind` +
    /// `base_rps` at construction; forecast queries and per-window process
    /// builds reuse it instead of re-normalizing.
    engine: Engine,
}

/// Precomputed normalized form of a workload.
#[derive(Debug, Clone, PartialEq)]
enum Engine {
    /// Deterministic intensity curve (Poisson, diurnal, flash crowd),
    /// already scaled so its long-run mean is the base rate.
    Curve(RateCurve),
    /// MMPP state rates, already normalized to the base rate.
    Mmpp {
        calm_rps: f64,
        burst_rps: f64,
        mean_calm_s: f64,
        mean_burst_s: f64,
    },
}

impl Workload {
    /// Binds `kind` to a base (long-run mean) rate.
    ///
    /// # Panics
    /// Panics unless `base_rps` is finite and strictly positive, or if the
    /// kind's parameters are structurally invalid.
    pub fn new(kind: WorkloadKind, base_rps: f64) -> Self {
        assert!(
            base_rps.is_finite() && base_rps > 0.0,
            "non-positive workload base rate"
        );
        let engine = match &kind {
            WorkloadKind::Poisson => Engine::Curve(RateCurve::Constant(base_rps)),
            WorkloadKind::Diurnal {
                amplitude_frac,
                period_hours,
                phase_hours,
            } => {
                assert!(
                    (0.0..=1.0).contains(amplitude_frac),
                    "diurnal amplitude_frac outside [0, 1] breaks base-rate normalization"
                );
                assert!(*period_hours > 0.0, "non-positive diurnal period");
                assert!(phase_hours.is_finite(), "non-finite diurnal phase");
                Engine::Curve(RateCurve::Sinusoid {
                    mean_rps: base_rps,
                    amplitude_rps: base_rps * amplitude_frac,
                    period_s: period_hours * 3600.0,
                    phase_s: phase_hours * 3600.0,
                })
            }
            WorkloadKind::FlashCrowd {
                spike_mult,
                period_hours,
                ramp_s,
                hold_s,
            } => {
                let shape = RateCurve::FlashCrowd {
                    base_rps: 1.0,
                    spike_mult: *spike_mult,
                    period_s: period_hours * 3600.0,
                    ramp_s: *ramp_s,
                    hold_s: *hold_s,
                };
                shape.validate();
                let mean = shape.long_run_mean();
                Engine::Curve(shape.scaled(base_rps / mean))
            }
            WorkloadKind::Mmpp {
                burst_mult,
                mean_burst_s,
                mean_calm_s,
            } => {
                assert!(*burst_mult >= 1.0, "MMPP burst_mult below 1");
                assert!(
                    *mean_burst_s > 0.0 && *mean_calm_s > 0.0,
                    "non-positive MMPP sojourn mean"
                );
                let d = mean_burst_s / (mean_burst_s + mean_calm_s);
                let calm = base_rps / (1.0 + d * (burst_mult - 1.0));
                Engine::Mmpp {
                    calm_rps: calm,
                    burst_rps: calm * burst_mult,
                    mean_calm_s: *mean_calm_s,
                    mean_burst_s: *mean_burst_s,
                }
            }
        };
        if let Engine::Curve(curve) = &engine {
            curve.validate();
        }
        Workload {
            kind,
            base_rps,
            engine,
        }
    }

    /// The paper's default: homogeneous Poisson at `rate_rps`.
    pub fn poisson(rate_rps: f64) -> Self {
        Workload::new(WorkloadKind::Poisson, rate_rps)
    }

    /// The scenario description.
    pub fn kind(&self) -> &WorkloadKind {
        &self.kind
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }

    /// Expected instantaneous rate at global time `t`, req/s (stationary
    /// mean for MMPP).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match &self.engine {
            Engine::Mmpp { .. } => self.base_rps,
            Engine::Curve(curve) => curve.rate_at(t.as_secs()),
        }
    }

    /// [`Workload::rate_at`] floored to a small fraction of the base rate:
    /// the rate downstream *planning* consumers (M/M/c estimates, candidate
    /// measurement windows) should use, since a forecast of exactly zero
    /// traffic (a diurnal trough at full amplitude) would make those queries ill-defined.
    pub fn planning_rate_at(&self, t: SimTime) -> f64 {
        self.rate_at(t).max(self.base_rps * 1e-3)
    }

    /// Expected mean rate over the window `[from, from + span]`, req/s.
    pub fn windowed_mean(&self, from: SimTime, span: SimDuration) -> f64 {
        assert!(!span.is_zero(), "empty forecast window");
        let (a, b) = (from.as_secs(), (from + span).as_secs());
        match &self.engine {
            Engine::Mmpp { .. } => self.base_rps,
            Engine::Curve(curve) => curve.mean_over(a, b),
        }
    }

    /// The largest expected rate within the window `[from, from + span]`,
    /// req/s — the lookahead a pre-warming autoscaler sizes against ("the
    /// worst demand the forecast predicts inside my provisioning horizon").
    /// Exact for deterministic rate curves (via their critical points).
    /// MMPP bursts are not forecastable, so the stationary mean is all a
    /// planner may know.
    pub fn peak_over(&self, from: SimTime, span: SimDuration) -> f64 {
        assert!(!span.is_zero(), "empty forecast window");
        let (a, b) = (from.as_secs(), (from + span).as_secs());
        match &self.engine {
            Engine::Mmpp { .. } => self.base_rps,
            Engine::Curve(curve) => curve.max_over(a, b),
        }
    }

    /// The largest expected rate the workload can demand, req/s (capacity
    /// planning headroom).
    pub fn max_rate(&self) -> f64 {
        match &self.engine {
            // Peak demand is the burst-state rate.
            Engine::Mmpp { burst_rps, .. } => *burst_rps,
            Engine::Curve(curve) => curve.max_rate(),
        }
    }

    /// The smallest expected rate the workload can fall to, req/s (the
    /// demand trough; the other end of the forecast's rate range).
    pub fn min_rate(&self) -> f64 {
        match &self.engine {
            // Calm-state demand is the floor.
            Engine::Mmpp { calm_rps, .. } => *calm_rps,
            Engine::Curve(curve) => curve.min_rate(),
        }
    }

    /// Which of `bands` **equal-width** bands of the forecast's rate
    /// range `[min_rate, max_rate]` the rate `rps` falls into, `0`
    /// (trough) to `bands - 1` (peak). Bands divide the *range*, not the
    /// time distribution — with 4 bands these are "quartiles of the rate
    /// range", not equal-probability quantiles (a bursty workload may
    /// spend most of its time in band 0). A degenerate range (constant
    /// demand, e.g. the paper's Poisson workload) maps everything to
    /// band 0.
    ///
    /// This is the index ORACLE keys its offline profiles by, so that the
    /// argmax switches against measurements taken near the current demand
    /// instead of whatever rate the profile happened to be built at.
    ///
    /// # Panics
    /// Panics when `bands` is zero.
    pub fn rate_band(&self, rps: f64, bands: usize) -> usize {
        assert!(bands > 0, "rate_band needs at least one band");
        let lo = self.min_rate();
        let hi = self.max_rate();
        if hi <= lo || !rps.is_finite() {
            return 0;
        }
        let frac = ((rps - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((frac * bands as f64) as usize).min(bands - 1)
    }

    /// Builds the arrival process for a measurement window whose local zero
    /// sits at `origin` on the global clock.
    ///
    /// Processes are freshly created per window; all their randomness comes
    /// from the RNG the simulator passes at sampling time, so a window is
    /// reproducible from `(workload, origin, rng seed)` alone.
    pub fn process_from(&self, origin: SimTime) -> Box<dyn ArrivalProcess> {
        match &self.engine {
            Engine::Curve(RateCurve::Constant(rate)) => Box::new(PoissonProcess::new(*rate)),
            Engine::Curve(curve) => Box::new(NhppProcess::new(curve.clone(), origin)),
            Engine::Mmpp {
                calm_rps,
                burst_rps,
                mean_calm_s,
                mean_burst_s,
            } => Box::new(MmppProcess::new(
                *calm_rps,
                *burst_rps,
                *mean_calm_s,
                *mean_burst_s,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_simkit::SimRng;

    /// One whole period of `kind`'s rate curve; an hour for the kinds
    /// whose forecast is flat.
    fn period(kind: &WorkloadKind) -> SimDuration {
        match kind {
            WorkloadKind::Diurnal { period_hours, .. }
            | WorkloadKind::FlashCrowd { period_hours, .. } => {
                SimDuration::from_hours(*period_hours)
            }
            WorkloadKind::Poisson | WorkloadKind::Mmpp { .. } => SimDuration::from_hours(1.0),
        }
    }

    /// The forecast's mean over `wl`'s first whole period: its base rate.
    fn period_mean(wl: &Workload) -> f64 {
        wl.windowed_mean(SimTime::ZERO, period(wl.kind()))
    }

    fn all_kinds() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::Poisson,
            WorkloadKind::diurnal(),
            WorkloadKind::mmpp(),
            WorkloadKind::flash_crowd(),
        ]
    }

    #[test]
    fn normalization_makes_every_kind_hit_the_base_rate() {
        for kind in all_kinds() {
            let wl = Workload::new(kind, 120.0);
            // The forecast view agrees with the declared mean over one
            // whole period.
            assert!((period_mean(&wl) - 120.0).abs() < 1e-9);
            // Long-window mean of the forecast ≈ base rate.
            let mean = wl.windowed_mean(SimTime::ZERO, SimDuration::from_hours(48.0));
            assert!(
                (mean - 120.0).abs() / 120.0 < 0.02,
                "{}: windowed mean {mean}",
                wl.label()
            );
        }
    }

    #[test]
    fn generated_arrivals_match_the_forecast() {
        for kind in all_kinds() {
            let wl = Workload::new(kind, 40.0);
            // MMPP time-averages converge over many on/off cycles, so it
            // needs a much longer measurement than the deterministic-rate
            // kinds.
            let horizon = match wl.kind() {
                WorkloadKind::Mmpp { .. } => 86_400.0,
                _ => 3600.0,
            };
            let mut p = wl.process_from(SimTime::ZERO);
            let mut rng = SimRng::new(424_242);
            let mut now = SimTime::ZERO;
            let mut n = 0u64;
            while let Some(t) = p.next_after(now, &mut rng) {
                if t.as_secs() >= horizon {
                    break;
                }
                n += 1;
                now = t;
            }
            let measured = n as f64 / horizon;
            let expected = wl.windowed_mean(SimTime::ZERO, SimDuration::from_secs(horizon));
            assert!(
                (measured - expected).abs() / expected < 0.06,
                "{}: measured {measured} expected {expected}",
                wl.label()
            );
        }
    }

    #[test]
    fn diurnal_forecast_swings_around_base() {
        let wl = Workload::new(WorkloadKind::diurnal(), 100.0);
        let peak = wl.rate_at(SimTime::from_hours(6.0)); // sin peak at T/4
        let trough = wl.rate_at(SimTime::from_hours(18.0));
        assert!((peak - 160.0).abs() < 1e-6, "peak {peak}");
        assert!((trough - 40.0).abs() < 1e-6, "trough {trough}");
        assert!((wl.max_rate() - 160.0).abs() < 1e-6);
    }

    #[test]
    fn mmpp_peak_rate_is_burst_rate() {
        let wl = Workload::new(WorkloadKind::mmpp(), 100.0);
        // duty 0.2, mult 4 → calm 62.5, burst 250.
        assert!((wl.max_rate() - 250.0).abs() < 1e-6, "{}", wl.max_rate());
        assert!((wl.rate_at(SimTime::ZERO) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn forecast_view_matches_workload() {
        let wl = Workload::new(WorkloadKind::flash_crowd(), 80.0);
        let t = SimTime::from_hours(1.05); // inside the spike
        assert!(wl.rate_at(t) > 80.0);
        assert!((period_mean(&wl) - 80.0).abs() < 1e-9);
        assert!(wl.max_rate() > 300.0);
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(WorkloadKind::default(), WorkloadKind::Poisson);
        assert_eq!(Workload::poisson(5.0).label(), "poisson");
        assert_eq!(WorkloadKind::mmpp().label(), "mmpp");
        assert_eq!(format!("{}", WorkloadKind::flash_crowd()), "flash-crowd");
    }

    #[test]
    #[should_panic]
    fn zero_base_rate_rejected() {
        let _ = Workload::poisson(0.0);
    }

    #[test]
    #[should_panic]
    fn oversized_diurnal_amplitude_rejected() {
        // amplitude_frac > 1 clamps negative stretches to zero and silently
        // raises the realized mean above the base rate.
        let _ = Workload::new(
            WorkloadKind::Diurnal {
                amplitude_frac: 1.5,
                period_hours: 24.0,
                phase_hours: 0.0,
            },
            100.0,
        );
    }

    #[test]
    #[should_panic(expected = "empty forecast window")]
    fn windowed_mean_rejects_a_zero_span_window() {
        // A zero-span window has no mean; silently returning anything
        // (0/0, rate_at) would let a scaler divide by a phantom demand.
        let wl = Workload::poisson(50.0);
        let _ = wl.windowed_mean(SimTime::from_hours(1.0), SimDuration::ZERO);
    }

    #[test]
    fn flash_crowd_spike_straddling_the_window_boundary_is_counted() {
        // Default flash crowd: 2 h period, spike opens at half-period
        // (1 h), 60 s ramps around a 300 s hold. A forecast window ending
        // mid-spike must see the partial spike mass, and the two halves
        // must add back up to the whole.
        let wl = Workload::new(WorkloadKind::flash_crowd(), 100.0);
        let spike_mid_s = 3600.0 + 210.0; // ramp + half the hold
        let half = SimDuration::from_secs(600.0);
        let before = wl.windowed_mean(SimTime::from_secs(spike_mid_s - 600.0), half);
        let after = wl.windowed_mean(SimTime::from_secs(spike_mid_s), half);
        let whole = wl.windowed_mean(
            SimTime::from_secs(spike_mid_s - 600.0),
            SimDuration::from_secs(1200.0),
        );
        // Each half sees elevated demand (the spike peaks at ~5× base)...
        let mean = period_mean(&wl);
        assert!(before > mean * 1.2, "before {before}");
        assert!(after > mean * 1.2, "after {after}");
        // ...and splitting at the boundary conserves the spike's mass.
        assert!(
            ((before + after) / 2.0 - whole).abs() / whole < 0.02,
            "halves {before}+{after} vs whole {whole}"
        );
        // Far from the spike the forecast sits at the baseline.
        let calm = wl.windowed_mean(SimTime::from_secs(100.0), SimDuration::from_secs(600.0));
        assert!(calm < mean, "calm window {calm}");
    }

    #[test]
    fn rate_range_and_bands() {
        // Diurnal ±60% around 100: range [40, 160], quartiles of width 30.
        let wl = Workload::new(WorkloadKind::diurnal(), 100.0);
        assert!((wl.min_rate() - 40.0).abs() < 1e-9);
        assert_eq!(wl.rate_band(40.0, 4), 0);
        assert_eq!(wl.rate_band(69.9, 4), 0);
        assert_eq!(wl.rate_band(70.1, 4), 1);
        assert_eq!(wl.rate_band(100.0, 4), 2);
        assert_eq!(wl.rate_band(160.0, 4), 3);
        // Out-of-range queries clamp instead of indexing out of bounds.
        assert_eq!(wl.rate_band(-5.0, 4), 0);
        assert_eq!(wl.rate_band(1e9, 4), 3);
        assert_eq!(wl.rate_band(150.0, 4), 3);

        // Constant demand (the paper's Poisson) has a degenerate range:
        // everything is band 0, so ORACLE keeps exactly one profile.
        let poisson = Workload::poisson(100.0);
        assert_eq!(poisson.min_rate(), poisson.max_rate());
        assert_eq!(poisson.rate_band(100.0, 4), 0);
        assert_eq!(poisson.rate_band(1e9, 4), 0);

        // MMPP: the calm state is the floor, the burst state the ceiling.
        let mmpp = Workload::new(WorkloadKind::mmpp(), 100.0);
        assert!((mmpp.min_rate() - 62.5).abs() < 1e-9);
        assert_eq!(mmpp.rate_band(mmpp.max_rate(), 4), 3);

        // A flash crowd floors at its baseline between spikes.
        let crowd = Workload::new(WorkloadKind::flash_crowd(), 100.0);
        assert!(crowd.min_rate() > 0.0);
        assert!(crowd.min_rate() < 100.0);
    }

    #[test]
    fn peak_over_sees_a_coming_spike_the_mean_smears() {
        // Flash crowd at 100 req/s base: spike opens at hour 1. A 15-minute
        // lookahead just before the ramp must report the spike peak, while
        // the windowed mean barely moves — exactly why the pre-warm policy
        // sizes on the peak.
        let wl = Workload::new(WorkloadKind::flash_crowd(), 100.0);
        let before = SimTime::from_secs(3600.0 - 300.0);
        let span = SimDuration::from_secs(900.0);
        let peak = wl.peak_over(before, span);
        let mean = wl.windowed_mean(before, span);
        let base = period_mean(&wl);
        assert!(peak > base * 3.0, "peak {peak}");
        assert!(mean < peak * 0.6, "mean {mean} vs peak {peak}");
        // Far from any spike the peak is the baseline.
        let calm = wl.peak_over(SimTime::from_secs(100.0), SimDuration::from_secs(600.0));
        assert!(calm < base, "calm peak {calm}");
        // MMPP (unforecastable bursts) answers with its stationary mean.
        let mmpp = Workload::new(WorkloadKind::mmpp(), 100.0);
        assert_eq!(mmpp.peak_over(before, span), 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_rejected() {
        let _ = Workload::poisson(10.0).rate_band(5.0, 0);
    }

    #[test]
    fn planning_rate_is_floored_above_zero() {
        // A full-amplitude diurnal forecasts zero demand at its trough; the
        // planning view must stay strictly positive for M/M/c estimates.
        let wl = Workload::new(
            WorkloadKind::Diurnal {
                amplitude_frac: 1.0,
                period_hours: 24.0,
                phase_hours: 0.0,
            },
            200.0,
        );
        let trough = SimTime::from_hours(18.0);
        assert!(wl.rate_at(trough) < 1e-9);
        assert!(wl.planning_rate_at(trough) >= 200.0 * 1e-3);
        // For live demand the floor is invisible.
        let poisson = Workload::poisson(150.0);
        assert_eq!(poisson.planning_rate_at(trough), 150.0);
    }
}
