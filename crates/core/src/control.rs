//! The control loop's schedule vocabulary: epoch cadence, serving-simulation
//! fidelity and the cadence-aware search budget.
//!
//! The paper's methodology hard-wires three distinct cadences to the same
//! hourly clock: the carbon trace's sample period, the control loop's
//! decision period, and the serving simulation's extrapolation period.
//! This module pulls them apart:
//!
//! - A [`ControlEpoch`] is one tick of the control loop. Its length is
//!   configurable ([`crate::experiment::ExperimentConfigBuilder::control_epoch_s`],
//!   e.g. 10 minutes) and independent of the trace: carbon intensity is
//!   still held per *trace hour*, so a sub-hour cadence re-reads the same
//!   intensity until the trace steps. Sub-hour epochs are what let a
//!   reactive autoscaler engage with flash crowds that an hourly loop
//!   sleeps through.
//! - A [`Fidelity`] says how much of each epoch the DES actually serves:
//!   [`Fidelity::RepresentativeWindow`] (the paper's methodology and the
//!   default — simulate a short window, extrapolate counters to the whole
//!   epoch, valid when traffic is stationary within an epoch) or
//!   [`Fidelity::FullEpoch`] (drive the DES over the entire epoch, so
//!   MMPP/flash bursts are actually sampled instead of averaged away).
//! - An [`EpochSchedule`] lays the epochs of a run out on the global clock.
//!
//! The monitor → scaler → scheduler loop these drive is
//! [`crate::cell::CellRuntime::step`], one call per epoch.
//!
//! The default configuration — hourly epochs, representative window —
//! reproduces the pre-extraction experiment results bit for bit (pinned by
//! `tests/control_plane.rs`). See `docs/control-plane.md`.

use crate::anneal::SaParams;
use clover_simkit::{SimDuration, SimTime};
use std::fmt;

/// How much of each control epoch the serving simulator actually runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Fidelity {
    /// Simulate a `window_s`-second representative window per epoch and
    /// extrapolate its counters to the whole epoch — the paper's Sec. 5.1
    /// methodology (the system is treated as stationary within an epoch)
    /// and the default.
    RepresentativeWindow {
        /// Simulated window per epoch, seconds.
        window_s: f64,
    },
    /// Drive the DES over the entire epoch, no extrapolation: bursty
    /// arrival processes (MMPP, flash crowds) are sampled end to end
    /// instead of through whatever slice a representative window happens
    /// to catch. ~`epoch/window`× the events of the representative path;
    /// affordable since the allocation-free DES window and the parallel
    /// grid landed.
    FullEpoch,
}

impl Fidelity {
    /// The default representative window, seconds (the paper's 240 s).
    pub const DEFAULT_WINDOW_S: f64 = 240.0;

    /// The paper's default: a 240 s representative window.
    pub fn representative() -> Self {
        Fidelity::RepresentativeWindow {
            window_s: Self::DEFAULT_WINDOW_S,
        }
    }

    /// Short display label (figure legends, CSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::RepresentativeWindow { .. } => "window",
            Fidelity::FullEpoch => "full-epoch",
        }
    }

    /// The measurement plan for one epoch of the given length: what to
    /// simulate, how much warmup precedes measurement, and the factor that
    /// extrapolates window counters to the whole epoch.
    pub fn window_plan(&self, epoch_len: SimDuration) -> WindowPlan {
        match self {
            Fidelity::RepresentativeWindow { window_s } => WindowPlan {
                window: SimDuration::from_secs(*window_s),
                warmup: SimDuration::from_secs((window_s * 0.05).clamp(1.0, 8.0)),
                scale: epoch_len.as_secs() / window_s,
            },
            // The epoch is measured end to end; nothing to extrapolate and
            // no warmup to discard (every burst must be sampled).
            Fidelity::FullEpoch => WindowPlan {
                window: epoch_len,
                warmup: SimDuration::ZERO,
                scale: 1.0,
            },
        }
    }
}

impl Default for Fidelity {
    /// The paper's representative-window methodology.
    fn default() -> Self {
        Fidelity::representative()
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the optimization search's live budget relates to the control
/// cadence.
///
/// The paper's SA budget (5 simulated minutes of charged live time,
/// [`SaParams::time_budget_s`]) is sized for *hourly* re-planning: ~1
/// minute of actual exploration per invocation is noise against a one-hour
/// epoch. Re-plan every two minutes with the same budget and the search
/// can consume the epoch it is planning for — exploration traffic would
/// dominate the traffic it is supposed to optimize. This knob makes the
/// budget cadence-aware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchBudget {
    /// The configured [`SaParams`] are used verbatim at every cadence (the
    /// paper's setup, blind to the epoch length).
    Fixed,
    /// Charged live time shrinks with the cadence ratio — the configured
    /// budget is treated as sized for the hourly loop and scaled by
    /// `epoch / 3600` — but never below `frac` of the epoch (a floor
    /// guaranteeing the search keeps a useful slice of every epoch), and
    /// the non-improving-stop iteration budget shrinks in the same
    /// proportion. At the **hourly** cadence the ratio is 1, so *any*
    /// configured [`SaParams`] pass through untouched (the default 300 s
    /// budget included — the default configuration is bit-identical),
    /// while a 2-minute epoch caps the paper's search at 10 s of charged
    /// live time. Short epochs amortize the search instead of repeating
    /// it: CLOVER's warm start carries the previous plan forward, so each
    /// cheap invocation refines one shared search rather than restarting
    /// it.
    EpochScaled {
        /// Fraction of the epoch the scaled budget never shrinks below.
        frac: f64,
    },
}

impl SearchBudget {
    /// The default budget floor: the paper's 300 s budget over its 3600 s
    /// epoch, so the proportional scaling and the floor agree exactly for
    /// the paper's default parameters.
    pub const DEFAULT_FRAC: f64 = 300.0 / 3600.0;

    /// The default: epoch-scaled with the paper-derived floor.
    pub fn epoch_scaled() -> Self {
        SearchBudget::EpochScaled {
            frac: Self::DEFAULT_FRAC,
        }
    }

    /// Resolves the effective SA parameters for a cadence. Returns `sa`
    /// unchanged whenever the cap does not bind — the hourly cadence in
    /// particular, for *any* configured budget — so existing seeded
    /// results cannot drift.
    pub fn apply(&self, sa: SaParams, control_epoch_s: f64) -> SaParams {
        match *self {
            SearchBudget::Fixed => sa,
            SearchBudget::EpochScaled { frac } => {
                assert!(
                    frac.is_finite() && frac > 0.0 && frac <= 1.0,
                    "search budget fraction must lie in (0, 1], got {frac}"
                );
                // The configured budget is sized for hourly re-planning:
                // scale it by the cadence ratio, floored at `frac` of the
                // epoch. At 3600 s the ratio is 1 and the cap can never
                // bind — a user-enlarged hourly budget is left alone.
                let cap = (sa.time_budget_s * control_epoch_s / 3600.0).max(control_epoch_s * frac);
                if cap >= sa.time_budget_s {
                    return sa;
                }
                let shrink = cap / sa.time_budget_s;
                SaParams {
                    time_budget_s: cap,
                    non_improving_stop: ((f64::from(sa.non_improving_stop) * shrink).ceil() as u32)
                        .max(1),
                    ..sa
                }
            }
        }
    }
}

impl Default for SearchBudget {
    /// Epoch-scaled at the paper-preserving fraction.
    fn default() -> Self {
        SearchBudget::epoch_scaled()
    }
}

/// One epoch's measurement plan (see [`Fidelity::window_plan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPlan {
    /// Span the DES measures.
    pub window: SimDuration,
    /// Warmup simulated (and discarded) before measurement.
    pub warmup: SimDuration,
    /// Factor extrapolating measured counters to the whole epoch (`1` for
    /// [`Fidelity::FullEpoch`]).
    pub scale: f64,
}

/// One tick of the control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEpoch {
    /// Epoch index from the start of the run.
    pub index: u32,
    /// Epoch start on the global clock.
    pub start: SimTime,
    /// Epoch length.
    pub len: SimDuration,
}

impl ControlEpoch {
    /// Epoch start, hours from the start of the run.
    pub fn start_hours(&self) -> f64 {
        self.start.as_hours()
    }

    /// The trace hour containing this epoch's start.
    pub fn trace_hour(&self) -> u32 {
        self.start_hours() as u32
    }
}

/// The run's control cadence: `count` epochs of `epoch_s` seconds each.
///
/// Epoch lengths must evenly divide one hour (validated by the experiment
/// config builder): the carbon trace is hourly, and epochs that straddled
/// trace samples would smear two intensities into one decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSchedule {
    epoch_s: f64,
    /// Epochs per hour (validated integral).
    per_hour: u32,
    count: u32,
}

impl EpochSchedule {
    /// Covers `horizon_hours` with epochs of `epoch_s` seconds (the last
    /// epoch may overshoot a fractional horizon, exactly as the hourly
    /// loop ceiled fractional horizons).
    ///
    /// # Panics
    /// Panics unless `epoch_s` is positive and evenly divides one hour.
    pub fn new(horizon_hours: f64, epoch_s: f64) -> Self {
        let per_hour = per_hour_or_panic(epoch_s);
        assert!(
            horizon_hours > 0.0,
            "epoch schedule: non-positive horizon ({horizon_hours} h)"
        );
        EpochSchedule {
            epoch_s,
            per_hour: per_hour as u32,
            count: (horizon_hours * per_hour).ceil() as u32,
        }
    }

    /// Number of epochs in the schedule.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Epoch length.
    pub fn epoch_len(&self) -> SimDuration {
        SimDuration::from_secs(self.epoch_s)
    }

    /// Epoch length, hours.
    pub fn epoch_hours(&self) -> f64 {
        // Via the validated integral epochs-per-hour so the hourly
        // default is exactly 1.0 (3600/3600), not a rounding neighbor.
        1.0 / f64::from(self.per_hour)
    }

    /// The epochs, in order. Starts are computed as integer trace hour
    /// plus an in-hour fraction — never as `index × epoch_hours` — so an
    /// epoch that opens a trace hour starts at *exactly* that hour for
    /// every valid cadence (`index * (1/n)` rounds past the boundary for
    /// some `n`, which would make the monitor read the previous hour's
    /// intensity and mislabel the timeline).
    pub fn iter(&self) -> impl Iterator<Item = ControlEpoch> + '_ {
        let len = self.epoch_len();
        let hours = self.epoch_hours();
        let per_hour = self.per_hour;
        (0..self.count).map(move |index| {
            let hour = index / per_hour;
            let frac = f64::from(index % per_hour) * hours;
            ControlEpoch {
                index,
                start: SimTime::from_hours(f64::from(hour) + frac),
                len,
            }
        })
    }
}

/// Epochs per hour when `epoch_s` is valid; panics with the builder's
/// contract otherwise.
pub(crate) fn per_hour_or_panic(epoch_s: f64) -> f64 {
    assert!(
        epoch_s.is_finite() && epoch_s > 0.0,
        "control_epoch_s must be positive, got {epoch_s}"
    );
    let per_hour = 3600.0 / epoch_s;
    assert!(
        per_hour >= 1.0 && (per_hour - per_hour.round()).abs() < 1e-9,
        "control_epoch_s ({epoch_s} s) must evenly divide one hour: the carbon trace is hourly, \
         and a cadence that straddles trace samples would smear two intensities into one decision \
         (use e.g. 600, 900, 1200, 1800 or 3600 seconds)"
    );
    per_hour.round()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_schedule_matches_the_legacy_loop() {
        let s = EpochSchedule::new(48.0, 3600.0);
        assert_eq!(s.count(), 48);
        assert_eq!(s.epoch_hours(), 1.0);
        let epochs: Vec<ControlEpoch> = s.iter().collect();
        assert_eq!(epochs.len(), 48);
        assert_eq!(epochs[0].start, SimTime::ZERO);
        assert_eq!(epochs[7].start, SimTime::from_hours(7.0));
        assert_eq!(epochs[7].trace_hour(), 7);
        // Fractional horizons ceil, exactly like the hourly loop did.
        assert_eq!(EpochSchedule::new(5.5, 3600.0).count(), 6);
    }

    #[test]
    fn sub_hour_schedule_subdivides_the_hour() {
        let s = EpochSchedule::new(2.0, 600.0);
        assert_eq!(s.count(), 12);
        assert!((s.epoch_hours() - 1.0 / 6.0).abs() < 1e-15);
        let epochs: Vec<ControlEpoch> = s.iter().collect();
        assert_eq!(epochs[6].start, SimTime::from_hours(1.0));
        assert_eq!(epochs[5].trace_hour(), 0);
        assert_eq!(epochs[6].trace_hour(), 1);
        assert_eq!(epochs[11].len, SimDuration::from_secs(600.0));
    }

    #[test]
    fn hour_boundaries_are_exact_for_every_valid_cadence() {
        // Every divisor of 3600 is a legal cadence; the epoch opening each
        // trace hour must start at exactly that hour (`index × (1/n)`
        // arithmetic drifts below the boundary for some n, e.g. n = 49 on
        // another divisor set — the start is built from the integer hour
        // instead). Tolerance-accepted near-divisors snap the same way.
        let divisors = (1..=3600u32).filter(|d| 3600 % d == 0);
        for per_hour in divisors.map(|d| 3600 / d) {
            let s = EpochSchedule::new(3.0, 3600.0 / f64::from(per_hour));
            for epoch in s.iter() {
                if epoch.index % per_hour == 0 {
                    let hour = epoch.index / per_hour;
                    assert_eq!(
                        epoch.start,
                        SimTime::from_hours(f64::from(hour)),
                        "cadence {per_hour}/h: epoch {} misses hour {hour}",
                        epoch.index
                    );
                    assert_eq!(epoch.trace_hour(), hour);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "evenly divide one hour")]
    fn ragged_epoch_rejected() {
        let _ = EpochSchedule::new(2.0, 700.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_epoch_rejected() {
        let _ = EpochSchedule::new(2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "evenly divide one hour")]
    fn epoch_beyond_an_hour_rejected() {
        // Multi-hour epochs would straddle trace samples just the same.
        let _ = EpochSchedule::new(4.0, 7200.0);
    }

    #[test]
    fn representative_plan_reproduces_the_paper_methodology() {
        let f = Fidelity::RepresentativeWindow { window_s: 240.0 };
        let p = f.window_plan(SimDuration::from_hours(1.0));
        assert_eq!(p.window, SimDuration::from_secs(240.0));
        assert_eq!(p.warmup, SimDuration::from_secs(8.0));
        assert_eq!(p.scale, 3600.0 / 240.0);
        // Short windows clamp the warmup from below.
        let q = Fidelity::RepresentativeWindow { window_s: 10.0 }
            .window_plan(SimDuration::from_secs(600.0));
        assert_eq!(q.warmup, SimDuration::from_secs(1.0));
        assert_eq!(q.scale, 60.0);
    }

    #[test]
    fn full_epoch_plan_measures_everything() {
        let p = Fidelity::FullEpoch.window_plan(SimDuration::from_secs(600.0));
        assert_eq!(p.window, SimDuration::from_secs(600.0));
        assert_eq!(p.warmup, SimDuration::ZERO);
        assert_eq!(p.scale, 1.0);
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Fidelity::default(), Fidelity::representative());
        assert_eq!(Fidelity::default().label(), "window");
        assert_eq!(format!("{}", Fidelity::FullEpoch), "full-epoch");
    }

    #[test]
    fn epoch_scaled_budget_keeps_the_hourly_default_and_caps_short_epochs() {
        let sa = SaParams::default();
        let budget = SearchBudget::default();
        // At the hourly cadence the scaling ratio is 1: parameters come
        // back untouched — the paper's defaults *and* a user-enlarged
        // budget — so pre-existing seeded results cannot drift.
        assert_eq!(budget.apply(sa, 3600.0), sa);
        let enlarged = SaParams {
            time_budget_s: 600.0,
            ..sa
        };
        assert_eq!(budget.apply(enlarged, 3600.0), enlarged);
        // Sub-hour, the enlarged budget scales proportionally too.
        assert_eq!(budget.apply(enlarged, 120.0).time_budget_s, 20.0);
        assert_eq!(SearchBudget::Fixed.apply(sa, 120.0), sa);
        // Sub-hour epochs shrink both the charged-time and the iteration
        // budget proportionally.
        let short = budget.apply(sa, 120.0);
        assert_eq!(short.time_budget_s, 10.0);
        assert_eq!(short.non_improving_stop, 1);
        let mid = budget.apply(sa, 1200.0);
        assert_eq!(mid.time_budget_s, 100.0);
        assert_eq!(mid.non_improving_stop, 2);
        // Cooling schedule itself is untouched.
        assert_eq!(mid.t0, sa.t0);
        assert_eq!(mid.cooling, sa.cooling);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn oversized_budget_fraction_rejected() {
        let _ = SearchBudget::EpochScaled { frac: 1.5 }.apply(SaParams::default(), 60.0);
    }
}
