//! Deterministic rate curves: the expected arrival rate as a function of
//! time.
//!
//! A [`RateCurve`] is the intensity function λ(t) of a non-homogeneous
//! Poisson process (see [`crate::process::NhppProcess`]) and, equally, the
//! demand forecast a scheduler queries. Curves are pure functions of time —
//! all randomness lives in the processes that sample them.

use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Trapezoid resolution for numeric window means. Curves are piecewise
/// smooth, so ~2k panels put the quadrature error far below the stochastic
/// noise of any simulated measurement.
const MEAN_PANELS: usize = 2048;

/// The expected arrival rate λ(t), req/s, as a deterministic function of
/// simulation time (seconds from the epoch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateCurve {
    /// Constant rate (homogeneous Poisson when sampled).
    Constant(f64),
    /// Diurnal sinusoid: `mean + amplitude * sin(TAU * (t + phase) / period)`,
    /// clamped at zero.
    Sinusoid {
        /// Mean rate, req/s.
        mean_rps: f64,
        /// Peak deviation from the mean, req/s.
        amplitude_rps: f64,
        /// Cycle length, seconds (diurnal: 24 h).
        period_s: f64,
        /// Phase shift, seconds.
        phase_s: f64,
    },
    /// Flash crowd: baseline traffic with a periodic trapezoid spike — a
    /// linear ramp to `spike_mult * base_rps`, a hold, and a ramp back. The
    /// spike opens halfway into each period.
    FlashCrowd {
        /// Baseline rate, req/s.
        base_rps: f64,
        /// Peak multiplier during the spike (> 1 for a crowd).
        spike_mult: f64,
        /// Spike recurrence period, seconds.
        period_s: f64,
        /// Ramp-up (= ramp-down) duration, seconds.
        ramp_s: f64,
        /// Plateau duration at the peak, seconds.
        hold_s: f64,
    },
}

impl RateCurve {
    /// Instantaneous rate at `t_s` seconds, req/s (never negative).
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match self {
            RateCurve::Constant(v) => *v,
            RateCurve::Sinusoid {
                mean_rps,
                amplitude_rps,
                period_s,
                phase_s,
            } => (mean_rps + amplitude_rps * (TAU * (t_s + phase_s) / period_s).sin()).max(0.0),
            RateCurve::FlashCrowd {
                base_rps,
                spike_mult,
                period_s,
                ramp_s,
                hold_s,
            } => {
                let u = t_s.rem_euclid(*period_s);
                let start = period_s / 2.0;
                let extra = spike_mult - 1.0;
                let mult = if u < start || u >= start + 2.0 * ramp_s + hold_s {
                    1.0
                } else if u < start + ramp_s {
                    1.0 + extra * (u - start) / ramp_s
                } else if u < start + ramp_s + hold_s {
                    *spike_mult
                } else {
                    1.0 + extra * (start + 2.0 * ramp_s + hold_s - u) / ramp_s
                };
                (base_rps * mult).max(0.0)
            }
        }
    }

    /// The tightest constant upper bound on the curve (the thinning
    /// envelope λ_max).
    pub fn max_rate(&self) -> f64 {
        match self {
            RateCurve::Constant(v) => *v,
            RateCurve::Sinusoid {
                mean_rps,
                amplitude_rps,
                ..
            } => (mean_rps + amplitude_rps.abs()).max(0.0),
            RateCurve::FlashCrowd {
                base_rps,
                spike_mult,
                ..
            } => (base_rps * spike_mult.max(1.0)).max(0.0),
        }
    }

    /// The tightest constant lower bound on the curve (the trough the
    /// demand can fall to); never negative.
    pub fn min_rate(&self) -> f64 {
        match self {
            RateCurve::Constant(v) => v.max(0.0),
            RateCurve::Sinusoid {
                mean_rps,
                amplitude_rps,
                ..
            } => (mean_rps - amplitude_rps.abs()).max(0.0),
            // The baseline between spikes is the floor.
            RateCurve::FlashCrowd { base_rps, .. } => base_rps.max(0.0),
        }
    }

    /// Mean rate over `[a_s, b_s]` (trapezoid quadrature).
    pub fn mean_over(&self, a_s: f64, b_s: f64) -> f64 {
        assert!(b_s > a_s, "empty averaging window");
        let h = (b_s - a_s) / MEAN_PANELS as f64;
        let mut sum = 0.5 * (self.rate_at(a_s) + self.rate_at(b_s));
        for i in 1..MEAN_PANELS {
            sum += self.rate_at(a_s + h * i as f64);
        }
        sum * h / (b_s - a_s)
    }

    /// The largest rate the curve reaches inside `[a_s, b_s]` — exact, via
    /// the curve's critical points (sinusoid crests, trapezoid
    /// breakpoints) rather than sampling. This is the lookahead
    /// query a pre-warming autoscaler plans against: "what is the worst
    /// demand the forecast predicts within my provisioning horizon?"
    ///
    /// # Panics
    /// Panics on an empty window (`b_s <= a_s`).
    pub fn max_over(&self, a_s: f64, b_s: f64) -> f64 {
        assert!(b_s > a_s, "empty max window");
        let endpoints = self.rate_at(a_s).max(self.rate_at(b_s));
        match self {
            RateCurve::Constant(v) => *v,
            RateCurve::Sinusoid {
                amplitude_rps,
                period_s,
                phase_s,
                mean_rps,
            } => {
                // Interior maxima are crests: sin(TAU (t + phase)/period)
                // = ±1 (sign of the amplitude). If the window contains
                // one, the max is the crest value; otherwise the curve is
                // monotone between crests/troughs and endpoints suffice.
                let quarter = if *amplitude_rps >= 0.0 { 0.25 } else { 0.75 };
                let first_crest = (quarter * period_s - phase_s)
                    + ((a_s - (quarter * period_s - phase_s)) / period_s).ceil() * period_s;
                if first_crest <= b_s {
                    (mean_rps + amplitude_rps.abs()).max(0.0)
                } else {
                    endpoints
                }
            }
            RateCurve::FlashCrowd {
                period_s,
                ramp_s,
                hold_s,
                ..
            } => {
                // The trapezoid's breakpoints within the window; the
                // plateau is the only interior maximum.
                let start = period_s / 2.0;
                let mut best = endpoints;
                let first_period = (a_s / period_s).floor() as i64;
                let last_period = (b_s / period_s).floor() as i64;
                for k in first_period..=last_period {
                    let base_t = k as f64 * period_s + start;
                    for off in [*ramp_s, ramp_s + hold_s] {
                        let t = base_t + off;
                        if t >= a_s && t <= b_s {
                            best = best.max(self.rate_at(t));
                        }
                    }
                }
                best
            }
        }
    }

    /// Long-run mean rate: over one period for periodic curves, the value
    /// itself for constants.
    pub fn long_run_mean(&self) -> f64 {
        match self {
            RateCurve::Constant(v) => *v,
            RateCurve::Sinusoid { period_s, .. } => self.mean_over(0.0, *period_s),
            RateCurve::FlashCrowd { period_s, .. } => self.mean_over(0.0, *period_s),
        }
    }

    /// Returns the curve with every rate multiplied by `factor` (used to
    /// normalize shapes to a target long-run mean).
    pub fn scaled(self, factor: f64) -> RateCurve {
        assert!(factor.is_finite() && factor > 0.0, "bad scale factor");
        match self {
            RateCurve::Constant(v) => RateCurve::Constant(v * factor),
            RateCurve::Sinusoid {
                mean_rps,
                amplitude_rps,
                period_s,
                phase_s,
            } => RateCurve::Sinusoid {
                mean_rps: mean_rps * factor,
                amplitude_rps: amplitude_rps * factor,
                period_s,
                phase_s,
            },
            RateCurve::FlashCrowd {
                base_rps,
                spike_mult,
                period_s,
                ramp_s,
                hold_s,
            } => RateCurve::FlashCrowd {
                base_rps: base_rps * factor,
                spike_mult,
                period_s,
                ramp_s,
                hold_s,
            },
        }
    }

    /// Validates structural invariants (positive periods, ramps that fit
    /// their period).
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violated invariant.
    pub fn validate(&self) {
        match self {
            RateCurve::Constant(v) => {
                assert!(v.is_finite() && *v >= 0.0, "negative constant rate")
            }
            RateCurve::Sinusoid {
                mean_rps, period_s, ..
            } => {
                assert!(*mean_rps >= 0.0, "negative sinusoid mean");
                assert!(*period_s > 0.0, "non-positive sinusoid period");
            }
            RateCurve::FlashCrowd {
                base_rps,
                spike_mult,
                period_s,
                ramp_s,
                hold_s,
            } => {
                assert!(*base_rps >= 0.0, "negative flash-crowd base");
                assert!(*spike_mult >= 1.0, "flash-crowd spike_mult below 1");
                assert!(*period_s > 0.0, "non-positive flash-crowd period");
                assert!(*ramp_s >= 0.0 && *hold_s >= 0.0, "negative spike timing");
                assert!(
                    2.0 * ramp_s + hold_s <= period_s / 2.0,
                    "flash-crowd spike does not fit its period"
                );
                assert!(*ramp_s > 0.0, "flash-crowd ramp must be positive");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinusoid_hits_extremes_and_clamps() {
        let c = RateCurve::Sinusoid {
            mean_rps: 100.0,
            amplitude_rps: 150.0,
            period_s: 100.0,
            phase_s: 0.0,
        };
        assert!((c.rate_at(25.0) - 250.0).abs() < 1e-9);
        assert_eq!(c.rate_at(75.0), 0.0); // clamped, would be -50
        assert_eq!(c.max_rate(), 250.0);
    }

    #[test]
    fn flash_crowd_shape() {
        let c = RateCurve::FlashCrowd {
            base_rps: 10.0,
            spike_mult: 4.0,
            period_s: 1000.0,
            ramp_s: 50.0,
            hold_s: 100.0,
        };
        c.validate();
        assert_eq!(c.rate_at(0.0), 10.0);
        assert_eq!(c.rate_at(499.0), 10.0);
        assert!((c.rate_at(525.0) - 25.0).abs() < 1e-9); // mid ramp
        assert_eq!(c.rate_at(600.0), 40.0); // hold
        assert_eq!(c.rate_at(700.0), 10.0); // after spike
        assert_eq!(c.rate_at(1525.0), c.rate_at(525.0)); // periodic
        assert_eq!(c.max_rate(), 40.0);
    }

    #[test]
    fn long_run_means() {
        let sin = RateCurve::Sinusoid {
            mean_rps: 80.0,
            amplitude_rps: 40.0,
            period_s: 3600.0,
            phase_s: 123.0,
        };
        assert!((sin.long_run_mean() - 80.0).abs() < 0.1);

        let fc = RateCurve::FlashCrowd {
            base_rps: 10.0,
            spike_mult: 4.0,
            period_s: 1000.0,
            ramp_s: 50.0,
            hold_s: 100.0,
        };
        // Extra area: (m-1) * (ramp + hold) = 3 * 150 over 1000 s.
        let expected = 10.0 * (1.0 + 3.0 * 150.0 / 1000.0);
        assert!((fc.long_run_mean() - expected).abs() < 0.05);
    }

    #[test]
    fn scaling_scales_mean_and_max() {
        let c = RateCurve::Sinusoid {
            mean_rps: 50.0,
            amplitude_rps: 20.0,
            period_s: 60.0,
            phase_s: 0.0,
        };
        let s = c.scaled(2.0);
        assert!((s.long_run_mean() - 100.0).abs() < 0.1);
        assert!((s.max_rate() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn max_over_finds_interior_crests_exactly() {
        let sin = RateCurve::Sinusoid {
            mean_rps: 100.0,
            amplitude_rps: 60.0,
            period_s: 100.0,
            phase_s: 0.0,
        };
        // Crest at t = 25 (+k·100). A window containing it reports the
        // crest; one strictly between crest and trough reports an endpoint.
        assert!((sin.max_over(20.0, 30.0) - 160.0).abs() < 1e-9);
        assert!((sin.max_over(30.0, 40.0) - sin.rate_at(30.0)).abs() < 1e-9);
        assert!((sin.max_over(60.0, 130.0) - 160.0).abs() < 1e-9); // next crest
                                                                   // Negative amplitude flips the crest to the 3/4 point.
        let neg = RateCurve::Sinusoid {
            mean_rps: 100.0,
            amplitude_rps: -60.0,
            period_s: 100.0,
            phase_s: 0.0,
        };
        assert!((neg.max_over(70.0, 80.0) - 160.0).abs() < 1e-9);

        let fc = RateCurve::FlashCrowd {
            base_rps: 10.0,
            spike_mult: 4.0,
            period_s: 1000.0,
            ramp_s: 50.0,
            hold_s: 100.0,
        };
        // Spike opens at 500: a window ending mid-ramp sees the partial
        // rise, one covering the plateau sees the full peak.
        assert_eq!(fc.max_over(0.0, 400.0), 10.0);
        assert!((fc.max_over(400.0, 525.0) - 25.0).abs() < 1e-9);
        assert_eq!(fc.max_over(400.0, 600.0), 40.0);
        assert_eq!(fc.max_over(900.0, 1600.0), 40.0); // next period's spike
        assert_eq!(RateCurve::Constant(7.0).max_over(3.0, 9.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty max window")]
    fn max_over_rejects_empty_window() {
        let _ = RateCurve::Constant(1.0).max_over(5.0, 5.0);
    }

    #[test]
    #[should_panic]
    fn oversized_spike_rejected() {
        RateCurve::FlashCrowd {
            base_rps: 1.0,
            spike_mult: 2.0,
            period_s: 100.0,
            ramp_s: 30.0,
            hold_s: 20.0,
        }
        .validate();
    }
}
