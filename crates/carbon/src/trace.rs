//! Carbon-intensity time series.
//!
//! A [`CarbonTrace`] is a regularly sampled sequence of [`CarbonIntensity`]
//! values starting at the simulation epoch. Lookups clamp at both ends (the
//! grid existed before and after the trace window) and can be stepwise — how
//! grid operators publish the data and what the paper's monitor observes —
//! or linearly interpolated for smooth plotting.

use crate::intensity::CarbonIntensity;
use clover_simkit::{SimDuration, SimTime};

/// A regularly sampled carbon-intensity time series.
#[derive(Debug, Clone)]
pub struct CarbonTrace {
    step: SimDuration,
    values: Vec<CarbonIntensity>,
}

impl CarbonTrace {
    /// Builds a trace from samples spaced `step` apart, the first at t = 0.
    ///
    /// # Panics
    /// Panics if `values` is empty or `step` is zero.
    pub fn new(step: SimDuration, values: Vec<CarbonIntensity>) -> Self {
        assert!(!values.is_empty(), "empty carbon trace");
        assert!(!step.is_zero(), "zero trace step");
        CarbonTrace { step, values }
    }

    /// Builds an hourly trace from raw gCO₂/kWh values.
    pub fn hourly(values: impl IntoIterator<Item = f64>) -> Self {
        Self::new(
            SimDuration::from_hours(1.0),
            values
                .into_iter()
                .map(CarbonIntensity::from_g_per_kwh)
                .collect(),
        )
    }

    /// A constant-intensity trace (used by the motivation experiments, which
    /// hold carbon intensity fixed).
    pub fn constant(ci: CarbonIntensity, span: SimDuration) -> Self {
        let n = (span.as_hours().ceil() as usize).max(1) + 1;
        Self::new(SimDuration::from_hours(1.0), vec![ci; n])
    }

    /// Sampling interval.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the trace holds a single sample.
    pub fn is_empty(&self) -> bool {
        false // construction guarantees at least one sample
    }

    /// Total time covered, from t = 0 to the last sample.
    pub fn span(&self) -> SimDuration {
        self.step * (self.values.len().saturating_sub(1)) as f64
    }

    /// Stepwise lookup: the most recent published sample at `t` (clamped).
    pub fn at(&self, t: SimTime) -> CarbonIntensity {
        let idx = (t.as_secs() / self.step.as_secs()) as usize;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Iterates `(time, intensity)` sample pairs.
    pub fn samples(&self) -> impl Iterator<Item = (SimTime, CarbonIntensity)> + '_ {
        let step = self.step;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &ci)| (SimTime::ZERO + step * i as f64, ci))
    }

    /// Minimum intensity in the trace.
    pub fn min(&self) -> CarbonIntensity {
        self.values
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .expect("non-empty")
    }

    /// Maximum intensity in the trace.
    pub fn max(&self) -> CarbonIntensity {
        self.values
            .iter()
            .copied()
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
            .expect("non-empty")
    }

    /// Arithmetic mean intensity.
    pub fn mean(&self) -> CarbonIntensity {
        let sum: f64 = self.values.iter().map(|c| c.g_per_kwh()).sum();
        CarbonIntensity::from_g_per_kwh(sum / self.values.len() as f64)
    }

    /// Largest intensity swing within any window of `window` length —
    /// the paper's motivation observes >200 gCO₂/kWh swings within half a
    /// day (Fig. 4).
    pub fn max_swing_within(&self, window: SimDuration) -> f64 {
        let w = (window / self.step).round() as usize;
        if w == 0 {
            return 0.0;
        }
        let mut best: f64 = 0.0;
        for i in 0..self.values.len() {
            let end = (i + w + 1).min(self.values.len());
            let slice = &self.values[i..end];
            let lo = slice
                .iter()
                .map(|c| c.g_per_kwh())
                .fold(f64::INFINITY, f64::min);
            let hi = slice
                .iter()
                .map(|c| c.g_per_kwh())
                .fold(f64::NEG_INFINITY, f64::max);
            best = best.max(hi - lo);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> CarbonTrace {
        CarbonTrace::hourly([100.0, 200.0, 300.0])
    }

    #[test]
    fn stepwise_lookup_and_clamping() {
        let t = ramp();
        assert_eq!(t.at(SimTime::ZERO).g_per_kwh(), 100.0);
        assert_eq!(t.at(SimTime::from_hours(0.99)).g_per_kwh(), 100.0);
        assert_eq!(t.at(SimTime::from_hours(1.0)).g_per_kwh(), 200.0);
        assert_eq!(t.at(SimTime::from_hours(50.0)).g_per_kwh(), 300.0);
    }

    #[test]
    fn summary_statistics() {
        let t = ramp();
        assert_eq!(t.min().g_per_kwh(), 100.0);
        assert_eq!(t.max().g_per_kwh(), 300.0);
        assert_eq!(t.mean().g_per_kwh(), 200.0);
        assert_eq!(t.span().as_hours(), 2.0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn constant_trace() {
        let ci = CarbonIntensity::from_g_per_kwh(250.0);
        let t = CarbonTrace::constant(ci, SimDuration::from_hours(48.0));
        assert_eq!(t.at(SimTime::ZERO), ci);
        assert_eq!(t.at(SimTime::from_hours(48.0)), ci);
        assert!(t.span().as_hours() >= 48.0);
    }

    #[test]
    fn max_swing() {
        let t = CarbonTrace::hourly([100.0, 350.0, 120.0, 90.0]);
        assert_eq!(t.max_swing_within(SimDuration::from_hours(1.0)), 250.0);
        assert_eq!(t.max_swing_within(SimDuration::from_hours(3.0)), 260.0);
    }

    #[test]
    fn samples_iterator() {
        let t = ramp();
        let v: Vec<_> = t.samples().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[1].0.as_hours(), 1.0);
        assert_eq!(v[1].1.g_per_kwh(), 200.0);
    }

    #[test]
    #[should_panic]
    fn empty_trace_rejected() {
        let _ = CarbonTrace::new(SimDuration::from_hours(1.0), vec![]);
    }
}
