//! Carbon-intensity time series.
//!
//! A [`CarbonTrace`] is a regularly sampled sequence of [`CarbonIntensity`]
//! values starting at the simulation epoch. Lookups clamp at both ends (the
//! grid existed before and after the trace window) and can be stepwise — how
//! grid operators publish the data and what the paper's monitor observes —
//! or linearly interpolated for smooth plotting.

use crate::intensity::CarbonIntensity;
use clover_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A regularly sampled carbon-intensity time series.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

    /// Serializes the trace as CSV: a comment line carrying the sampling
    /// step, a column header, one gCO₂/kWh value per line. Floats use
    /// Rust's shortest round-trip formatting, so [`CarbonTrace::from_csv`]
    /// reproduces the trace exactly. (The arrival traces of
    /// `clover-workload` use the same I/O idiom.)
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(16 * self.values.len() + 64);
        out.push_str(&format!(
            "# clover-carbon intensity trace, step_s={}\n",
            self.step.as_secs()
        ));
        out.push_str("g_per_kwh\n");
        for v in &self.values {
            out.push_str(&format!("{}\n", v.g_per_kwh()));
        }
        out
    }

    /// Parses a trace from the CSV format of [`CarbonTrace::to_csv`]. A
    /// missing step comment falls back to hourly sampling.
    pub fn from_csv(csv: &str) -> Result<CarbonTrace, String> {
        let mut step = SimDuration::from_hours(1.0);
        let mut values = Vec::new();
        for (i, raw) in csv.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line == "g_per_kwh" {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                if let Some(v) = comment.split("step_s=").nth(1) {
                    let secs: f64 = v
                        .trim()
                        .parse()
                        .map_err(|e| format!("carbon CSV line {}: bad step: {e}", i + 1))?;
                    if !(secs.is_finite() && secs > 0.0) {
                        return Err(format!("carbon CSV line {}: non-positive step", i + 1));
                    }
                    step = SimDuration::from_secs(secs);
                }
                continue;
            }
            let g: f64 = line
                .parse()
                .map_err(|e| format!("carbon CSV line {}: bad intensity: {e}", i + 1))?;
            if !g.is_finite() || g < 0.0 {
                return Err(format!(
                    "carbon CSV line {}: negative or non-finite intensity {g}",
                    i + 1
                ));
            }
            values.push(CarbonIntensity::from_g_per_kwh(g));
        }
        if values.is_empty() {
            return Err("carbon CSV holds no samples".to_string());
        }
        Ok(CarbonTrace::new(step, values))
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

    #[test]
    fn csv_round_trip_is_exact() {
        let t = CarbonTrace::new(
            SimDuration::from_secs(1800.0),
            vec![101.25, 350.333_333_3, 88.0, 420.9]
                .into_iter()
                .map(CarbonIntensity::from_g_per_kwh)
                .collect(),
        );
        let back = CarbonTrace::from_csv(&t.to_csv()).expect("parses");
        assert_eq!(back.step(), t.step());
        assert_eq!(back.len(), t.len());
        for (a, b) in t.samples().zip(back.samples()) {
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn csv_missing_step_defaults_to_hourly() {
        let t = CarbonTrace::from_csv("g_per_kwh\n100\n200\n").expect("parses");
        assert_eq!(t.step(), SimDuration::from_hours(1.0));
        assert_eq!(t.len(), 2);
        assert!(CarbonTrace::from_csv("g_per_kwh\n").is_err());
        assert!(CarbonTrace::from_csv("g_per_kwh\nnope\n").is_err());
    }

    #[test]
    fn corrupt_csv_is_a_lined_error_not_a_panic() {
        // A truncated float mid-row: the line number names the culprit.
        let err = CarbonTrace::from_csv("g_per_kwh\n100\n2e\n300\n").unwrap_err();
        assert!(err.contains("line 3"), "got: {err}");
        // Negative and non-finite intensities are physically meaningless.
        let err = CarbonTrace::from_csv("g_per_kwh\n100\n-5\n").unwrap_err();
        assert!(
            err.contains("line 3") && err.contains("negative"),
            "got: {err}"
        );
        let err = CarbonTrace::from_csv("g_per_kwh\ninf\n").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
        let err = CarbonTrace::from_csv("g_per_kwh\nNaN\n").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
        // A corrupt step comment is caught with its own line number.
        let err = CarbonTrace::from_csv("# step_s=oops\ng_per_kwh\n100\n").unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("bad step"),
            "got: {err}"
        );
        let err = CarbonTrace::from_csv("# step_s=-60\ng_per_kwh\n100\n").unwrap_err();
        assert!(err.contains("non-positive step"), "got: {err}");
        let err = CarbonTrace::from_csv("# step_s=inf\ng_per_kwh\n100\n").unwrap_err();
        assert!(err.contains("non-positive step"), "got: {err}");
    }
}
