//! The Clover controller's carbon-intensity monitor.
//!
//! The paper (Sec. 4.3, Fig. 5): the controller "monitor\[s\] the real-time
//! carbon intensity from the local grid and initiat\[es\] its optimization
//! process as a reaction to changes in carbon intensity", re-invoking
//! optimization "whenever Clover detects more than a 5% change in the carbon
//! intensity compared to the previous optimization run" (Sec. 5.2.2).
//!
//! [`CarbonMonitor`] wraps a trace with exactly that hysteresis: `observe`
//! reports the current intensity and whether it has drifted beyond
//! [`DRIFT_THRESHOLD`] since the last acknowledged optimization.
//!
//! Real intensity feeds go dark. Configured **gap windows**
//! ([`CarbonMonitor::set_gaps`]) model a feed outage: inside a gap the
//! monitor serves the last-known-good sample — flagged
//! [`Staleness::Stale`] — until the sample's age exceeds [`AGE_CAP_S`],
//! after which it degrades to the last acknowledged planning
//! intensity ([`Staleness::Blind`]): drift reads zero and the controller
//! stops reacting to carbon rather than react to fiction. The underlying
//! *physics* (the carbon ledger) always integrates the true trace; only
//! the controller's view degrades.

use crate::intensity::CarbonIntensity;
use crate::trace::CarbonTrace;
use clover_simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// The paper's re-invocation threshold: a relative drift above 5% since the
/// last optimization triggers a new one.
pub const DRIFT_THRESHOLD: f64 = 0.05;

/// Last-known-good age cap during feed gaps, seconds: two hours (twice the
/// hourly publication cadence of real grid feeds).
pub const AGE_CAP_S: f64 = 7200.0;

/// Data quality of a monitor observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Staleness {
    /// The feed is live; the observation is the trace's current sample.
    Fresh,
    /// The feed is in a gap; serving the last-known-good sample, aged
    /// `age_s` seconds (within [`AGE_CAP_S`]).
    Stale {
        /// Age of the sample being served, seconds.
        age_s: f64,
    },
    /// The gap outlasted the age cap (or the feed was never seen): the
    /// monitor holds the last acknowledged reference, so drift reads zero
    /// and no carbon-reactive replanning fires until the feed returns.
    Blind {
        /// Seconds since the last good sample (0 if none was ever seen).
        age_s: f64,
    },
}

impl Staleness {
    /// True unless the observation came from a live feed.
    pub fn degraded(&self) -> bool {
        !matches!(self, Staleness::Fresh)
    }
}

/// What the monitor reports on each observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorEvent {
    /// The intensity observed now.
    pub current: CarbonIntensity,
    /// The intensity at the last acknowledged optimization.
    pub reference: CarbonIntensity,
    /// Relative drift from the reference (fraction, e.g. 0.07 = 7%).
    pub drift: f64,
    /// True when drift exceeds [`DRIFT_THRESHOLD`] and a new optimization
    /// should be invoked.
    pub triggered: bool,
    /// Whether the observation is live, stale-but-served, or blind.
    pub staleness: Staleness,
}

/// Watches a carbon trace and flags drifts beyond [`DRIFT_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct CarbonMonitor {
    trace: Arc<CarbonTrace>,
    reference: CarbonIntensity,
    /// Feed-outage windows `[start, end)` during which the trace is
    /// unreadable by the controller.
    gaps: Vec<(SimTime, SimTime)>,
    /// The most recent sample read from a live feed.
    last_good: Option<(SimTime, CarbonIntensity)>,
}

impl CarbonMonitor {
    /// Creates a monitor over `trace`. The initial reference is the
    /// intensity at t = 0. The trace is shared (`Arc`); a plain
    /// `CarbonTrace` still works.
    pub fn new(trace: impl Into<Arc<CarbonTrace>>) -> Self {
        let trace = trace.into();
        let reference = trace.at(SimTime::ZERO);
        CarbonMonitor {
            trace,
            reference,
            gaps: Vec::new(),
            last_good: None,
        }
    }

    /// Configures feed-outage windows `[start, end)`. Gaps are how the
    /// chaos layer injects carbon-trace staleness; an empty gap list
    /// restores fault-free behavior exactly.
    pub fn set_gaps(&mut self, gaps: Vec<(SimTime, SimTime)>) {
        self.gaps = gaps;
    }

    /// True when the controller's feed is dark at `now`.
    pub fn in_gap(&self, now: SimTime) -> bool {
        self.gaps.iter().any(|&(a, b)| now >= a && now < b)
    }

    /// Observes the grid at `now`.
    ///
    /// Live feed: reads the trace and remembers the sample. Inside a gap:
    /// serves the last-known-good sample while it is younger than the age
    /// cap ([`Staleness::Stale`]); past the cap — or if no sample was ever
    /// seen — holds the acknowledged reference ([`Staleness::Blind`]), so
    /// drift reads zero and carbon-reactive replanning pauses until the
    /// feed returns.
    pub fn observe(&mut self, now: SimTime) -> MonitorEvent {
        let (current, staleness) = if self.in_gap(now) {
            match self.last_good {
                Some((t0, ci)) => {
                    let age = now.saturating_since(t0);
                    if age <= SimDuration::from_secs(AGE_CAP_S) {
                        (
                            ci,
                            Staleness::Stale {
                                age_s: age.as_secs(),
                            },
                        )
                    } else {
                        (
                            self.reference,
                            Staleness::Blind {
                                age_s: age.as_secs(),
                            },
                        )
                    }
                }
                None => (self.reference, Staleness::Blind { age_s: 0.0 }),
            }
        } else {
            let ci = self.trace.at(now);
            self.last_good = Some((now, ci));
            (ci, Staleness::Fresh)
        };
        let drift = current.relative_change_from(self.reference);
        MonitorEvent {
            current,
            reference: self.reference,
            drift,
            triggered: drift > DRIFT_THRESHOLD,
            staleness,
        }
    }

    /// Acknowledges that an optimization ran at intensity `ci`; future drift
    /// is measured from this value.
    pub fn acknowledge(&mut self, ci: CarbonIntensity) {
        self.reference = ci;
    }

    /// The underlying trace.
    pub fn trace(&self) -> &CarbonTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> CarbonTrace {
        CarbonTrace::hourly([100.0, 103.0, 110.0, 108.0, 90.0])
    }

    #[test]
    fn small_drift_does_not_trigger() {
        let mut m = CarbonMonitor::new(trace());
        let ev = m.observe(SimTime::from_hours(1.0));
        assert!(!ev.triggered);
        assert!((ev.drift - 0.03).abs() < 1e-12);
        assert_eq!(ev.staleness, Staleness::Fresh);
    }

    #[test]
    fn large_drift_triggers() {
        let mut m = CarbonMonitor::new(trace());
        let ev = m.observe(SimTime::from_hours(2.0));
        assert!(ev.triggered);
        assert_eq!(ev.current.g_per_kwh(), 110.0);
        assert_eq!(ev.reference.g_per_kwh(), 100.0);
    }

    #[test]
    fn acknowledge_resets_reference() {
        let mut m = CarbonMonitor::new(trace());
        let ev = m.observe(SimTime::from_hours(2.0));
        assert!(ev.triggered);
        m.acknowledge(ev.current);
        // 108 vs 110 is under 5%.
        assert!(!m.observe(SimTime::from_hours(3.0)).triggered);
        // 90 vs 110 is over 5%.
        assert!(m.observe(SimTime::from_hours(4.0)).triggered);
    }

    #[test]
    fn gap_serves_last_known_good_within_age_cap() {
        let mut m = CarbonMonitor::new(trace());
        m.set_gaps(vec![(SimTime::from_hours(2.0), SimTime::from_hours(4.0))]);
        // Live read at 1 h: 103, remembered.
        let live = m.observe(SimTime::from_hours(1.0));
        assert_eq!(live.staleness, Staleness::Fresh);
        assert_eq!(live.current.g_per_kwh(), 103.0);
        // 2.5 h is inside the gap: the true trace says 110 (a >5% drift)
        // but the monitor serves the 1 h sample — stale, no trigger.
        let stale = m.observe(SimTime::from_hours(2.5));
        assert_eq!(stale.current.g_per_kwh(), 103.0);
        assert!(
            matches!(stale.staleness, Staleness::Stale { age_s } if (age_s - 5400.0).abs() < 1e-9)
        );
        assert!(!stale.triggered, "stale data must not trigger replanning");
        assert!(stale.staleness.degraded());
        // After the gap the live feed resumes.
        let back = m.observe(SimTime::from_hours(4.0));
        assert_eq!(back.staleness, Staleness::Fresh);
        assert_eq!(back.current.g_per_kwh(), 90.0);
    }

    #[test]
    fn gap_past_age_cap_goes_blind_on_the_reference() {
        let mut m = CarbonMonitor::new(trace());
        m.set_gaps(vec![(SimTime::from_hours(1.5), SimTime::from_hours(12.0))]);
        m.observe(SimTime::from_hours(1.0)); // last good: 103 at 1 h
        m.acknowledge(CarbonIntensity::from_g_per_kwh(103.0));
        // At 3 h the 1 h sample is exactly at the 2 h cap: still served.
        let stale = m.observe(SimTime::from_hours(3.0));
        assert!(matches!(stale.staleness, Staleness::Stale { .. }));
        // At 3.5 h it is over the cap: blind.
        let blind = m.observe(SimTime::from_hours(3.5));
        assert!(matches!(blind.staleness, Staleness::Blind { .. }));
        assert_eq!(blind.current.g_per_kwh(), 103.0, "holds the reference");
        assert_eq!(blind.drift, 0.0, "blind drift must read zero");
        assert!(!blind.triggered);
    }

    #[test]
    fn gap_with_no_prior_sample_is_blind_from_the_start() {
        let mut m = CarbonMonitor::new(trace());
        m.set_gaps(vec![(SimTime::ZERO, SimTime::from_hours(1.0))]);
        let ev = m.observe(SimTime::ZERO);
        assert!(matches!(ev.staleness, Staleness::Blind { .. }));
        assert_eq!(ev.current, ev.reference);
    }

    #[test]
    fn no_gaps_behaves_exactly_as_before() {
        let mut gapped = CarbonMonitor::new(trace());
        gapped.set_gaps(Vec::new());
        let mut plain = CarbonMonitor::new(trace());
        for h in 0..5 {
            let t = SimTime::from_hours(h as f64);
            assert_eq!(gapped.observe(t), plain.observe(t));
        }
    }
}
