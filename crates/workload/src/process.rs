//! Arrival-process implementations behind the [`ArrivalProcess`] trait.
//!
//! A process is sampled in **window-local time**: the serving simulator
//! starts its clock at zero for every measurement window and pulls arrivals
//! forward with [`ArrivalProcess::next_after`]. Processes that depend on
//! absolute simulation time (rate curves) carry their window's origin
//! internally, set when [`crate::Workload::process_from`] builds them.
//!
//! Every implementation draws randomness exclusively from the
//! [`SimRng`] handed in by the caller, so a fixed seed reproduces the exact
//! arrival stream — the property the whole benchmark harness rests on.

use crate::rate::RateCurve;
use clover_simkit::{SimRng, SimTime};

/// A point process generating request arrival times.
///
/// Implementations must be *monotone*: calls arrive with non-decreasing
/// `now`, and the returned time is `>= now`.
pub trait ArrivalProcess {
    /// The next arrival at or after `now` (window-local seconds), or `None`
    /// once the process produces no more arrivals.
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime>;
}

/// Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival times.
///
/// This is the process the serving simulator originally hardcoded, drawing
/// one exponential sample per arrival. The legacy rate-based serving API
/// routes through it, so the rate-based and process-based paths are a
/// single code path. (Note: extracting it also split arrival and service
/// randomness onto separate RNG sub-streams, which re-dealt individual
/// seeded draws once at that refactor; the sub-stream design prevents any
/// further perturbation.)
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate_rps: f64,
}

impl PoissonProcess {
    /// Creates the process.
    ///
    /// # Panics
    /// Panics unless `rate_rps` is finite and strictly positive.
    pub fn new(rate_rps: f64) -> Self {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "non-positive arrival rate"
        );
        PoissonProcess { rate_rps }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        Some(now + clover_simkit::SimDuration::from_secs(rng.exponential(self.rate_rps)))
    }
}

/// Non-homogeneous Poisson arrivals over a [`RateCurve`], sampled by
/// Lewis–Shedler thinning: candidate arrivals are drawn from a homogeneous
/// envelope at the curve's maximum rate and accepted with probability
/// λ(t)/λ_max.
#[derive(Debug, Clone)]
pub struct NhppProcess {
    curve: RateCurve,
    /// Global time of the window's local zero, seconds.
    origin_s: f64,
    /// Thinning envelope.
    lambda_max: f64,
}

impl NhppProcess {
    /// Creates the process for a window whose local zero sits at `origin`
    /// on the global clock.
    ///
    /// # Panics
    /// Panics if the curve is invalid or identically zero (no envelope).
    pub fn new(curve: RateCurve, origin: SimTime) -> Self {
        curve.validate();
        let lambda_max = curve.max_rate();
        assert!(lambda_max > 0.0, "rate curve is identically zero");
        NhppProcess {
            curve,
            origin_s: origin.as_secs(),
            lambda_max,
        }
    }
}

impl ArrivalProcess for NhppProcess {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let mut t = now.as_secs();
        loop {
            t += rng.exponential(self.lambda_max);
            let accept = rng.f64() * self.lambda_max;
            if accept <= self.curve.rate_at(self.origin_s + t) {
                return Some(SimTime::from_secs(t));
            }
        }
    }
}

/// Two-state Markov-modulated Poisson process: exponential sojourns in a
/// *calm* and a *burst* state, Poisson arrivals at the state's rate.
///
/// The initial state is drawn from the stationary distribution on the first
/// `next_after` call (from the caller's RNG, so it is seed-deterministic).
/// Forecasters see only the stationary mean rate — the modulating chain
/// is not observable to them, which is exactly what makes MMPP traffic
/// hard on schedulers.
#[derive(Debug, Clone)]
pub struct MmppProcess {
    calm_rps: f64,
    burst_rps: f64,
    mean_calm_s: f64,
    mean_burst_s: f64,
    /// `(in_burst, next_switch_s)` once the chain has started.
    state: Option<(bool, f64)>,
}

impl MmppProcess {
    /// Creates the process.
    ///
    /// # Panics
    /// Panics on non-positive sojourn means or negative rates, or if both
    /// state rates are zero.
    pub fn new(calm_rps: f64, burst_rps: f64, mean_calm_s: f64, mean_burst_s: f64) -> Self {
        assert!(
            mean_calm_s > 0.0 && mean_burst_s > 0.0,
            "non-positive MMPP sojourn mean"
        );
        assert!(
            calm_rps >= 0.0 && burst_rps >= 0.0 && (calm_rps > 0.0 || burst_rps > 0.0),
            "MMPP needs a positive arrival rate in some state"
        );
        MmppProcess {
            calm_rps,
            burst_rps,
            mean_calm_s,
            mean_burst_s,
            state: None,
        }
    }

    /// Stationary probability of being in the burst state.
    fn burst_fraction(&self) -> f64 {
        self.mean_burst_s / (self.mean_burst_s + self.mean_calm_s)
    }

    fn sojourn_rate(&self, burst: bool) -> f64 {
        if burst {
            1.0 / self.mean_burst_s
        } else {
            1.0 / self.mean_calm_s
        }
    }

    fn arrival_rate(&self, burst: bool) -> f64 {
        if burst {
            self.burst_rps
        } else {
            self.calm_rps
        }
    }
}

impl ArrivalProcess for MmppProcess {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let now_s = now.as_secs();
        let (mut burst, mut switch_s) = self.state.take().unwrap_or_else(|| {
            let burst = rng.chance(self.burst_fraction());
            (burst, now_s + rng.exponential(self.sojourn_rate(burst)))
        });
        let mut t = now_s;
        loop {
            let rate = self.arrival_rate(burst);
            let candidate = if rate > 0.0 {
                t + rng.exponential(rate)
            } else {
                f64::INFINITY
            };
            if candidate <= switch_s {
                self.state = Some((burst, switch_s));
                return Some(SimTime::from_secs(candidate));
            }
            // The candidate lands beyond the state switch; by memorylessness
            // it can be discarded and redrawn from the switch point.
            t = switch_s;
            burst = !burst;
            switch_s = t + rng.exponential(self.sojourn_rate(burst));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_simkit::SimDuration;

    /// Drains `p` over `[0, horizon_s)`, returning the arrival times.
    fn drain(p: &mut dyn ArrivalProcess, horizon_s: f64, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some(t) = p.next_after(now, &mut rng) {
            if t.as_secs() >= horizon_s {
                break;
            }
            out.push(t.as_secs());
            now = t;
        }
        out
    }

    #[test]
    fn poisson_mean_rate() {
        let mut p = PoissonProcess::new(50.0);
        let n = drain(&mut p, 400.0, 1).len();
        let measured = n as f64 / 400.0;
        assert!((measured - 50.0).abs() / 50.0 < 0.05, "rate {measured}");
    }

    #[test]
    fn nhpp_tracks_its_curve() {
        let curve = RateCurve::Sinusoid {
            mean_rps: 60.0,
            amplitude_rps: 40.0,
            period_s: 200.0,
            phase_s: 0.0,
        };
        let mut p = NhppProcess::new(curve.clone(), SimTime::ZERO);
        let events = drain(&mut p, 2000.0, 2);
        // Global mean.
        let measured = events.len() as f64 / 2000.0;
        assert!((measured - 60.0).abs() / 60.0 < 0.05, "rate {measured}");
        // Peak quarter vs trough quarter of each cycle.
        let peak = events
            .iter()
            .filter(|t| (t.rem_euclid(200.0) - 50.0).abs() < 25.0)
            .count() as f64;
        let trough = events
            .iter()
            .filter(|t| (t.rem_euclid(200.0) - 150.0).abs() < 25.0)
            .count() as f64;
        assert!(peak > trough * 2.0, "peak {peak} trough {trough}");
    }

    #[test]
    fn mmpp_mean_and_burstiness() {
        // 4x bursts 1/4 of the time: mean = 0.75*20 + 0.25*80 = 35 rps.
        let mut p = MmppProcess::new(20.0, 80.0, 300.0, 100.0);
        let events = drain(&mut p, 20_000.0, 3);
        let measured = events.len() as f64 / 20_000.0;
        assert!((measured - 35.0).abs() / 35.0 < 0.06, "rate {measured}");
        // Burstiness: the variance of 10 s bucket counts far exceeds the
        // Poisson variance (= mean).
        let mut buckets = vec![0.0f64; 2000];
        for t in &events {
            buckets[(t / 10.0) as usize] += 1.0;
        }
        let mean = buckets.iter().sum::<f64>() / buckets.len() as f64;
        let var = buckets.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / buckets.len() as f64;
        assert!(var > mean * 2.0, "var {var} vs mean {mean}");
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let curve = RateCurve::Constant(30.0);
        let mut a = NhppProcess::new(curve.clone(), SimTime::ZERO);
        let mut b = NhppProcess::new(curve, SimTime::ZERO);
        assert_eq!(drain(&mut a, 100.0, 9), drain(&mut b, 100.0, 9));

        let mut a = MmppProcess::new(10.0, 40.0, 50.0, 20.0);
        let mut b = MmppProcess::new(10.0, 40.0, 50.0, 20.0);
        assert_eq!(drain(&mut a, 500.0, 11), drain(&mut b, 500.0, 11));
    }

    #[test]
    fn poisson_window_duration_type_roundtrip() {
        // Guard the SimTime/SimDuration arithmetic in next_after.
        let mut p = PoissonProcess::new(10.0);
        let mut rng = SimRng::new(5);
        let t0 = SimTime::from_secs(3.0);
        let t1 = p.next_after(t0, &mut rng).unwrap();
        assert!(t1 > t0);
        assert!(t1.since(t0) < SimDuration::from_secs(10.0));
    }
}
