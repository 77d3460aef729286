//! Phase profiling: scoped wall-clock timers around the control loop's
//! phases, aggregated per experiment cell.
//!
//! The profiler answers "where does the wall time go" — scheduler planning
//! vs SA candidate evaluation vs the DES itself vs scaling vs the
//! continuous-serving carry hand-off — which is the instrument that
//! localizes throughput gaps like continuous-vs-cold-start in the
//! benchmark's per-phase self times (`python3 perfbench/run.py --trace 1`).
//!
//! Timing uses `std::time::Instant` and is therefore not deterministic —
//! by design it flows only into perf aggregates (the benchmark's phase
//! times and `perf_report`'s phase bound), never into journal bytes,
//! metrics used by tests, or simulation state.
//! Handles are `Arc`-shared atomics so long-lived components (the DES
//! evaluator, the serving simulator) can record into the same totals the
//! experiment owns, including across the parallel grid's worker threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A control-loop phase under the profiler's watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The scheduler's `plan` call, end to end (includes `Search`).
    Plan,
    /// SA candidate evaluation: the DES evaluator measuring one candidate.
    Search,
    /// Serving simulation: the experiment's measured windows/epochs.
    Des,
    /// The autoscaler's `step`.
    Scaler,
    /// The continuous engine's seam work, nested within `Des`: the
    /// carry snapshot and restore at epoch boundaries.
    Carry,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 5] = [
        Phase::Plan,
        Phase::Search,
        Phase::Des,
        Phase::Scaler,
        Phase::Carry,
    ];

    /// The phases no other phase nests within (`Search` runs inside
    /// `Plan`, `Carry` inside `Des`): their sum is the exclusive total.
    pub const TOP_LEVEL: [Phase; 3] = [Phase::Plan, Phase::Des, Phase::Scaler];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    fn index(self) -> usize {
        match self {
            Phase::Plan => 0,
            Phase::Search => 1,
            Phase::Des => 2,
            Phase::Scaler => 3,
            Phase::Carry => 4,
        }
    }
}

#[derive(Debug, Default)]
struct PhaseCell {
    nanos: AtomicU64,
    scopes: AtomicU64,
}

/// Shared per-phase wall-time accumulator. Cloning shares the totals.
#[derive(Debug, Clone, Default)]
pub struct ProfilerHandle {
    cells: Arc<[PhaseCell; Phase::COUNT]>,
}

impl ProfilerHandle {
    /// A fresh profiler with zeroed totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a scope for `phase`; elapsed wall time is recorded when the
    /// returned guard drops.
    pub fn scope(&self, phase: Phase) -> PhaseScope {
        PhaseScope {
            handle: self.clone(),
            phase,
            start: Instant::now(),
        }
    }

    fn record(&self, phase: Phase, nanos: u64) {
        let cell = &self.cells[phase.index()];
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.scopes.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the accumulated totals.
    pub fn totals(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for phase in Phase::ALL {
            let cell = &self.cells[phase.index()];
            totals.secs[phase.index()] = cell.nanos.load(Ordering::Relaxed) as f64 / 1e9;
            totals.scopes[phase.index()] = cell.scopes.load(Ordering::Relaxed);
        }
        totals
    }
}

/// Drop guard measuring one phase region's wall time.
#[derive(Debug)]
pub struct PhaseScope {
    handle: ProfilerHandle,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.handle.record(self.phase, nanos);
    }
}

/// Aggregated wall time and scope counts per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Wall seconds per phase, indexed like [`Phase::ALL`].
    pub secs: [f64; Phase::COUNT],
    /// Scope (region) counts per phase, indexed like [`Phase::ALL`].
    pub scopes: [u64; Phase::COUNT],
}

impl PhaseTotals {
    /// Wall seconds spent in `phase`.
    pub fn secs(&self, phase: Phase) -> f64 {
        self.secs[phase.index()]
    }

    /// Number of scopes recorded for `phase`.
    pub fn scopes(&self, phase: Phase) -> u64 {
        self.scopes[phase.index()]
    }

    /// Add another cell's totals into this one (grid aggregation).
    pub fn merge(&mut self, other: &PhaseTotals) {
        for i in 0..Phase::COUNT {
            self.secs[i] += other.secs[i];
            self.scopes[i] += other.scopes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_into_shared_totals() {
        let p = ProfilerHandle::new();
        let clone = p.clone();
        {
            let _a = p.scope(Phase::Plan);
            let _b = clone.scope(Phase::Plan);
            let _c = p.scope(Phase::Des);
        }
        let t = p.totals();
        assert_eq!(t.scopes(Phase::Plan), 2);
        assert_eq!(t.scopes(Phase::Des), 1);
        assert_eq!(t.scopes(Phase::Carry), 0);
        assert!(t.secs(Phase::Plan) >= 0.0);
    }

    #[test]
    fn merge_sums_per_phase() {
        let mut a = PhaseTotals::default();
        let mut b = PhaseTotals::default();
        a.secs[0] = 1.0;
        a.scopes[0] = 2;
        b.secs[0] = 0.5;
        b.scopes[0] = 1;
        a.merge(&b);
        assert_eq!(a.secs(Phase::Plan), 1.5);
        assert_eq!(a.scopes(Phase::Plan), 3);
    }
}
