//! # clover-telemetry
//!
//! Determinism-safe observability for the Clover reproduction, with zero
//! external dependencies. Two pillars, both strict overlays on the
//! simulation (they never touch its RNG, float paths, or event order):
//!
//! - [`journal`] — a control-plane decision [`Journal`]: a structured,
//!   sim-time-stamped event stream (epoch begin, forecast, scaler decision
//!   with reason, scheduler plan, SA search summary, reconfiguration,
//!   conservation checkpoint) rendered as JSONL. Journal bytes derive only
//!   from deterministic simulation state, so the stream is byte-identical
//!   between serial and parallel runs — `tests/telemetry.rs` pins this.
//! - [`profile`] — scoped wall-clock [`ProfilerHandle`] timers around the
//!   control loop's phases (scheduler plan, SA evaluate, DES run, scaler,
//!   carry hand-off). Wall time flows only into perf aggregates (the
//!   benchmark's phase times, `tests/telemetry.rs`'s per-cell phase
//!   bound), never into journal bytes or simulation state.
//!
//! Plus [`log`](mod@log) — the [`log_line!`] leveled stdout facility the
//! bench bins use instead of ad-hoc `println!`, honoring
//! `CLOVER_LOG=quiet|info|debug`.
//!
//! The whole subsystem is toggled per experiment cell through a
//! [`TelemetrySpec`]; with everything disabled, [`Telemetry`] is a no-op
//! sink whose presence is invisible: outcome digests stay bit-identical,
//! and `tests/par_determinism.rs` gates that every pillar on keeps them
//! so.
//!
//! See `docs/observability.md` at the workspace root for the journal
//! schema and an annotated epoch example.

#![warn(missing_docs)]

pub mod journal;
pub mod log;
pub mod profile;

pub use journal::{Event, Journal};
pub use log::{log_enabled, log_level, LogLevel};
pub use profile::{Phase, PhaseScope, PhaseTotals, ProfilerHandle};

/// Which telemetry pillars an experiment cell should run with.
///
/// `Copy`, so one spec fans out across a parallel grid: each worker builds
/// its own [`Telemetry`] from the shared spec inside the cell closure,
/// which is what keeps per-cell telemetry deterministic under `par_map`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySpec {
    /// Record the control-plane decision [`Journal`].
    pub journal: bool,
    /// Time control-loop phases with a [`ProfilerHandle`].
    pub profiling: bool,
}

impl TelemetrySpec {
    /// Everything off: the no-op sink.
    pub const DISABLED: Self = Self {
        journal: false,
        profiling: false,
    };

    /// Both pillars on.
    pub const ALL: Self = Self {
        journal: true,
        profiling: true,
    };

    /// Decision journal only (the serial-vs-parallel byte-identity gate).
    pub const JOURNAL: Self = Self {
        journal: true,
        profiling: false,
    };
}

/// The per-cell telemetry sink handed through `Experiment::run_with` and
/// `CellRuntime::step`.
///
/// Every accessor returns an `Option`, `None` when that pillar is
/// disabled, so instrumentation sites cost one branch on the cold
/// (per-epoch) path and nothing on the hot (per-event) path.
#[derive(Debug, Default)]
pub struct Telemetry {
    journal: Option<Journal>,
    profiler: Option<ProfilerHandle>,
}

impl Telemetry {
    /// The no-op sink: all pillars disabled.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Build a sink with the pillars the spec enables.
    pub fn new(spec: TelemetrySpec) -> Self {
        Self {
            journal: spec.journal.then(Journal::new),
            profiler: spec.profiling.then(ProfilerHandle::new),
        }
    }

    /// The decision journal, when enabled.
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// A clone of the profiler handle, when enabled — for components that
    /// keep timing across calls (the DES evaluator, the serving simulator).
    pub fn profiler(&self) -> Option<ProfilerHandle> {
        self.profiler.clone()
    }

    /// Append an event to the journal; a no-op when the journal is off.
    ///
    /// Call sites build the [`Event`] unconditionally — event construction
    /// is a handful of formats per control epoch, far below the overhead
    /// gate — unless field rendering itself is expensive, in which case
    /// guard on [`Telemetry::journal_mut`] first.
    pub fn emit(&mut self, event: Event) {
        if let Some(j) = self.journal.as_mut() {
            j.push(event);
        }
    }

    /// Open a scoped timer for `phase`; `None` (nothing timed) when
    /// profiling is off. Bind the result so the scope spans the region:
    /// `let _t = telemetry.scope(Phase::Plan);`.
    pub fn scope(&self, phase: Phase) -> Option<PhaseScope> {
        self.profiler.as_ref().map(|p| p.scope(phase))
    }

    /// Detach the collected telemetry, leaving this sink disabled.
    ///
    /// Used by `Experiment::run_cells_with`, which builds one sink per
    /// grid cell and returns the report alongside the outcome.
    pub fn take_report(&mut self) -> TelemetryReport {
        TelemetryReport {
            journal: self.journal.take(),
            phases: self.profiler.take().map(|p| p.totals()),
        }
    }
}

/// The telemetry collected by one experiment cell, detached from the sink.
#[derive(Debug, Default)]
pub struct TelemetryReport {
    /// The cell's decision journal, when journaling was enabled.
    pub journal: Option<Journal>,
    /// Aggregated per-phase wall time, when profiling was enabled.
    pub phases: Option<PhaseTotals>,
}

impl TelemetryReport {
    /// FNV-1a digest of the journal bytes, 0 when no journal was kept.
    ///
    /// Serial and parallel runs of the same cell must produce the same
    /// digest; `tests/telemetry.rs` fails when they do not.
    pub fn journal_digest(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::digest)
    }
}
