//! # clover-bench
//!
//! The evaluation harness: one binary per table/figure of the paper under
//! `src/bin/` (`fig01`–`fig16`, `table1`, `ablation_ged`, plus the
//! beyond-the-paper `fig_autoscale` elastic-fleet study and the
//! `perf_report` determinism gate), and this library of shared scaffolding
//! ([`harness`]): figure headers/rows, the standard Sec. 5.1 experiment
//! configuration, and parallel grid fan-out (`run_cells`/`run_grid`).
//! Timing lives in the repository benchmark (`python3 perfbench/run.py`).
//!
//! Environment knobs honored by the binaries:
//!
//! - `CLOVER_BENCH_SCALE` (default 1.0) scales the simulated horizon so
//!   smoke runs finish quickly; a value outside (0, 1] panics;
//! - `CLOVER_THREADS` pins the experiment-grid worker pool (results are
//!   byte-identical at any thread count);
//! - `CLOVER_LOG=quiet|info|debug` sets the tables' verbosity.

#![warn(missing_docs)]

pub mod harness;

pub use harness::*;
