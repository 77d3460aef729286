//! # clover-bench
//!
//! The evaluation harness. [`figures`] holds every table and figure of the
//! paper (`fig01`–`fig16`, `table1`, `est01`, `ablation_ged`) and the
//! beyond-the-paper studies (`fig_autoscale`, `fig_flashcrowd`,
//! `fig_resilience`, `fig_georouting`) as specs, which the `figures` binary
//! runs over one deduplicated cell set: `figures fig10` renders one,
//! `figures` all of them. [`harness`] is their shared scaffolding: figure
//! headers and rows, the standard Sec. 5.1 experiment configuration, and
//! the decision-journal artifacts and gates. Timing lives in the
//! repository benchmark (`python3 perfbench/run.py`).
//!
//! Environment knobs honored by the binaries:
//!
//! - `CLOVER_BENCH_SCALE` (default 1.0) scales the simulated horizon so
//!   smoke runs finish quickly; a value outside (0, 1] panics;
//! - `CLOVER_THREADS` pins the experiment-grid worker pool (results are
//!   byte-identical at any thread count).

#![warn(missing_docs)]

pub mod figures;
pub mod harness;

pub use harness::*;
