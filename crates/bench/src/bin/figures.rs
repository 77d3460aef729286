//! Renders the evaluation's tables and figures: `figures [NAME...]`, every
//! figure when no name is given. The selected figures' cells run once as
//! one deduplicated set, then each figure prints in turn. Exits 2 on an
//! unknown name and 1 after rendering when any figure's check failed.

use clover_bench::figures::{run, select};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let figures = select(&names).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    let failed = run(figures, clover_simkit::default_threads());
    for check in &failed {
        eprintln!("FAILED {check}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
