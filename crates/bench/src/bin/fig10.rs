//! Fig. 10: scheme comparison — carbon saved vs accuracy gain (both
//! relative to BASE) for CO2OPT, BLOVER, CLOVER and ORACLE, per
//! application.
//!
//! Paper claims to reproduce: CO2OPT saves the most carbon with the lowest
//! accuracy; CLOVER sits closest to ORACLE and dominates BLOVER; CLOVER is
//! within ~5% of optimal carbon savings.

use clover_bench::{header, outcome_row, run_grid};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;

fn main() {
    header(
        "Fig. 10",
        "Scheme comparison: carbon save vs accuracy gain (CISO March, 48 h)",
    );
    let schemes = [
        SchemeKind::Co2Opt,
        SchemeKind::Blover,
        SchemeKind::Clover,
        SchemeKind::Oracle,
    ];
    // One parallel fan-out over the full app × scheme grid.
    let cells: Vec<_> = Application::ALL
        .into_iter()
        .flat_map(|app| schemes.map(|s| (app, s)))
        .collect();
    let outs = run_grid(&cells);
    let at = |kind| schemes.iter().position(|&s| s == kind).expect("in roster");
    let (clover, oracle) = (at(SchemeKind::Clover), at(SchemeKind::Oracle));
    for (app, rows) in Application::ALL.into_iter().zip(outs.chunks(schemes.len())) {
        println!("--- {} ---", app.label());
        for out in rows {
            outcome_row(out);
        }
        println!(
            "    CLOVER vs ORACLE carbon gap: {:.1} pp (paper: within ~5%)",
            rows[oracle].carbon_saving_pct - rows[clover].carbon_saving_pct
        );
        println!();
    }
}
