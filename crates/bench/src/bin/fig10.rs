//! Fig. 10: scheme comparison — carbon saved vs accuracy gain (both
//! relative to BASE) for CO2OPT, BLOVER, CLOVER and ORACLE, per
//! application.
//!
//! Paper claims to reproduce: CO2OPT saves the most carbon with the lowest
//! accuracy; CLOVER sits closest to ORACLE and dominates BLOVER; CLOVER is
//! within ~5% of optimal carbon savings.

use clover_bench::{header, outcome_row, run_grid, schemes_from_env};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;

fn main() {
    header(
        "Fig. 10",
        "Scheme comparison: carbon save vs accuracy gain (CISO March, 48 h)",
    );
    // `CLOVER_SCHEMES=BASE,CLOVER,...` (scheme labels) overrides the
    // paper's roster.
    let schemes = schemes_from_env(&[
        SchemeKind::Co2Opt,
        SchemeKind::Blover,
        SchemeKind::Clover,
        SchemeKind::Oracle,
    ]);
    // One parallel fan-out over the full app × scheme grid.
    let cells: Vec<_> = Application::ALL
        .into_iter()
        .flat_map(|app| schemes.clone().into_iter().map(move |s| (app, s)))
        .collect();
    let outs = run_grid(&cells);
    for (app, rows) in Application::ALL.into_iter().zip(outs.chunks(schemes.len())) {
        println!("--- {} ---", app.label());
        let mut clover_save = None;
        let mut oracle_save = None;
        for (scheme, out) in schemes.iter().zip(rows) {
            outcome_row(out);
            match scheme {
                SchemeKind::Clover => clover_save = Some(out.carbon_saving_pct),
                SchemeKind::Oracle => oracle_save = Some(out.carbon_saving_pct),
                _ => {}
            }
        }
        // The headline gap needs both schemes in the roster (a
        // CLOVER_SCHEMES override may drop either).
        if let (Some(clover), Some(oracle)) = (clover_save, oracle_save) {
            println!(
                "    CLOVER vs ORACLE carbon gap: {:.1} pp (paper: within ~5%)",
                oracle - clover
            );
        }
        println!();
    }
}
