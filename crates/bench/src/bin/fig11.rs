//! Fig. 11: the optimization objective over time for every carbon-aware
//! scheme plus CO2OPT — Clover should track ORACLE closely while BLOVER
//! lags and CO2OPT stays flat.

use clover_bench::{header, run_grid};
use clover_core::schedulers::SchemeKind;
use clover_models::zoo::Application;

fn main() {
    header("Fig. 11", "Objective f over time per scheme (CISO March)");
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
    let all = run_grid(&cells);
    for (app, outs) in Application::ALL.into_iter().zip(all.chunks(schemes.len())) {
        println!("--- {} ---", app.label());
        print!("{:>6}", "hour");
        for s in &schemes {
            print!(" {:>9}", s.label());
        }
        println!();
        let hours = outs[0].timeline.len();
        for h in (0..hours).step_by(4) {
            print!("{h:>6}");
            for out in outs {
                print!(" {:>9.2}", out.timeline[h].objective_f);
            }
            println!();
        }
        // Mean objective summary: the ordering the paper reports.
        print!("{:>6}", "mean");
        for out in outs {
            let mean: f64 =
                out.timeline.iter().map(|p| p.objective_f).sum::<f64>() / out.timeline.len() as f64;
            print!(" {mean:>9.2}");
        }
        println!();
        println!();
    }
    println!("(paper: CLOVER overlaps ORACLE most of the time; BLOVER worse; CO2OPT flat)");
}
