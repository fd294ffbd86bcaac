//! Quick paper-shape diagnostic: runs the full 16-cell grid for a given
//! master seed and a handful of trials, printing mean missed deadlines per
//! cell — the tool used to calibrate the default experiment seed (see
//! EXPERIMENTS.md "Seed choice").
//!
//! ```text
//! cargo run --release -p ecds-bench --example diag -- <seed> <trials>
//! ```
use ecds_core::{build_scheduler, FilterVariant, HeuristicKind};
use ecds_sim::{Scenario, Simulation};
use ecds_workload::run_parallel;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2011);
    let trials: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let scenario = Scenario::paper(seed);
    println!(
        "seed={seed} cores={} t_avg={:.0} budget={:.3e}",
        scenario.cluster().total_cores(),
        scenario.table().t_avg(),
        scenario.energy_budget().unwrap()
    );
    let traces: Vec<_> = (0..trials).map(|t| scenario.trace(t)).collect();
    let mut cells = Vec::new();
    for k in HeuristicKind::ALL {
        for v in FilterVariant::ALL {
            cells.push((k, v));
        }
    }
    let rows = run_parallel(cells.len() * trials as usize, 1, |i| {
        let (ci, t) = (i / trials as usize, i % trials as usize);
        let (k, v) = cells[ci];
        let mut s = build_scheduler(k, v, &scenario, t as u64);
        let r = Simulation::new(&scenario, &traces[t]).run(s.as_mut());
        (ci, r.missed())
    });
    for (ci, &(k, v)) in cells.iter().enumerate() {
        let m: Vec<usize> = rows
            .iter()
            .filter(|(c, _)| *c == ci)
            .map(|(_, m)| *m)
            .collect();
        let mean = m.iter().sum::<usize>() as f64 / m.len() as f64;
        println!(
            "{:>8}/{:<7} mean_missed={:6.1} {:?}",
            k.label(),
            v.label(),
            mean,
            m
        );
    }
}
