//! The committed `results/grid.csv` is the reproduction's headline data:
//! every (heuristic, variant) cell of the paper's study at master seed
//! 1353. This suite re-runs trial 0 of that study at paper scale and pins
//! its 16 rows to the committed file, text for text, so any change on the
//! results path (kernel, evaluator, shard index, engine, report format)
//! that moves a number fails here rather than in a later regeneration.

use ecds::prelude::*;
use ecds_bench::report::grid_csv;
use ecds_bench::{ExperimentConfig, ExperimentGrid};

const COMMITTED: &str = include_str!("../results/grid.csv");

/// The header plus every row of trial 0, in file order.
fn trial_zero_rows(csv: &str) -> Vec<&str> {
    csv.lines()
        .enumerate()
        .filter(|(i, line)| *i == 0 || line.split(',').nth(2) == Some("0"))
        .map(|(_, line)| line)
        .collect()
}

#[test]
fn trial_zero_of_the_paper_grid_matches_the_committed_csv() {
    let grid = ExperimentGrid::run(ExperimentConfig::smoke(1353, 1), &Scenario::paper(1353));
    let committed = trial_zero_rows(COMMITTED);
    assert_eq!(committed.len(), 1 + 16, "header plus one row per cell");
    assert_eq!(grid_csv(&grid).lines().collect::<Vec<_>>(), committed);
}
