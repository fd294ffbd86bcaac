//! Experiment harness regenerating the paper's evaluation (Figures 2–6 and
//! the Sec. VII headline numbers), plus ablation studies.
//!
//! The paper's full study is a 4 × 4 grid — {SQ, MECT, LL, Random} ×
//! {none, en, rob, en+rob} — of 50 simulation trials each, summarized as
//! box-and-whiskers plots of missed deadlines. [`ExperimentGrid`] runs that
//! grid (trials fan out across threads; every cell shares the same 50
//! traces so comparisons are paired), and [`report`] renders each figure as
//! an ASCII box plot, a markdown table, and CSV.
//!
//! Binaries:
//!
//! * `experiments` — regenerates Figures 2–6 (`cargo run --release -p
//!   ecds-bench --bin experiments -- all`),
//! * `ablations` — our extension studies (ζ_mul adaptivity, ρ_thresh sweep,
//!   impulse-cap sensitivity, idle downshift, arrival patterns),
//! * `validate` — the robustness model's calibration table.
//!
//! All three parse their arguments through [`cli::Cli`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiment;
pub mod report;

pub use experiment::{CellResult, ExperimentConfig, ExperimentGrid};
