//! Regenerates the paper's Figures 2–6 and Sec. VII headline numbers.
//!
//! ```text
//! experiments [fig2|fig3|fig4|fig5|fig6|all] [--trials N] [--seed S]
//!             [--threads T] [--out DIR] [--small]
//! ```
//!
//! `all` (the default) runs the full 4 × 4 grid once and renders every
//! figure from it. Raw per-trial data is written to `DIR/grid.csv`
//! (default `results/`), the report to `DIR/report.md`.

use std::path::PathBuf;

use ecds_bench::cli::Cli;
use ecds_bench::report::{
    grid_csv, render_best_figure, render_full_report, render_headline_analysis,
    render_heuristic_figure,
};
use ecds_bench::{ExperimentConfig, ExperimentGrid};
use ecds_core::HeuristicKind;
use ecds_sim::Scenario;

struct Args {
    command: String,
    trials: u64,
    seed: u64,
    threads: usize,
    out: PathBuf,
    small: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        trials: 50,
        seed: 1353, // default draw; chosen because its cluster reproduces the paper's operating point (see EXPERIMENTS.md)
        threads: ecds_bench::parallel::default_threads(),
        out: PathBuf::from("results"),
        small: false,
    };
    let mut cli = Cli::from_env(
        "usage: experiments [fig2|fig3|fig4|fig5|fig6|all] \
         [--trials N] [--seed S] [--threads T] [--out DIR] [--small]",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "all" => args.command = arg,
            "--trials" => args.trials = cli.count("--trials"),
            "--seed" => args.seed = cli.value("--seed"),
            "--threads" => args.threads = cli.count("--threads"),
            "--out" => args.out = cli.value("--out"),
            "--small" => args.small = true,
            "--help" | "-h" => cli.help(),
            other => cli.fail(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scenario = if args.small {
        Scenario::small_for_tests(args.seed)
    } else {
        Scenario::paper(args.seed)
    };
    let mut config = ExperimentConfig::paper(args.seed);
    config.trials = args.trials;
    config.threads = args.threads;

    eprintln!(
        "running grid: {} heuristics × {} variants × {} trials on {} threads \
         (window {}, budget {:.3e})",
        config.kinds.len(),
        config.variants.len(),
        config.trials,
        config.threads,
        scenario.workload().window,
        scenario.energy_budget().unwrap_or(f64::INFINITY),
    );
    // Progress reporting on stderr only — never flows into the report
    // (clippy.toml / ecds-lint R2 ban the wall clock from result paths).
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let grid = ExperimentGrid::run(config, &scenario);
    eprintln!("grid finished in {:.1}s", started.elapsed().as_secs_f64());

    let report = match args.command.as_str() {
        "fig2" => render_heuristic_figure(&grid, HeuristicKind::ShortestQueue),
        "fig3" => render_heuristic_figure(&grid, HeuristicKind::Mect),
        "fig4" => render_heuristic_figure(&grid, HeuristicKind::LightestLoad),
        "fig5" => render_heuristic_figure(&grid, HeuristicKind::Random),
        "fig6" => format!(
            "{}\n{}",
            render_best_figure(&grid),
            render_headline_analysis(&grid)
        ),
        _ => render_full_report(&grid),
    };
    println!("{report}");

    std::fs::create_dir_all(&args.out).expect("create output directory");
    std::fs::write(args.out.join("grid.csv"), grid_csv(&grid)).expect("write grid.csv");
    std::fs::write(args.out.join("report.md"), &report).expect("write report.md");
    eprintln!(
        "wrote {}/grid.csv and {}/report.md",
        args.out.display(),
        args.out.display()
    );
}
