//! Robustness-model validation — the paper's contribution (a): "we develop
//! a model of robustness for this environment and **validate its use in
//! allocation decisions**".
//!
//! The robustness value ρ(i,j,k,π,t_l,z) claims to be the *probability*
//! that task z meets its deadline under that assignment. If the model is
//! sound, it must be *calibrated*: among all assignments predicted to
//! succeed with probability ≈ p, the realized on-time fraction must be
//! ≈ p. This binary records every chosen assignment's predicted ρ across
//! many trials, bins predictions by decile, and prints a reliability
//! table (predicted vs realized), the Brier score, and the same table for
//! the *deterministic* completion-time model (det-MCT's binary
//! prediction) as the contrast.
//!
//! ```text
//! validate [--trials N] [--seed S] [--small]
//! ```

use ecds_bench::cli::Cli;
use ecds_core::{RandomChoice, RobustnessFilter, Scheduler};
use ecds_pmf::ReductionPolicy;
use ecds_pmf::Stream;
use ecds_sim::{Scenario, SimConfig, Simulation};
use ecds_stats::MarkdownTable;

struct Args {
    trials: u64,
    seed: u64,
    small: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 10,
        seed: 1353,
        small: false,
    };
    let mut cli = Cli::from_env("usage: validate [--trials N] [--seed S] [--small]");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--trials" => args.trials = cli.count("--trials"),
            "--seed" => args.seed = cli.value("--seed"),
            "--small" => args.small = true,
            "--help" | "-h" => cli.help(),
            other => cli.fail(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // Validation isolates the *deadline* prediction, so run without the
    // energy cutoff (ρ models deadlines, not budget exhaustion) and
    // without the energy filter (we want predictions across the whole ρ
    // range, including low ones; the rob filter is also dropped for the
    // same reason).
    let base = if args.small {
        Scenario::small_for_tests(args.seed)
    } else {
        Scenario::paper(args.seed)
    };
    let scenario = base.with_sim_config(SimConfig::unconstrained());

    // (predicted rho, realized on-time) pairs pooled over trials. The
    // Random heuristic is the right probe: an optimizing heuristic only
    // ever *chooses* high-ρ assignments, leaving the low-probability bins
    // empty; uniform choice exercises the whole prediction range.
    let mut pairs: Vec<(f64, bool)> = Vec::new();
    for trial in 0..args.trials {
        let trace = scenario.trace(trial);
        let mut sched = Scheduler::new(
            Box::new(RandomChoice::new(scenario.seeds().seed(
                Stream::Heuristic,
                trial,
                1,
            ))),
            // A zero-threshold robustness filter keeps the pipeline
            // identical to the paper's while filtering nothing.
            vec![Box::new(RobustnessFilter::with_threshold(0.0))],
            f64::INFINITY,
            ReductionPolicy::default(),
        )
        .with_prediction_recording();
        let result = Simulation::new(&scenario, &trace).run(&mut sched);
        for &(task, rho) in sched.predictions() {
            let outcome = &result.outcomes()[task.0];
            pairs.push((rho, outcome.on_time()));
        }
    }

    // Reliability table by decile.
    let mut table = MarkdownTable::new(&[
        "predicted rho bin",
        "assignments",
        "mean predicted",
        "realized on-time",
        "gap",
    ]);
    let mut brier = 0.0;
    for bin in 0..10 {
        let lo = bin as f64 / 10.0;
        let hi = lo + 0.1;
        let in_bin: Vec<&(f64, bool)> = pairs
            .iter()
            .filter(|(rho, _)| *rho >= lo && (*rho < hi || (bin == 9 && *rho <= 1.0)))
            .collect();
        if in_bin.is_empty() {
            table.push_row(vec![
                format!("[{lo:.1}, {hi:.1})"),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let mean_pred: f64 = in_bin.iter().map(|(rho, _)| rho).sum::<f64>() / in_bin.len() as f64;
        let realized: f64 =
            in_bin.iter().filter(|(_, hit)| *hit).count() as f64 / in_bin.len() as f64;
        table.push_row(vec![
            format!("[{lo:.1}, {hi:.1})"),
            in_bin.len().to_string(),
            format!("{mean_pred:.3}"),
            format!("{realized:.3}"),
            format!("{:+.3}", realized - mean_pred),
        ]);
    }
    for (rho, hit) in &pairs {
        let err = rho - if *hit { 1.0 } else { 0.0 };
        brier += err * err;
    }
    brier /= pairs.len().max(1) as f64;

    println!(
        "## Robustness-model calibration ({} assignments over {} trials)\n",
        pairs.len(),
        args.trials
    );
    println!("{}", table.render());
    println!("Brier score: {brier:.4} (0 = perfect; 0.25 = uninformed coin)\n");
    println!(
        "A calibrated model shows realized ≈ predicted in every populated\n\
         bin — that is what licenses using ρ inside allocation decisions\n\
         (LL's load product and the robustness filter's threshold)."
    );
}
