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
//! table (predicted vs realized) and the Brier score.
//!
//! The predictions are recorded by a [`DecisionObserver`] passed to
//! [`Scheduler::assign_observed`].
//!
//! ```text
//! validate [--trials N] [--seed S] [--small]
//! ```

use ecds_bench::cli::Cli;
use ecds_core::{AssignmentEstimate, DecisionObserver, RandomChoice, RobustnessFilter, Scheduler};
use ecds_pmf::ReductionPolicy;
use ecds_pmf::Stream;
use ecds_sim::{Assignment, Mapper, Scenario, SimConfig, Simulation, SystemView};
use ecds_stats::MarkdownTable;
use ecds_workload::{Task, TaskId};

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

/// The `(task, predicted ρ)` of every chosen assignment, in decision
/// order.
#[derive(Default)]
struct Predictions(Vec<(TaskId, f64)>);

impl DecisionObserver for Predictions {
    fn chosen(&mut self, task: &Task, _assignment: &Assignment, est: &AssignmentEstimate) {
        self.0.push((task.id, est.rho));
    }
}

/// A scheduler that records its predictions as it decides.
struct Recording {
    scheduler: Scheduler,
    predictions: Predictions,
}

impl Mapper for Recording {
    fn on_trial_start(&mut self) {
        self.scheduler.on_trial_start();
        self.predictions.0.clear();
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        self.scheduler
            .assign_observed(task, view, &mut self.predictions)
    }
}

/// Calibration bins: bin `b` holds the ρ in `[b/10, (b+1)/10)`, and the
/// last one also holds ρ = 1.
const BINS: usize = 10;

/// The lower and upper edge of bin `bin`. Each edge is one division of an
/// integer by 10, so bin `b`'s upper edge is bin `b + 1`'s lower edge bit
/// for bit (`lo + 0.1` would put 0.30000000000000004 above 0.3 and
/// 0.7999999999999999 below 0.8).
fn bin_edges(bin: usize) -> (f64, f64) {
    (bin as f64 / 10.0, (bin + 1) as f64 / 10.0)
}

/// The bin holding `rho`: the last one whose lower edge is at most `rho`,
/// or `None` outside [0, 1].
fn decile(rho: f64) -> Option<usize> {
    if !(0.0..=1.0).contains(&rho) {
        return None;
    }
    (0..BINS).rev().find(|&bin| bin_edges(bin).0 <= rho)
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
        let mut recording = Recording {
            scheduler: Scheduler::new(
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
            ),
            predictions: Predictions::default(),
        };
        let result = Simulation::new(&scenario, &trace).run(&mut recording);
        for &(task, rho) in &recording.predictions.0 {
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
    let mut bins: Vec<Vec<(f64, bool)>> = vec![Vec::new(); BINS];
    for &(rho, hit) in &pairs {
        if let Some(bin) = decile(rho) {
            bins[bin].push((rho, hit));
        }
    }
    for (bin, members) in bins.iter().enumerate() {
        let (lo, hi) = bin_edges(bin);
        if members.is_empty() {
            table.push_row(vec![
                format!("[{lo:.1}, {hi:.1})"),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let mean_pred: f64 = members.iter().map(|(rho, _)| rho).sum::<f64>() / members.len() as f64;
        let realized: f64 =
            members.iter().filter(|(_, hit)| *hit).count() as f64 / members.len() as f64;
        table.push_row(vec![
            format!("[{lo:.1}, {hi:.1})"),
            members.len().to_string(),
            format!("{mean_pred:.3}"),
            format!("{realized:.3}"),
            format!("{:+.3}", realized - mean_pred),
        ]);
    }
    let mut brier = 0.0;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbouring_bins_share_one_edge() {
        assert_eq!(bin_edges(0).0, 0.0);
        for bin in 1..BINS {
            assert_eq!(bin_edges(bin - 1).1.to_bits(), bin_edges(bin).0.to_bits());
        }
        assert_eq!(bin_edges(BINS - 1).1, 1.0);
    }

    /// ρ at and around every edge, as `lo + 0.1` computed them too, and on
    /// a fine grid.
    fn probes() -> Vec<f64> {
        let mut rhos: Vec<f64> = (0..=10_000).map(|i| f64::from(i) / 10_000.0).collect();
        for bin in 0..=BINS {
            let edge = bin as f64 / 10.0;
            for x in [edge, edge + 0.1, edge - 0.1, bin as f64 * 0.1] {
                rhos.extend([x, f64::from_bits(x.to_bits() + 1)]);
                if x > 0.0 {
                    rhos.push(f64::from_bits(x.to_bits() - 1));
                }
            }
        }
        rhos.retain(|rho| (0.0..=1.0).contains(rho));
        rhos
    }

    #[test]
    fn every_rho_in_the_unit_interval_lands_in_exactly_one_bin() {
        for rho in probes() {
            let bin = decile(rho).expect("rho in [0, 1] has a bin");
            let (lo, hi) = bin_edges(bin);
            assert!(
                lo <= rho && (rho < hi || (bin == BINS - 1 && rho == hi)),
                "rho {rho:e} in bin {bin} = [{lo:e}, {hi:e})"
            );
        }
        assert_eq!(decile(0.3), Some(3));
        assert_eq!(decile(0.8), Some(8));
        assert_eq!(decile(1.0), Some(BINS - 1));
        assert_eq!(decile(-0.0), Some(0));
    }

    #[test]
    fn rho_outside_the_unit_interval_lands_in_no_bin() {
        for rho in [-1e-12, f64::from_bits(1.0f64.to_bits() + 1), f64::NAN] {
            assert_eq!(decile(rho), None, "rho {rho:e}");
        }
    }
}
