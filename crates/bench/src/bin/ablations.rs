//! Ablation studies for the design choices DESIGN.md calls out, plus the
//! arrival-pattern variety the paper lists as future work (built from
//! `ecds_workload::BurstPattern`).
//!
//! ```text
//! ablations [zeta-mul|rho-thresh|impulse-cap|idle-downshift|arrivals|zoo|all]
//!           [--trials N] [--seed S] [--threads T] [--small]
//! ```
//!
//! Each study prints a markdown table of median missed deadlines.

use ecds_bench::cli::Cli;
use ecds_core::{
    DeterministicMct, EnergyFilter, Filter, FilterVariant, Heuristic, HeuristicKind, KPercentBest,
    MinimumExecutionTime, MinimumExpectedCompletionTime, OpportunisticLoadBalancing,
    RobustnessFilter, Scheduler, ZetaMulPolicy,
};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{Scenario, Simulation};
use ecds_stats::{BoxStats, MarkdownTable};
use ecds_workload::{default_threads, run_parallel, BurstPattern, WorkloadConfig};

struct Args {
    command: String,
    trials: u64,
    seed: u64,
    threads: usize,
    small: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        trials: 20,
        seed: 1353,
        threads: default_threads(),
        small: false,
    };
    let mut cli = Cli::from_env(
        "usage: ablations [zeta-mul|rho-thresh|impulse-cap|idle-downshift|arrivals|zoo|all] \
         [--trials N] [--seed S] [--threads T] [--small]",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "zeta-mul" | "rho-thresh" | "impulse-cap" | "idle-downshift" | "arrivals" | "zoo"
            | "all" => args.command = arg,
            "--trials" => args.trials = cli.count("--trials"),
            "--seed" => args.seed = cli.value("--seed"),
            "--threads" => args.threads = cli.count("--threads"),
            "--small" => args.small = true,
            "--help" | "-h" => cli.help(),
            other => cli.fail(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn scenario_for(args: &Args) -> Scenario {
    if args.small {
        Scenario::small_for_tests(args.seed)
    } else {
        Scenario::paper(args.seed)
    }
}

/// Runs LL with a custom scheduler builder over `trials` trials and
/// reports missed-deadline stats.
fn run_variant<F>(scenario: &Scenario, trials: u64, threads: usize, build: F) -> BoxStats
where
    F: Fn(u64) -> Box<Scheduler> + Sync,
{
    let traces: Vec<_> = (0..trials).map(|t| scenario.trace(t)).collect();
    let missed = run_parallel(trials as usize, threads, |t| {
        let mut sched = build(t as u64);
        Simulation::new(scenario, &traces[t])
            .run(sched.as_mut())
            .missed() as f64
    });
    BoxStats::from_samples(&missed).expect("non-empty")
}

fn ll_with_filters(
    scenario: &Scenario,
    filters: Vec<Box<dyn Filter>>,
    policy: ReductionPolicy,
) -> Box<Scheduler> {
    Box::new(Scheduler::new(
        Box::new(ecds_core::LightestLoad),
        filters,
        scenario.energy_budget().unwrap_or(f64::INFINITY),
        policy,
    ))
}

/// ζ_mul adaptivity: the paper's depth-adaptive schedule vs constant
/// multipliers.
fn ablate_zeta_mul(args: &Args) {
    let scenario = scenario_for(args);
    let mut table = MarkdownTable::new(&["zeta_mul policy", "median missed", "mean"]);
    let policies: Vec<(&str, ZetaMulPolicy)> = vec![
        ("adaptive (paper)", ZetaMulPolicy::paper()),
        ("constant 0.8", ZetaMulPolicy::constant(0.8)),
        ("constant 1.0", ZetaMulPolicy::constant(1.0)),
        ("constant 1.2", ZetaMulPolicy::constant(1.2)),
    ];
    for (name, policy) in policies {
        let stats = run_variant(&scenario, args.trials, args.threads, |_| {
            ll_with_filters(
                &scenario,
                vec![
                    Box::new(EnergyFilter::with_policy(policy)),
                    Box::new(RobustnessFilter::paper()),
                ],
                ReductionPolicy::default(),
            )
        });
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: energy-filter ζ_mul adaptivity (LL/en+rob)\n");
    println!("{}", table.render());
}

/// ρ_thresh sweep for the robustness filter.
fn ablate_rho_thresh(args: &Args) {
    let scenario = scenario_for(args);
    let mut table = MarkdownTable::new(&["rho_thresh", "median missed", "mean"]);
    for thresh in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let stats = run_variant(&scenario, args.trials, args.threads, |_| {
            ll_with_filters(
                &scenario,
                vec![
                    Box::new(EnergyFilter::paper()),
                    Box::new(RobustnessFilter::with_threshold(thresh)),
                ],
                ReductionPolicy::default(),
            )
        });
        table.push_row(vec![
            format!("{thresh:.2}"),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: robustness-filter threshold (LL/en+rob)\n");
    println!("{}", table.render());
}

/// Impulse-cap sensitivity: how coarse can convolution reduction get before
/// allocation quality degrades?
fn ablate_impulse_cap(args: &Args) {
    let scenario = scenario_for(args);
    let mut table = MarkdownTable::new(&["max impulses", "median missed", "mean"]);
    for cap in [2usize, 4, 8, 24, 64] {
        let stats = run_variant(&scenario, args.trials, args.threads, |_| {
            ll_with_filters(
                &scenario,
                FilterVariant::EnergyAndRobustness.build(),
                ReductionPolicy::new(cap),
            )
        });
        table.push_row(vec![
            cap.to_string(),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: convolution impulse cap (LL/en+rob)\n");
    println!("{}", table.render());
}

/// Idle P-state policy: the paper-faithful OS power manager parking idle
/// cores in P4 vs cores lingering in their last task's P-state
/// (DESIGN.md §3.2).
fn ablate_idle_downshift(args: &Args) {
    let parked = scenario_for(args);
    let mut linger_cfg = *parked.sim_config();
    linger_cfg.idle_downshift = None;
    let linger = parked.with_sim_config(linger_cfg);
    let mut table = MarkdownTable::new(&["idle policy", "median missed", "mean"]);
    for (name, scenario) in [("downshift to P4 (paper)", &parked), ("linger", &linger)] {
        let stats = run_variant(scenario, args.trials, args.threads, |trial| {
            ecds_core::build_scheduler(
                HeuristicKind::LightestLoad,
                FilterVariant::EnergyAndRobustness,
                scenario,
                trial,
            )
        });
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: idle P-state policy (LL/en+rob)\n");
    println!("{}", table.render());
}

/// Arrival-pattern variety (paper future work): constant equilibrium rate
/// vs the bursty paper pattern.
fn ablate_arrivals(args: &Args) {
    let window = if args.small { 60 } else { 1000 };
    let patterns: Vec<(&str, BurstPattern)> = vec![
        ("bursty (paper)", BurstPattern::scaled(window)),
        (
            "constant λ_eq",
            BurstPattern::constant(window, ecds_workload::arrivals::LAMBDA_EQ),
        ),
        (
            "constant λ_fast",
            BurstPattern::constant(window, ecds_workload::arrivals::LAMBDA_FAST),
        ),
        (
            "constant λ_slow",
            BurstPattern::constant(window, ecds_workload::arrivals::LAMBDA_SLOW),
        ),
    ];
    let mut table = MarkdownTable::new(&["arrival pattern", "median missed", "mean"]);
    for (name, pattern) in patterns {
        let mut wl = if args.small {
            WorkloadConfig::small_for_tests()
        } else {
            WorkloadConfig::paper()
        };
        wl.window = window;
        wl.arrivals = pattern;
        let cluster_cfg = if args.small {
            ecds_cluster::ClusterGenConfig::small_for_tests()
        } else {
            ecds_cluster::ClusterGenConfig::paper()
        };
        let scenario = Scenario::with_configs(args.seed, cluster_cfg, wl);
        let stats = run_variant(&scenario, args.trials, args.threads, |trial| {
            ecds_core::build_scheduler(
                HeuristicKind::LightestLoad,
                FilterVariant::EnergyAndRobustness,
                &scenario,
                trial,
            )
        });
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: arrival patterns (LL/en+rob)\n");
    println!("{}", table.render());
}

/// Literature-baseline zoo (\[MaA99\] family) plus the deterministic-model
/// contrast, all behind the paper's en+rob filters.
fn ablate_heuristic_zoo(args: &Args) {
    let scenario = scenario_for(args);
    let budget = scenario.energy_budget().unwrap_or(f64::INFINITY);
    let mut table = MarkdownTable::new(&["heuristic (en+rob)", "median missed", "mean"]);
    type HeuristicBuilder = fn() -> Box<dyn Heuristic>;
    let builders: Vec<(&str, HeuristicBuilder)> = vec![
        ("MECT (stochastic)", || {
            Box::new(MinimumExpectedCompletionTime)
        }),
        ("det-MCT (deterministic)", || Box::new(DeterministicMct)),
        ("OLB", || Box::new(OpportunisticLoadBalancing)),
        ("MET", || Box::new(MinimumExecutionTime)),
        ("KPB (k=20%)", || Box::new(KPercentBest::default())),
        ("KPB (k=50%)", || Box::new(KPercentBest::new(50.0))),
    ];
    for (name, build) in builders {
        let stats = run_variant(&scenario, args.trials, args.threads, |_| {
            Box::new(Scheduler::new(
                build(),
                FilterVariant::EnergyAndRobustness.build(),
                budget,
                ReductionPolicy::default(),
            ))
        });
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("## Ablation: heuristic zoo — [MaA99] baselines and the deterministic contrast\n");
    println!("{}", table.render());
}

fn main() {
    let args = parse_args();
    let run_all = args.command == "all";
    if run_all || args.command == "zeta-mul" {
        ablate_zeta_mul(&args);
    }
    if run_all || args.command == "rho-thresh" {
        ablate_rho_thresh(&args);
    }
    if run_all || args.command == "impulse-cap" {
        ablate_impulse_cap(&args);
    }
    if run_all || args.command == "idle-downshift" {
        ablate_idle_downshift(&args);
    }
    if run_all || args.command == "arrivals" {
        ablate_arrivals(&args);
    }
    if run_all || args.command == "zoo" {
        ablate_heuristic_zoo(&args);
    }
}
