//! End-to-end determinism: the entire study — cluster generation, pmf
//! tables, traces, scheduling, simulation, energy accounting — must
//! reproduce bit-for-bit from one master seed.

use ecds::prelude::*;

fn run_cell(master: u64, trial: u64, kind: HeuristicKind, variant: FilterVariant) -> TrialResult {
    let scenario = Scenario::small_for_tests(master);
    let trace = scenario.trace(trial);
    let mut mapper = build_scheduler(kind, variant, &scenario, trial);
    Simulation::new(&scenario, &trace).run(mapper.as_mut())
}

#[test]
fn identical_seeds_reproduce_identical_results() {
    for kind in HeuristicKind::ALL {
        let a = run_cell(9, 0, kind, FilterVariant::EnergyAndRobustness);
        let b = run_cell(9, 0, kind, FilterVariant::EnergyAndRobustness);
        assert_eq!(a.outcomes(), b.outcomes(), "{kind} diverged");
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.exhausted_at(), b.exhausted_at());
        assert_eq!(a.makespan(), b.makespan());
    }
}

#[test]
fn different_master_seeds_differ() {
    let a = run_cell(9, 0, HeuristicKind::Mect, FilterVariant::None);
    let b = run_cell(10, 0, HeuristicKind::Mect, FilterVariant::None);
    assert_ne!(a.outcomes(), b.outcomes());
}

#[test]
fn different_trials_differ_under_one_seed() {
    let a = run_cell(9, 0, HeuristicKind::Mect, FilterVariant::None);
    let b = run_cell(9, 1, HeuristicKind::Mect, FilterVariant::None);
    assert_ne!(a.outcomes(), b.outcomes());
}

#[test]
fn scheduler_reuse_across_trials_is_stateless() {
    // Reusing one scheduler across trials (the ledger resets via
    // on_trial_start) must equal building a fresh one per trial.
    let scenario = Scenario::small_for_tests(3);
    let trace0 = scenario.trace(0);
    let trace1 = scenario.trace(1);

    let mut reused = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
        &scenario,
        0,
    );
    let _ = Simulation::new(&scenario, &trace0).run(reused.as_mut());
    let second_with_reuse = Simulation::new(&scenario, &trace1).run(reused.as_mut());

    let mut fresh = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
        &scenario,
        0,
    );
    let second_fresh = Simulation::new(&scenario, &trace1).run(fresh.as_mut());
    assert_eq!(second_with_reuse.outcomes(), second_fresh.outcomes());
}

#[test]
fn random_heuristic_is_reproducible_per_trial_index() {
    let a = run_cell(4, 2, HeuristicKind::Random, FilterVariant::None);
    let b = run_cell(4, 2, HeuristicKind::Random, FilterVariant::None);
    assert_eq!(a.outcomes(), b.outcomes());
    let c = run_cell(4, 3, HeuristicKind::Random, FilterVariant::None);
    assert_ne!(a.outcomes(), c.outcomes());
}

#[test]
fn parallel_trials_are_deterministic_across_thread_counts() {
    // Fan the same trial set out over 1 thread and over the machine's full
    // parallelism. Schedulers (with the prefix cache enabled — the factory
    // default) are built per work item, so per-trial results must be
    // bit-identical no matter how work lands on threads.
    use ecds_workload::{default_threads, run_parallel};

    let scenario = Scenario::small_for_tests(23);
    let traces: Vec<_> = (0..6u64).map(|t| scenario.trace(t)).collect();
    let run_all = |threads: usize| {
        run_parallel(traces.len(), threads, |idx| {
            let mut mapper = build_scheduler(
                HeuristicKind::LightestLoad,
                FilterVariant::EnergyAndRobustness,
                &scenario,
                idx as u64,
            );
            Simulation::new(&scenario, &traces[idx]).run(mapper.as_mut())
        })
    };
    let serial = run_all(1);
    let parallel = run_all(default_threads());
    assert_eq!(serial.len(), parallel.len());
    for (trial, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.outcomes(), b.outcomes(), "trial {trial} diverged");
        assert_eq!(a.total_energy(), b.total_energy(), "trial {trial} energy");
        assert_eq!(a.makespan(), b.makespan(), "trial {trial} makespan");
        assert_eq!(
            a.telemetry(),
            b.telemetry(),
            "trial {trial} telemetry (including cache counters) diverged"
        );
    }
}

#[test]
fn scenario_artifacts_are_stable() {
    let a = Scenario::small_for_tests(77);
    let b = Scenario::small_for_tests(77);
    assert_eq!(a.cluster(), b.cluster());
    assert_eq!(a.energy_budget(), b.energy_budget());
    assert_eq!(a.table().t_avg(), b.table().t_avg());
    assert_eq!(a.trace(5), b.trace(5));
}
