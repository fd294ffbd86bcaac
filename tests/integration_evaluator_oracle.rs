//! Differential proof that the evaluator's fast path — versioned prefix
//! cache, fused scratch kernel, shard-indexed equivalence classes and
//! indexed selection — is invisible: full trials run with `build_scheduler`
//! must be bit-identical (task outcomes, energy, exhaustion, makespan,
//! telemetry series) to trials run with a mapper built on the oracle,
//! `ecds::core::reference::evaluate_all`, which evaluates every core
//! independently through the allocating `Pmf` operations and selects by
//! full scan.
//!
//! Only the *semantic* fields are compared (see `common`). The suites
//! named after each fast-path layer (`integration_prefix_cache`,
//! `integration_fused_kernel`, `integration_candidate_dedup`) hold the same
//! comparison on further trials and check each layer's counters show it
//! actually ran.

pub mod common;

use common::{assert_semantically_identical, run_against_oracle, OracleMapper};
use ecds::core::reference;
use ecds::prelude::*;

/// The acceptance grid: three seeds × every heuristic × every filter
/// variant. Filters change which candidates survive to the heuristic, so
/// each chain exercises different estimate-consumption paths — including
/// argmin tie-breaks among bit-identical class members, which must keep
/// resolving to the lowest (core, P-state) a full scan emits — and the
/// energy variants run the ledger into exhaustion.
#[test]
fn fast_path_equals_oracle_across_the_grid() {
    for master in [3, 11, 29] {
        for kind in HeuristicKind::ALL {
            for variant in FilterVariant::ALL {
                let (a, b) = run_against_oracle(master, 0, kind, variant);
                assert_semantically_identical(
                    &a,
                    &b,
                    &format!("seed {master} / {kind} / {variant}"),
                );
            }
        }
    }
}

/// Later trials reuse the scheduler (and therefore the cache and the shard
/// index) across on_trial_start boundaries — stale entries must never leak
/// into the next trial.
#[test]
fn cache_does_not_leak_across_trials() {
    let scenario = Scenario::small_for_tests(13);
    let kind = HeuristicKind::LightestLoad;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut fast = build_scheduler(kind, variant, &scenario, 0);
    for trial in 0..3u64 {
        let trace = scenario.trace(trial);
        let a = Simulation::new(&scenario, &trace).run(fast.as_mut());
        let mut oracle = OracleMapper::build(kind, variant, &scenario, 0);
        let b = Simulation::new(&scenario, &trace).run(&mut oracle);
        assert_semantically_identical(&a, &b, &format!("trial {trial}"));
    }
}

/// Direct evaluator-level sweep on hand-built views with one reused
/// evaluator, whose prefix cache stays warm across views: every candidate
/// estimate over a busy view must be bit-identical to the oracle's,
/// including on a repeat of the same view (all hits), after time advances,
/// and after queue mutations.
#[test]
fn estimates_match_oracle_through_mutation_and_time() {
    use ecds::sim::{CoreState, ExecutingTask, QueuedTask};

    let s = Scenario::small_for_tests(5);
    let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
    cores[0].start(ExecutingTask {
        task: TaskId(0),
        type_id: TaskTypeId(1),
        pstate: PState::P0,
        start: 0.0,
        deadline: 9000.0,
    });
    cores[0].enqueue(QueuedTask {
        task: TaskId(1),
        type_id: TaskTypeId(2),
        pstate: PState::P3,
        deadline: 9000.0,
    });
    let task = Task {
        id: TaskId(2),
        type_id: TaskTypeId(0),
        arrival: 10.0,
        deadline: 10.0 + 4.0 * s.table().t_avg(),
        quantile: 0.5,
    };
    let policy = ReductionPolicy::default();
    let mut evaluator = CandidateEvaluator::default();

    for step in 0..4 {
        let now = 10.0 + step as f64 * 15.0;
        let view = SystemView::new(s.cluster(), s.table(), &cores, now, 3, 60);
        let oracle = reference::evaluate_all(&view, &task, policy);
        assert!(
            candidates_bit_eq(&evaluator.evaluate_all(&view, &task), &oracle),
            "diverged at t={now}"
        );
        // Second call on the same view: all-hit fast path, same answer.
        assert!(
            candidates_bit_eq(&evaluator.evaluate_all(&view, &task), &oracle),
            "warm pass diverged at t={now}"
        );
    }

    // Mutate a core between views and re-check.
    cores[1].start(ExecutingTask {
        task: TaskId(3),
        type_id: TaskTypeId(0),
        pstate: PState::P2,
        start: 60.0,
        deadline: 9000.0,
    });
    let view = SystemView::new(s.cluster(), s.table(), &cores, 70.0, 4, 60);
    assert!(
        candidates_bit_eq(
            &evaluator.evaluate_all(&view, &task),
            &reference::evaluate_all(&view, &task, policy)
        ),
        "diverged after mutation"
    );
}
