//! End-to-end coverage of the future-work extensions through the facade:
//! batch rescheduling, the simulator's `cancel_overdue` mode, and
//! priorities.

use ecds::ext::{
    assign_priorities, run_batch, BatchEdf, BatchMaxRho, PriorityClass, PriorityEnergyFilter,
    PriorityReport,
};
use ecds::prelude::*;

fn scenario() -> Scenario {
    Scenario::small_for_tests(1353)
}

/// Runs `trace` twice on `scenario`, once as configured and once with
/// `cancel_overdue` on, each with a freshly built mapper (a stateful
/// mapper would otherwise carry its ledger into the second run). Returns
/// `(baseline, cancelling)`.
fn paired_cancel_run<F>(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    mut build_mapper: F,
) -> (TrialResult, TrialResult)
where
    F: FnMut() -> Box<dyn Mapper>,
{
    let mut cancelling_cfg = *scenario.sim_config();
    cancelling_cfg.cancel_overdue = true;
    let cancelling_scenario = scenario.with_sim_config(cancelling_cfg);
    let baseline = Simulation::new(scenario, trace).run(build_mapper().as_mut());
    let cancelling = Simulation::new(&cancelling_scenario, trace).run(build_mapper().as_mut());
    (baseline, cancelling)
}

/// The paired run of the MECT/none mapper on trial 0 of seed 42 at
/// `budget_factor`.
fn mect_cancel_run(budget_factor: f64) -> (TrialResult, TrialResult) {
    let s = Scenario::small_for_tests(42).with_budget_factor(budget_factor);
    let trace = s.trace(0);
    paired_cancel_run(&s, &trace, || {
        build_scheduler(HeuristicKind::Mect, FilterVariant::None, &s, 0)
    })
}

#[test]
fn batch_and_immediate_agree_on_accounting_invariants() {
    let s = scenario();
    let trace = s.trace(0);
    for result in [
        run_batch(&s, &trace, &mut BatchMaxRho::default()),
        run_batch(&s, &trace, &mut BatchEdf),
    ] {
        assert_eq!(result.window(), trace.len());
        assert_eq!(result.missed() + result.completed(), result.window());
        assert!(result.total_energy() > 0.0);
        let breakdown = EnergyBreakdown::compute(&s, &result);
        assert!(
            (breakdown.busy_energy + breakdown.idle_energy - result.total_energy()).abs() < 1e-6
        );
    }
}

#[test]
fn batch_never_queues_behind_busy_cores() {
    let s = scenario();
    let trace = s.trace(2);
    let result = run_batch(&s, &trace, &mut BatchMaxRho::default());
    // In batch mode a task's start coincides with a mapping event at which
    // its core was idle; therefore start >= arrival always, and no core
    // ever runs two tasks at once (checked via span overlap).
    let mut spans: std::collections::BTreeMap<usize, Vec<(f64, f64)>> = Default::default();
    for o in result.outcomes() {
        let (Some((core, _)), Some(start), Some(end)) = (o.assignment, o.start, o.completion)
        else {
            panic!("batch mode runs everything");
        };
        assert!(start >= o.arrival);
        spans.entry(core).or_default().push((start, end));
    }
    for (_, mut s) in spans {
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].0 + 1e-9));
    }
}

#[test]
fn cancellation_report_is_consistent() {
    let s = scenario().with_budget_factor(0.4);
    let trace = s.trace(0);
    let (baseline, cancelling) = paired_cancel_run(&s, &trace, || {
        build_scheduler(HeuristicKind::Mect, FilterVariant::None, &s, 0)
    });
    assert_eq!(baseline.cancelled(), 0);
    if cancelling.cancelled() > 0 {
        assert!(cancelling.total_energy() < baseline.total_energy());
    }
}

#[test]
fn cancellation_never_runs_overdue_tasks() {
    let (_, cancelling) = mect_cancel_run(1.0);
    for outcome in cancelling.outcomes() {
        if outcome.cancelled {
            assert!(outcome.completion.is_none());
            assert!(outcome.assignment.is_some());
        }
        if let (Some(start), false) = (outcome.start, outcome.cancelled) {
            // Every task that ran started at or before its deadline.
            assert!(start <= outcome.deadline + 1e-9);
        }
    }
}

#[test]
fn cancellation_saves_energy_when_tasks_are_dropped() {
    // A starved system builds long queues; many queued tasks expire.
    let (baseline, cancelling) = mect_cancel_run(0.3);
    if cancelling.cancelled() > 0 {
        assert!(cancelling.total_energy() < baseline.total_energy());
    }
    // A cancelled task was missed in the baseline too (it started past
    // its deadline there), so cancellation cannot increase misses.
    assert!(cancelling.missed() <= baseline.missed());
}

#[test]
fn paper_faithful_run_cancels_nothing() {
    let (baseline, _) = mect_cancel_run(1.0);
    assert_eq!(baseline.cancelled(), 0);
}

#[test]
fn cancellation_runs_are_deterministic() {
    let (a_base, a_cancel) = mect_cancel_run(0.5);
    let (b_base, b_cancel) = mect_cancel_run(0.5);
    assert_eq!(a_base.missed(), b_base.missed());
    assert_eq!(a_cancel.missed(), b_cancel.missed());
    assert_eq!(a_cancel.cancelled(), b_cancel.cancelled());
}

#[test]
fn priorities_cover_the_window_and_bias_outcomes() {
    let s = scenario().with_budget_factor(0.5);
    let trace = s.trace(0);
    let priorities = assign_priorities(trace.len(), 0.3, s.seeds(), 0);
    assert_eq!(priorities.len(), trace.len());
    assert!(priorities.contains(&PriorityClass::High));
    assert!(priorities.contains(&PriorityClass::Low));

    let mut sched = Scheduler::new(
        Box::new(LightestLoad),
        vec![
            Box::new(PriorityEnergyFilter::new(priorities.clone(), 1.6, 0.5)),
            Box::new(RobustnessFilter::paper()),
        ],
        s.energy_budget().unwrap(),
        ReductionPolicy::default(),
    );
    let result = Simulation::new(&s, &trace).run(&mut sched);
    let report = PriorityReport::from_result(&result, &priorities);
    assert_eq!(report.high_total + report.low_total, trace.len());
    assert!(report.high_rate() >= report.low_rate());
}

#[test]
fn cancel_overdue_never_harms_the_same_trace() {
    // Cancellation frees cores earlier and burns less energy; with the
    // same mapper decisions it cannot lose completions. (Mapper decisions
    // can drift because queues differ; this asserts the weaker documented
    // guarantee on the reported counts for a fixed seed.)
    let s = scenario().with_budget_factor(0.3);
    let trace = s.trace(1);
    let (baseline, cancelling) = paired_cancel_run(&s, &trace, || {
        build_scheduler(HeuristicKind::ShortestQueue, FilterVariant::None, &s, 1)
    });
    assert!(cancelling.completed() + cancelling.cancelled() <= cancelling.window());
    let misses_avoided = baseline.missed() as i64 - cancelling.missed() as i64;
    assert!(misses_avoided >= -(trace.len() as i64) / 10);
}
