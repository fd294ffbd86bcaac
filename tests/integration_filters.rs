//! End-to-end filter semantics across the whole stack.

pub mod common;

use common::{assert_bit_identical, PerCore};
use ecds::prelude::*;

fn scenario() -> Scenario {
    Scenario::small_for_tests(1353)
}

fn run_with(
    s: &Scenario,
    heuristic: Box<dyn Heuristic>,
    filters: Vec<Box<dyn Filter>>,
    budget: f64,
) -> TrialResult {
    let trace = s.trace(0);
    let mut sched = Scheduler::new(heuristic, filters, budget, ReductionPolicy::default());
    Simulation::new(s, &trace).run(&mut sched)
}

#[test]
fn exhausted_ledger_discards_everything() {
    let s = scenario();
    // An energy filter over an (effectively) empty ledger can never find a
    // feasible assignment: every task is discarded.
    let result = run_with(
        &s,
        Box::new(MinimumExpectedCompletionTime),
        vec![Box::new(EnergyFilter::paper())],
        1e-9,
    );
    assert_eq!(result.discarded(), result.window());
    assert_eq!(result.missed(), result.window());
}

#[test]
fn zero_robustness_threshold_is_a_no_op() {
    let s = scenario();
    let budget = s.energy_budget().unwrap();
    let plain = run_with(&s, Box::new(MinimumExpectedCompletionTime), vec![], budget);
    let filtered = run_with(
        &s,
        Box::new(MinimumExpectedCompletionTime),
        vec![Box::new(RobustnessFilter::with_threshold(0.0))],
        budget,
    );
    assert_eq!(plain.outcomes(), filtered.outcomes());
}

#[test]
fn filter_order_does_not_change_the_outcome() {
    // Both filters only *retain* candidates, so chains commute.
    let s = scenario();
    let budget = s.energy_budget().unwrap();
    let en_rob = run_with(
        &s,
        Box::new(LightestLoad),
        vec![
            Box::new(EnergyFilter::paper()),
            Box::new(RobustnessFilter::paper()),
        ],
        budget,
    );
    let rob_en = run_with(
        &s,
        Box::new(LightestLoad),
        vec![
            Box::new(RobustnessFilter::paper()),
            Box::new(EnergyFilter::paper()),
        ],
        budget,
    );
    assert_eq!(en_rob.outcomes(), rob_en.outcomes());
}

#[test]
fn robustness_filter_never_retains_below_threshold() {
    // A recording heuristic that asserts the invariant on every call.
    struct AssertingHeuristic {
        threshold: f64,
    }
    impl Heuristic for AssertingHeuristic {
        fn name(&self) -> &'static str {
            "asserting"
        }
        fn choose_indexed(
            &mut self,
            task: &ecds::workload::Task,
            view: &SystemView<'_>,
            classes: &[ClassCandidate],
        ) -> Option<(usize, PState)> {
            for class in classes {
                for (est, _) in class.ests.iter().zip(class.retained).filter(|(_, r)| *r) {
                    assert!(
                        est.rho >= self.threshold,
                        "filter leaked rho {} below threshold {}",
                        est.rho,
                        self.threshold
                    );
                }
            }
            // Behave like MECT afterwards.
            MinimumExpectedCompletionTime.choose_indexed(task, view, classes)
        }
    }
    let s = scenario();
    let budget = s.energy_budget().unwrap();
    let result = run_with(
        &s,
        Box::new(AssertingHeuristic { threshold: 0.5 }),
        vec![Box::new(RobustnessFilter::paper())],
        budget,
    );
    assert_eq!(result.window(), 60);
}

#[test]
fn energy_filter_never_retains_above_fair_share() {
    // The fair share changes per mapping event; verify through the ledger
    // invariant instead: with only the energy filter, the scheduler's
    // total EEC spend cannot exceed (max multiplier) × budget.
    let s = scenario();
    let budget = s.energy_budget().unwrap();
    let trace = s.trace(0);
    let mut sched = Scheduler::new(
        Box::new(MinimumExpectedCompletionTime),
        vec![Box::new(EnergyFilter::paper())],
        budget,
        ReductionPolicy::default(),
    );
    let _ = Simulation::new(&s, &trace).run(&mut sched);
    // The ledger may not go meaningfully negative: each assignment costs at
    // most 1.2 × remaining/T_left ≤ 1.2 × remaining, so remaining can
    // undershoot zero by at most a vanishing amount once it is small; a
    // crude but effective bound:
    assert!(
        sched.remaining_energy() > -0.2 * budget,
        "ledger overspent: {}",
        sched.remaining_energy()
    );
}

#[test]
fn priority_filter_composes_with_paper_filters() {
    use ecds::ext::{assign_priorities, PriorityEnergyFilter, PriorityReport};
    let s = scenario().with_budget_factor(0.5);
    let trace = s.trace(0);
    let priorities = assign_priorities(trace.len(), 0.25, s.seeds(), 0);
    let budget = s.energy_budget().unwrap();
    let mut sched = Scheduler::new(
        Box::new(LightestLoad),
        vec![
            Box::new(PriorityEnergyFilter::new(priorities.clone(), 1.5, 0.6)),
            Box::new(RobustnessFilter::paper()),
        ],
        budget,
        ReductionPolicy::default(),
    );
    let result = Simulation::new(&s, &trace).run(&mut sched);
    let report = PriorityReport::from_result(&result, &priorities);
    assert_eq!(report.high_total + report.low_total, trace.len());
    assert!(report.high_rate() >= report.low_rate());
}

/// `ecds-ext`'s filter decides on classes like the paper's: a chain with it
/// selects, debits and counts the same on grouped classes as on per-core
/// classes.
#[test]
fn priority_chain_grouped_equals_per_core() {
    use ecds::ext::{assign_priorities, PriorityEnergyFilter};
    let s = scenario().with_budget_factor(0.5);
    let trace = s.trace(0);
    let priorities = assign_priorities(trace.len(), 0.25, s.seeds(), 0);
    let budget = s.energy_budget().unwrap();
    let schedule = |heuristic: Box<dyn Heuristic>| {
        let mut sched = Scheduler::new(
            heuristic,
            vec![
                Box::new(PriorityEnergyFilter::new(priorities.clone(), 1.5, 0.6)),
                Box::new(RobustnessFilter::paper()),
            ],
            budget,
            ReductionPolicy::default(),
        );
        let result = Simulation::new(&s, &trace).run(&mut sched);
        (result, sched.remaining_energy().to_bits())
    };
    let (grouped, grouped_ledger) = schedule(Box::new(LightestLoad));
    let (per_core, per_core_ledger) = schedule(Box::new(PerCore(Box::new(LightestLoad))));
    assert!(grouped.discarded() > 0 && grouped.completed() > 0);
    assert_bit_identical(&grouped, &per_core, "LL/prio-en+rob");
    assert_eq!(grouped_ledger, per_core_ledger);
}

#[test]
fn discarded_tasks_still_count_as_missed() {
    let s = scenario();
    let result = run_with(
        &s,
        Box::new(MinimumExpectedCompletionTime),
        vec![Box::new(EnergyFilter::paper())],
        1e-9,
    );
    assert_eq!(result.window(), result.missed());
    assert_eq!(result.completed(), 0);
}
