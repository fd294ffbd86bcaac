//! Shared by the evaluator differential suites: `OracleMapper`, the
//! reference twin of `build_scheduler`, and the semantic comparison of two
//! trial results.
//!
//! Only the *semantic* fields are compared: the oracle keeps no cache, runs
//! no fused kernel and forms no classes, so it reports no work counters.

use ecds::core::factory::build_heuristic;
use ecds::core::reference;
use ecds::prelude::*;

/// `Scheduler` rebuilt on the oracle: the same heuristic, filter chain and
/// energy ledger, but candidates come from `reference::evaluate_all` and
/// are selected with the full-scan `Filter::retain` and `Heuristic::choose`.
pub struct OracleMapper {
    heuristic: Box<dyn Heuristic>,
    filters: Vec<Box<dyn Filter>>,
    budget: f64,
    remaining: f64,
}

impl OracleMapper {
    /// The oracle twin of `build_scheduler(kind, variant, scenario, trial)`.
    pub fn build(
        kind: HeuristicKind,
        variant: FilterVariant,
        scenario: &Scenario,
        trial: u64,
    ) -> Self {
        let budget = scenario.energy_budget().unwrap_or(f64::INFINITY);
        Self {
            heuristic: build_heuristic(kind, scenario, trial),
            filters: variant.build(),
            budget,
            remaining: budget,
        }
    }

    /// Filters `candidates`, lets the heuristic choose, and debits the
    /// ledger — the selection half of `assign`, open to mappers that bring
    /// their own candidate stream.
    pub fn select(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        mut candidates: Vec<EvaluatedCandidate>,
    ) -> Option<Assignment> {
        let ctx = FilterCtx {
            remaining_energy: self.remaining,
            budget: self.budget,
        };
        for filter in &self.filters {
            filter.retain(task, view, &ctx, &mut candidates);
            if candidates.is_empty() {
                return None; // the task is discarded
            }
        }
        let chosen = candidates[self.heuristic.choose(task, view, &candidates)?];
        self.remaining -= chosen.est.eec;
        Some(Assignment {
            core: chosen.core,
            pstate: chosen.pstate,
        })
    }
}

impl Mapper for OracleMapper {
    fn on_trial_start(&mut self) {
        self.remaining = self.budget;
        self.heuristic.reset();
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let candidates = reference::evaluate_all(view, task, ReductionPolicy::default());
        self.select(task, view, candidates)
    }
}

/// Runs trial `trial` of `Scenario::small_for_tests(master)` twice — on
/// `build_scheduler` and on its `OracleMapper` twin — and returns
/// `(fast, oracle)`.
pub fn run_against_oracle(
    master: u64,
    trial: u64,
    kind: HeuristicKind,
    variant: FilterVariant,
) -> (TrialResult, TrialResult) {
    let scenario = Scenario::small_for_tests(master);
    let trace = scenario.trace(trial);
    let mut fast = build_scheduler(kind, variant, &scenario, trial);
    let mut oracle = OracleMapper::build(kind, variant, &scenario, trial);
    let a = Simulation::new(&scenario, &trace).run(fast.as_mut());
    let b = Simulation::new(&scenario, &trace).run(&mut oracle);
    (a, b)
}

/// Task outcomes, energy, exhaustion, makespan and the telemetry series
/// must agree bit for bit.
pub fn assert_semantically_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(a.outcomes(), b.outcomes(), "{label}: outcomes diverged");
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(
        a.exhausted_at().map(f64::to_bits),
        b.exhausted_at().map(f64::to_bits),
        "{label}: exhaustion diverged"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan diverged"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        ta.queue_depth, tb.queue_depth,
        "{label}: queue depth diverged"
    );
    assert_eq!(ta.busy_cores, tb.busy_cores, "{label}: busy cores diverged");
    assert_eq!(ta.power, tb.power, "{label}: power timeline diverged");
}
