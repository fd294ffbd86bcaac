//! Shared by the differential suites: `OracleMapper`, the reference twin of
//! `build_scheduler`, and the bit-identity comparisons of two trial results.
//!
//! Suites declare `pub mod common;` so the helpers a suite does not call
//! are not reported as dead code.
//!
//! Every `f64` is compared through `to_bits`, never float `==`, so a
//! `-0.0`/`0.0` or NaN difference cannot hide a divergence.

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

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn series_bits<T: Copy>(v: &[(f64, T)], f: impl Fn(T) -> u64) -> Vec<(u64, u64)> {
    v.iter().map(|&(t, x)| (t.to_bits(), f(x))).collect()
}

/// Task outcomes, energy, exhaustion, makespan and the telemetry series
/// must agree bit for bit. Work counters are not compared: the oracle
/// keeps no cache, runs no fused kernel and forms no classes, so it
/// reports none.
pub fn assert_semantically_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(
        a.outcomes().len(),
        b.outcomes().len(),
        "{label}: outcome count diverged"
    );
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        // Destructured so a new outcome field cannot go uncompared.
        let TaskOutcome {
            task,
            type_id,
            arrival,
            deadline,
            assignment,
            start,
            completion,
            cancelled,
        } = *x;
        assert_eq!(task, y.task, "{label}: task id order diverged");
        assert_eq!(type_id, y.type_id, "{label}: type of {task:?} diverged");
        assert_eq!(
            (arrival.to_bits(), deadline.to_bits()),
            (y.arrival.to_bits(), y.deadline.to_bits()),
            "{label}: arrival/deadline of {task:?} diverged"
        );
        assert_eq!(
            assignment, y.assignment,
            "{label}: assignment of {task:?} diverged"
        );
        assert_eq!(
            opt_bits(start),
            opt_bits(y.start),
            "{label}: start of {task:?} diverged"
        );
        assert_eq!(
            opt_bits(completion),
            opt_bits(y.completion),
            "{label}: completion of {task:?} diverged"
        );
        assert_eq!(
            cancelled, y.cancelled,
            "{label}: cancellation of {task:?} diverged"
        );
    }
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(
        opt_bits(a.exhausted_at()),
        opt_bits(b.exhausted_at()),
        "{label}: exhaustion diverged"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan diverged"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        series_bits(&ta.queue_depth, f64::to_bits),
        series_bits(&tb.queue_depth, f64::to_bits),
        "{label}: queue depth diverged"
    );
    assert_eq!(
        series_bits(&ta.busy_cores, |n| n as u64),
        series_bits(&tb.busy_cores, |n| n as u64),
        "{label}: busy cores diverged"
    );
    assert_eq!(
        series_bits(&ta.power, f64::to_bits),
        series_bits(&tb.power, f64::to_bits),
        "{label}: power timeline diverged"
    );
}

/// Everything [`assert_semantically_identical`] compares, plus the work
/// counters in `Telemetry::mapper`: the two runs made the same decisions
/// the same way.
pub fn assert_bit_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_semantically_identical(a, b, label);
    assert_eq!(
        a.telemetry().mapper,
        b.telemetry().mapper,
        "{label}: mapper stats diverged"
    );
}
