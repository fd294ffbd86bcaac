//! The scheduler: evaluate → filter → choose, plus the energy ledger.

use ecds_persist::{DecodeError, Decoder, Encoder};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{Assignment, Mapper, MapperStats, SystemView};
use ecds_workload::Task;

use crate::candidate::{per_core_classes, EvaluatedCandidate};
use crate::estimate::CandidateEvaluator;
use crate::filters::{Filter, FilterCtx};
use crate::heuristics::Heuristic;
use crate::observer::DecisionObserver;
use crate::shard::ClassCandidate;

/// An immediate-mode resource-allocation scheduler: a heuristic wrapped in
/// an (optional) filter chain, with the Sec. V-F remaining-energy ledger.
///
/// Implements [`ecds_sim::Mapper`], so it plugs directly into
/// [`ecds_sim::Simulation`]. The ledger starts at the budget each trial and
/// decrements by the expected energy consumption of every assignment made —
/// deliberately an *estimate* (idle power and actual-vs-expected deviations
/// are invisible to it), exactly as the paper prescribes.
///
/// ```
/// use ecds_core::{EnergyFilter, LightestLoad, RobustnessFilter, Scheduler};
/// use ecds_pmf::ReductionPolicy;
/// use ecds_sim::{Scenario, Simulation};
///
/// let scenario = Scenario::small_for_tests(42);
/// // Hand-assemble the paper's best configuration (the `build_scheduler`
/// // factory does the same from enums).
/// let mut scheduler = Scheduler::new(
///     Box::new(LightestLoad),
///     vec![Box::new(EnergyFilter::paper()), Box::new(RobustnessFilter::paper())],
///     scenario.energy_budget().unwrap(),
///     ReductionPolicy::default(),
/// );
/// assert_eq!(scheduler.label(), "LL/en+rob");
/// let trace = scenario.trace(0);
/// let result = Simulation::new(&scenario, &trace).run(&mut scheduler);
/// assert!(result.completed() > 0);
/// ```
pub struct Scheduler {
    heuristic: Box<dyn Heuristic>,
    filters: Vec<Box<dyn Filter>>,
    evaluator: CandidateEvaluator,
    budget: f64,
    remaining: f64,
    /// Reused per-core candidate stream, converted into `classes` when the
    /// decision runs on per-core classes.
    candidates: Vec<EvaluatedCandidate>,
    /// Reused class buffer the filters narrow and the heuristic chooses
    /// from: one assignment allocates nothing in the steady state.
    classes: Vec<ClassCandidate>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("heuristic", &self.heuristic.name())
            .field(
                "filters",
                &self.filters.iter().map(|x| x.name()).collect::<Vec<_>>(),
            )
            .field("budget", &self.budget)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl Scheduler {
    /// Assembles a scheduler. `budget` seeds the ledger (use `f64::INFINITY`
    /// for unconstrained runs); `policy` bounds convolution support sizes.
    pub fn new(
        heuristic: Box<dyn Heuristic>,
        filters: Vec<Box<dyn Filter>>,
        budget: f64,
        policy: ReductionPolicy,
    ) -> Self {
        assert!(
            budget > 0.0,
            "budget must be positive (use INFINITY to disable)"
        );
        Self {
            heuristic,
            filters,
            evaluator: CandidateEvaluator::new(policy),
            budget,
            remaining: budget,
            candidates: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Human-readable label: heuristic name plus filter names, e.g.
    /// `"LL/en+rob"` or `"MECT/none"`.
    pub fn label(&self) -> String {
        if self.filters.is_empty() {
            format!("{}/none", self.heuristic.name())
        } else {
            let names: Vec<&str> = self.filters.iter().map(|f| f.name()).collect();
            format!("{}/{}", self.heuristic.name(), names.join("+"))
        }
    }

    /// The current remaining-energy ledger value ζ(t_l).
    pub fn remaining_energy(&self) -> f64 {
        self.remaining
    }

    /// The configured budget.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// [`Mapper::assign`], reporting each stage of the decision to
    /// `observer` (see [`DecisionObserver`] for the order). The evaluator,
    /// filter and heuristic calls are the same, in the same order, whatever
    /// the observer: it sees shared references only, so it cannot change
    /// the decision. `Mapper::assign` passes `&mut ()`.
    pub fn assign_observed<O: DecisionObserver + ?Sized>(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        observer: &mut O,
    ) -> Option<Assignment> {
        let ctx = FilterCtx {
            remaining_energy: self.remaining,
            budget: self.budget,
        };
        // One selection path over classes (DESIGN.md §13): the shard
        // index's grouped classes when the heuristic may decide from them,
        // else one class per core.
        observer.evaluate_start(task);
        if self.heuristic.supports_indexed() {
            self.evaluator
                .evaluate_indexed_into(view, task, &mut self.classes);
        } else {
            self.evaluator
                .evaluate_all_into(view, task, &mut self.candidates);
            per_core_classes(view, &self.candidates, &mut self.classes);
        }
        observer.evaluate_end(&self.classes);
        for filter in &self.filters {
            observer.filter_start(filter.as_ref());
            filter.retain_indexed(task, view, &ctx, &mut self.classes);
            observer.filter_end(filter.as_ref(), &self.classes);
            if self.classes.is_empty() {
                observer.discarded(task);
                return None;
            }
        }
        observer.choose_start();
        let choice = self.heuristic.choose_indexed(task, view, &self.classes);
        observer.choose_end();
        let Some((ci, pstate)) = choice else {
            observer.discarded(task);
            return None;
        };
        let class = self.classes[ci];
        let est = class.ests[pstate.index()];
        self.remaining -= est.eec;
        let assignment = Assignment {
            core: class.min_core,
            pstate,
        };
        observer.chosen(task, &assignment, &est);
        Some(assignment)
    }
}

impl Mapper for Scheduler {
    fn on_trial_start(&mut self) {
        self.remaining = self.budget;
        self.heuristic.reset();
        // A fresh trial rebuilds every core at epoch 0, so stale entries
        // from the previous trial would collide with the new epoch stream.
        self.evaluator.reset_cache();
    }

    fn stats(&self) -> MapperStats {
        MapperStats {
            prefix_cache: self.evaluator.prefix_cache_stats(),
            fused_kernel_calls: self.evaluator.fused_kernel_calls(),
            candidate_classes: self.evaluator.dedup_stats(),
            dedup_skipped_evaluations: self.evaluator.dedup_skipped_evaluations(),
        }
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        self.assign_observed(task, view, &mut ())
    }

    fn save_state(&self, enc: &mut Encoder) {
        enc.put_f64(self.remaining);
        self.heuristic.save_state(enc);
        self.evaluator.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.remaining = dec.f64()?;
        self.heuristic.restore_state(dec)?;
        self.evaluator.restore_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::energy::EnergyFilter;
    use crate::filters::robustness::RobustnessFilter;
    use crate::heuristics::mect::MinimumExpectedCompletionTime;
    use crate::heuristics::sq::ShortestQueue;
    use ecds_cluster::PState;
    use ecds_sim::{Scenario, Simulation};

    fn unconstrained(heuristic: Box<dyn Heuristic>) -> Scheduler {
        Scheduler::new(heuristic, vec![], f64::INFINITY, ReductionPolicy::default())
    }

    #[test]
    fn unfiltered_mect_always_picks_p0() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let mut sched = unconstrained(Box::new(MinimumExpectedCompletionTime));
        let result = Simulation::new(&s, &trace).run(&mut sched);
        for o in result.outcomes() {
            let (_, pstate) = o.assignment.expect("nothing is discarded unfiltered");
            assert_eq!(pstate, PState::P0, "MECT must choose the base state");
        }
    }

    #[test]
    fn unfiltered_sq_always_picks_p0() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let mut sched = unconstrained(Box::new(ShortestQueue));
        let result = Simulation::new(&s, &trace).run(&mut sched);
        for o in result.outcomes() {
            let (_, pstate) = o.assignment.unwrap();
            assert_eq!(pstate, PState::P0, "SQ's EET tie-break selects P0");
        }
    }

    #[test]
    fn ledger_decrements_per_assignment() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let budget = s.energy_budget().unwrap();
        let mut sched = Scheduler::new(
            Box::new(MinimumExpectedCompletionTime),
            vec![],
            budget,
            ReductionPolicy::default(),
        );
        let _ = Simulation::new(&s, &trace).run(&mut sched);
        assert!(sched.remaining_energy() < budget);
    }

    #[test]
    fn trial_start_resets_ledger() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let budget = s.energy_budget().unwrap();
        let mut sched = Scheduler::new(
            Box::new(MinimumExpectedCompletionTime),
            vec![],
            budget,
            ReductionPolicy::default(),
        );
        let first = Simulation::new(&s, &trace).run(&mut sched);
        let after_first = sched.remaining_energy();
        let second = Simulation::new(&s, &trace).run(&mut sched);
        // on_trial_start resets the ledger, so runs are identical.
        assert_eq!(after_first, sched.remaining_energy());
        assert_eq!(first.outcomes(), second.outcomes());
    }

    #[test]
    fn filtered_scheduler_can_discard() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        // A budget so tiny the fair share rejects everything immediately.
        let mut sched = Scheduler::new(
            Box::new(MinimumExpectedCompletionTime),
            vec![Box::new(EnergyFilter::paper())],
            1e-6,
            ReductionPolicy::default(),
        );
        let result = Simulation::new(&s, &trace).run(&mut sched);
        assert_eq!(result.discarded(), result.window());
    }

    #[test]
    fn label_encodes_heuristic_and_filters() {
        let sched = Scheduler::new(
            Box::new(MinimumExpectedCompletionTime),
            vec![
                Box::new(EnergyFilter::paper()),
                Box::new(RobustnessFilter::paper()),
            ],
            100.0,
            ReductionPolicy::default(),
        );
        assert_eq!(sched.label(), "MECT/en+rob");
        let bare = unconstrained(Box::new(ShortestQueue));
        assert_eq!(bare.label(), "SQ/none");
    }

    /// A heuristic pinned to per-core classes: the wrapped rule, with
    /// grouped classes declined.
    struct PerCore(Box<dyn Heuristic>);

    impl Heuristic for PerCore {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn choose_indexed(
            &mut self,
            task: &Task,
            view: &SystemView<'_>,
            classes: &[ClassCandidate],
        ) -> Option<(usize, PState)> {
            self.0.choose_indexed(task, view, classes)
        }

        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// Grouped classes (the shard index) and per-core classes select the
    /// same assignments, debit the same ledger and count the same work,
    /// for every heuristic with and without the paper's filters.
    #[test]
    fn shard_indexed_selection_matches_full_scan_end_to_end() {
        use crate::factory::{build_heuristic, HeuristicKind};
        use crate::heuristics::{
            det_mect::DeterministicMct, kpb::KPercentBest, met::MinimumExecutionTime,
            olb::OpportunisticLoadBalancing,
        };
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let budget = s.energy_budget().unwrap();
        let mut heuristics: Vec<Box<dyn Fn() -> Box<dyn Heuristic>>> = HeuristicKind::ALL
            .into_iter()
            .map(|kind| {
                let s = s.clone();
                Box::new(move || build_heuristic(kind, &s, 0)) as Box<dyn Fn() -> _>
            })
            .collect();
        heuristics.push(Box::new(|| Box::new(MinimumExecutionTime)));
        heuristics.push(Box::new(|| Box::new(OpportunisticLoadBalancing)));
        heuristics.push(Box::new(|| Box::new(KPercentBest::new(20.0))));
        heuristics.push(Box::new(|| Box::new(KPercentBest::new(50.0))));
        heuristics.push(Box::new(|| Box::new(DeterministicMct)));
        for mk in &heuristics {
            for filtered in [false, true] {
                let filters = || -> Vec<Box<dyn Filter>> {
                    if filtered {
                        vec![
                            Box::new(EnergyFilter::paper()),
                            Box::new(RobustnessFilter::paper()),
                        ]
                    } else {
                        vec![]
                    }
                };
                let mut grouped =
                    Scheduler::new(mk(), filters(), budget, ReductionPolicy::default());
                let mut per_core = Scheduler::new(
                    Box::new(PerCore(mk())),
                    filters(),
                    budget,
                    ReductionPolicy::default(),
                );
                let a = Simulation::new(&s, &trace).run(&mut grouped);
                let b = Simulation::new(&s, &trace).run(&mut per_core);
                let label = grouped.label();
                assert!(a.completed() > 0, "{label}");
                assert_eq!(a.outcomes(), b.outcomes(), "{label}: selection diverged");
                assert_eq!(
                    grouped.remaining_energy().to_bits(),
                    per_core.remaining_energy().to_bits(),
                    "{label}: ledger diverged"
                );
                assert_eq!(grouped.stats(), per_core.stats(), "{label}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = Scheduler::new(
            Box::new(ShortestQueue),
            vec![],
            0.0,
            ReductionPolicy::default(),
        );
    }
}
