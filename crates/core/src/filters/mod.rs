//! Filtering mechanisms (paper Sec. V-F).
//!
//! A filter "restrict\[s\] the set of feasible assignments a heuristic can
//! consider", adding energy-awareness and/or robustness-awareness to *any*
//! heuristic. Filters compose: the scheduler applies them in order, and if
//! the chain eliminates every candidate the task is discarded. The paper's
//! central result is that filter choice moves performance more than
//! heuristic choice.

pub mod energy;
pub mod robustness;

use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::candidate::{per_core_classes, retain_stream, EvaluatedCandidate};
use crate::estimate::AssignmentEstimate;
use crate::shard::ClassCandidate;

/// Scheduler state a filter may consult.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterCtx {
    /// ζ(t_l): the heuristic's running estimate of remaining energy — the
    /// budget minus the EEC of every assignment made so far. This is the
    /// *scheduler's* ledger, not ground-truth consumption (Sec. V-F).
    pub remaining_energy: f64,
    /// ζ_max: the total budget for the window.
    pub budget: f64,
}

/// A feasible-set filter.
pub trait Filter: Send {
    /// Short name used in figures ("en", "rob").
    fn name(&self) -> &'static str;

    /// Narrows `classes` in place: clears the [`ClassCandidate::retained`]
    /// flag of every infeasible (class, P-state) pair and drops classes
    /// with no feasible P-state left ([`retain_estimates`] does both). The
    /// classes are grouped or per-core (DESIGN.md §13), so the predicate
    /// must hold for every member of a class alike: it may read the
    /// estimates, `depth`, the task and shared scheduler state.
    fn retain_indexed(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    );

    /// Always `true`: every filter decides on classes. Exists only for
    /// `perfbench`'s `TracedScheduler` until ROADMAP item 1(0) moves it
    /// onto [`Scheduler`](crate::Scheduler).
    fn supports_indexed(&self) -> bool {
        true
    }

    /// [`Filter::retain_indexed`] on a candidate stream: converts it to
    /// per-core classes, narrows them, and keeps the candidates whose
    /// (class, P-state) pair survived. Exists only for `perfbench`'s
    /// `TracedScheduler` until ROADMAP item 1(0) moves it onto
    /// [`Scheduler`](crate::Scheduler).
    fn retain(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        candidates: &mut Vec<EvaluatedCandidate>,
    ) {
        let mut classes = Vec::new();
        per_core_classes(view, candidates, &mut classes);
        let before = classes.clone();
        self.retain_indexed(task, view, ctx, &mut classes);
        retain_stream(candidates, &before, &classes);
    }
}

/// Keeps the (class, P-state) pairs whose estimates satisfy `keep` and
/// drops classes with none left — a per-assignment predicate applied to
/// the class form.
pub fn retain_estimates(
    classes: &mut Vec<ClassCandidate>,
    mut keep: impl FnMut(&AssignmentEstimate) -> bool,
) {
    for class in classes.iter_mut() {
        for (retained, est) in class.retained.iter_mut().zip(&class.ests) {
            *retained = *retained && keep(est);
        }
    }
    classes.retain(ClassCandidate::any_retained);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::mect::MinimumExpectedCompletionTime;
    use crate::scheduler::Scheduler;
    use ecds_pmf::ReductionPolicy;
    use ecds_sim::{Scenario, Simulation};

    /// A filter that keeps nothing.
    struct RejectAll;
    impl Filter for RejectAll {
        fn name(&self) -> &'static str {
            "reject-all"
        }
        fn retain_indexed(
            &self,
            _task: &Task,
            _view: &SystemView<'_>,
            _ctx: &FilterCtx,
            classes: &mut Vec<ClassCandidate>,
        ) {
            classes.clear();
        }
    }

    /// A boxed filter runs through a whole trial, and a chain that keeps
    /// nothing discards every task.
    #[test]
    fn filters_are_object_safe() {
        let s = Scenario::small_for_tests(12);
        let trace = s.trace(0);
        let mut sched = Scheduler::new(
            Box::new(MinimumExpectedCompletionTime),
            vec![Box::new(RejectAll)],
            f64::INFINITY,
            ReductionPolicy::default(),
        );
        let result = Simulation::new(&s, &trace).run(&mut sched);
        assert!(!result.outcomes().is_empty());
        assert_eq!(result.discarded(), result.outcomes().len());
    }
}
