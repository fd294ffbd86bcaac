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

use crate::candidate::EvaluatedCandidate;
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

    /// Removes infeasible candidates from `candidates` in place.
    fn retain(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        candidates: &mut Vec<EvaluatedCandidate>,
    );

    /// `true` when [`Filter::retain_indexed`] reproduces this filter's
    /// feasibility decision on the equivalence-class form. Holds for any
    /// filter whose predicate depends only on the candidate's estimates
    /// and shared scheduler state (every member of a class carries
    /// bit-identical estimates). Default: `false`.
    fn supports_indexed(&self) -> bool {
        false
    }

    /// Narrows per-class P-state feasibility in place — clearing
    /// [`ClassCandidate::retained`] flags and dropping classes with no
    /// feasible P-state left — bit-identical to what [`Filter::retain`]
    /// keeps on the materialized stream. Only called when
    /// [`Filter::supports_indexed`] returns `true`.
    fn retain_indexed(
        &self,
        _task: &Task,
        _view: &SystemView<'_>,
        _ctx: &FilterCtx,
        _classes: &mut Vec<ClassCandidate>,
    ) {
        unreachable!("retain_indexed requires supports_indexed()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::mect::MinimumExpectedCompletionTime;
    use crate::scheduler::Scheduler;
    use ecds_pmf::ReductionPolicy;
    use ecds_sim::{Scenario, Simulation};

    /// A filter that keeps nothing. It has no indexed form, so the
    /// scheduler takes the full-scan path.
    struct RejectAll;
    impl Filter for RejectAll {
        fn name(&self) -> &'static str {
            "reject-all"
        }
        fn retain(
            &self,
            _task: &Task,
            _view: &SystemView<'_>,
            _ctx: &FilterCtx,
            candidates: &mut Vec<EvaluatedCandidate>,
        ) {
            candidates.clear();
        }
    }

    /// A boxed filter runs through a whole trial, and a chain that keeps
    /// nothing discards every task (the full-scan discard path).
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
