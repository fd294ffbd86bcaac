//! A read-only window onto one decision's stages (DESIGN.md §13.6).

use ecds_sim::Assignment;
use ecds_workload::Task;

use crate::estimate::AssignmentEstimate;
use crate::filters::Filter;
use crate::shard::ClassCandidate;

/// Receives the stages of each decision
/// [`Scheduler::assign_observed`](crate::Scheduler::assign_observed) makes,
/// in order:
///
/// 1. [`evaluate_start`](Self::evaluate_start), then
///    [`evaluate_end`](Self::evaluate_end) with the evaluated classes;
/// 2. for each filter in the chain, [`filter_start`](Self::filter_start)
///    and [`filter_end`](Self::filter_end) with the surviving classes; a
///    filter that empties the set is followed directly by
///    [`discarded`](Self::discarded);
/// 3. [`choose_start`](Self::choose_start), then
///    [`choose_end`](Self::choose_end), then [`chosen`](Self::chosen) or,
///    if the heuristic declines, [`discarded`](Self::discarded).
///
/// Every method is a no-op by default, and `()` is the observer
/// [`Mapper::assign`](ecds_sim::Mapper::assign) passes. The observer gets
/// shared references only, so it cannot change the set, the ledger or the
/// choice; it holds no clock and no sink, so a harness that times stages
/// or logs decisions brings its own.
pub trait DecisionObserver {
    /// The evaluator is about to run for `task`.
    fn evaluate_start(&mut self, _task: &Task) {}

    /// The evaluator produced `classes`, the set the filters narrow.
    fn evaluate_end(&mut self, _classes: &[ClassCandidate]) {}

    /// `filter` is about to narrow the set.
    fn filter_start(&mut self, _filter: &dyn Filter) {}

    /// `filter` left `classes`.
    fn filter_end(&mut self, _filter: &dyn Filter, _classes: &[ClassCandidate]) {}

    /// The heuristic is about to choose from the surviving classes.
    fn choose_start(&mut self) {}

    /// The heuristic has chosen (or declined).
    fn choose_end(&mut self) {}

    /// `task` goes to `assignment`, whose estimates are `est`.
    fn chosen(&mut self, _task: &Task, _assignment: &Assignment, _est: &AssignmentEstimate) {}

    /// `task` is discarded.
    fn discarded(&mut self, _task: &Task) {}
}

impl DecisionObserver for () {}
