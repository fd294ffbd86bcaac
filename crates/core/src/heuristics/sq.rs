//! The Shortest Queue heuristic (paper Sec. V-B, after \[SmC09\]).

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::heuristics::{argmin_indexed, Heuristic};
use crate::shard::ClassCandidate;

/// **SQ**: assign to the feasible core with the fewest pending tasks
/// (`|MQ(i,j,k,t_l)|`); among equal queue lengths, pick the (core, P-state)
/// pair with minimum expected execution time — which, unfiltered, always
/// selects `P0` and is why unfiltered SQ burns energy (Sec. VII).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestQueue;

impl Heuristic for ShortestQueue {
    fn name(&self) -> &'static str {
        "SQ"
    }

    fn supports_indexed(&self) -> bool {
        true
    }

    fn choose_indexed(
        &mut self,
        _task: &Task,
        _view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        // Lexicographic (depth, EET): queue depth is part of the class
        // key, so every member of a class shares it.
        argmin_indexed(classes, |class, est| (class.depth, est.eet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, ExecutingTask, Scenario};
    use ecds_workload::{TaskId, TaskTypeId};

    fn view_with_busy_core0(s: &Scenario, cores: &mut [CoreState]) {
        cores[0].start(ExecutingTask {
            task: TaskId(99),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 0.0,
            deadline: 1e9,
        });
        let _ = s;
    }

    #[test]
    fn prefers_emptier_core() {
        let s = Scenario::small_for_tests(8);
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        view_with_busy_core0(&s, &mut cores);
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 10);
        let cands = vec![
            cand(0, PState::P0, 10.0, 0.0, 0.0, 0.0), // busy core, fast
            cand(1, PState::P0, 50.0, 0.0, 0.0, 0.0), // idle core, slower
        ];
        let mut h = ShortestQueue;
        assert_eq!(h.choose(&task(), &view, &cands), Some(1));
    }

    #[test]
    fn ties_break_on_minimum_eet() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 10);
        let cands = vec![
            cand(0, PState::P4, 40.0, 0.0, 0.0, 0.0),
            cand(0, PState::P0, 10.0, 0.0, 0.0, 0.0),
            cand(1, PState::P0, 12.0, 0.0, 0.0, 0.0),
        ];
        let mut h = ShortestQueue;
        // All cores idle (equal depth 0): minimum EET wins → index 1 (P0).
        assert_eq!(h.choose(&task(), &view, &cands), Some(1));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 10);
        let mut h = ShortestQueue;
        assert_eq!(h.choose(&task(), &view, &[]), None);
    }

    #[test]
    fn name_is_sq() {
        assert_eq!(ShortestQueue.name(), "SQ");
    }
}
