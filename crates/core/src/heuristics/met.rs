//! Minimum Execution Time — the second classic \[MaA99\] baseline.

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::heuristics::{argmin_indexed, Heuristic};
use crate::shard::ClassCandidate;

/// **MET**: assign the task to the (core, P-state) pair with the smallest
/// expected *execution* time, ignoring queue state entirely (\[MaA99\]).
/// MET exploits machine heterogeneity perfectly but load-balances terribly:
/// every instance of a task type piles onto its best node. Included as a
/// literature baseline for the ablation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimumExecutionTime;

impl Heuristic for MinimumExecutionTime {
    fn name(&self) -> &'static str {
        "MET"
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
        argmin_indexed(classes, |_, est| est.eet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, Scenario};

    #[test]
    fn picks_minimum_execution_time_ignoring_queues() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            // Idle core, mediocre fit.
            cand(0, PState::P0, 50.0, 50.0, 0.0, 0.0),
            // Deep queue (huge ECT) but the best fit — MET takes it anyway.
            cand(1, PState::P0, 20.0, 900.0, 0.0, 0.0),
        ];
        let mut h = MinimumExecutionTime;
        assert_eq!(h.choose(&task(), &v, &cands), Some(1));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        assert_eq!(MinimumExecutionTime.choose(&task(), &v, &[]), None);
    }

    #[test]
    fn name_is_met() {
        assert_eq!(MinimumExecutionTime.name(), "MET");
    }
}
