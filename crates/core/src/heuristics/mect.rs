//! The Minimum Expected Completion Time heuristic (paper Sec. V-C, after
//! \[MaA99\]'s MCT adapted to stochastic completion times).

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::heuristics::{argmin_indexed, Heuristic};
use crate::shard::ClassCandidate;

/// **MECT**: assign to the feasible (core, P-state) pair minimizing the
/// expectation of the stochastic completion-time distribution,
/// `ECT(i,j,k,π,t_l,z)`. Unfiltered, it always selects `P0` (faster
/// execution strictly reduces expected completion), making it
/// energy-oblivious — exactly the behaviour the energy filter corrects.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimumExpectedCompletionTime;

impl Heuristic for MinimumExpectedCompletionTime {
    fn name(&self) -> &'static str {
        "MECT"
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
        argmin_indexed(classes, |_, est| est.ect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, Scenario};

    #[test]
    fn picks_minimum_ect() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            cand(0, PState::P0, 1.0, 30.0, 0.0, 0.0),
            cand(1, PState::P2, 1.0, 20.0, 0.0, 0.0),
            cand(1, PState::P0, 1.0, 25.0, 0.0, 0.0),
        ];
        let mut h = MinimumExpectedCompletionTime;
        assert_eq!(h.choose(&task(), &view, &cands), Some(1));
    }

    #[test]
    fn ties_break_by_candidate_order() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            cand(2, PState::P0, 1.0, 20.0, 0.0, 0.0),
            cand(3, PState::P0, 1.0, 20.0, 0.0, 0.0),
        ];
        let mut h = MinimumExpectedCompletionTime;
        assert_eq!(h.choose(&task(), &view, &cands), Some(0));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let mut h = MinimumExpectedCompletionTime;
        assert_eq!(h.choose(&task(), &view, &[]), None);
    }

    #[test]
    fn name_is_mect() {
        assert_eq!(MinimumExpectedCompletionTime.name(), "MECT");
    }
}
