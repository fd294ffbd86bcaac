//! Opportunistic Load Balancing — a classic immediate-mode baseline from
//! the \[MaA99\] family the paper adapts its heuristics from.

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::heuristics::{argmin_indexed, Heuristic};
use crate::shard::ClassCandidate;

/// **OLB**: assign the task to the core that becomes ready soonest,
/// ignoring the task's execution time entirely (\[MaA99\]). Ready time is
/// recovered from the evaluated candidates as `ECT − EET` (the expected
/// completion of the core's pending queue). Ties break by core-major order,
/// which lands on `P0` — like SQ and MECT, OLB is energy-oblivious and
/// needs the filters to survive an energy constraint.
///
/// OLB is known to waste execution-time heterogeneity (it never looks at
/// how well the task fits the machine); it is included as a
/// literature baseline for the ablation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpportunisticLoadBalancing;

impl Heuristic for OpportunisticLoadBalancing {
    fn name(&self) -> &'static str {
        "OLB"
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
        argmin_indexed(classes, |_, est| est.ect - est.eet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, Scenario};

    fn view<'a>(s: &'a Scenario, cores: &'a [CoreState]) -> ecds_sim::SystemView<'a> {
        ecds_sim::SystemView::new(s.cluster(), s.table(), cores, 0.0, 1, 10)
    }

    #[test]
    fn picks_earliest_ready_core_ignoring_execution_time() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        let cands = vec![
            // ready = ect - eet: 100; fast task.
            cand(0, PState::P0, 10.0, 110.0, 0.0, 0.0),
            // ready = 50; slow task — OLB still prefers it.
            cand(1, PState::P0, 80.0, 130.0, 0.0, 0.0),
        ];
        let mut h = OpportunisticLoadBalancing;
        assert_eq!(h.choose(&task(), &v, &cands), Some(1));
    }

    #[test]
    fn ties_break_to_first_candidate() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        let cands = vec![
            cand(0, PState::P0, 10.0, 10.0, 0.0, 0.0),
            cand(0, PState::P4, 40.0, 40.0, 0.0, 0.0),
        ];
        let mut h = OpportunisticLoadBalancing;
        // Both ready at 0: the P0 candidate (first) wins.
        assert_eq!(h.choose(&task(), &v, &cands), Some(0));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        assert_eq!(OpportunisticLoadBalancing.choose(&task(), &v, &[]), None);
    }

    #[test]
    fn name_is_olb() {
        assert_eq!(OpportunisticLoadBalancing.name(), "OLB");
    }
}
