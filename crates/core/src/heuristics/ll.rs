//! The Lightest Load heuristic — the paper's new heuristic (Sec. V-D,
//! inspired by \[BaM09\]).

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::estimate::AssignmentEstimate;
use crate::heuristics::{argmin_indexed, Heuristic};
use crate::shard::ClassCandidate;

/// **LL**: define the *load* of an assignment as
///
/// `L(i,j,k,π,t_l) = EEC(i,j,k,π,z) × (1 − ρ(i,j,k,π,t_l,z))`   (Eq. 5)
///
/// — expected energy times the probability of *missing* the deadline — and
/// assign to the candidate minimizing it. The product balances the two
/// objectives: a cheap assignment that will miss (ρ ≈ 0) keeps a high load
/// (≈ EEC); an expensive assignment that will surely hit (ρ ≈ 1) drives
/// load to 0. During congestion every ρ collapses and LL degenerates to a
/// minimum-energy picker until the congestion clears — the paper's
/// explanation for unfiltered LL's mediocre showing.
#[derive(Debug, Clone, Copy, Default)]
pub struct LightestLoad;

/// Eq. 5 for one assignment's estimates.
pub fn load_value(est: &AssignmentEstimate) -> f64 {
    est.eec * (1.0 - est.rho)
}

impl Heuristic for LightestLoad {
    fn name(&self) -> &'static str {
        "LL"
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
        argmin_indexed(classes, |_, est| load_value(est))
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
    fn load_is_eec_times_miss_probability() {
        let c = cand(0, PState::P0, 1.0, 1.0, 200.0, 0.75);
        assert!((load_value(&c.est) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn certain_hit_has_zero_load() {
        let c = cand(0, PState::P0, 1.0, 1.0, 500.0, 1.0);
        assert_eq!(load_value(&c.est), 0.0);
    }

    #[test]
    fn balances_energy_against_robustness() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        let cands = vec![
            // Expensive but certain: load 0.
            cand(0, PState::P0, 1.0, 1.0, 900.0, 1.0),
            // Cheap but hopeless: load 100.
            cand(0, PState::P4, 1.0, 1.0, 100.0, 0.0),
        ];
        let mut h = LightestLoad;
        assert_eq!(h.choose(&task(), &v, &cands), Some(0));
    }

    #[test]
    fn congestion_degenerates_to_min_energy() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        // All ρ ≈ 0 (congestion): the cheapest assignment wins.
        let cands = vec![
            cand(0, PState::P0, 1.0, 1.0, 900.0, 0.01),
            cand(0, PState::P4, 1.0, 1.0, 100.0, 0.0),
            cand(1, PState::P4, 1.0, 1.0, 80.0, 0.005),
        ];
        let mut h = LightestLoad;
        assert_eq!(h.choose(&task(), &v, &cands), Some(2));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let v = view(&s, &cores);
        let mut h = LightestLoad;
        assert_eq!(h.choose(&task(), &v, &[]), None);
    }

    #[test]
    fn name_is_ll() {
        assert_eq!(LightestLoad.name(), "LL");
    }
}
