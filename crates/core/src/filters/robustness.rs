//! The robustness filter (paper Sec. V-F).
//!
//! Eliminates assignments whose robustness value
//! `ρ(i,j,k,π,t_l,z)` — the probability of finishing the task by its
//! deadline — falls below a threshold. The paper found `ρ_thresh = 0.5`
//! limits the feasible set "without restricting a heuristic to only
//! high-performance (and therefore high energy consumption) P-state
//! assignments".

use ecds_pmf::Prob;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::filters::{retain_estimates, Filter, FilterCtx};
use crate::shard::ClassCandidate;

/// The paper's robustness filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessFilter {
    threshold: Prob,
}

impl RobustnessFilter {
    /// The paper's tuned threshold `ρ_thresh = 0.5`.
    pub fn paper() -> Self {
        Self { threshold: 0.5 }
    }

    /// A custom threshold in `[0, 1]`.
    pub fn with_threshold(threshold: Prob) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a probability"
        );
        Self { threshold }
    }

    /// The active threshold.
    pub fn threshold(&self) -> Prob {
        self.threshold
    }
}

impl Default for RobustnessFilter {
    fn default() -> Self {
        Self::paper()
    }
}

impl Filter for RobustnessFilter {
    fn name(&self) -> &'static str {
        "rob"
    }

    fn retain_indexed(
        &self,
        _task: &Task,
        _view: &SystemView<'_>,
        _ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    ) {
        retain_estimates(classes, |est| est.rho >= self.threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::EvaluatedCandidate;
    use crate::estimate::AssignmentEstimate;
    use ecds_cluster::PState;
    use ecds_sim::{CoreState, Scenario};
    use ecds_workload::{TaskId, TaskTypeId};

    fn candidate(rho: f64) -> EvaluatedCandidate {
        EvaluatedCandidate {
            core: 0,
            pstate: PState::P0,
            est: AssignmentEstimate {
                eet: 1.0,
                ect: 1.0,
                eec: 1.0,
                rho,
            },
        }
    }

    fn apply(filter: &RobustnessFilter, cands: &mut Vec<EvaluatedCandidate>) {
        let s = Scenario::small_for_tests(4);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let ctx = FilterCtx {
            remaining_energy: 1.0,
            budget: 1.0,
        };
        let task = Task {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 0.0,
            deadline: 100.0,
            quantile: 0.5,
        };
        filter.retain(&task, &view, &ctx, cands);
    }

    #[test]
    fn keeps_candidates_at_or_above_threshold() {
        let f = RobustnessFilter::paper();
        let mut cands = vec![candidate(0.49), candidate(0.5), candidate(0.51)];
        apply(&f, &mut cands);
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.est.rho >= 0.5));
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let f = RobustnessFilter::with_threshold(0.0);
        let mut cands = vec![candidate(0.0), candidate(1.0)];
        apply(&f, &mut cands);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn one_threshold_keeps_only_certainties() {
        let f = RobustnessFilter::with_threshold(1.0);
        let mut cands = vec![candidate(0.999), candidate(1.0)];
        apply(&f, &mut cands);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_threshold_rejected() {
        let _ = RobustnessFilter::with_threshold(1.5);
    }

    #[test]
    fn filter_name_is_rob() {
        assert_eq!(RobustnessFilter::paper().name(), "rob");
        assert_eq!(RobustnessFilter::paper().threshold(), 0.5);
    }
}
