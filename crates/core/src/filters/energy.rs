//! The energy filter (paper Sec. V-F, Eq. 6).
//!
//! Eliminates assignments whose expected energy consumption exceeds a "fair
//! share" of the remaining budget:
//!
//! `ζ_fair(t_l) = ζ_mul × ζ(t_l) / T_left(t_l)`
//!
//! where `ζ(t_l)` is the scheduler's remaining-energy ledger and
//! `T_left(t_l)` the tasks still to be served. The multiplier ζ_mul adapts
//! to the instantaneous average queue depth so that bursts may temporarily
//! overspend (1.2×) and lulls underspend (0.8×), banking energy for the
//! next burst.

use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::filters::{retain_estimates, Filter, FilterCtx};
use crate::shard::ClassCandidate;

/// The queue-depth-adaptive ζ_mul schedule.
///
/// The paper's tuned values: 0.8 below depth 0.8, 1.0 for depths in
/// \[0.8, 1.2\], 1.2 above (the paper leaves (1.0, 1.2) unspecified; we
/// extend the 1.0 band — DESIGN.md §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZetaMulPolicy {
    /// Depth below which the conservative multiplier applies.
    pub low_depth: f64,
    /// Depth above which the aggressive multiplier applies.
    pub high_depth: f64,
    /// Multiplier during lulls (paper: 0.8).
    pub low_mul: f64,
    /// Multiplier at equilibrium (paper: 1.0).
    pub mid_mul: f64,
    /// Multiplier during bursts (paper: 1.2).
    pub high_mul: f64,
}

impl ZetaMulPolicy {
    /// The paper's tuned schedule.
    pub fn paper() -> Self {
        Self {
            low_depth: 0.8,
            high_depth: 1.2,
            low_mul: 0.8,
            mid_mul: 1.0,
            high_mul: 1.2,
        }
    }

    /// A constant multiplier (ablation: disable adaptivity).
    pub fn constant(mul: f64) -> Self {
        assert!(mul.is_finite() && mul > 0.0, "multiplier must be positive");
        Self {
            low_depth: 0.0,
            high_depth: f64::INFINITY,
            low_mul: mul,
            mid_mul: mul,
            high_mul: mul,
        }
    }

    /// The multiplier for an observed average queue depth.
    pub fn multiplier(&self, avg_depth: f64) -> f64 {
        if avg_depth < self.low_depth {
            self.low_mul
        } else if avg_depth <= self.high_depth {
            self.mid_mul
        } else {
            self.high_mul
        }
    }
}

impl Default for ZetaMulPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

/// The paper's energy filter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyFilter {
    policy: ZetaMulPolicy,
}

impl EnergyFilter {
    /// Creates the filter with the paper's ζ_mul schedule.
    pub fn paper() -> Self {
        Self {
            policy: ZetaMulPolicy::paper(),
        }
    }

    /// Creates the filter with a custom ζ_mul schedule.
    pub fn with_policy(policy: ZetaMulPolicy) -> Self {
        Self { policy }
    }

    /// Eq. 6 for the given view and ledger: the per-task fair share.
    pub fn fair_share(&self, view: &SystemView<'_>, ctx: &FilterCtx) -> f64 {
        let mul = self.policy.multiplier(view.avg_queue_depth());
        let remaining = ctx.remaining_energy.max(0.0);
        mul * remaining / view.tasks_left() as f64
    }
}

impl Filter for EnergyFilter {
    fn name(&self) -> &'static str {
        "en"
    }

    fn retain_indexed(
        &self,
        _task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    ) {
        let fair = self.fair_share(view, ctx);
        retain_estimates(classes, |est| est.eec <= fair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::EvaluatedCandidate;
    use crate::estimate::AssignmentEstimate;
    use ecds_cluster::PState;
    use ecds_sim::{CoreState, Scenario, SystemView};
    use ecds_workload::{TaskId, TaskTypeId};

    fn candidate(eec: f64) -> EvaluatedCandidate {
        EvaluatedCandidate {
            core: 0,
            pstate: PState::P0,
            est: AssignmentEstimate {
                eet: 1.0,
                ect: 1.0,
                eec,
                rho: 1.0,
            },
        }
    }

    fn task() -> Task {
        Task {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 0.0,
            deadline: 100.0,
            quantile: 0.5,
        }
    }

    #[test]
    fn multiplier_schedule_matches_paper() {
        let p = ZetaMulPolicy::paper();
        assert_eq!(p.multiplier(0.0), 0.8);
        assert_eq!(p.multiplier(0.79), 0.8);
        assert_eq!(p.multiplier(0.8), 1.0);
        assert_eq!(p.multiplier(1.0), 1.0);
        assert_eq!(p.multiplier(1.2), 1.0);
        assert_eq!(p.multiplier(1.21), 1.2);
        assert_eq!(p.multiplier(10.0), 1.2);
    }

    #[test]
    fn constant_policy_ignores_depth() {
        let p = ZetaMulPolicy::constant(1.0);
        assert_eq!(p.multiplier(0.0), 1.0);
        assert_eq!(p.multiplier(99.0), 1.0);
    }

    #[test]
    fn retains_only_affordable_candidates() {
        let s = Scenario::small_for_tests(3);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        // Idle system → depth 0 → mul 0.8. 10 tasks left (window 10,
        // arrived 1). remaining 1000 → fair = 0.8·1000/10 = 80.
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let ctx = FilterCtx {
            remaining_energy: 1000.0,
            budget: 1000.0,
        };
        let f = EnergyFilter::paper();
        assert!((f.fair_share(&view, &ctx) - 80.0).abs() < 1e-9);
        let mut cands = vec![candidate(79.0), candidate(80.0), candidate(81.0)];
        f.retain(&task(), &view, &ctx, &mut cands);
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.est.eec <= 80.0));
    }

    #[test]
    fn exhausted_ledger_rejects_everything() {
        let s = Scenario::small_for_tests(3);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let ctx = FilterCtx {
            remaining_energy: -5.0,
            budget: 1000.0,
        };
        let f = EnergyFilter::paper();
        let mut cands = vec![candidate(0.1)];
        f.retain(&task(), &view, &ctx, &mut cands);
        assert!(cands.is_empty());
    }

    #[test]
    fn last_task_gets_full_remaining_budget() {
        let s = Scenario::small_for_tests(3);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        // arrived == window → tasks_left == 1.
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 10, 10);
        let ctx = FilterCtx {
            remaining_energy: 500.0,
            budget: 1000.0,
        };
        let f = EnergyFilter::paper();
        assert!((f.fair_share(&view, &ctx) - 0.8 * 500.0).abs() < 1e-9);
    }

    #[test]
    fn filter_name_is_en() {
        assert_eq!(EnergyFilter::paper().name(), "en");
    }
}
