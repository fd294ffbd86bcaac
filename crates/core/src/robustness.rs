//! The system robustness metric ρ(t_l) (paper Sec. IV-C, Eqs. 3–4).
//!
//! An allocation's robustness at time-step `t_l` is the *expected number of
//! tasks that will complete by their individual deadlines*, predicted at
//! `t_l`. Tasks on different cores are independent, so the metric decomposes
//! into per-core sums (Eq. 3) totalled over the cluster (Eq. 4). The
//! immediate-mode corollary the heuristics exploit: assigning an arriving
//! task where its own on-time probability is highest maximizes ρ(t_l).
//!
//! This module exists to *validate* the robustness model (the paper's
//! contribution (a)): integration tests check that ρ(t_l) computed mid-run
//! predicts the realized on-time completions.

use ecds_pmf::{Prob, ReductionPolicy};
use ecds_sim::SystemView;

/// Eq. 3: `ρ(i,j,k,t_l)` — the expected number of on-time completions among
/// the tasks pending (executing or queued) on `core`, predicted at the
/// view's time.
///
/// Walks the core's FIFO queue, maintaining each task's completion-time pmf
/// exactly as Sec. IV-B prescribes, and sums `P(completion ≤ deadline)`.
pub fn core_robustness(view: &SystemView<'_>, core: usize, policy: ReductionPolicy) -> Prob {
    let state = view.core_state(core);
    let node = view.cluster().core(core).node;
    let table = view.table();
    let now = view.time();

    let mut total = 0.0;
    let mut prefix = match state.executing() {
        Some(exec) => {
            let completion = table
                .pmf(exec.type_id, node, exec.pstate)
                .to_pmf()
                .shift(exec.start)
                .truncate_below_or_floor(now);
            total += completion.prob_le(exec.deadline);
            Some(completion)
        }
        None => None,
    };
    for queued in state.queued() {
        let exec_pmf = table.pmf(queued.type_id, node, queued.pstate).to_pmf();
        let completion = match prefix {
            Some(p) => p.convolve(&exec_pmf, policy),
            None => exec_pmf.shift(now),
        };
        total += completion.prob_le(queued.deadline);
        prefix = Some(completion);
    }
    total
}

/// Eq. 4: `ρ(t_l)` — the cluster-wide expected number of on-time
/// completions among all pending tasks.
pub fn system_robustness(view: &SystemView<'_>, policy: ReductionPolicy) -> Prob {
    (0..view.cluster().total_cores())
        .map(|core| core_robustness(view, core, policy))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_cluster::PState;
    use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario};
    use ecds_workload::{TaskId, TaskTypeId};

    fn scenario() -> Scenario {
        Scenario::small_for_tests(33)
    }

    #[test]
    fn empty_system_has_zero_robustness() {
        let s = scenario();
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 0, 60);
        assert_eq!(system_robustness(&view, ReductionPolicy::default()), 0.0);
    }

    #[test]
    fn single_task_with_loose_deadline_contributes_nearly_one() {
        let s = scenario();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 0.0,
            deadline: 1e9,
        });
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let rho = system_robustness(&view, ReductionPolicy::default());
        assert!((rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hopeless_deadline_contributes_zero() {
        let s = scenario();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P4,
            start: 0.0,
            deadline: 0.5, // already unmeetable at t_l = 1
        });
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        assert_eq!(system_robustness(&view, ReductionPolicy::default()), 0.0);
    }

    #[test]
    fn system_is_sum_of_cores() {
        let s = scenario();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        let deadline = 1e6;
        cores[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 0.0,
            deadline,
        });
        if cores.len() > 1 {
            cores[1].start(ExecutingTask {
                task: TaskId(1),
                type_id: TaskTypeId(2),
                pstate: PState::P2,
                start: 0.0,
                deadline,
            });
        }
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 1.0, 2, 60);
        let policy = ReductionPolicy::default();
        let by_core: f64 = (0..cores.len())
            .map(|c| core_robustness(&view, c, policy))
            .sum();
        assert!((system_robustness(&view, policy) - by_core).abs() < 1e-12);
    }

    #[test]
    fn queued_task_with_tight_deadline_lowers_contribution() {
        let s = scenario();
        let node = s.cluster().core(0).node;
        let eet0 = s.table().eet(TaskTypeId(0), node, PState::P0);
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 0.0,
            deadline: 1e9,
        });
        // Queued task must wait ~eet0 then run; a deadline under eet0 is
        // nearly hopeless, a deadline of 10× is nearly certain.
        cores[0].enqueue(QueuedTask {
            task: TaskId(1),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: eet0 * 0.5,
        });
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 2, 60);
        let tight = core_robustness(&view, 0, ReductionPolicy::default());

        let mut cores2 = vec![CoreState::new(); s.cluster().total_cores()];
        cores2[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 0.0,
            deadline: 1e9,
        });
        cores2[0].enqueue(QueuedTask {
            task: TaskId(1),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: eet0 * 10.0,
        });
        let view2 = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores2, 0.0, 2, 60);
        let loose = core_robustness(&view2, 0, ReductionPolicy::default());

        assert!(loose > tight);
        assert!(loose > 1.5, "loose {loose}");
        assert!(tight < 1.5, "tight {tight}");
    }

    #[test]
    fn robustness_bounded_by_pending_count() {
        let s = scenario();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        cores[0].start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(0),
            pstate: PState::P1,
            start: 0.0,
            deadline: 1e9,
        });
        for i in 1..4 {
            cores[0].enqueue(QueuedTask {
                task: TaskId(i),
                type_id: TaskTypeId(0),
                pstate: PState::P1,
                deadline: 1e9,
            });
        }
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 4, 60);
        let rho = system_robustness(&view, ReductionPolicy::default());
        assert!(rho <= 4.0 + 1e-9);
        assert!(rho > 3.9, "all deadlines are loose: {rho}");
    }
}
