//! The reference evaluator: a short, deliberately naive restatement of the
//! per-assignment computation of Sec. IV-B and Sec. V-A.
//!
//! It evaluates every core independently, keeps no cache, and builds every
//! completion-time pmf with the allocating [`Pmf`] operations
//! ([`Pmf::shift`], [`Pmf::convolve`], [`Pmf::expectation`],
//! [`Pmf::prob_le`]). No production path calls it. It exists so that
//! [`CandidateEvaluator`](crate::CandidateEvaluator) — prefix cache, fused
//! kernel and shard index — can be tested bit for bit against something
//! obviously correct.

use ecds_cluster::PState;
use ecds_pmf::{Pmf, ReductionPolicy};
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::candidate::EvaluatedCandidate;
use crate::estimate::AssignmentEstimate;

/// Computes the completion-time pmf of the *last pending* task on `core` at
/// the view's time — the "queue prefix" every candidate on that core is
/// convolved with. Returns `None` for an idle, empty core (whose ready time
/// is the current time).
///
/// The executing task's execution-time pmf is shifted by its start time,
/// impulses in the past are removed and the rest renormalized (a task that
/// has outlived its entire distribution is treated as completing now);
/// queued tasks' execution-time pmfs are convolved on in FIFO order.
pub fn pending_completion_pmf(
    view: &SystemView<'_>,
    core: usize,
    policy: ReductionPolicy,
) -> Option<Pmf> {
    let state = view.core_state(core);
    let node = view.cluster().core(core).node;
    let table = view.table();
    let now = view.time();
    let mut acc: Option<Pmf> = state.executing().map(|exec| {
        let mut completion = table
            .pmf(exec.type_id, node, exec.pstate)
            .to_pmf()
            .shift(exec.start);
        completion.truncate_below_or_floor_in_place(now);
        completion
    });
    for queued in state.queued() {
        let exec_pmf = table.pmf(queued.type_id, node, queued.pstate).to_pmf();
        acc = Some(match acc {
            Some(prefix) => prefix.convolve(&exec_pmf, policy),
            // Unreachable with the bundled engine (it starts tasks on idle
            // cores immediately), but kept correct for custom engines.
            None => exec_pmf.shift(now),
        });
    }
    acc
}

/// Evaluates every (core, P-state) assignment for `task` in core-major /
/// P-state-minor order: the completion-time pmf is the core's queue prefix
/// convolved with the task's execution-time pmf (or that pmf shifted to
/// the view's time on an idle core), `ECT` and `ρ` are its expectation and
/// its mass at or before the deadline, and `EEC = EET × μ(i,π) / ε(i)`.
pub fn evaluate_all(
    view: &SystemView<'_>,
    task: &Task,
    policy: ReductionPolicy,
) -> Vec<EvaluatedCandidate> {
    let cluster = view.cluster();
    let table = view.table();
    let mut out = Vec::new();
    for core in 0..cluster.total_cores() {
        let prefix = pending_completion_pmf(view, core, policy);
        let core_id = cluster.core(core);
        let node = cluster.node_of(core_id);
        for pstate in PState::ALL {
            let exec_pmf = table.pmf(task.type_id, core_id.node, pstate).to_pmf();
            let completion = match &prefix {
                Some(p) => p.convolve(&exec_pmf, policy),
                None => exec_pmf.shift(view.time()),
            };
            let eet = table.eet(task.type_id, core_id.node, pstate);
            let est = AssignmentEstimate {
                eet,
                ect: completion.expectation(),
                eec: eet * node.power.watts(pstate) / node.efficiency,
                rho: completion.prob_le(task.deadline),
            };
            out.push(EvaluatedCandidate { core, pstate, est });
        }
    }
    out
}
