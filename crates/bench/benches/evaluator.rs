//! Candidate-evaluator benchmarks, written to
//! `results/BENCH_evaluator.json`: the evaluator (warm prefix cache, fused
//! kernel, equivalence classes) against the per-core reference evaluator
//! (`ecds_core::reference::evaluate_all`), over the two shapes that bound
//! the class partition's behaviour, and the per-core sweep on its own at
//! scale. The `deduped` and `indexed` rows time the steady state: a warm
//! evaluator re-asked on an unchanged view.
//!
//! * `undersubscribed` — fewer tasks than cores: one node runs a
//!   just-dispatched same-type burst (bit-identical prefixes) and the
//!   other nodes idle, so the sweep collapses to roughly one class per
//!   node; this is the trial-start shape where the speedup lives.
//! * `divergent` — every core busy with a distinct load, so every core is
//!   its own class and the partition degenerates to pure bookkeeping.
//! * `idle_scaled` — thousands of idle cores of eight node templates:
//!   eight classes, so the time is almost all the sweep that regroups
//!   every core.

mod common;

use std::hint::black_box;

use common::{probe_tasks, Report};
use ecds_cluster::{ClusterGenConfig, PState};
use ecds_core::{reference, CandidateEvaluator};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{TaskId, TaskTypeId, WorkloadConfig};

/// Undersubscribed phase: a same-type burst was just dispatched to node
/// 0's cores (identical executing task and queue, started together, so
/// their queue-prefixes are bit-identical) and the rest of the machine is
/// idle. Fewer tasks in flight than cores, yet the per-core sweep pays the
/// full prefix ⊛ exec convolution on every busy core; the partition
/// collapses them to one representative per node, plus one shared idle
/// class per idle node.
fn undersubscribed_fixture() -> (Scenario, Vec<CoreState>) {
    let scenario = Scenario::small_for_tests(3);
    let cluster = scenario.cluster();
    let mut cores = vec![CoreState::new(); cluster.total_cores()];
    for (i, core) in cores.iter_mut().enumerate() {
        if cluster.core(i).node != 0 {
            continue;
        }
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(4),
            pstate: PState::P1,
            start: 0.0,
            deadline: 4000.0,
        });
        for q in 0..2 {
            core.enqueue(QueuedTask {
                task: TaskId(100 + q),
                type_id: TaskTypeId(4),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
    }
    (scenario, cores)
}

/// Fully-divergent cluster: every core busy with its own (type, start)
/// pair and a distinct queue, so no two prefixes are bit-identical and
/// every core is a singleton class.
fn divergent_fixture() -> (Scenario, Vec<CoreState>) {
    let scenario = Scenario::small_for_tests(3);
    let mut cores = vec![CoreState::new(); scenario.cluster().total_cores()];
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 10),
            pstate: PState::P1,
            start: i as f64 * 1.3,
            deadline: 4000.0,
        });
        for q in 0..2 {
            core.enqueue(QueuedTask {
                task: TaskId(100 + i * 2 + q),
                type_id: TaskTypeId((i + q + 1) % 10),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
    }
    (scenario, cores)
}

/// One fixture's rows. `classes` comes from a fresh evaluator's first
/// sweep (one event, so the count is exact, not averaged). The timed
/// `deduped` evaluator is warm after the harness's warm-up batch: the view
/// never changes, so each call's sweep hits the prefix cache on every core
/// while regrouping it; what is timed is that sweep plus one kernel job per
/// class and the replication into the candidate stream.
fn fixture(report: &mut Report, name: &str, scenario: &Scenario, cores: &[CoreState]) {
    let view = SystemView::new(scenario.cluster(), scenario.table(), cores, 500.0, 10, 60);
    let tasks = probe_tasks();
    let mut probe = CandidateEvaluator::default();
    let _ = probe.evaluate_all(&view, &tasks[0]);
    let (classes, _) = probe.dedup_stats().expect("dedup is on by default");
    let fields = [
        ("cores", scenario.cluster().total_cores()),
        ("classes", classes as usize),
    ];
    let group = format!("evaluate_all_dedup/{name}");
    let mut next = tasks.iter().cycle();
    report.measure(&group, "oracle", &fields, 500, || {
        drop(black_box(reference::evaluate_all(
            &view,
            next.next().unwrap(),
            ReductionPolicy::default(),
        )))
    });
    let mut deduped = CandidateEvaluator::default();
    let mut next = tasks.iter().cycle();
    report.measure(&group, "deduped", &fields, 500, || {
        drop(black_box(deduped.evaluate_all(&view, next.next().unwrap())))
    });
}

/// The sweep at scale: every core of `ClusterGenConfig::scaled(768, 8)`
/// (768 nodes, eight node templates) idle, so a call founds one class
/// per template and its kernel work is eight idle representatives. The
/// warm `indexed` row times `evaluate_indexed_into`, which emits no
/// per-core stream: one cache hit, one class key and one join per core,
/// plus the eight class jobs. Divided by `cores`, it bounds what the
/// regroup costs per core.
fn idle_scaled(report: &mut Report) {
    let scenario =
        Scenario::with_configs(3, ClusterGenConfig::scaled(768, 8), WorkloadConfig::paper());
    let cores = vec![CoreState::new(); scenario.cluster().total_cores()];
    let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 500.0, 10, 60);
    let tasks = probe_tasks();
    let mut evaluator = CandidateEvaluator::default();
    let mut classes = Vec::new();
    evaluator.evaluate_indexed_into(&view, &tasks[0], &mut classes);
    let fields = [("cores", cores.len()), ("classes", classes.len())];
    let mut next = tasks.iter().cycle();
    report.measure(
        "evaluate_indexed/idle_scaled",
        "indexed",
        &fields,
        50,
        || {
            black_box(evaluator.evaluate_indexed_into(&view, next.next().unwrap(), &mut classes));
        },
    );
}

fn main() {
    let mut report = Report::new("BENCH_evaluator.json");
    let (scenario, cores) = undersubscribed_fixture();
    fixture(&mut report, "undersubscribed", &scenario, &cores);
    let (scenario, cores) = divergent_fixture();
    fixture(&mut report, "divergent", &scenario, &cores);
    idle_scaled(&mut report);
    report.write();
}
