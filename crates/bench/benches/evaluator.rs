//! Candidate-evaluator benchmarks: the evaluator (warm prefix cache,
//! fused kernel, equivalence classes) against the per-core reference
//! evaluator (`ecds_core::reference::evaluate_all`), over the two shapes
//! that bound the class partition's behaviour.
//!
//! * `undersubscribed` — fewer tasks than cores: one node runs a
//!   just-dispatched same-type burst (bit-identical prefixes) and the
//!   other nodes idle, so the sweep collapses to roughly one class per
//!   node; this is the trial-start shape where the speedup lives.
//! * `divergent` — every core busy with a distinct load, so every core is
//!   its own class and the partition degenerates to pure bookkeeping.

mod common;

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use ecds_cluster::PState;
use ecds_core::{reference, CandidateEvaluator};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};

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

fn probe_task() -> Task {
    Task {
        id: TaskId(50),
        type_id: TaskTypeId(5),
        arrival: 500.0,
        deadline: 3000.0,
        quantile: 0.5,
    }
}

fn bench_fixture(c: &mut Criterion, name: &str, scenario: &Scenario, cores: &[CoreState]) {
    let view = SystemView::new(scenario.cluster(), scenario.table(), cores, 500.0, 10, 60);
    let task = probe_task();
    let mut group = c.benchmark_group(format!("evaluate_all_dedup/{name}"));
    group.bench_function("oracle", |b| {
        b.iter(|| {
            black_box(reference::evaluate_all(
                &view,
                &task,
                ReductionPolicy::default(),
            ))
        })
    });
    group.bench_function("deduped", |b| {
        let mut evaluator = CandidateEvaluator::default();
        let _ = evaluator.evaluate_all(&view, &task);
        b.iter(|| black_box(evaluator.evaluate_all(&view, &task)))
    });
    group.finish();
}

fn bench_evaluator_vs_oracle(c: &mut Criterion) {
    let (scenario, cores) = undersubscribed_fixture();
    bench_fixture(c, "undersubscribed", &scenario, &cores);
    let (scenario, cores) = divergent_fixture();
    bench_fixture(c, "divergent", &scenario, &cores);
}

/// Hand-rolled median measurement feeding `results/BENCH_evaluator.json`;
/// the vendored criterion reports mean/min/max only. In smoke mode (no
/// `--bench` flag, i.e. `cargo test --benches`) every measured closure
/// still runs once so the JSON path can't bit-rot, but no file is written.
mod evaluator_json {
    use super::*;
    use crate::common::{measure, SAMPLES};

    /// One fixture row: classes come from a fresh deduplicating evaluator's
    /// first sweep (one event, so the class count is exact, not averaged).
    fn row(name: &str, scenario: &Scenario, cores: &[CoreState], bench_mode: bool) -> String {
        let view = SystemView::new(scenario.cluster(), scenario.table(), cores, 500.0, 10, 60);
        let task = probe_task();
        let n = scenario.cluster().total_cores();

        let mut probe = CandidateEvaluator::default();
        let _ = probe.evaluate_all(&view, &task);
        let (classes, _) = probe.dedup_stats().expect("dedup is on by default");

        let oracle = measure(
            || {
                drop(black_box(reference::evaluate_all(
                    &view,
                    &task,
                    ReductionPolicy::default(),
                )))
            },
            500,
            bench_mode,
        );
        let mut deduped_eval = CandidateEvaluator::default();
        let _ = deduped_eval.evaluate_all(&view, &task);
        let deduped = measure(
            || drop(black_box(deduped_eval.evaluate_all(&view, &task))),
            500,
            bench_mode,
        );
        format!(
            "    {{\"fixture\": \"{name}\", \"cores\": {n}, \"classes\": {classes}, \
             \"oracle_ns\": {oracle:.1}, \"deduped_ns\": {deduped:.1}, \
             \"speedup\": {speedup:.2}}}",
            speedup = if deduped > 0.0 { oracle / deduped } else { 0.0 },
        )
    }

    pub fn emit() {
        let bench_mode = std::env::args().any(|a| a == "--bench");
        let (scenario, cores) = undersubscribed_fixture();
        let under = row("undersubscribed", &scenario, &cores, bench_mode);
        let (scenario, cores) = divergent_fixture();
        let divergent = row("divergent", &scenario, &cores, bench_mode);
        if !bench_mode {
            println!("BENCH_evaluator.json: ok (smoke, not written)");
            return;
        }
        let json = format!(
            "{{\n  \"units\": \"median ns per op, {SAMPLES} samples\",\n  \
             \"warm_prefix_cache\": true,\n  \"evaluate_all\": [\n{under},\n{divergent}\n  ]\n}}\n"
        );
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_evaluator.json"
        );
        std::fs::write(path, &json).expect("write BENCH_evaluator.json");
        println!("wrote {path}:\n{json}");
    }
}

criterion_group!(evaluator, bench_evaluator_vs_oracle);

fn main() {
    evaluator();
    evaluator_json::emit();
}
