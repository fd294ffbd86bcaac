//! Proof that the evaluator's engine path is allocation-free in steady
//! state: once the scratch buffers have grown to the workload's high-water
//! mark and the prefix cache and shard index are warm, `evaluate_all_into`
//! (into a caller-owned buffer) and `evaluate_indexed_into` touch the
//! allocator zero times, no matter how many (core, P-state) convolutions
//! they run. The whole decision is too: a warm `Scheduler::assign`, and
//! `Scheduler::assign_observed` with an observer that does not allocate,
//! for LL/en+rob and MECT/rob (grouped classes; KPB, which decides on
//! per-core classes, allocates twice per decision).
//!
//! The whole file is a single `#[test]` in its own integration binary so no
//! concurrent test pollutes the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecds_cluster::PState;
use ecds_core::{
    candidates_bit_eq, reference, AssignmentEstimate, CandidateEvaluator, ClassCandidate,
    DecisionObserver, EnergyFilter, EvaluatedCandidate, Filter, LightestLoad,
    MinimumExpectedCompletionTime, RobustnessFilter, Scheduler,
};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{Assignment, CoreState, ExecutingTask, Mapper, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};

/// System allocator wrapper that counts every allocation call.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Counts the stages it is told about, in fixed-size fields.
#[derive(Default)]
struct StageCounter {
    stages: u64,
    decisions: u64,
}

impl DecisionObserver for StageCounter {
    fn evaluate_start(&mut self, _task: &Task) {
        self.stages += 1;
    }

    fn evaluate_end(&mut self, _classes: &[ClassCandidate]) {
        self.stages += 1;
    }

    fn filter_start(&mut self, _filter: &dyn Filter) {
        self.stages += 1;
    }

    fn filter_end(&mut self, _filter: &dyn Filter, _classes: &[ClassCandidate]) {
        self.stages += 1;
    }

    fn choose_start(&mut self) {
        self.stages += 1;
    }

    fn choose_end(&mut self) {
        self.stages += 1;
    }

    fn chosen(&mut self, _task: &Task, _assignment: &Assignment, _est: &AssignmentEstimate) {
        self.decisions += 1;
    }

    fn discarded(&mut self, _task: &Task) {
        self.decisions += 1;
    }
}

/// A warm `assign` and a warm `assign_observed` (with a [`StageCounter`])
/// on `view` allocate nothing, and decide alike.
fn assert_warm_decision_is_allocation_free(
    label: &str,
    build: impl Fn() -> Scheduler,
    view: &SystemView<'_>,
    task: &Task,
) {
    let mut plain = build();
    let mut observed = build();
    let mut counter = StageCounter::default();
    // Warm-up: the first decision rebuilds the shard index and grows every
    // buffer, the second runs the incremental sweep.
    for _ in 0..2 {
        let a = plain.assign(task, view);
        let b = observed.assign_observed(task, view, &mut counter);
        assert_eq!(a, b, "{label}");
    }

    let before = allocations();
    let a = plain.assign(task, view);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "{label}: a warm Scheduler::assign must not allocate: the class \
         buffer is reused and the filters narrow it in place"
    );

    let counted = counter.decisions;
    let before = allocations();
    let b = observed.assign_observed(task, view, &mut counter);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "{label}: a warm assign_observed with a non-allocating observer \
         must not allocate"
    );
    assert!(a.is_some(), "{label}: the measured decision assigns");
    assert_eq!(a, b, "{label}");
    assert_eq!(counter.decisions, counted + 1, "{label}");
    assert!(counter.stages > 0, "{label}");
}

#[test]
fn warm_engine_path_is_allocation_free() {
    let scenario = Scenario::small_for_tests(23);
    let mut cores = vec![CoreState::new(); scenario.cluster().total_cores()];
    // Every core busy with a queue behind it: the heaviest steady-state
    // shape — every candidate runs a real prefix ⊛ exec convolution.
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 3),
            pstate: PState::P1,
            start: 0.0,
            deadline: 5000.0,
        });
        for q in 0..2 {
            core.enqueue(QueuedTask {
                task: TaskId(100 + i * 2 + q),
                type_id: TaskTypeId((i + q + 1) % 3),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
    }
    let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 50.0, 1, 60);
    let task = Task {
        id: TaskId(50),
        type_id: TaskTypeId(0),
        arrival: 50.0,
        deadline: 3000.0,
        quantile: 0.5,
    };

    // The oracle evaluates per core through the allocating `Pmf`
    // operations, so it allocates at least once per candidate; the
    // contrast proves the counter actually observes the evaluation.
    let reference = reference::evaluate_all(&view, &task, ReductionPolicy::default());
    let before = allocations();
    let oracle_measured = reference::evaluate_all(&view, &task, ReductionPolicy::default());
    let oracle_during = allocations() - before;
    assert!(candidates_bit_eq(&oracle_measured, &reference));
    let candidates = reference.len() as u64;
    assert!(
        oracle_during > candidates,
        "the oracle should allocate at least once per candidate \
         ({candidates}), counted {oracle_during}"
    );

    // The evaluator maintains its shard index incrementally, and a
    // caller-owned output buffer removes the result allocation: a warm
    // `evaluate_all_into` and a warm `evaluate_indexed_into` must both
    // touch the allocator zero times.
    let mut evaluator = CandidateEvaluator::default();

    let mut out: Vec<EvaluatedCandidate> = Vec::new();
    // Warm-up: first call full-rebuilds the shard and grows every buffer;
    // second call runs the incremental sweep and verifies the warm path.
    evaluator.evaluate_all_into(&view, &task, &mut out);
    evaluator.evaluate_all_into(&view, &task, &mut out);
    assert!(candidates_bit_eq(&out, &reference));

    let before = allocations();
    evaluator.evaluate_all_into(&view, &task, &mut out);
    let during = allocations() - before;
    assert!(candidates_bit_eq(&out, &reference));
    assert_eq!(
        during, 0,
        "warm evaluate_all_into with a caller-owned buffer must not \
         allocate: the freshness scan fills the retained candidate buffer, every \
         candidate convolution runs in the scratch, and estimates land in \
         the reused class storage"
    );

    // The class-level API (what SQ/MECT/LL select from without
    // materializing cores × P-states) is equally allocation-free warm.
    let mut classes: Vec<ClassCandidate> = Vec::new();
    assert!(evaluator.evaluate_indexed_into(&view, &task, &mut classes));
    let before = allocations();
    assert!(evaluator.evaluate_indexed_into(&view, &task, &mut classes));
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "warm evaluate_indexed_into must not allocate: class candidates \
         land in the caller-owned buffer"
    );
    // The classes cover every core exactly once and carry the reference
    // estimates bit-for-bit.
    let total: usize = classes.iter().map(|c| c.members).sum();
    assert_eq!(total, cores.len());
    for class in &classes {
        for (pi, est) in class.ests.iter().enumerate() {
            assert!(est.bit_eq(&reference[class.min_core * 5 + pi].est));
        }
    }

    // A decision that assigns: the same arrival with a deadline every
    // queue can meet, so the robustness filter keeps a non-empty set.
    let task = Task {
        deadline: 20_000.0,
        ..task
    };
    let budget = scenario.energy_budget().unwrap();
    assert_warm_decision_is_allocation_free(
        "LL/en+rob",
        || {
            Scheduler::new(
                Box::new(LightestLoad),
                vec![
                    Box::new(EnergyFilter::paper()),
                    Box::new(RobustnessFilter::paper()),
                ],
                budget,
                ReductionPolicy::default(),
            )
        },
        &view,
        &task,
    );
    assert_warm_decision_is_allocation_free(
        "MECT/rob",
        || {
            Scheduler::new(
                Box::new(MinimumExpectedCompletionTime),
                vec![Box::new(RobustnessFilter::paper())],
                budget,
                ReductionPolicy::default(),
            )
        },
        &view,
        &task,
    );
}
