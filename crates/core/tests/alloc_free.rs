//! Proof that the evaluator's engine path is allocation-free in steady
//! state: once the scratch buffers have grown to the workload's high-water
//! mark and the prefix cache and shard index are warm, `evaluate_all_into`
//! (into a caller-owned buffer) and `evaluate_indexed_into` touch the
//! allocator zero times, no matter how many (core, P-state) convolutions
//! they run.
//!
//! The whole file is a single `#[test]` in its own integration binary so no
//! concurrent test pollutes the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecds_cluster::PState;
use ecds_core::{
    candidates_bit_eq, reference, CandidateEvaluator, ClassCandidate, EvaluatedCandidate,
};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
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
}
