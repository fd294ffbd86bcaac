//! Property tests of candidate equivalence-class deduplication: the
//! congruence the partition rests on (equal class keys imply bit-identical
//! estimates for every P-state), and bit-identity of the deduplicated
//! `evaluate_all` with the per-core oracle over arbitrary core loads.

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_core::{candidates_bit_eq, reference, CandidateEvaluator};
use ecds_pmf::{Pmf, ReductionPolicy};
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::small_for_tests(21))
}

/// First pair of distinct cores on the same node.
fn same_node_pair() -> (usize, usize) {
    static PAIR: OnceLock<(usize, usize)> = OnceLock::new();
    *PAIR.get_or_init(|| {
        let cluster = scenario().cluster();
        for a in 0..cluster.total_cores() {
            for b in a + 1..cluster.total_cores() {
                if cluster.core(a).node == cluster.core(b).node {
                    return (a, b);
                }
            }
        }
        panic!("test cluster has multi-core nodes");
    })
}

/// One arbitrary core load: `None` leaves the core idle and empty;
/// `Some((exec_type, start, queued))` starts a task and queues more.
type Load = Option<(usize, f64, Vec<(usize, usize)>)>;

fn apply_load(core: &mut CoreState, load: &Load) {
    if let Some((exec_type, start, queued)) = load {
        core.start(ExecutingTask {
            task: TaskId(0),
            type_id: TaskTypeId(*exec_type),
            pstate: PState::P1,
            start: *start,
            deadline: 1e9,
        });
        for (i, &(type_id, ps)) in queued.iter().enumerate() {
            core.enqueue(QueuedTask {
                task: TaskId(i + 1),
                type_id: TaskTypeId(type_id),
                pstate: PState::from_index(ps),
                deadline: 1e9,
            });
        }
    }
}

fn arb_load() -> impl Strategy<Value = Load> {
    (
        prop::bool::ANY,
        0usize..10,
        0.0f64..100.0,
        prop::collection::vec((0usize..10, 0usize..5), 0..3),
    )
        .prop_map(|(busy, exec_type, start, queued)| busy.then_some((exec_type, start, queued)))
}

fn probe_task() -> Task {
    Task {
        id: TaskId(99),
        type_id: TaskTypeId(0),
        arrival: 0.0,
        deadline: 1e9,
        quantile: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The congruence property the dedup rests on: two cores on the same
    /// node carrying the same load (equal class key by construction) get
    /// bit-identical oracle estimates for all five P-states, and equal
    /// prefix fingerprints.
    #[test]
    fn equal_class_keys_imply_bit_identical_estimates(
        load in arb_load(),
        elapsed in 0.0f64..2000.0,
    ) {
        let s = scenario();
        let (a, b) = same_node_pair();
        let mut cores = vec![CoreState::new(); s.cluster().total_cores()];
        apply_load(&mut cores[a], &load);
        apply_load(&mut cores[b], &load);
        let now = load.as_ref().map_or(elapsed, |(_, start, _)| start + elapsed);
        let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
        let task = probe_task();
        let policy = ReductionPolicy::default();
        let fingerprint = |core| reference::pending_completion_pmf(&view, core, policy)
            .as_ref()
            .map(Pmf::fingerprint);
        prop_assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "fingerprints diverged for equal loads"
        );
        let all = reference::evaluate_all(&view, &task, policy);
        for pstate in PState::ALL {
            let ea = all[a * NUM_PSTATES + pstate.index()].est;
            let eb = all[b * NUM_PSTATES + pstate.index()].est;
            prop_assert!(
                ea.bit_eq(&eb),
                "estimates diverged at {:?}: {:?} vs {:?}", pstate, ea, eb
            );
        }
    }

    /// Deduplicated `evaluate_all` is bit-identical to the oracle's
    /// independent per-core evaluation over arbitrary loads — drawn from a
    /// small pool so duplicate prefixes (real class collapses) are common,
    /// alongside idle cores and fully distinct ones.
    #[test]
    fn deduped_evaluate_all_matches_per_core(
        pool in prop::collection::vec(arb_load(), 1..4),
        picks in prop::collection::vec(0usize..4, 24),
        elapsed in 0.0f64..500.0,
    ) {
        let s = scenario();
        let n = s.cluster().total_cores();
        let mut cores = vec![CoreState::new(); n];
        for (core, pick) in cores.iter_mut().zip(picks) {
            apply_load(core, &pool[pick % pool.len()]);
        }
        let now = 100.0 + elapsed; // past every start in the pool
        let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
        let task = probe_task();
        let mut deduped = CandidateEvaluator::default();
        let dd = deduped.evaluate_all(&view, &task);
        let pc = reference::evaluate_all(&view, &task, ReductionPolicy::default());
        prop_assert_eq!(dd.len(), n * NUM_PSTATES);
        prop_assert!(candidates_bit_eq(&dd, &pc));
        // The class partition never exceeds one class per core and
        // accounts for every skipped evaluation.
        let (classes, events) = deduped.dedup_stats().expect("dedup on");
        prop_assert_eq!(events, 1);
        prop_assert!(classes >= 1 && classes <= n as u64);
        prop_assert_eq!(
            deduped.dedup_skipped_evaluations(),
            (n as u64 - classes) * NUM_PSTATES as u64
        );
    }
}
