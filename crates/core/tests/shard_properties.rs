//! Property tests of the persistent shard index: over *arbitrary mutation
//! sequences* (starts, completions, queue pushes/pops, uneven time steps,
//! backward ones included) that nothing reports to the evaluator, one
//! reused evaluator must stay bit-identical to the oracle
//! ([`ecds_core::reference`]) and exact against fresh evaluators, which
//! build the index in full — in the materialized candidate stream
//! (`candidates_bit_eq`), every counter, the class partition, and the
//! index-selected top choice for every heuristic that decides from grouped
//! classes (SQ, MECT, LL, MET, OLB) under every filter variant.

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_core::{
    candidates_bit_eq, reference, CandidateEvaluator, ClassCandidate, EnergyFilter,
    EvaluatedCandidate, Filter, FilterCtx, Heuristic, LightestLoad, MinimumExecutionTime,
    MinimumExpectedCompletionTime, OpportunisticLoadBalancing, RobustnessFilter, ShortestQueue,
};
use ecds_persist::{Decoder, Encoder};
use ecds_pmf::ReductionPolicy;
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::small_for_tests(31))
}

/// One mutation against one core. Ops that do not apply to the core's
/// current state (completing an idle core, starting a busy one) degrade to
/// the legal neighbour so every drawn sequence is executable.
#[derive(Debug, Clone)]
enum Op {
    /// Start executing (or enqueue, if already busy).
    Start { type_id: usize },
    /// Enqueue behind the executing task.
    Enqueue { type_id: usize, pstate: usize },
    /// Complete the executing task, auto-starting the next queued one.
    Complete,
}

fn arb_step() -> impl Strategy<Value = (Vec<(usize, Op)>, f64)> {
    let op =
        (0usize..3, 0usize..10, 0usize..NUM_PSTATES).prop_map(
            |(which, type_id, pstate)| match which {
                0 => Op::Start { type_id },
                1 => Op::Enqueue { type_id, pstate },
                _ => Op::Complete,
            },
        );
    (
        prop::collection::vec((0usize..64, op), 0..6),
        // Time steps back as well as forward.
        -150.0f64..300.0,
    )
}

fn apply(core: &mut CoreState, op: &Op, id: usize, now: f64) {
    match op {
        Op::Start { type_id } => {
            let exec = ExecutingTask {
                task: TaskId(id),
                type_id: TaskTypeId(*type_id),
                pstate: PState::P1,
                start: now,
                deadline: now + 5_000.0,
            };
            if core.executing().is_none() {
                core.start(exec);
            } else {
                core.enqueue(QueuedTask {
                    task: exec.task,
                    type_id: exec.type_id,
                    pstate: PState::P2,
                    deadline: exec.deadline,
                });
            }
        }
        Op::Enqueue { type_id, pstate } => {
            if core.executing().is_some() {
                core.enqueue(QueuedTask {
                    task: TaskId(id),
                    type_id: TaskTypeId(*type_id),
                    pstate: PState::from_index(*pstate),
                    deadline: now + 6_000.0,
                });
            }
        }
        Op::Complete => {
            if core.executing().is_some() {
                let (_, next) = core.complete();
                if let Some(q) = next {
                    core.start(ExecutingTask {
                        task: q.task,
                        type_id: q.type_id,
                        pstate: q.pstate,
                        start: now,
                        deadline: q.deadline,
                    });
                }
            }
        }
    }
}

fn probe_task(step: usize, deadline_slack: f64, now: f64) -> Task {
    Task {
        id: TaskId(10_000 + step),
        type_id: TaskTypeId(step % 10),
        arrival: now,
        deadline: now + deadline_slack,
        quantile: 0.5,
    }
}

/// The per-core selection: filters applied with [`Filter::retain`] on the
/// materialized stream, then [`Heuristic::choose`] (both decide on the
/// stream's per-core classes).
fn full_scan_choice(
    h: &mut dyn Heuristic,
    filters: &[&dyn Filter],
    task: &Task,
    view: &SystemView<'_>,
    ctx: &FilterCtx,
    all: &[EvaluatedCandidate],
) -> Option<(usize, PState)> {
    let mut cands = all.to_vec();
    for f in filters {
        f.retain(task, view, ctx, &mut cands);
    }
    h.choose(task, view, &cands)
        .map(|i| (cands[i].core, cands[i].pstate))
}

/// The indexed selection: [`Filter::retain_indexed`] on the class form,
/// then [`Heuristic::choose_indexed`], resolved to the class's minimum
/// member core (the representative the full scan would pick).
fn indexed_choice(
    h: &mut dyn Heuristic,
    filters: &[&dyn Filter],
    task: &Task,
    view: &SystemView<'_>,
    ctx: &FilterCtx,
    classes: &[ClassCandidate],
) -> Option<(usize, PState)> {
    let mut classes = classes.to_vec();
    for f in filters {
        f.retain_indexed(task, view, ctx, &mut classes);
    }
    h.choose_indexed(task, view, &classes)
        .map(|(ci, ps)| (classes[ci].min_core, ps))
}

/// Every observable counter: prefix-cache hits and misses, classes and
/// events, skipped evaluations, kernel calls.
fn counters(ev: &CandidateEvaluator) -> [u64; 6] {
    let (hits, misses) = ev.prefix_cache_stats().expect("cache on");
    let (classes, events) = ev.dedup_stats().expect("dedup on");
    [
        hits,
        misses,
        classes,
        events,
        ev.dedup_skipped_evaluations(),
        ev.fused_kernel_calls(),
    ]
}

/// The class list sorted by representative, for comparing partitions
/// whose key-chain order may differ.
fn by_min_core(classes: &[ClassCandidate]) -> Vec<ClassCandidate> {
    let mut sorted = classes.to_vec();
    sorted.sort_by_key(|c| c.min_core);
    sorted
}

fn classes_bit_eq(a: &[ClassCandidate], b: &[ClassCandidate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.min_core == y.min_core
                && x.depth == y.depth
                && x.members == y.members
                && x.ests.iter().zip(&y.ests).all(|(p, q)| p.bit_eq(q))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary unreported mutation sequences ⇒ at every step the reused
    /// evaluator's incrementally maintained shard index reproduces the
    /// oracle's stream bit-for-bit, the counters and classes of a full
    /// rebuild, and the full-scan top-k selection of every indexed
    /// heuristic under every filter variant.
    #[test]
    fn indexed_top_k_matches_full_scan_over_arbitrary_mutations(
        steps in prop::collection::vec(arb_step(), 1..8),
        remaining_energy in 1.0f64..2_000.0,
        deadline_slack in 100.0f64..4_000.0,
    ) {
        let s = scenario();
        let n = s.cluster().total_cores();
        let mut cores = vec![CoreState::new(); n];
        let mut now = 0.0f64;
        let mut next_id = 0usize;

        let mut sharded = CandidateEvaluator::default();

        let mut out: Vec<EvaluatedCandidate> = Vec::new();
        let mut classes: Vec<ClassCandidate> = Vec::new();
        let mut rebuilt_classes: Vec<ClassCandidate> = Vec::new();

        for (step, (ops, dt)) in steps.iter().enumerate() {
            now += dt;
            for (pick, op) in ops {
                let core = pick % n;
                apply(&mut cores[core], op, next_id, now);
                next_id += 1;
            }

            let view = SystemView::new(s.cluster(), s.table(), &cores, now, 1, 60);
            let task = probe_task(step, deadline_slack, now);

            // A fresh evaluator restored from the reused one's checkpoint
            // holds the same cache and counters but no index, so it
            // rebuilds the index in full.
            let mut enc = Encoder::new();
            sharded.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut rebuilt = CandidateEvaluator::default();
            rebuilt.restore_state(&mut Decoder::new(&bytes)).expect("own checkpoint");

            // Materialized stream: bit-identical to the oracle and to the
            // rebuild, with every counter arithmetically exact against it.
            sharded.evaluate_all_into(&view, &task, &mut out);
            let full = rebuilt.evaluate_all(&view, &task);
            let reference = reference::evaluate_all(&view, &task, ReductionPolicy::default());
            prop_assert_eq!(out.len(), n * NUM_PSTATES);
            prop_assert!(
                candidates_bit_eq(&out, &reference),
                "stream diverged from the oracle at step {}", step
            );
            prop_assert!(
                candidates_bit_eq(&full, &reference),
                "rebuild diverged from the oracle at step {}", step
            );
            prop_assert_eq!(
                counters(&sharded), counters(&rebuilt),
                "counters diverged at step {}", step
            );

            // Class form: the same partition as a fresh evaluator's.
            prop_assert!(sharded.evaluate_indexed_into(&view, &task, &mut classes));
            prop_assert!(CandidateEvaluator::default().evaluate_indexed_into(
                &view, &task, &mut rebuilt_classes,
            ));
            prop_assert!(
                classes_bit_eq(&by_min_core(&classes), &by_min_core(&rebuilt_classes)),
                "classes diverged from the rebuild at step {}", step
            );

            // Indexed top-k: same choice as the full scan for every
            // indexed heuristic × filter variant.
            let ctx = FilterCtx { remaining_energy, budget: 2_000.0 };
            let en = EnergyFilter::paper();
            let rob = RobustnessFilter::paper();
            let variants: [&[&dyn Filter]; 3] =
                [&[], &[&en], &[&en, &rob]];
            let mut heuristics: [Box<dyn Heuristic>; 5] = [
                Box::new(ShortestQueue),
                Box::new(MinimumExpectedCompletionTime),
                Box::new(LightestLoad),
                Box::new(MinimumExecutionTime),
                Box::new(OpportunisticLoadBalancing),
            ];
            for h in heuristics.iter_mut() {
                prop_assert!(h.supports_indexed());
                for filters in variants {
                    let want = full_scan_choice(
                        h.as_mut(), filters, &task, &view, &ctx, &reference,
                    );
                    let got = indexed_choice(
                        h.as_mut(), filters, &task, &view, &ctx, &classes,
                    );
                    prop_assert_eq!(
                        got, want,
                        "{} selection diverged at step {}", h.name(), step
                    );
                }
            }
        }
    }
}
