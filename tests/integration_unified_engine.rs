//! The engine's independent reference: differential proof that the one
//! event loop — `ServeSession::step`, which every finite trial reaches
//! through `Simulation::run`/`run_with` as a fixed-horizon,
//! full-retention session over a `TraceArrivalSource` — behaves exactly
//! like two engines that share none of its code.
//!
//! The reference engines are the immediate-mode loop and the batch-mode
//! loop that predate the unified engine, embedded here verbatim. Both
//! bulk-load the whole trace into their event queue up front, where the
//! serve loop pulls one arrival at a time. They are built only from public
//! building blocks — [`EventQueue`], [`CoreState`], [`EnergyAccountant`] —
//! or, for batch, their own private `(time, seq)` heap. Every test runs the
//! same scenario through a reference engine and through `Simulation` and
//! asserts the results agree:
//!
//! * Immediate mode must be **bit-identical** — outcomes, energy,
//!   exhaustion, makespan, every telemetry series, and the mapper's work
//!   counters.
//! * Batch mode must be **outcome-identical** up to the one documented
//!   tie-break unification: the old batch heap ordered events by
//!   `(time, insertion)` only, so an arrival scheduled before a completion
//!   *at the exact same float instant* used to pop first, while the unified
//!   queue pops completions before arrivals at equal times. Exact float
//!   ties never occur with these traces (completion times are sums of
//!   continuous quantile draws), so full identity is asserted — and the
//!   ordering delta itself is characterized by a dedicated test below.

pub mod common;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use common::assert_bit_identical;
use ecds::ext::{run_batch, BatchEdf, BatchMaxRho, BatchPolicy, BatchView};
use ecds::pmf::Time;
use ecds::prelude::*;
use ecds::sim::{
    exhaustion_time, CoreState, EnergyAccountant, EventKind, EventQueue, ExecutingTask, QueuedTask,
};

// ---------------------------------------------------------------------------
// Reference engine 1: the pre-refactor immediate-mode loop, verbatim.
// ---------------------------------------------------------------------------

fn legacy_immediate(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    mapper: &mut dyn Mapper,
) -> TrialResult {
    let cluster = scenario.cluster();
    let table = scenario.table();
    let cfg = scenario.sim_config();
    let tasks = trace.tasks();
    let window = tasks.len();
    let num_cores = cluster.total_cores();

    mapper.on_trial_start();

    let mut cores = vec![CoreState::new(); num_cores];
    let mut accountant = EnergyAccountant::new(cluster, 0.0, cfg.initial_pstate);
    let mut outcomes: Vec<TaskOutcome> = tasks
        .iter()
        .map(|t| TaskOutcome {
            task: t.id,
            type_id: t.type_id,
            arrival: t.arrival,
            deadline: t.deadline,
            assignment: None,
            start: None,
            completion: None,
            cancelled: false,
        })
        .collect();

    let mut queue = EventQueue::new();
    for task in tasks {
        queue.push(task.arrival, EventKind::Arrival(task.id));
    }

    let mut arrived = 0usize;
    let mut end_time: Time = 0.0;
    let mut telemetry = Telemetry::new();

    while let Some(event) = queue.pop() {
        end_time = end_time.max(event.time);
        match event.kind {
            EventKind::Arrival(task_id) => {
                arrived += 1;
                let task = &tasks[task_id.0];
                let view = SystemView::new(cluster, table, &cores, event.time, arrived, window);
                telemetry.sample(
                    event.time,
                    view.avg_queue_depth(),
                    cores.iter().filter(|c| !c.is_idle()).count(),
                );
                let Some(assignment) = mapper.assign(task, &view) else {
                    continue; // discarded — counts as a miss
                };
                outcomes[task_id.0].assignment = Some((assignment.core, assignment.pstate));
                let core_state = &mut cores[assignment.core];
                if core_state.is_idle() {
                    accountant.record(assignment.core, event.time, assignment.pstate);
                    core_state.start(ExecutingTask {
                        task: task_id,
                        type_id: task.type_id,
                        pstate: assignment.pstate,
                        start: event.time,
                        deadline: task.deadline,
                    });
                    outcomes[task_id.0].start = Some(event.time);
                    let node = cluster.core(assignment.core).node;
                    let actual =
                        table.actual_time(task.type_id, node, assignment.pstate, task.quantile);
                    queue.push(
                        event.time + actual,
                        EventKind::Completion {
                            core: assignment.core,
                            task: task_id,
                        },
                    );
                } else {
                    core_state.enqueue(QueuedTask {
                        task: task_id,
                        type_id: task.type_id,
                        pstate: assignment.pstate,
                        deadline: task.deadline,
                    });
                }
            }
            EventKind::Completion { core, task } => {
                outcomes[task.0].completion = Some(event.time);
                let (_done, mut next) = cores[core].complete();
                if cfg.cancel_overdue {
                    while let Some(queued) = next {
                        if event.time > queued.deadline {
                            outcomes[queued.task.0].cancelled = true;
                            next = cores[core].pop_queued();
                        } else {
                            next = Some(queued);
                            break;
                        }
                    }
                }
                if let Some(queued) = next {
                    accountant.record(core, event.time, queued.pstate);
                    cores[core].start(ExecutingTask {
                        task: queued.task,
                        type_id: queued.type_id,
                        pstate: queued.pstate,
                        start: event.time,
                        deadline: queued.deadline,
                    });
                    outcomes[queued.task.0].start = Some(event.time);
                    let node = cluster.core(core).node;
                    let quantile = tasks[queued.task.0].quantile;
                    let actual = table.actual_time(queued.type_id, node, queued.pstate, quantile);
                    queue.push(
                        event.time + actual,
                        EventKind::Completion {
                            core,
                            task: queued.task,
                        },
                    );
                } else if let Some(idle_state) = cfg.idle_downshift {
                    accountant.record(core, event.time, idle_state);
                }
            }
        }
    }

    accountant.finalize(end_time);
    telemetry.mapper = mapper.stats();
    telemetry.power = accountant.power_timeline(cluster);
    let total_energy = accountant.total_energy(cluster);
    let exhausted_at = cfg
        .energy_budget
        .and_then(|budget| exhaustion_time(&telemetry.power, end_time, budget));

    TrialResult::new_for_alternative_engines(
        outcomes,
        total_energy,
        exhausted_at,
        end_time,
        telemetry,
    )
}

// ---------------------------------------------------------------------------
// Reference engine 2: the pre-refactor batch-mode loop, verbatim, including
// its own (time, insertion-order) event heap — i.e. WITHOUT the unified
// queue's completions-before-arrivals rank.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrival(usize),
    Completion { core: usize, task: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueuedEv {
    time: Time,
    seq: u64,
    ev: Ev,
}

impl Eq for QueuedEv {}
impl Ord for QueuedEv {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn legacy_batch(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    policy: &mut dyn BatchPolicy,
) -> TrialResult {
    let cluster = scenario.cluster();
    let table = scenario.table();
    let cfg = scenario.sim_config();
    let tasks = trace.tasks();
    let num_cores = cluster.total_cores();

    let mut accountant = EnergyAccountant::new(cluster, 0.0, cfg.initial_pstate);
    let mut busy: Vec<bool> = vec![false; num_cores];
    let mut pending: Vec<usize> = Vec::new();
    let mut remaining = scenario.energy_budget().unwrap_or(f64::INFINITY);
    let mut telemetry = Telemetry::new();

    let mut outcomes: Vec<TaskOutcome> = tasks
        .iter()
        .map(|t| TaskOutcome {
            task: t.id,
            type_id: t.type_id,
            arrival: t.arrival,
            deadline: t.deadline,
            assignment: None,
            start: None,
            completion: None,
            cancelled: false,
        })
        .collect();

    let mut heap: BinaryHeap<QueuedEv> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, task) in tasks.iter().enumerate() {
        heap.push(QueuedEv {
            time: task.arrival,
            seq,
            ev: Ev::Arrival(i),
        });
        seq += 1;
    }

    let mut end_time: Time = 0.0;
    while let Some(event) = heap.pop() {
        end_time = end_time.max(event.time);
        match event.ev {
            Ev::Arrival(i) => {
                pending.push(i);
                telemetry.sample(
                    event.time,
                    pending.len() as f64 / num_cores as f64,
                    busy.iter().filter(|b| **b).count(),
                );
            }
            Ev::Completion { core, task } => {
                outcomes[task].completion = Some(event.time);
                busy[core] = false;
                if let Some(idle_state) = cfg.idle_downshift {
                    accountant.record(core, event.time, idle_state);
                }
            }
        }
        let idle: Vec<usize> = (0..num_cores).filter(|&c| !busy[c]).collect();
        if idle.is_empty() || pending.is_empty() {
            continue;
        }
        let bag: Vec<Task> = pending.iter().map(|&i| tasks[i]).collect();
        let view = BatchView {
            cluster,
            table,
            now: event.time,
            idle_cores: &idle,
            remaining_energy: remaining,
        };
        let dispatches = policy.dispatch(&bag, &view);
        let mut started: Vec<usize> = Vec::new();
        for d in dispatches {
            let global = pending[d.task_index];
            let task = &tasks[global];
            let node_idx = cluster.core(d.core).node;
            let node = cluster.node(node_idx);
            accountant.record(d.core, event.time, d.pstate);
            busy[d.core] = true;
            outcomes[global].assignment = Some((d.core, d.pstate));
            outcomes[global].start = Some(event.time);
            remaining -= table.eet(task.type_id, node_idx, d.pstate) * node.power.watts(d.pstate)
                / node.efficiency;
            let actual = table.actual_time(task.type_id, node_idx, d.pstate, task.quantile);
            heap.push(QueuedEv {
                time: event.time + actual,
                seq,
                ev: Ev::Completion {
                    core: d.core,
                    task: global,
                },
            });
            seq += 1;
            started.push(d.task_index);
        }
        started.sort_unstable_by(|a, b| b.cmp(a));
        for idx in started {
            pending.swap_remove(idx);
        }
    }

    accountant.finalize(end_time);
    telemetry.power = accountant.power_timeline(cluster);
    let total_energy = accountant.total_energy(cluster);
    let exhausted_at = cfg
        .energy_budget
        .and_then(|b| exhaustion_time(&telemetry.power, end_time, b));
    TrialResult::new_for_alternative_engines(
        outcomes,
        total_energy,
        exhausted_at,
        end_time,
        telemetry,
    )
}

// ---------------------------------------------------------------------------
// Immediate mode: bit-identity.
// ---------------------------------------------------------------------------

/// The acceptance grid: seeds × all four heuristics under the paper's best
/// filter chain.
#[test]
fn immediate_matches_legacy_across_seeds_and_heuristics() {
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        for kind in HeuristicKind::ALL {
            let mut old = build_scheduler(kind, FilterVariant::EnergyAndRobustness, &scenario, 0);
            let mut new = build_scheduler(kind, FilterVariant::EnergyAndRobustness, &scenario, 0);
            let a = legacy_immediate(&scenario, &trace, old.as_mut());
            let b = Simulation::new(&scenario, &trace).run(new.as_mut());
            assert_bit_identical(&a, &b, &format!("seed {master} / {kind}"));
        }
    }
}

/// The paper's own scale: 1,000 tasks on the paper cluster under LL with
/// the energy and robustness filters and the budget on.
#[test]
fn thousand_task_trial_matches_legacy() {
    let scenario = Scenario::paper(1353);
    let trace = scenario.trace(0);
    assert_eq!(trace.len(), 1000, "paper scenario must be full scale");
    let build = || {
        build_scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::EnergyAndRobustness,
            &scenario,
            0,
        )
    };
    let (mut old, mut new) = (build(), build());
    let a = legacy_immediate(&scenario, &trace, old.as_mut());
    let b = Simulation::new(&scenario, &trace).run(new.as_mut());
    assert_bit_identical(&a, &b, "paper scale LL/en+rob");
}

/// Filter variants change discard patterns, exercising the discarded-task
/// path through both engines.
#[test]
fn immediate_matches_legacy_across_filter_variants() {
    let scenario = Scenario::small_for_tests(7);
    let trace = scenario.trace(1);
    for variant in FilterVariant::ALL {
        let mut old = build_scheduler(HeuristicKind::Mect, variant, &scenario, 1);
        let mut new = build_scheduler(HeuristicKind::Mect, variant, &scenario, 1);
        let a = legacy_immediate(&scenario, &trace, old.as_mut());
        let b = Simulation::new(&scenario, &trace).run(new.as_mut());
        assert_bit_identical(&a, &b, &format!("variant {variant}"));
    }
}

/// A deliberately terrible mapper: everything onto core 0 at the slowest
/// P-state. Queues grow without bound, which is exactly what the
/// cancel-overdue path needs to trigger.
struct Pileup;
impl Mapper for Pileup {
    fn assign(&mut self, _task: &Task, _view: &SystemView<'_>) -> Option<Assignment> {
        Some(Assignment {
            core: 0,
            pstate: PState::P4,
        })
    }
}

/// The cancel_overdue extension must behave identically through the
/// discipline hooks — including the chained-cancellation while-loop.
#[test]
fn immediate_matches_legacy_with_cancel_overdue() {
    let mut any_cancelled = false;
    for master in [3, 11, 29] {
        let base = Scenario::small_for_tests(master);
        let scenario = base.with_sim_config({
            let mut c = *base.sim_config();
            c.cancel_overdue = true;
            c
        });
        let trace = scenario.trace(0);
        let a = legacy_immediate(&scenario, &trace, &mut Pileup);
        let b = Simulation::new(&scenario, &trace).run(&mut Pileup);
        assert_bit_identical(&a, &b, &format!("cancel_overdue seed {master}"));
        any_cancelled |= b.cancelled() > 0;

        // And with the real scheduler, which discards as well as cancels.
        let mut old = build_scheduler(HeuristicKind::Random, FilterVariant::Energy, &scenario, 0);
        let mut new = build_scheduler(HeuristicKind::Random, FilterVariant::Energy, &scenario, 0);
        let a = legacy_immediate(&scenario, &trace, old.as_mut());
        let b = Simulation::new(&scenario, &trace).run(new.as_mut());
        assert_bit_identical(&a, &b, &format!("cancel_overdue scheduler seed {master}"));
    }
    assert!(
        any_cancelled,
        "the pileup mapper must actually trigger cancellations"
    );
}

// ---------------------------------------------------------------------------
// Batch mode: outcome-identity through the unified engine.
// ---------------------------------------------------------------------------

/// `run_batch` (now a thin adapter over the unified engine) must reproduce
/// the old standalone batch engine exactly for both bundled policies. Any
/// divergence could only come from an exact float time tie (see the module
/// docs) — which these continuous traces never produce.
#[test]
fn batch_adapter_matches_legacy_batch_engine() {
    for master in [5, 17, 1353] {
        let scenario = Scenario::small_for_tests(master);
        for trial in 0..2u64 {
            let trace = scenario.trace(trial);
            let a = legacy_batch(&scenario, &trace, &mut BatchMaxRho::default());
            let b = run_batch(&scenario, &trace, &mut BatchMaxRho::default());
            assert_bit_identical(&a, &b, &format!("max-rho seed {master} trial {trial}"));

            let a = legacy_batch(&scenario, &trace, &mut BatchEdf);
            let b = run_batch(&scenario, &trace, &mut BatchEdf);
            assert_bit_identical(&a, &b, &format!("edf seed {master} trial {trial}"));
        }
    }
}

/// Batch mode under a tight budget exercises the exhaustion cutoff the old
/// engine computed itself and now inherits from the unified engine.
#[test]
fn batch_adapter_matches_legacy_under_tight_budget() {
    let scenario = Scenario::small_for_tests(17).with_budget_factor(0.1);
    let trace = scenario.trace(0);
    let a = legacy_batch(&scenario, &trace, &mut BatchMaxRho::default());
    let b = run_batch(&scenario, &trace, &mut BatchMaxRho::default());
    assert!(b.exhausted_at().is_some(), "budget must actually bind");
    assert_bit_identical(&a, &b, "tight budget");
}

// ---------------------------------------------------------------------------
// The documented tie-break delta, characterized.
// ---------------------------------------------------------------------------

/// The ONE ordering difference the unification introduces: at an exact
/// float time tie, the old batch heap popped whichever event was inserted
/// first (arrivals are all inserted up front, so arrivals won), while the
/// unified queue pops completions before arrivals. This test pins down
/// both behaviors so the delta stays documented-and-asserted rather than
/// silent.
#[test]
fn tie_break_unification_is_the_only_ordering_delta() {
    // Old batch heap: arrival (inserted first) wins the tie.
    let mut heap: BinaryHeap<QueuedEv> = BinaryHeap::new();
    heap.push(QueuedEv {
        time: 10.0,
        seq: 0,
        ev: Ev::Arrival(1),
    });
    heap.push(QueuedEv {
        time: 10.0,
        seq: 1,
        ev: Ev::Completion { core: 0, task: 0 },
    });
    assert_eq!(
        heap.pop().unwrap().ev,
        Ev::Arrival(1),
        "legacy: insertion order only"
    );

    // Unified queue: the completion wins the tie regardless of insertion
    // order, so a core freed at instant t is visible to work mapped at t.
    let mut queue = EventQueue::new();
    queue.push(10.0, EventKind::Arrival(TaskId(1)));
    queue.push(
        10.0,
        EventKind::Completion {
            core: 0,
            task: TaskId(0),
        },
    );
    assert!(matches!(
        queue.pop().unwrap().kind,
        EventKind::Completion { .. }
    ));
}
