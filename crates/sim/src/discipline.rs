//! The commitment-discipline seam of the unified engine.
//!
//! One event loop ([`ServeSession::step`](crate::ServeSession::step), which
//! finite trials reach through
//! [`Simulation::run_with`](crate::Simulation::run_with)) owns everything
//! both simulation modes share — the deterministic
//! [`EventQueue`], per-core run state, the
//! Eq. 1–2 energy accountant, per-task outcomes, telemetry, and the
//! exhaustion cutoff. What *differs* between modes is only **when mapped
//! work is committed to a core**, and that policy is factored into the
//! [`Discipline`] trait:
//!
//! * [`ImmediateDiscipline`] — the paper's model: every task is committed
//!   to a core FIFO (and a P-state) at its arrival instant by a
//!   [`Mapper`], and never reassigned.
//! * `BatchDiscipline` (in `ecds-ext`) — the future-work relaxation:
//!   arriving tasks wait in a central pending bag and are committed only
//!   when a core is actually free.
//!
//! Disciplines never touch engine state directly; they act through
//! [`EngineCtx`], whose mutators encapsulate the shared mechanics (start a
//! task = record the P-state transition, mark the core busy, log the start,
//! schedule the completion event). This is what makes engine fixes land
//! once for every mode.

use ecds_cluster::Cluster;
use ecds_persist::{DecodeError, Decoder, Encoder};
use ecds_pmf::Time;
use ecds_workload::{ExecTable, Task, TaskId};

use crate::config::SimConfig;
use crate::energy::EnergyAccountant;
use crate::event::{EventKind, EventQueue};
use crate::result::TaskOutcome;
use crate::state::{CoreState, ExecutingTask, QueuedTask};
use crate::store::TaskStore;
use crate::telemetry::{MapperStats, Telemetry, TelemetryFold};
use crate::view::{Mapper, SystemView};

/// A commitment discipline: the pluggable half of the unified engine.
///
/// The engine pops events off the deterministic queue (completions before
/// arrivals at equal times, then insertion order) and calls the matching
/// hook; the discipline decides what work to commit where, using
/// [`EngineCtx`]'s mutators. Bookkeeping that is identical across
/// disciplines (recording completion outcomes, bumping `arrived`, energy
/// finalization) stays in the engine.
pub trait Discipline {
    /// Invoked once before the first event of a trial, after the engine
    /// state is initialized — reset ledgers and per-trial state here.
    fn on_trial_start(&mut self, _ctx: &mut EngineCtx<'_>) {}

    /// A task arrived at `ctx.now()`. The engine has already counted it in
    /// [`EngineCtx::arrived`].
    fn on_arrival(&mut self, ctx: &mut EngineCtx<'_>, task: TaskId);

    /// `task` finished on `core` at `ctx.now()`. The engine has already
    /// recorded the completion outcome; the discipline must release the
    /// core (via [`EngineCtx::complete_core`]) and decide what runs next.
    fn on_completion(&mut self, ctx: &mut EngineCtx<'_>, core: usize, task: TaskId);

    /// Invoked after *every* event (arrival or completion) — the batch
    /// mapping event hook. Default: no-op (immediate mode commits inside
    /// [`Discipline::on_arrival`]).
    fn after_event(&mut self, _ctx: &mut EngineCtx<'_>) {}

    /// Structured instrumentation for the finished trial, copied into
    /// [`Telemetry`] by the engine. Default: all zeros.
    fn stats(&self) -> MapperStats {
        MapperStats::default()
    }

    /// `true` when the discipline may still assign a task that has arrived
    /// but holds no assignment yet (batch mode's pending bag). The serving
    /// loop must not retire such tasks as discarded. Default: `false`
    /// (immediate mode commits or discards at arrival).
    fn holds_unassigned_tasks(&self) -> bool {
        false
    }

    /// Serializes the discipline's mutable mid-trial state (pending bags,
    /// ledgers, and the wrapped mapper's state) into a checkpoint.
    /// Default: no-op for stateless disciplines. Encodings must be
    /// fixed-width and platform-independent.
    fn save_state(&self, _enc: &mut Encoder) {}

    /// Restores state written by [`Discipline::save_state`]. Default:
    /// no-op. A restored discipline never sees `on_trial_start` — the
    /// decoded state *is* the mid-trial state.
    fn restore_state(&mut self, _dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// Mutable engine state handed to a [`Discipline`] at each hook.
///
/// Accessors expose the shared world (cluster, pmf table, core states,
/// clock, outcomes); mutators encapsulate the mechanics both modes share,
/// keeping the energy accounting and event scheduling in exactly one
/// place.
#[derive(Debug)]
pub struct EngineCtx<'a> {
    pub(crate) cluster: &'a Cluster,
    pub(crate) table: &'a ExecTable,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) store: TaskStore,
    pub(crate) window: usize,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) accountant: EnergyAccountant,
    pub(crate) queue: EventQueue,
    pub(crate) telemetry: Telemetry,
    pub(crate) arrived: usize,
    pub(crate) now: Time,
    /// Running Σ `CoreState::depth()` over all cores — maintained by the
    /// mutators below so [`EngineCtx::avg_queue_depth`] is O(1).
    pub(crate) depth_total: usize,
    /// Running count of non-idle cores — the telemetry busy-core sample.
    pub(crate) busy: usize,
    /// Streaming telemetry sink. When present, samples fold directly into
    /// the accumulator instead of growing per-trial vectors (the bounded-
    /// retention serve path); when absent, samples append to
    /// [`Telemetry`] exactly as before.
    pub(crate) fold: Option<TelemetryFold>,
}

impl<'a> EngineCtx<'a> {
    /// Builds empty engine state: idle cores in the configured initial
    /// P-state, no tasks yet, an empty event queue, and a zero window (the
    /// serving loop streams tasks in and sets the window from its horizon
    /// before the first mapping event).
    pub(crate) fn new(cluster: &'a Cluster, table: &'a ExecTable, cfg: &'a SimConfig) -> Self {
        Self {
            cluster,
            table,
            cfg,
            store: TaskStore::new(),
            window: 0,
            cores: vec![CoreState::new(); cluster.total_cores()],
            accountant: EnergyAccountant::new(cluster, 0.0, cfg.initial_pstate),
            queue: EventQueue::new(),
            telemetry: Telemetry::new(),
            arrived: 0,
            now: 0.0,
            depth_total: 0,
            busy: 0,
            fold: None,
        }
    }

    /// Current simulated time (the time of the event being processed).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The cluster model.
    #[inline]
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The execution-time pmf table.
    #[inline]
    pub fn table(&self) -> &'a ExecTable {
        self.table
    }

    /// The simulator configuration (budget, idle downshift, cancellation).
    #[inline]
    pub fn config(&self) -> &'a SimConfig {
        self.cfg
    }

    /// One resident task by id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was retired by the serving loop or has not been
    /// streamed in yet (never happens for ids the engine hands to
    /// discipline hooks).
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        self.store.task(id)
    }

    /// Tasks that have arrived so far, including the one being processed.
    #[inline]
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// The trial window size: total tasks for a finite trial, the
    /// serving horizon (arrived plus lookahead) for a rolling stream.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total cores in the cluster.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// All core run states, flat-indexed.
    #[inline]
    pub fn core_states(&self) -> &[CoreState] {
        &self.cores
    }

    /// Resident per-task outcomes accumulated so far (every arrived or
    /// pulled task under full retention; the unretired suffix under
    /// bounded retention).
    #[inline]
    pub fn outcomes(&self) -> &[TaskOutcome] {
        self.store.resident_outcomes()
    }

    /// Instantaneous average queue depth over all cores (executing tasks
    /// count) — what immediate mode samples into telemetry. O(1): the
    /// integer Σ depth is maintained incrementally by the mutators, and
    /// the exact integer sum divides to the same bits as a fresh scan.
    pub fn avg_queue_depth(&self) -> f64 {
        self.depth_total as f64 / self.cores.len() as f64
    }

    /// A read-only [`SystemView`] of the current state, as handed to a
    /// [`Mapper`] at a mapping event. Carries the running depth aggregate
    /// so [`SystemView::avg_queue_depth`] is O(1).
    pub fn system_view(&self) -> SystemView<'_> {
        SystemView::new(
            self.cluster,
            self.table,
            &self.cores,
            self.now,
            self.arrived,
            self.window,
        )
        .with_depth_total(self.depth_total)
    }

    /// Records one telemetry sample at the current time: `queue_depth` is
    /// discipline-defined (FIFO depth in immediate mode, normalized bag
    /// depth in batch mode); the busy-core count comes from the running
    /// aggregate. Routed to the streaming fold when one is installed
    /// (bounded retention), to the per-trial vectors otherwise.
    pub fn sample_telemetry(&mut self, queue_depth: f64) {
        let busy = self.busy;
        match &mut self.fold {
            Some(fold) => fold.record(queue_depth, busy),
            None => self.telemetry.sample(self.now, queue_depth, busy),
        }
    }

    /// Records the chosen `(core, pstate)` assignment for `task`.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn record_assignment(&mut self, task: TaskId, core: usize, pstate: ecds_cluster::PState) {
        assert!(
            core < self.cores.len(),
            "mapper chose nonexistent core {core}"
        );
        self.store.outcome_mut(task).assignment = Some((core, pstate));
    }

    /// Starts `task` executing on `core` in `pstate` at the current time:
    /// logs the P-state transition with the energy accountant, marks the
    /// core busy, records the start outcome, and schedules the completion
    /// event from the task's realized execution time.
    ///
    /// # Panics
    ///
    /// Panics when the core is already executing a task.
    pub fn start_task(&mut self, core: usize, task: TaskId, pstate: ecds_cluster::PState) {
        let task_data = *self.store.task(task);
        self.accountant.record(core, self.now, pstate);
        self.depth_total += 1;
        self.busy += 1;
        self.cores[core].start(ExecutingTask {
            task,
            type_id: task_data.type_id,
            pstate,
            start: self.now,
            deadline: task_data.deadline,
        });
        self.store.outcome_mut(task).start = Some(self.now);
        let node = self.cluster.core(core).node;
        let actual = self
            .table
            .actual_time(task_data.type_id, node, pstate, task_data.quantile);
        self.queue
            .push(self.now + actual, EventKind::Completion { core, task });
    }

    /// Appends `task` to `core`'s FIFO wait queue (immediate mode's
    /// commit-at-arrival for busy cores).
    pub fn enqueue_task(&mut self, core: usize, task: TaskId, pstate: ecds_cluster::PState) {
        let task_data = *self.store.task(task);
        self.depth_total += 1;
        self.cores[core].enqueue(QueuedTask {
            task,
            type_id: task_data.type_id,
            pstate,
            deadline: task_data.deadline,
        });
    }

    /// Releases `core` after its executing task finished, returning the
    /// next FIFO-queued task (if any) for the discipline to start.
    ///
    /// # Panics
    ///
    /// Panics when nothing is executing on the core.
    pub fn complete_core(&mut self, core: usize) -> Option<QueuedTask> {
        let (_done, next) = self.cores[core].complete();
        self.busy -= 1;
        // The finished executing task leaves the depth count, and so does
        // the queued task `complete` popped out of the FIFO, if any (the
        // discipline re-adds it when it starts the task).
        self.depth_total -= 1 + usize::from(next.is_some());
        next
    }

    /// Pops the next waiting task off `core`'s FIFO without starting it —
    /// the cancel-overdue path.
    pub fn pop_queued(&mut self, core: usize) -> Option<QueuedTask> {
        let popped = self.cores[core].pop_queued();
        if popped.is_some() {
            self.depth_total -= 1;
        }
        popped
    }

    /// Marks `task` as cancelled (the `cancel_overdue` extension dropped
    /// it instead of running it).
    pub fn mark_cancelled(&mut self, task: TaskId) {
        self.store.outcome_mut(task).cancelled = true;
    }

    /// Parks an idle `core` in the configured idle-downshift P-state, if
    /// any (no-op otherwise).
    pub fn park_idle(&mut self, core: usize) {
        if let Some(idle_state) = self.cfg.idle_downshift {
            self.accountant.record(core, self.now, idle_state);
        }
    }
}

/// The paper's commitment discipline: every task is mapped by a [`Mapper`]
/// at its arrival instant and committed to a core FIFO immediately;
/// `None` from the mapper discards the task.
pub struct ImmediateDiscipline<'m> {
    mapper: &'m mut dyn Mapper,
}

impl std::fmt::Debug for ImmediateDiscipline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImmediateDiscipline")
            .finish_non_exhaustive()
    }
}

impl<'m> ImmediateDiscipline<'m> {
    /// Wraps a mapper for the unified engine.
    pub fn new(mapper: &'m mut dyn Mapper) -> Self {
        Self { mapper }
    }
}

impl Discipline for ImmediateDiscipline<'_> {
    fn on_trial_start(&mut self, _ctx: &mut EngineCtx<'_>) {
        self.mapper.on_trial_start();
    }

    fn on_arrival(&mut self, ctx: &mut EngineCtx<'_>, task: TaskId) {
        let depth = ctx.avg_queue_depth();
        ctx.sample_telemetry(depth);
        let assignment = {
            let view = ctx.system_view();
            self.mapper.assign(ctx.task(task), &view)
        };
        let Some(assignment) = assignment else {
            return; // discarded — counts as a miss
        };
        ctx.record_assignment(task, assignment.core, assignment.pstate);
        if ctx.core_states()[assignment.core].is_idle() {
            // Start immediately: the core transitions to the task's
            // P-state now (it was idle, so it may switch).
            ctx.start_task(assignment.core, task, assignment.pstate);
        } else {
            ctx.enqueue_task(assignment.core, task, assignment.pstate);
        }
    }

    fn on_completion(&mut self, ctx: &mut EngineCtx<'_>, core: usize, _task: TaskId) {
        let mut next = ctx.complete_core(core);
        // Extension: drop queued tasks that already missed their deadlines
        // instead of burning energy on them.
        if ctx.config().cancel_overdue {
            while let Some(queued) = next {
                if ctx.now() > queued.deadline {
                    ctx.mark_cancelled(queued.task);
                    next = ctx.pop_queued(core);
                } else {
                    next = Some(queued);
                    break;
                }
            }
        }
        if let Some(queued) = next {
            ctx.start_task(core, queued.task, queued.pstate);
        } else {
            // Extension (paper future work): park the idle core in a
            // frugal state.
            ctx.park_idle(core);
        }
    }

    fn stats(&self) -> MapperStats {
        self.mapper.stats()
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.mapper.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.mapper.restore_state(dec)
    }
}
