//! The scheduler's one event loop: streaming arrivals, bounded resident
//! memory, and bit-identical checkpoint/restore.
//!
//! [`ServeSession`] runs the engine against an [`ArrivalSource`]. A finite
//! trial is a prefix of such a stream:
//! [`Simulation::run_with`](crate::Simulation::run_with) is a session with
//! [`Horizon::Fixed`] and [`Retention::Full`] over a
//! [`TraceArrivalSource`](ecds_workload::TraceArrivalSource), finalized by
//! [`ServeSession::finish`]. The session:
//!
//! * exactly one pending arrival is kept in the event queue; when it pops,
//!   the next task is pulled from the source *before* the discipline runs,
//! * settled tasks (completed, cancelled, or discarded) are retired from
//!   the windowed store into a running [`RetiredTally`], telemetry is
//!   folded, and energy logs are compacted, so resident memory is bounded
//!   by in-flight work under [`Retention::Bounded`],
//! * [`ServeSession::checkpoint`] serializes the complete simulation state
//!   (clock, event queue with insertion sequence numbers, core states with
//!   epochs, energy logs, counters, telemetry, plus the source's and
//!   discipline's own state) through `ecds-persist`;
//!   [`ServeSession::restore`] resumes bit-identically.
//!
//! # Checked against bulk-loaded reference engines
//!
//! The event pop order is governed by `(time, rank, seq)`, with `seq` only
//! breaking ties within the same rank. Arrivals enter the queue in id
//! order (the stream is id-ordered with nondecreasing arrival times, and
//! the next arrival is pushed before the current one is processed), so
//! equal-time arrivals keep their FIFO order; cross-rank ties never consult
//! `seq`. Pop order is therefore the same as an engine that queues the
//! whole trace up front, which is how the reference engines in
//! `tests/integration_unified_engine.rs` run; that suite holds finite
//! trials to bit identity with them.

use ecds_cluster::{Cluster, PState};
use ecds_persist::{open, seal, DecodeError, Decoder, Encoder};
use ecds_pmf::Time;
use ecds_workload::{ArrivalSource, ExecTable, Task, TaskId, TaskTypeId};

use crate::config::SimConfig;
use crate::discipline::{Discipline, EngineCtx};
use crate::energy::TransitionLog;
use crate::event::EventKind;
use crate::result::{TaskOutcome, TrialResult};
use crate::state::{CoreState, ExecutingTask, QueuedTask};
use crate::store::TaskStore;

pub use crate::store::RetiredTally;

/// Wire-format version of serving checkpoints (bumped on any layout
/// change; old versions are rejected, never reinterpreted).
pub const CHECKPOINT_VERSION: u32 = 3;

/// How the mapper-visible window is derived for a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The window is a known constant — the finite-trial semantics that
    /// `Simulation::run_with` runs with (the trace length).
    Fixed(u64),
    /// The window rolls with the stream: `arrived + lookahead`, updated at
    /// every arrival. `T_left` stays pinned at `lookahead + 1`, modelling
    /// a server that always expects about `lookahead` more tasks.
    Rolling {
        /// Tasks the mapper should assume are still coming.
        lookahead: u64,
    },
}

/// What the session keeps in memory as the stream flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every outcome and telemetry sample — required to build a full
    /// [`TrialResult`] via [`ServeSession::finish`].
    Full,
    /// Every `flush_every` events: retire settled tasks into the tally,
    /// fold telemetry samples, and compact energy logs. Resident memory is
    /// then bounded by in-flight work. Finish with
    /// [`ServeSession::finish_summary`].
    Bounded {
        /// Events between retire/fold/compact sweeps.
        flush_every: u64,
    },
}

/// Configuration of a serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Window semantics.
    pub horizon: Horizon,
    /// Memory policy.
    pub retention: Retention,
    /// Stop pulling from the source after this many arrivals (`None`:
    /// pull until the source is exhausted — mandatory cap for infinite
    /// sources).
    pub max_arrivals: Option<u64>,
}

impl ServeConfig {
    /// The finite-trial configuration `Simulation::run_with` uses for a
    /// trace of `window` tasks: fixed horizon, full retention, no cap.
    pub fn finite(window: usize) -> Self {
        Self {
            horizon: Horizon::Fixed(window as u64),
            retention: Retention::Full,
            max_arrivals: None,
        }
    }

    /// Bounded-memory configuration for an endless stream.
    pub fn streaming(lookahead: u64, flush_every: u64, max_arrivals: u64) -> Self {
        Self {
            horizon: Horizon::Rolling { lookahead },
            retention: Retention::Bounded { flush_every },
            max_arrivals: Some(max_arrivals),
        }
    }
}

pub use crate::telemetry::TelemetryFold;

/// The summary a bounded-retention session reports instead of a
/// per-task [`TrialResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Retired-task counts.
    pub tally: RetiredTally,
    /// Folded telemetry.
    pub fold: TelemetryFold,
    /// Total wall energy over the served span (Eq. 2, bit-identical to an
    /// uncompacted run).
    pub total_energy: f64,
    /// Time of the last processed event.
    pub makespan: Time,
    /// Events processed.
    pub events: u64,
    /// Arrivals pulled from the source.
    pub arrivals: u64,
}

/// A long-running scheduler session over an [`ArrivalSource`].
///
/// The source and discipline are passed to each method rather than owned,
/// so callers keep them inspectable between steps (and can checkpoint all
/// three together).
#[derive(Debug)]
pub struct ServeSession<'a> {
    ctx: EngineCtx<'a>,
    serve_cfg: ServeConfig,
    end_time: Time,
    events_processed: u64,
    arrivals_pulled: u64,
    done_pulling: bool,
    tally: RetiredTally,
}

impl<'a> ServeSession<'a> {
    /// Opens a session: primes the queue with the stream's first arrival
    /// and gives the discipline its trial-start hook.
    ///
    /// # Panics
    ///
    /// Panics when [`Retention::Bounded`] is combined with an energy
    /// budget (the exhaustion instant needs the full transition history
    /// that compaction folds away) or a zero `flush_every`.
    pub fn new(
        cluster: &'a Cluster,
        table: &'a ExecTable,
        cfg: &'a SimConfig,
        serve_cfg: ServeConfig,
        source: &mut dyn ArrivalSource,
        discipline: &mut dyn Discipline,
    ) -> Self {
        if let Retention::Bounded { flush_every } = serve_cfg.retention {
            assert!(flush_every > 0, "flush_every must be positive");
            assert!(
                cfg.energy_budget.is_none(),
                "bounded retention compacts energy logs and cannot honour an energy budget"
            );
        }
        let mut ctx = EngineCtx::new(cluster, table, cfg);
        ctx.window = match serve_cfg.horizon {
            Horizon::Fixed(n) => n as usize,
            Horizon::Rolling { lookahead } => lookahead as usize,
        };
        if matches!(serve_cfg.retention, Retention::Bounded { .. }) {
            // Stream samples straight into the fold: the per-trial
            // telemetry vectors stay empty for the whole session.
            ctx.fold = Some(TelemetryFold::default());
        }
        let mut session = Self {
            ctx,
            serve_cfg,
            end_time: 0.0,
            events_processed: 0,
            arrivals_pulled: 0,
            done_pulling: false,
            tally: RetiredTally::default(),
        };
        session.pull_next(source);
        discipline.on_trial_start(&mut session.ctx);
        session
    }

    /// Pulls the next task off the stream into the store and event queue.
    /// Keeps the one-pending-arrival invariant; a `None` from the source
    /// (or hitting `max_arrivals`) ends pulling permanently.
    fn pull_next(&mut self, source: &mut dyn ArrivalSource) {
        if self.done_pulling {
            return;
        }
        if let Some(max) = self.serve_cfg.max_arrivals {
            if self.arrivals_pulled >= max {
                self.done_pulling = true;
                return;
            }
        }
        match source.next_task() {
            None => self.done_pulling = true,
            Some(task) => {
                assert!(
                    task.arrival >= self.ctx.now,
                    "arrival stream must be nondecreasing in time"
                );
                self.ctx.store.push(task); // asserts dense id order
                self.ctx
                    .queue
                    .push(task.arrival, EventKind::Arrival(task.id));
                self.arrivals_pulled += 1;
            }
        }
    }

    /// Processes one event; returns `false` once the queue has drained
    /// (stream exhausted or capped, and all work completed).
    pub fn step(
        &mut self,
        source: &mut dyn ArrivalSource,
        discipline: &mut dyn Discipline,
    ) -> bool {
        let Some(event) = self.ctx.queue.pop() else {
            return false;
        };
        self.events_processed += 1;
        self.end_time = self.end_time.max(event.time);
        self.ctx.now = event.time;
        match event.kind {
            EventKind::Arrival(task_id) => {
                // Pull the successor before processing: equal-time arrivals
                // must already be queued when completions scheduled by this
                // hook land, preserving the pop order of a queue that holds
                // the whole trace.
                self.pull_next(source);
                self.ctx.arrived += 1;
                if let Horizon::Rolling { lookahead } = self.serve_cfg.horizon {
                    self.ctx.window = self.ctx.arrived + lookahead as usize;
                }
                debug_assert_eq!(
                    self.ctx.task(task_id).id,
                    task_id,
                    "stream must be id-ordered"
                );
                discipline.on_arrival(&mut self.ctx, task_id);
            }
            EventKind::Completion { core, task } => {
                self.ctx.store.outcome_mut(task).completion = Some(event.time);
                discipline.on_completion(&mut self.ctx, core, task);
            }
        }
        discipline.after_event(&mut self.ctx);
        if let Retention::Bounded { flush_every } = self.serve_cfg.retention {
            if self.events_processed % flush_every == 0 {
                self.retire_and_flush(discipline.holds_unassigned_tasks());
            }
        }
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self, source: &mut dyn ArrivalSource, discipline: &mut dyn Discipline) {
        while self.step(source, discipline) {}
    }

    /// Runs at most `n` events; returns how many were processed (fewer
    /// only when the queue drained).
    pub fn run_events(
        &mut self,
        n: u64,
        source: &mut dyn ArrivalSource,
        discipline: &mut dyn Discipline,
    ) -> u64 {
        let mut done = 0;
        while done < n && self.step(source, discipline) {
            done += 1;
        }
        done
    }

    fn retire_and_flush(&mut self, holds_unassigned: bool) {
        self.ctx
            .store
            .retire_settled(self.ctx.arrived, holds_unassigned, &mut self.tally);
        // Samples stream directly into the fold nowadays; absorbing here
        // only drains whatever a non-folding path buffered.
        let ctx = &mut self.ctx;
        if let Some(fold) = &mut ctx.fold {
            fold.absorb(&mut ctx.telemetry);
        }
        ctx.accountant.compact(ctx.cluster);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.ctx.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Arrivals pulled from the source so far.
    pub fn arrivals_pulled(&self) -> u64 {
        self.arrivals_pulled
    }

    /// Tasks currently resident in the windowed store.
    pub fn resident_tasks(&self) -> usize {
        self.ctx.store.resident()
    }

    /// The running retired-task tally (empty under [`Retention::Full`]).
    pub fn tally(&self) -> &RetiredTally {
        &self.tally
    }

    /// Finalizes a full-retention session into a per-task [`TrialResult`]
    /// — the only finalizer of a finite trial (`Simulation::run_with` ends
    /// here).
    ///
    /// # Panics
    ///
    /// Panics under bounded retention, or before the event queue drained.
    pub fn finish(mut self, discipline: &mut dyn Discipline) -> TrialResult {
        assert!(
            matches!(self.serve_cfg.retention, Retention::Full),
            "finish() needs full retention; use finish_summary()"
        );
        assert!(
            self.ctx.queue.is_empty(),
            "finish() before the event stream drained"
        );
        self.ctx.accountant.finalize(self.end_time);
        let mut telemetry = self.ctx.telemetry;
        telemetry.mapper = discipline.stats();
        telemetry.power = self.ctx.accountant.power_timeline(self.ctx.cluster);
        let total_energy = self.ctx.accountant.total_energy(self.ctx.cluster);
        let exhausted_at = self.ctx.cfg.energy_budget.and_then(|budget| {
            self.ctx
                .accountant
                .exhaustion_time(self.ctx.cluster, budget)
        });
        TrialResult::new(
            self.ctx.store.into_outcomes(),
            total_energy,
            exhausted_at,
            self.end_time,
            telemetry,
        )
    }

    /// Finalizes a bounded-retention session: one last retire/fold sweep,
    /// then the streaming summary.
    pub fn finish_summary(mut self, discipline: &dyn Discipline) -> ServeSummary {
        self.retire_and_flush(discipline.holds_unassigned_tasks());
        self.ctx.accountant.finalize(self.end_time);
        let total_energy = self.ctx.accountant.total_energy(self.ctx.cluster);
        let fold = match self.ctx.fold {
            Some(fold) => fold,
            // Full retention buffered every sample; fold them now.
            None => {
                let mut fold = TelemetryFold::default();
                fold.absorb(&mut self.ctx.telemetry);
                fold
            }
        };
        ServeSummary {
            tally: self.tally,
            fold,
            total_energy,
            makespan: self.end_time,
            events: self.events_processed,
            arrivals: self.arrivals_pulled,
        }
    }

    // ---- checkpoint / restore -------------------------------------------

    /// Serializes the complete session state — clock, queue, cores, energy
    /// logs, counters, telemetry, plus `source` and `discipline` state —
    /// into a sealed, versioned, checksummed buffer. Call only at an event
    /// boundary (between [`ServeSession::step`] calls).
    pub fn checkpoint(&self, source: &dyn ArrivalSource, discipline: &dyn Discipline) -> Vec<u8> {
        let mut enc = Encoder::new();
        // Config digests, verified on restore.
        encode_sim_config(&mut enc, self.ctx.cfg);
        encode_serve_config(&mut enc, &self.serve_cfg);
        // Scalars.
        enc.put_f64(self.ctx.now);
        enc.put_f64(self.end_time);
        enc.put_u64(self.ctx.arrived as u64);
        enc.put_u64(self.ctx.window as u64);
        enc.put_u64(self.events_processed);
        enc.put_u64(self.arrivals_pulled);
        enc.put_bool(self.done_pulling);
        // Tally and fold.
        enc.put_u64(self.tally.retired);
        enc.put_u64(self.tally.completed);
        enc.put_u64(self.tally.on_time);
        enc.put_u64(self.tally.cancelled);
        enc.put_u64(self.tally.discarded);
        let fold = self.ctx.fold.unwrap_or_default();
        enc.put_u64(fold.samples);
        enc.put_f64(fold.sum_queue_depth);
        enc.put_f64(fold.peak_queue_depth);
        enc.put_u64(fold.max_busy);
        // Windowed store.
        enc.put_u64(self.ctx.store.base() as u64);
        enc.put_u64(self.ctx.store.resident() as u64);
        for (task, outcome) in self
            .ctx
            .store
            .resident_tasks()
            .iter()
            .zip(self.ctx.store.resident_outcomes())
        {
            encode_task(&mut enc, task);
            encode_outcome(&mut enc, outcome);
        }
        // Cores, with epochs.
        enc.put_u64(self.ctx.cores.len() as u64);
        for core in &self.ctx.cores {
            match core.executing() {
                None => enc.put_bool(false),
                Some(exec) => {
                    enc.put_bool(true);
                    encode_executing(&mut enc, exec);
                }
            }
            enc.put_u64(core.queued().len() as u64);
            for queued in core.queued() {
                encode_queued(&mut enc, queued);
            }
            enc.put_u64(core.epoch());
        }
        // Energy logs (one per core).
        for i in 0..self.ctx.cores.len() {
            let log = self.ctx.accountant.log(i);
            enc.put_f64(log.folded());
            enc.put_u64(log.entries().len() as u64);
            for &(time, state) in log.entries() {
                enc.put_f64(time);
                enc.put_u8(state.index() as u8);
            }
            log.end_time().encode_into(&mut enc);
        }
        // Event queue, in pop order with preserved sequence numbers.
        enc.put_u64(self.ctx.queue.next_seq());
        let events = self.ctx.queue.snapshot();
        enc.put_u64(events.len() as u64);
        for (time, kind, seq) in events {
            enc.put_f64(time);
            encode_event_kind(&mut enc, kind);
            enc.put_u64(seq);
        }
        // Unflushed telemetry buffers.
        enc.put_u64(self.ctx.telemetry.queue_depth.len() as u64);
        for &(t, d) in &self.ctx.telemetry.queue_depth {
            enc.put_f64(t);
            enc.put_f64(d);
        }
        enc.put_u64(self.ctx.telemetry.busy_cores.len() as u64);
        for &(t, b) in &self.ctx.telemetry.busy_cores {
            enc.put_f64(t);
            enc.put_u64(b as u64);
        }
        // Collaborator state.
        source.save_state(&mut enc);
        discipline.save_state(&mut enc);
        seal(CHECKPOINT_VERSION, enc.as_slice())
    }

    /// Rebuilds a session from a [`checkpoint`](ServeSession::checkpoint),
    /// restoring `source` and `discipline` in place. The passed `cfg` must
    /// match the checkpointed configuration digest. The discipline's
    /// `on_trial_start` is *not* invoked — the decoded state is the
    /// mid-trial state, and resuming produces bit-identical behaviour to
    /// the uninterrupted run.
    ///
    /// Corrupted, truncated, or version-mismatched buffers yield a typed
    /// [`DecodeError`]; this path never panics on bad input.
    pub fn restore(
        cluster: &'a Cluster,
        table: &'a ExecTable,
        cfg: &'a SimConfig,
        bytes: &[u8],
        source: &mut dyn ArrivalSource,
        discipline: &mut dyn Discipline,
    ) -> Result<Self, DecodeError> {
        let body = open(bytes, CHECKPOINT_VERSION)?;
        let mut dec = Decoder::new(body);
        let saved_cfg = decode_sim_config(&mut dec)?;
        if saved_cfg != *cfg {
            return Err(DecodeError::Corrupt("checkpoint simulator config mismatch"));
        }
        let serve_cfg = decode_serve_config(&mut dec)?;
        // Scalars.
        let now = decode_finite(&mut dec)?;
        let end_time = decode_finite(&mut dec)?;
        let arrived = dec.u64()? as usize;
        let window = dec.u64()? as usize;
        let events_processed = dec.u64()?;
        let arrivals_pulled = dec.u64()?;
        let done_pulling = dec.bool()?;
        let tally = RetiredTally {
            retired: dec.u64()?,
            completed: dec.u64()?,
            on_time: dec.u64()?,
            cancelled: dec.u64()?,
            discarded: dec.u64()?,
        };
        let fold = TelemetryFold {
            samples: dec.u64()?,
            sum_queue_depth: dec.f64()?,
            peak_queue_depth: dec.f64()?,
            max_busy: dec.u64()?,
        };
        // Windowed store.
        let base = dec.u64()? as usize;
        let resident = checked_len(&mut dec, 41)?;
        let mut tasks = Vec::with_capacity(resident);
        let mut outcomes = Vec::with_capacity(resident);
        for i in 0..resident {
            let task = decode_task(&mut dec)?;
            if task.id.0 != base + i {
                return Err(DecodeError::Corrupt("store tasks not dense and id-ordered"));
            }
            outcomes.push(decode_outcome(&mut dec, &task)?);
            tasks.push(task);
        }
        if arrived > base + resident {
            return Err(DecodeError::Corrupt("arrived count exceeds streamed tasks"));
        }
        let store = TaskStore::from_checkpoint_parts(base, tasks, outcomes);
        // Cores.
        let num_cores = dec.u64()? as usize;
        if num_cores != cluster.total_cores() {
            return Err(DecodeError::Corrupt(
                "core count does not match the cluster",
            ));
        }
        let mut cores = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            let executing = if dec.bool()? {
                Some(decode_executing(&mut dec)?)
            } else {
                None
            };
            let queued_len = checked_len(&mut dec, 25)?;
            let mut queued = std::collections::VecDeque::with_capacity(queued_len);
            for _ in 0..queued_len {
                queued.push_back(decode_queued(&mut dec)?);
            }
            let epoch = dec.u64()?;
            cores.push(CoreState::from_checkpoint_parts(executing, queued, epoch));
        }
        // Energy logs.
        let mut logs = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            let folded = dec.f64()?;
            let entry_len = checked_len(&mut dec, 9)?;
            if entry_len == 0 {
                return Err(DecodeError::Corrupt("transition log must not be empty"));
            }
            let mut entries = Vec::with_capacity(entry_len);
            let mut prev = f64::NEG_INFINITY;
            for _ in 0..entry_len {
                let time = decode_finite(&mut dec)?;
                if time < prev {
                    return Err(DecodeError::Corrupt("transition log out of time order"));
                }
                prev = time;
                entries.push((time, decode_pstate(&mut dec)?));
            }
            let end = decode_opt_f64(&mut dec)?;
            logs.push(TransitionLog::from_checkpoint_parts(folded, entries, end));
        }
        // Event queue.
        let next_seq = dec.u64()?;
        let event_len = checked_len(&mut dec, 18)?;
        let mut events = Vec::with_capacity(event_len);
        for _ in 0..event_len {
            let time = decode_finite(&mut dec)?;
            let kind = decode_event_kind(&mut dec)?;
            let seq = dec.u64()?;
            if seq >= next_seq {
                return Err(DecodeError::Corrupt(
                    "event sequence beyond the queue counter",
                ));
            }
            events.push((time, kind, seq));
        }
        // Telemetry buffers.
        let depth_len = checked_len(&mut dec, 16)?;
        let mut queue_depth = Vec::with_capacity(depth_len);
        for _ in 0..depth_len {
            queue_depth.push((dec.f64()?, dec.f64()?));
        }
        let busy_len = checked_len(&mut dec, 16)?;
        let mut busy_cores = Vec::with_capacity(busy_len);
        for _ in 0..busy_len {
            busy_cores.push((dec.f64()?, dec.u64()? as usize));
        }
        // Collaborator state, then the trailing-bytes check.
        source.restore_state(&mut dec)?;
        discipline.restore_state(&mut dec)?;
        dec.finish()?;

        let telemetry = crate::telemetry::Telemetry {
            queue_depth,
            busy_cores,
            power: Vec::new(),
            mapper: crate::telemetry::MapperStats::default(),
        };
        // Derived engine state is rebuilt, not decoded: the load
        // aggregates come from one scan of the restored cores, and the
        // dirty-core mailbox restarts empty (consumers full-scan once).
        let depth_total = cores.iter().map(CoreState::depth).sum();
        let busy = cores.iter().filter(|c| !c.is_idle()).count();
        let ctx = EngineCtx {
            cluster,
            table,
            cfg,
            store,
            window,
            cores,
            accountant: crate::energy::EnergyAccountant::from_logs(logs),
            queue: crate::event::EventQueue::from_parts(next_seq, events),
            telemetry,
            arrived,
            now,
            dirty: crate::dirty::DirtyCores::default(),
            depth_total,
            busy,
            fold: match serve_cfg.retention {
                Retention::Bounded { .. } => Some(fold),
                Retention::Full => None,
            },
        };
        Ok(Self {
            ctx,
            serve_cfg,
            end_time,
            events_processed,
            arrivals_pulled,
            done_pulling,
            tally,
        })
    }
}

// ---- field codecs -------------------------------------------------------

/// Reads a vector length and rejects lengths that cannot possibly fit the
/// remaining buffer (`min_elem` = minimum encoded bytes per element), so a
/// corrupted count fails fast instead of attempting a huge allocation.
fn checked_len(dec: &mut Decoder<'_>, min_elem: u64) -> Result<usize, DecodeError> {
    let n = dec.u64()?;
    if n > dec.remaining() / min_elem {
        return Err(DecodeError::Truncated);
    }
    Ok(n as usize)
}

fn decode_finite(dec: &mut Decoder<'_>) -> Result<f64, DecodeError> {
    let v = dec.f64()?;
    if !v.is_finite() {
        return Err(DecodeError::Corrupt("expected a finite f64"));
    }
    Ok(v)
}

fn decode_opt_f64(dec: &mut Decoder<'_>) -> Result<Option<f64>, DecodeError> {
    Ok(if dec.bool()? { Some(dec.f64()?) } else { None })
}

/// Extension trait shim: encode an `Option<f64>` with a presence flag.
trait EncodeOptF64 {
    fn encode_into(&self, enc: &mut Encoder);
}

impl EncodeOptF64 for Option<f64> {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                enc.put_f64(*v);
            }
        }
    }
}

fn decode_pstate(dec: &mut Decoder<'_>) -> Result<PState, DecodeError> {
    let idx = dec.u8()?;
    if idx >= 5 {
        return Err(DecodeError::Corrupt("p-state index out of range"));
    }
    Ok(PState::from_index(idx as usize))
}

fn encode_sim_config(enc: &mut Encoder, cfg: &SimConfig) {
    enc.put_u8(cfg.initial_pstate.index() as u8);
    match cfg.energy_budget {
        None => enc.put_bool(false),
        Some(b) => {
            enc.put_bool(true);
            enc.put_f64(b);
        }
    }
    match cfg.idle_downshift {
        None => enc.put_bool(false),
        Some(s) => {
            enc.put_bool(true);
            enc.put_u8(s.index() as u8);
        }
    }
    enc.put_bool(cfg.cancel_overdue);
}

fn decode_sim_config(dec: &mut Decoder<'_>) -> Result<SimConfig, DecodeError> {
    let initial_pstate = decode_pstate(dec)?;
    let energy_budget = decode_opt_f64(dec)?;
    let idle_downshift = if dec.bool()? {
        Some(decode_pstate(dec)?)
    } else {
        None
    };
    let cancel_overdue = dec.bool()?;
    Ok(SimConfig {
        initial_pstate,
        energy_budget,
        idle_downshift,
        cancel_overdue,
    })
}

fn encode_serve_config(enc: &mut Encoder, cfg: &ServeConfig) {
    match cfg.horizon {
        Horizon::Fixed(n) => {
            enc.put_u8(0);
            enc.put_u64(n);
        }
        Horizon::Rolling { lookahead } => {
            enc.put_u8(1);
            enc.put_u64(lookahead);
        }
    }
    match cfg.retention {
        Retention::Full => {
            enc.put_u8(0);
            enc.put_u64(0);
        }
        Retention::Bounded { flush_every } => {
            enc.put_u8(1);
            enc.put_u64(flush_every);
        }
    }
    match cfg.max_arrivals {
        None => enc.put_bool(false),
        Some(n) => {
            enc.put_bool(true);
            enc.put_u64(n);
        }
    }
}

fn decode_serve_config(dec: &mut Decoder<'_>) -> Result<ServeConfig, DecodeError> {
    let horizon = match dec.u8()? {
        0 => Horizon::Fixed(dec.u64()?),
        1 => Horizon::Rolling {
            lookahead: dec.u64()?,
        },
        _ => return Err(DecodeError::Corrupt("unknown horizon tag")),
    };
    let retention = match dec.u8()? {
        0 => {
            let _ = dec.u64()?;
            Retention::Full
        }
        1 => {
            let flush_every = dec.u64()?;
            if flush_every == 0 {
                return Err(DecodeError::Corrupt("flush_every must be positive"));
            }
            Retention::Bounded { flush_every }
        }
        _ => return Err(DecodeError::Corrupt("unknown retention tag")),
    };
    let max_arrivals = if dec.bool()? { Some(dec.u64()?) } else { None };
    Ok(ServeConfig {
        horizon,
        retention,
        max_arrivals,
    })
}

fn encode_task(enc: &mut Encoder, task: &Task) {
    enc.put_u64(task.id.0 as u64);
    enc.put_u64(task.type_id.0 as u64);
    enc.put_f64(task.arrival);
    enc.put_f64(task.deadline);
    enc.put_f64(task.quantile);
}

fn decode_task(dec: &mut Decoder<'_>) -> Result<Task, DecodeError> {
    Ok(Task {
        id: TaskId(dec.u64()? as usize),
        type_id: TaskTypeId(dec.u64()? as usize),
        arrival: decode_finite(dec)?,
        deadline: decode_finite(dec)?,
        quantile: dec.f64()?,
    })
}

fn encode_outcome(enc: &mut Encoder, outcome: &TaskOutcome) {
    match outcome.assignment {
        None => enc.put_bool(false),
        Some((core, pstate)) => {
            enc.put_bool(true);
            enc.put_u64(core as u64);
            enc.put_u8(pstate.index() as u8);
        }
    }
    outcome.start.encode_into(enc);
    outcome.completion.encode_into(enc);
    enc.put_bool(outcome.cancelled);
}

/// Decodes an outcome; the identifying fields are rebuilt from the
/// already-decoded task rather than stored twice.
fn decode_outcome(dec: &mut Decoder<'_>, task: &Task) -> Result<TaskOutcome, DecodeError> {
    let assignment = if dec.bool()? {
        Some((dec.u64()? as usize, decode_pstate(dec)?))
    } else {
        None
    };
    Ok(TaskOutcome {
        task: task.id,
        type_id: task.type_id,
        arrival: task.arrival,
        deadline: task.deadline,
        assignment,
        start: decode_opt_f64(dec)?,
        completion: decode_opt_f64(dec)?,
        cancelled: dec.bool()?,
    })
}

fn encode_executing(enc: &mut Encoder, exec: &ExecutingTask) {
    enc.put_u64(exec.task.0 as u64);
    enc.put_u64(exec.type_id.0 as u64);
    enc.put_u8(exec.pstate.index() as u8);
    enc.put_f64(exec.start);
    enc.put_f64(exec.deadline);
}

fn decode_executing(dec: &mut Decoder<'_>) -> Result<ExecutingTask, DecodeError> {
    Ok(ExecutingTask {
        task: TaskId(dec.u64()? as usize),
        type_id: TaskTypeId(dec.u64()? as usize),
        pstate: decode_pstate(dec)?,
        start: decode_finite(dec)?,
        deadline: decode_finite(dec)?,
    })
}

fn encode_queued(enc: &mut Encoder, queued: &QueuedTask) {
    enc.put_u64(queued.task.0 as u64);
    enc.put_u64(queued.type_id.0 as u64);
    enc.put_u8(queued.pstate.index() as u8);
    enc.put_f64(queued.deadline);
}

fn decode_queued(dec: &mut Decoder<'_>) -> Result<QueuedTask, DecodeError> {
    Ok(QueuedTask {
        task: TaskId(dec.u64()? as usize),
        type_id: TaskTypeId(dec.u64()? as usize),
        pstate: decode_pstate(dec)?,
        deadline: decode_finite(dec)?,
    })
}

fn encode_event_kind(enc: &mut Encoder, kind: EventKind) {
    match kind {
        EventKind::Arrival(task) => {
            enc.put_u8(0);
            enc.put_u64(task.0 as u64);
            enc.put_u64(0);
        }
        EventKind::Completion { core, task } => {
            enc.put_u8(1);
            enc.put_u64(core as u64);
            enc.put_u64(task.0 as u64);
        }
    }
}

fn decode_event_kind(dec: &mut Decoder<'_>) -> Result<EventKind, DecodeError> {
    match dec.u8()? {
        0 => {
            let task = TaskId(dec.u64()? as usize);
            let _ = dec.u64()?;
            Ok(EventKind::Arrival(task))
        }
        1 => Ok(EventKind::Completion {
            core: dec.u64()? as usize,
            task: TaskId(dec.u64()? as usize),
        }),
        _ => Err(DecodeError::Corrupt("unknown event tag")),
    }
}
