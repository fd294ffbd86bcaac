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

use ecds_cluster::Cluster;
use ecds_persist::{open, seal, DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;
use ecds_workload::{ArrivalSource, ExecTable};

use crate::config::SimConfig;
use crate::dirty::DirtyCores;
use crate::discipline::{Discipline, EngineCtx};
use crate::energy::{exhaustion_time, EnergyAccountant, TransitionLog};
use crate::event::{EventKind, EventQueue};
use crate::result::TrialResult;
use crate::state::CoreState;
use crate::store::TaskStore;
use crate::telemetry::Telemetry;

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

/// `horizon tag ‖ u64 ‖ retention tag ‖ u64 ‖ max_arrivals`; full
/// retention pads its `u64` with 0, and a bounded `flush_every` must be
/// positive.
impl Persist for ServeConfig {
    const MIN_ENCODED_LEN: u64 = 9 + 9 + 1;

    fn encode(&self, enc: &mut Encoder) {
        match self.horizon {
            Horizon::Fixed(n) => {
                enc.put_u8(0);
                enc.put_u64(n);
            }
            Horizon::Rolling { lookahead } => {
                enc.put_u8(1);
                enc.put_u64(lookahead);
            }
        }
        match self.retention {
            Retention::Full => {
                enc.put_u8(0);
                enc.put_u64(0);
            }
            Retention::Bounded { flush_every } => {
                enc.put_u8(1);
                enc.put_u64(flush_every);
            }
        }
        self.max_arrivals.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let horizon = match dec.u8()? {
            0 => Horizon::Fixed(dec.u64()?),
            1 => Horizon::Rolling {
                lookahead: dec.u64()?,
            },
            _ => return Err(DecodeError::Corrupt("unknown horizon tag")),
        };
        let retention = match dec.u8()? {
            0 => {
                dec.u64()?;
                Retention::Full
            }
            1 => match dec.u64()? {
                0 => return Err(DecodeError::Corrupt("flush_every must be positive")),
                flush_every => Retention::Bounded { flush_every },
            },
            _ => return Err(DecodeError::Corrupt("unknown retention tag")),
        };
        Ok(Self {
            horizon,
            retention,
            max_arrivals: Option::decode(dec)?,
        })
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
        self.ctx.accountant.compact(self.ctx.cluster);
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
        let exhausted_at = self
            .ctx
            .cfg
            .energy_budget
            .and_then(|budget| exhaustion_time(&telemetry.power, self.end_time, budget));
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
        let ctx = &self.ctx;
        let mut enc = Encoder::new();
        // Config digests, verified on restore.
        ctx.cfg.encode(&mut enc);
        self.serve_cfg.encode(&mut enc);
        // Scalars.
        enc.put_f64(ctx.now);
        enc.put_f64(self.end_time);
        enc.put_u64(ctx.arrived as u64);
        enc.put_u64(ctx.window as u64);
        enc.put_u64(self.events_processed);
        enc.put_u64(self.arrivals_pulled);
        enc.put_bool(self.done_pulling);
        self.tally.encode(&mut enc);
        ctx.fold.unwrap_or_default().encode(&mut enc);
        ctx.store.encode(&mut enc);
        ctx.cores.encode(&mut enc);
        // One energy log per core, without a count: the cluster fixes it.
        for log in &ctx.accountant.logs {
            log.encode(&mut enc);
        }
        ctx.queue.encode(&mut enc);
        // Unflushed telemetry buffers.
        ctx.telemetry.queue_depth.encode(&mut enc);
        enc.put_u64(ctx.telemetry.busy_cores.len() as u64);
        for &(t, busy) in &ctx.telemetry.busy_cores {
            enc.put_f64(t);
            enc.put_u64(busy as u64);
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
        if SimConfig::decode(&mut dec)? != *cfg {
            return Err(DecodeError::Corrupt("checkpoint simulator config mismatch"));
        }
        let serve_cfg = ServeConfig::decode(&mut dec)?;
        // Scalars.
        let now = dec.finite_f64()?;
        let end_time = dec.finite_f64()?;
        let arrived = dec.u64()? as usize;
        let window = dec.u64()? as usize;
        let events_processed = dec.u64()?;
        let arrivals_pulled = dec.u64()?;
        let done_pulling = dec.bool()?;
        let tally = RetiredTally::decode(&mut dec)?;
        let fold = TelemetryFold::decode(&mut dec)?;
        let store = TaskStore::decode(&mut dec)?;
        if arrived > store.total() {
            return Err(DecodeError::Corrupt("arrived count exceeds streamed tasks"));
        }
        let cores = Vec::<CoreState>::decode(&mut dec)?;
        if cores.len() != cluster.total_cores() {
            return Err(DecodeError::Corrupt(
                "core count does not match the cluster",
            ));
        }
        let mut logs = Vec::with_capacity(cores.len());
        for _ in &cores {
            logs.push(TransitionLog::decode(&mut dec)?);
        }
        let queue = EventQueue::decode(&mut dec)?;
        let queue_depth = Vec::decode(&mut dec)?;
        let busy_len = dec.len_prefix(16)?;
        let mut busy_cores = Vec::with_capacity(busy_len as usize);
        for _ in 0..busy_len {
            busy_cores.push((dec.f64()?, dec.u64()? as usize));
        }
        // Bounded retention folds every sample as it is taken, so its
        // checkpoints never carry a sample buffer.
        if matches!(serve_cfg.retention, Retention::Bounded { .. })
            && !(queue_depth.is_empty() && busy_cores.is_empty())
        {
            return Err(DecodeError::Corrupt(
                "bounded checkpoint carries buffered telemetry",
            ));
        }
        // Collaborator state, then the trailing-bytes check.
        source.restore_state(&mut dec)?;
        discipline.restore_state(&mut dec)?;
        dec.finish()?;

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
            accountant: EnergyAccountant { logs },
            queue,
            telemetry: Telemetry {
                queue_depth,
                busy_cores,
                ..Telemetry::default()
            },
            arrived,
            now,
            dirty: DirtyCores::default(),
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
