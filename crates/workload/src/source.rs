//! Streaming arrival sources for the continuous-serving engine.
//!
//! The serve loop pulls tasks one at a time through [`ArrivalSource`],
//! whether the stream is a pre-generated finite [`WorkloadTrace`] (a
//! trial) or endless. Sources are deterministic — the task stream is a pure
//! function of the construction parameters and the number of pulls — and
//! checkpointable: [`ArrivalSource::save_state`] captures exactly the
//! mutable cursor/RNG state, so a restored source resumes the stream at
//! precisely the same position with the same future draws.

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::{Exponential, SeedDerive, Stream, Time};
use rand::rngs::StdRng;
use rand::Rng;

use crate::arrivals::{ArrivalPhase, BurstPattern};
use crate::config::WorkloadConfig;
use crate::exec_table::ExecTable;
use crate::task::{Task, TaskId, TaskTypeId};
use crate::trace::WorkloadTrace;

/// A deterministic stream of tasks in nondecreasing arrival order with
/// densely increasing ids (`TaskId(0)`, `TaskId(1)`, ...).
///
/// `next_task` pulls the next task, or `None` when a finite stream is
/// exhausted (infinite sources never return `None`). The state methods
/// serialize only the *mutable* position of the stream — the construction
/// parameters (pattern, tables, seeds) are the caller's to reproduce, and
/// restoring into a source built with different parameters is undefined
/// (though never unsafe: decoding validates structural invariants).
pub trait ArrivalSource {
    /// Pulls the next task off the stream.
    fn next_task(&mut self) -> Option<Task>;

    /// Serializes the stream position (cursor, RNG state) for a checkpoint.
    fn save_state(&self, enc: &mut Encoder);

    /// Restores the stream position captured by
    /// [`ArrivalSource::save_state`].
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError>;
}

/// The finite source: streams a pre-generated [`WorkloadTrace`] task by
/// task. This is the paper-scale path: every finite trial is a serve run
/// over this source.
#[derive(Debug, Clone)]
pub struct TraceArrivalSource<'a> {
    tasks: &'a [Task],
    cursor: u64,
}

impl<'a> TraceArrivalSource<'a> {
    /// Streams `trace` from the beginning.
    pub fn new(trace: &'a WorkloadTrace) -> Self {
        Self::from_tasks(trace.tasks())
    }

    /// Streams an id-ordered task slice from the beginning.
    pub fn from_tasks(tasks: &'a [Task]) -> Self {
        debug_assert!(
            tasks.iter().enumerate().all(|(i, t)| t.id == TaskId(i)),
            "source tasks must be dense and id-ordered"
        );
        Self { tasks, cursor: 0 }
    }

    /// Tasks pulled so far.
    pub fn pulled(&self) -> u64 {
        self.cursor
    }
}

impl ArrivalSource for TraceArrivalSource<'_> {
    fn next_task(&mut self) -> Option<Task> {
        let task = self.tasks.get(self.cursor as usize).copied()?;
        self.cursor += 1;
        Some(task)
    }

    fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.cursor);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let cursor = dec.u64()?;
        if cursor > self.tasks.len() as u64 {
            return Err(DecodeError::Corrupt("trace cursor beyond trace length"));
        }
        self.cursor = cursor;
        Ok(())
    }
}

/// The infinite source: an endless bursty-λ Poisson arrival stream cycling
/// a [`BurstPattern`]'s phases forever, drawing each task's arrival gap,
/// type and quantile and deriving its Sec. VI deadline.
///
/// This is the workspace's one task generator: a [`WorkloadTrace`] is the
/// first `window` tasks of this stream on the `b = 0` substreams of
/// [`Stream::Arrivals`], [`Stream::TaskTypes`], and [`Stream::Quantiles`].
/// [`BurstyArrivalSource::new`] uses the `b = 1` substreams, so a serve
/// run over it never shares draws with the trial-shaped path of the same
/// `(master seed, trial)`.
#[derive(Debug, Clone)]
pub struct BurstyArrivalSource {
    phases: Vec<ArrivalPhase>,
    type_averages: Vec<Time>,
    t_avg: Time,
    arrival_rng: StdRng,
    type_rng: StdRng,
    quantile_rng: StdRng,
    /// Index of the phase the next gap is drawn from.
    phase: usize,
    /// Tasks already emitted within the current phase.
    in_phase: usize,
    /// Arrival time of the most recently emitted task.
    now: Time,
    /// Id the next pulled task receives.
    next_id: u64,
}

impl BurstyArrivalSource {
    /// Builds the stream for `(seeds, trial)`, cycling `pattern` forever.
    ///
    /// `cfg` and `table` supply the type count, per-type average execution
    /// times, and `t_avg` for the Sec. VI deadline formula; both are copied
    /// out, so the source borrows nothing.
    pub fn new(
        pattern: BurstPattern,
        cfg: &WorkloadConfig,
        table: &ExecTable,
        seeds: &SeedDerive,
        trial: u64,
    ) -> Self {
        Self::on_substream(pattern.phases(), cfg, table, seeds, trial, 1)
    }

    /// The stream for `(seeds, trial)` drawn on substream `b` of the
    /// arrival, type and quantile streams — `b = 0` is the finite trace's.
    pub(crate) fn on_substream(
        phases: &[ArrivalPhase],
        cfg: &WorkloadConfig,
        table: &ExecTable,
        seeds: &SeedDerive,
        trial: u64,
        b: u64,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.num_types,
            table.num_types(),
            "config and table disagree on task-type count"
        );
        let type_averages = (0..cfg.num_types)
            .map(|i| table.type_average(TaskTypeId(i)))
            .collect();
        Self {
            phases: phases.to_vec(),
            type_averages,
            t_avg: table.t_avg(),
            arrival_rng: seeds.rng(Stream::Arrivals, trial, b),
            type_rng: seeds.rng(Stream::TaskTypes, trial, b),
            quantile_rng: seeds.rng(Stream::Quantiles, trial, b),
            phase: 0,
            in_phase: 0,
            now: 0.0,
            next_id: 0,
        }
    }

    /// Arrival time of the most recently pulled task.
    pub fn now(&self) -> Time {
        self.now
    }
}

impl ArrivalSource for BurstyArrivalSource {
    fn next_task(&mut self) -> Option<Task> {
        let rate = self.phases[self.phase].rate;
        self.now += Exponential::new(rate).sample(&mut self.arrival_rng);
        self.in_phase += 1;
        if self.in_phase >= self.phases[self.phase].count {
            self.in_phase = 0;
            self.phase = (self.phase + 1) % self.phases.len();
        }
        let type_id = TaskTypeId(self.type_rng.gen_range(0..self.type_averages.len()));
        let quantile: f64 = self.quantile_rng.gen_range(0.0..1.0);
        let deadline = self.now + self.type_averages[type_id.0] + self.t_avg;
        let id = TaskId(self.next_id as usize);
        self.next_id += 1;
        Some(Task {
            id,
            type_id,
            arrival: self.now,
            deadline,
            quantile,
        })
    }

    fn save_state(&self, enc: &mut Encoder) {
        [
            self.arrival_rng.state(),
            self.type_rng.state(),
            self.quantile_rng.state(),
        ]
        .encode(enc);
        enc.put_u64(self.phase as u64);
        enc.put_u64(self.in_phase as u64);
        enc.put_f64(self.now);
        enc.put_u64(self.next_id);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let [arrival, types, quantiles] = <[[u64; 4]; 3]>::decode(dec)?;
        let phase = dec.u64()?;
        let in_phase = dec.u64()?;
        let now = dec.f64()?;
        let next_id = dec.u64()?;
        if phase as usize >= self.phases.len() {
            return Err(DecodeError::Corrupt("bursty phase index out of range"));
        }
        if in_phase as usize >= self.phases[phase as usize].count {
            return Err(DecodeError::Corrupt("bursty in-phase count out of range"));
        }
        if !now.is_finite() || now < 0.0 {
            return Err(DecodeError::Corrupt("bursty clock not a finite time"));
        }
        self.arrival_rng = StdRng::from_state(arrival);
        self.type_rng = StdRng::from_state(types);
        self.quantile_rng = StdRng::from_state(quantiles);
        self.phase = phase as usize;
        self.in_phase = in_phase as usize;
        self.now = now;
        self.next_id = next_id;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_cluster::{generate_cluster, ClusterGenConfig};

    fn setup() -> (WorkloadConfig, ExecTable, SeedDerive) {
        let seeds = SeedDerive::new(21);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        (cfg, table, seeds)
    }

    fn bit_eq(a: &Task, b: &Task) -> bool {
        a.id == b.id
            && a.type_id == b.type_id
            && a.arrival.to_bits() == b.arrival.to_bits()
            && a.deadline.to_bits() == b.deadline.to_bits()
            && a.quantile.to_bits() == b.quantile.to_bits()
    }

    #[test]
    fn trace_source_streams_the_trace_verbatim() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let mut src = TraceArrivalSource::new(&trace);
        for expected in trace.tasks() {
            let got = src.next_task().expect("stream covers the trace");
            assert!(bit_eq(&got, expected));
        }
        assert_eq!(src.next_task(), None, "finite stream ends");
        assert_eq!(src.pulled(), trace.len() as u64);
    }

    #[test]
    fn trace_source_roundtrips_mid_stream() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 1);
        let mut src = TraceArrivalSource::new(&trace);
        for _ in 0..7 {
            let _ = src.next_task();
        }
        let mut enc = Encoder::new();
        src.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = TraceArrivalSource::new(&trace);
        restored
            .restore_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        let a: Vec<Task> = std::iter::from_fn(|| src.next_task()).collect();
        let b: Vec<Task> = std::iter::from_fn(|| restored.next_task()).collect();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| bit_eq(x, y)));
    }

    #[test]
    fn trace_source_rejects_cursor_beyond_length() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let mut enc = Encoder::new();
        enc.put_u64(trace.len() as u64 + 1);
        let bytes = enc.into_bytes();
        let mut src = TraceArrivalSource::new(&trace);
        assert_eq!(
            src.restore_state(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("trace cursor beyond trace length"))
        );
    }

    #[test]
    fn bursty_source_is_infinite_ordered_and_valid() {
        let (cfg, table, seeds) = setup();
        let mut src = BurstyArrivalSource::new(BurstPattern::scaled(60), &cfg, &table, &seeds, 0);
        let mut last_arrival = 0.0f64;
        for i in 0..500 {
            let t = src.next_task().expect("infinite stream");
            assert_eq!(t.id, TaskId(i));
            assert!(t.arrival >= last_arrival);
            assert!(t.type_id.0 < cfg.num_types);
            assert!((0.0..1.0).contains(&t.quantile));
            let expected = t.arrival + table.type_average(t.type_id) + table.t_avg();
            assert_eq!(t.deadline.to_bits(), expected.to_bits());
            last_arrival = t.arrival;
        }
    }

    #[test]
    fn bursty_source_is_reproducible_and_trial_dependent() {
        let (cfg, table, seeds) = setup();
        let pull = |trial: u64| {
            let mut src =
                BurstyArrivalSource::new(BurstPattern::scaled(60), &cfg, &table, &seeds, trial);
            (0..100)
                .map(|_| src.next_task().unwrap())
                .collect::<Vec<_>>()
        };
        let a = pull(0);
        let b = pull(0);
        assert!(a.iter().zip(&b).all(|(x, y)| bit_eq(x, y)));
        let c = pull(1);
        assert!(a.iter().zip(&c).any(|(x, y)| !bit_eq(x, y)));
    }

    #[test]
    fn bursty_source_differs_from_the_finite_trace_stream() {
        // The infinite source draws from the b = 1 substreams, so it must
        // not replay the finite trace's arrivals.
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let mut src = BurstyArrivalSource::new(cfg.arrivals.clone(), &cfg, &table, &seeds, 0);
        let first = src.next_task().unwrap();
        assert_ne!(
            first.arrival.to_bits(),
            trace.tasks()[0].arrival.to_bits(),
            "substream b=1 must not alias b=0"
        );
    }

    #[test]
    fn bursty_source_roundtrips_mid_stream_bit_identically() {
        let (cfg, table, seeds) = setup();
        let mut src = BurstyArrivalSource::new(BurstPattern::scaled(60), &cfg, &table, &seeds, 3);
        for _ in 0..137 {
            let _ = src.next_task();
        }
        let mut enc = Encoder::new();
        src.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored =
            BurstyArrivalSource::new(BurstPattern::scaled(60), &cfg, &table, &seeds, 3);
        restored
            .restore_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        for _ in 0..300 {
            let a = src.next_task().unwrap();
            let b = restored.next_task().unwrap();
            assert!(bit_eq(&a, &b), "restored stream diverged at {:?}", a.id);
        }
    }

    #[test]
    fn bursty_restore_rejects_out_of_range_phase() {
        let (cfg, table, seeds) = setup();
        let mut src = BurstyArrivalSource::new(BurstPattern::scaled(60), &cfg, &table, &seeds, 0);
        let mut enc = Encoder::new();
        src.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        // The phase index is the 13th u64 (after three 4-word RNG states).
        let off = 12 * 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            src.restore_state(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("bursty phase index out of range"))
        );
    }

    #[test]
    fn bursty_phases_cycle_forever() {
        let (cfg, table, seeds) = setup();
        let pattern = BurstPattern::scaled(60);
        let per_cycle = pattern.total_tasks();
        let mut src = BurstyArrivalSource::new(pattern, &cfg, &table, &seeds, 0);
        // Pull through three full cycles without exhausting the stream.
        for _ in 0..3 * per_cycle {
            assert!(src.next_task().is_some());
        }
    }
}
