//! Windowed storage for tasks and their outcomes.
//!
//! Tasks are pushed one at a time as the serving loop pulls them off the
//! arrival stream. [`TaskStore`] keeps the two parallel arrays *windowed*:
//! ids below `base` have been retired (their outcome folded into the
//! serving tally) and only the resident suffix stays in memory, so resident
//! bytes are bounded by in-flight work rather than stream length. Full
//! retention (every finite trial) never retires, so `base` stays 0 and
//! [`TaskStore::into_outcomes`] returns every outcome.

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_workload::{Task, TaskId};

use crate::result::TaskOutcome;
use crate::state::{decode_pstate, encode_pstate};

/// Running counts of retired (settled and evicted) tasks in a serving
/// session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetiredTally {
    /// Tasks retired from the store.
    pub retired: u64,
    /// Retired tasks that finished executing (on time or not).
    pub completed: u64,
    /// Retired tasks that finished by their deadlines.
    pub on_time: u64,
    /// Retired tasks dropped by the `cancel_overdue` extension.
    pub cancelled: u64,
    /// Retired tasks the discipline discarded (never assigned).
    pub discarded: u64,
}

impl RetiredTally {
    fn absorb(&mut self, outcome: &TaskOutcome) {
        self.retired += 1;
        if outcome.completion.is_some() {
            self.completed += 1;
        }
        if outcome.on_time() {
            self.on_time += 1;
        }
        if outcome.cancelled {
            self.cancelled += 1;
        }
        if outcome.assignment.is_none() {
            self.discarded += 1;
        }
    }
}

/// The five counts in field order.
impl Persist for RetiredTally {
    const MIN_ENCODED_LEN: u64 = 40;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.retired);
        enc.put_u64(self.completed);
        enc.put_u64(self.on_time);
        enc.put_u64(self.cancelled);
        enc.put_u64(self.discarded);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            retired: dec.u64()?,
            completed: dec.u64()?,
            on_time: dec.u64()?,
            cancelled: dec.u64()?,
            discarded: dec.u64()?,
        })
    }
}

/// Parallel task/outcome arrays with a retired prefix.
///
/// `tasks[i]` always has id `base + i`; `outcomes[i]` is its outcome.
#[derive(Debug)]
pub(crate) struct TaskStore {
    base: usize,
    tasks: Vec<Task>,
    outcomes: Vec<TaskOutcome>,
}

impl TaskStore {
    /// An empty store (streaming construction).
    pub(crate) fn new() -> Self {
        Self {
            base: 0,
            tasks: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Appends the next task of the stream with a blank outcome.
    ///
    /// # Panics
    ///
    /// Panics when `task.id` is not the next dense id.
    pub(crate) fn push(&mut self, task: Task) {
        assert_eq!(
            task.id.0,
            self.total(),
            "arrival stream must be dense and id-ordered"
        );
        self.tasks.push(task);
        self.outcomes.push(TaskOutcome {
            task: task.id,
            type_id: task.type_id,
            arrival: task.arrival,
            deadline: task.deadline,
            assignment: None,
            start: None,
            completion: None,
            cancelled: false,
        });
    }

    /// One past the highest id ever stored.
    pub(crate) fn total(&self) -> usize {
        self.base + self.tasks.len()
    }

    /// Resident task count.
    pub(crate) fn resident(&self) -> usize {
        self.tasks.len()
    }

    /// The resident outcomes, id-ordered from the first resident id.
    pub(crate) fn resident_outcomes(&self) -> &[TaskOutcome] {
        &self.outcomes
    }

    /// One resident task by id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is retired or not yet streamed in.
    pub(crate) fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0 - self.base]
    }

    /// Mutable outcome of one resident task.
    pub(crate) fn outcome_mut(&mut self, id: TaskId) -> &mut TaskOutcome {
        &mut self.outcomes[id.0 - self.base]
    }

    /// Immutable outcome of one resident task.
    #[cfg(test)]
    pub(crate) fn outcome(&self, id: TaskId) -> &TaskOutcome {
        &self.outcomes[id.0 - self.base]
    }

    /// Retires the maximal settled prefix into `tally` and returns how
    /// many tasks were evicted.
    ///
    /// A task is settled once its fate can never change: it completed, it
    /// was cancelled, or it arrived unassigned under a discipline that
    /// commits (or discards) at arrival (`holds_unassigned` is `true` for
    /// disciplines — batch mode — that may still assign an arrived,
    /// unassigned task later). Only ids below `arrived` are candidates:
    /// a streamed-in task whose arrival event has not fired yet has a
    /// blank outcome that looks discarded but is not settled.
    pub(crate) fn retire_settled(
        &mut self,
        arrived: usize,
        holds_unassigned: bool,
        tally: &mut RetiredTally,
    ) -> usize {
        let mut n = 0;
        while n < self.tasks.len() && self.base + n < arrived {
            let outcome = &self.outcomes[n];
            let settled = outcome.completion.is_some()
                || outcome.cancelled
                || (outcome.assignment.is_none() && !holds_unassigned);
            if !settled {
                break;
            }
            tally.absorb(outcome);
            n += 1;
        }
        self.tasks.drain(..n);
        self.outcomes.drain(..n);
        self.base += n;
        n
    }

    /// Consumes the store into the full outcome vector (full-retention
    /// finalization).
    ///
    /// # Panics
    ///
    /// Panics when any outcome was retired — a retired trial can only be
    /// summarized, not turned into a per-task result.
    pub(crate) fn into_outcomes(self) -> Vec<TaskOutcome> {
        assert_eq!(self.base, 0, "cannot build a TrialResult after retirement");
        self.outcomes
    }
}

/// `base ‖ resident count ‖ (task ‖ outcome)*`. An outcome stores only
/// what the task does not: `assignment ‖ start ‖ completion ‖ cancelled`.
/// Decoded task ids must run densely from `base`.
impl Persist for TaskStore {
    const MIN_ENCODED_LEN: u64 = 16;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.base as u64);
        enc.put_u64(self.tasks.len() as u64);
        for (task, outcome) in self.tasks.iter().zip(&self.outcomes) {
            task.encode(enc);
            match outcome.assignment {
                None => enc.put_bool(false),
                Some((core, pstate)) => {
                    enc.put_bool(true);
                    enc.put_u64(core as u64);
                    encode_pstate(enc, pstate);
                }
            }
            outcome.start.encode(enc);
            outcome.completion.encode(enc);
            enc.put_bool(outcome.cancelled);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        const NOT_DENSE: DecodeError = DecodeError::Corrupt("store tasks not dense and id-ordered");
        let base = dec.u64()? as usize;
        // A task and the four one-byte tags of the smallest outcome.
        let n = dec.len_prefix(Task::MIN_ENCODED_LEN + 4)? as usize;
        // `total()` is `base + n`; ids past `usize::MAX` cannot be dense.
        base.checked_add(n).ok_or(NOT_DENSE)?;
        let mut store = Self {
            base,
            tasks: Vec::with_capacity(n),
            outcomes: Vec::with_capacity(n),
        };
        for i in 0..n {
            let task = Task::decode(dec)?;
            if task.id.0 != base + i {
                return Err(NOT_DENSE);
            }
            let assignment = if dec.bool()? {
                Some((dec.u64()? as usize, decode_pstate(dec)?))
            } else {
                None
            };
            store.outcomes.push(TaskOutcome {
                task: task.id,
                type_id: task.type_id,
                arrival: task.arrival,
                deadline: task.deadline,
                assignment,
                start: Option::decode(dec)?,
                completion: Option::decode(dec)?,
                cancelled: dec.bool()?,
            });
            store.tasks.push(task);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_workload::TaskTypeId;

    fn task(id: usize) -> Task {
        Task {
            id: TaskId(id),
            type_id: TaskTypeId(0),
            arrival: id as f64,
            deadline: id as f64 + 10.0,
            quantile: 0.5,
        }
    }

    fn filled(n: usize) -> TaskStore {
        let mut store = TaskStore::new();
        for id in 0..n {
            store.push(task(id));
        }
        store
    }

    #[test]
    fn push_creates_blank_outcome() {
        let store = filled(3);
        assert_eq!(store.total(), 3);
        assert_eq!(store.resident(), 3);
        let o = store.outcome(TaskId(1));
        assert_eq!(o.task, TaskId(1));
        assert!(o.assignment.is_none() && o.completion.is_none() && !o.cancelled);
    }

    #[test]
    #[should_panic(expected = "dense and id-ordered")]
    fn out_of_order_push_panics() {
        let mut store = TaskStore::new();
        store.push(task(1));
    }

    #[test]
    fn retire_stops_at_unsettled() {
        let mut store = filled(4);
        store.outcome_mut(TaskId(0)).assignment = Some((0, ecds_cluster::PState::P0));
        store.outcome_mut(TaskId(0)).completion = Some(5.0);
        store.outcome_mut(TaskId(1)).cancelled = true;
        store.outcome_mut(TaskId(1)).assignment = Some((0, ecds_cluster::PState::P0));
        // Task 2: assigned but still running — not settled.
        store.outcome_mut(TaskId(2)).assignment = Some((0, ecds_cluster::PState::P0));
        let mut tally = RetiredTally::default();
        let n = store.retire_settled(4, false, &mut tally);
        assert_eq!(n, 2);
        assert_eq!(store.total() - store.resident(), 2, "first resident id");
        assert_eq!(store.resident(), 2);
        assert_eq!(tally.retired, 2);
        assert_eq!(tally.completed, 1);
        assert_eq!(tally.cancelled, 1);
        assert_eq!(tally.discarded, 0);
        // Resident indexing still works after the shift.
        assert_eq!(store.task(TaskId(2)).id, TaskId(2));
    }

    #[test]
    fn unarrived_tasks_are_not_retired_as_discarded() {
        let mut store = filled(2);
        let mut tally = RetiredTally::default();
        // Nothing arrived yet: blank outcomes must not count as discarded.
        assert_eq!(store.retire_settled(0, false, &mut tally), 0);
        // Arrived and still unassigned under an immediate discipline:
        // genuinely discarded.
        assert_eq!(store.retire_settled(1, false, &mut tally), 1);
        assert_eq!(tally.discarded, 1);
        // Batch-style disciplines may still assign it later.
        assert_eq!(store.retire_settled(2, true, &mut tally), 0);
    }

    #[test]
    #[should_panic(expected = "after retirement")]
    fn into_outcomes_rejects_retired_store() {
        let mut store = filled(1);
        store.outcome_mut(TaskId(0)).completion = Some(1.0);
        let mut tally = RetiredTally::default();
        store.retire_settled(1, false, &mut tally);
        let _ = store.into_outcomes();
    }

    #[test]
    fn persist_round_trips_a_retired_store_and_rejects_gaps() {
        let mut store = filled(4);
        store.outcome_mut(TaskId(0)).completion = Some(5.0);
        store.outcome_mut(TaskId(2)).assignment = Some((1, ecds_cluster::PState::P3));
        store.outcome_mut(TaskId(2)).start = Some(2.5);
        store.retire_settled(4, true, &mut RetiredTally::default());
        let mut enc = Encoder::new();
        store.encode(&mut enc);
        let mut bytes = enc.into_bytes();
        // 44 bytes per outcome-less pair, plus the assignment and start.
        assert_eq!(bytes.len(), 16 + 3 * 44 + 9 + 8);
        let back = TaskStore::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.total(), 4);
        assert_eq!(back.resident_outcomes(), store.resident_outcomes());
        assert_eq!(back.task(TaskId(3)), store.task(TaskId(3)));

        // The first resident task must carry id `base`.
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            TaskStore::decode(&mut Decoder::new(&bytes)).map(|s| s.total()),
            Err(DecodeError::Corrupt("store tasks not dense and id-ordered"))
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn persist_round_trips_any_settled_prefix(
            n in 0usize..12,
            retire_upto in 0usize..12,
            marks in proptest::collection::vec((0u8..4, 0usize..8, 0.0f64..50.0), 12),
        ) {
            let mut store = filled(n);
            for (id, &(mark, core, t)) in marks.iter().enumerate().take(n) {
                let outcome = store.outcome_mut(TaskId(id));
                if mark > 0 {
                    outcome.assignment = Some((core, ecds_cluster::PState::from_index(core % 5)));
                    outcome.start = Some(t);
                }
                outcome.completion = (mark == 2).then_some(t + 1.0);
                outcome.cancelled = mark == 3;
            }
            store.retire_settled(retire_upto, false, &mut RetiredTally::default());
            let mut enc = Encoder::new();
            store.encode(&mut enc);
            proptest::prop_assert!(enc.written() >= TaskStore::MIN_ENCODED_LEN);
            let mut dec = Decoder::new(enc.as_slice());
            let back = TaskStore::decode(&mut dec).expect("a fresh encoding decodes");
            proptest::prop_assert!(dec.finish().is_ok());
            let mut again = Encoder::new();
            back.encode(&mut again);
            proptest::prop_assert_eq!(again.as_slice(), enc.as_slice());
            proptest::prop_assert_eq!(back.total(), n);
        }

        #[test]
        fn decode_never_panics_on_random_bytes(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..160),
        ) {
            let _ = TaskStore::decode(&mut Decoder::new(&bytes));
        }
    }

    #[test]
    fn on_time_feeds_tally() {
        let mut store = filled(2);
        store.outcome_mut(TaskId(0)).completion = Some(5.0); // deadline 10
        store.outcome_mut(TaskId(1)).completion = Some(99.0); // deadline 11
        let mut tally = RetiredTally::default();
        store.retire_settled(2, false, &mut tally);
        assert_eq!(tally.completed, 2);
        assert_eq!(tally.on_time, 1);
    }
}
