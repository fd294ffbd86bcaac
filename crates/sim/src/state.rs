//! Per-core runtime state: the executing task and the FIFO wait queue.

use std::collections::VecDeque;

use ecds_cluster::PState;
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;
use ecds_workload::{TaskId, TaskTypeId};

/// Appends a P-state as its one-byte index. (`PState` lives in
/// `ecds-cluster`, which has no codec dependency, so its wire form is
/// defined here rather than as a `Persist` impl.)
pub(crate) fn encode_pstate(enc: &mut Encoder, state: PState) {
    enc.put_u8(state.index() as u8);
}

/// Reads a P-state written by [`encode_pstate`]; an index past the
/// ladder is [`DecodeError::Corrupt`].
pub(crate) fn decode_pstate(dec: &mut Decoder<'_>) -> Result<PState, DecodeError> {
    let idx = dec.u8()?;
    if usize::from(idx) >= PState::ALL.len() {
        return Err(DecodeError::Corrupt("p-state index out of range"));
    }
    Ok(PState::from_index(usize::from(idx)))
}

/// A task waiting in a core's FIFO queue (its P-state was fixed at mapping
/// time and cannot change — Sec. III-B: "tasks cannot be reassigned, either
/// to a new core or a new P-state, once they are mapped").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedTask {
    /// The waiting task.
    pub task: TaskId,
    /// Its type (cached for completion-time math).
    pub type_id: TaskTypeId,
    /// The P-state it will execute in.
    pub pstate: PState,
    /// Its hard deadline `δ(z)` (cached for robustness math).
    pub deadline: Time,
}

/// `task ‖ type ‖ pstate ‖ deadline`, the deadline finite.
impl Persist for QueuedTask {
    const MIN_ENCODED_LEN: u64 = 25;

    fn encode(&self, enc: &mut Encoder) {
        self.task.encode(enc);
        self.type_id.encode(enc);
        encode_pstate(enc, self.pstate);
        enc.put_f64(self.deadline);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            task: TaskId::decode(dec)?,
            type_id: TaskTypeId::decode(dec)?,
            pstate: decode_pstate(dec)?,
            deadline: dec.finite_f64()?,
        })
    }
}

/// The task currently executing on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutingTask {
    /// The running task.
    pub task: TaskId,
    /// Its type.
    pub type_id: TaskTypeId,
    /// The P-state the core is running it in.
    pub pstate: PState,
    /// When it started (needed to shift + truncate its completion pmf).
    pub start: Time,
    /// Its hard deadline `δ(z)` (cached for robustness math).
    pub deadline: Time,
}

/// `task ‖ type ‖ pstate ‖ start ‖ deadline`, both times finite.
impl Persist for ExecutingTask {
    const MIN_ENCODED_LEN: u64 = 33;

    fn encode(&self, enc: &mut Encoder) {
        self.task.encode(enc);
        self.type_id.encode(enc);
        encode_pstate(enc, self.pstate);
        enc.put_f64(self.start);
        enc.put_f64(self.deadline);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            task: TaskId::decode(dec)?,
            type_id: TaskTypeId::decode(dec)?,
            pstate: decode_pstate(dec)?,
            start: dec.finite_f64()?,
            deadline: dec.finite_f64()?,
        })
    }
}

/// One core's run state.
// lint: epoch-guarded
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreState {
    executing: Option<ExecutingTask>,
    queued: VecDeque<QueuedTask>,
    /// Monotone mutation counter: bumped by every state change so derived
    /// quantities (the mapper's queue-prefix pmf cache) can detect
    /// staleness without comparing queue contents.
    epoch: u64,
}

impl CoreState {
    /// A fresh idle core.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutation epoch: strictly increases on every
    /// [`enqueue`](CoreState::enqueue), [`start`](CoreState::start),
    /// [`complete`](CoreState::complete), and
    /// [`pop_queued`](CoreState::pop_queued). Two observations of the same
    /// core with equal epochs saw identical executing/queued state.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The executing task, if any.
    #[inline]
    pub fn executing(&self) -> Option<&ExecutingTask> {
        self.executing.as_ref()
    }

    /// The waiting tasks, in execution order.
    #[inline]
    pub fn queued(&self) -> impl ExactSizeIterator<Item = &QueuedTask> {
        self.queued.iter()
    }

    /// The paper's `|MQ(i, j, k, t_l)|`: number of tasks queued for
    /// execution or currently executing on this core.
    #[inline]
    pub fn depth(&self) -> usize {
        self.queued.len() + usize::from(self.executing.is_some())
    }

    /// `true` when nothing is executing (a newly-assigned task may start
    /// immediately).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.executing.is_none()
    }

    /// Appends a task to the wait queue.
    pub fn enqueue(&mut self, task: QueuedTask) {
        self.queued.push_back(task);
        self.epoch += 1;
    }

    /// Marks `task` as executing. The core must be idle.
    pub fn start(&mut self, task: ExecutingTask) {
        assert!(self.executing.is_none(), "core already executing a task");
        self.executing = Some(task);
        self.epoch += 1;
    }

    /// Finishes the executing task, returning it; the next queued task (if
    /// any) is returned for the engine to start.
    pub fn complete(&mut self) -> (ExecutingTask, Option<QueuedTask>) {
        let done = self.executing.take().expect("no task executing");
        self.epoch += 1;
        (done, self.queued.pop_front())
    }

    /// Pops the next waiting task without starting it — used by the
    /// cancel-overdue extension to skip tasks that already missed.
    pub fn pop_queued(&mut self) -> Option<QueuedTask> {
        let popped = self.queued.pop_front();
        if popped.is_some() {
            self.epoch += 1;
        }
        popped
    }
}

/// `executing ‖ queued ‖ epoch`. The mutation epoch is restored, not
/// restarted: observers' caches key on it, and a restarted sequence would
/// let stale derived state pass as fresh.
impl Persist for CoreState {
    const MIN_ENCODED_LEN: u64 = 17;

    fn encode(&self, enc: &mut Encoder) {
        self.executing.encode(enc);
        self.queued.encode(enc);
        enc.put_u64(self.epoch);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            executing: Option::decode(dec)?,
            queued: VecDeque::decode(dec)?,
            epoch: dec.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(id: usize) -> QueuedTask {
        QueuedTask {
            task: TaskId(id),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            deadline: 100.0,
        }
    }

    fn executing(id: usize) -> ExecutingTask {
        ExecutingTask {
            task: TaskId(id),
            type_id: TaskTypeId(0),
            pstate: PState::P0,
            start: 1.0,
            deadline: 100.0,
        }
    }

    #[test]
    fn fresh_core_is_idle_with_zero_depth() {
        let c = CoreState::new();
        assert!(c.is_idle());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn depth_counts_executing_and_queued() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.enqueue(queued(1));
        c.enqueue(queued(2));
        assert_eq!(c.depth(), 3);
        assert!(!c.is_idle());
    }

    #[test]
    fn complete_pops_fifo() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.enqueue(queued(1));
        c.enqueue(queued(2));
        let (done, next) = c.complete();
        assert_eq!(done.task, TaskId(0));
        assert_eq!(next.unwrap().task, TaskId(1));
        assert!(c.is_idle()); // engine is responsible for starting `next`
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn complete_on_empty_queue_returns_none_next() {
        let mut c = CoreState::new();
        c.start(executing(5));
        let (done, next) = c.complete();
        assert_eq!(done.task, TaskId(5));
        assert!(next.is_none());
    }

    #[test]
    #[should_panic(expected = "already executing")]
    fn double_start_panics() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.start(executing(1));
    }

    #[test]
    #[should_panic(expected = "no task executing")]
    fn complete_idle_panics() {
        let mut c = CoreState::new();
        let _ = c.complete();
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut c = CoreState::new();
        assert_eq!(c.epoch(), 0);
        c.enqueue(queued(1));
        assert_eq!(c.epoch(), 1);
        c.start(executing(0));
        assert_eq!(c.epoch(), 2);
        let _ = c.complete();
        assert_eq!(c.epoch(), 3);
        c.enqueue(queued(2));
        let _ = c.pop_queued();
        assert_eq!(c.epoch(), 5);
    }

    #[test]
    fn epoch_unchanged_by_reads_and_empty_pop() {
        let mut c = CoreState::new();
        c.enqueue(queued(1));
        let before = c.epoch();
        let _ = c.depth();
        let _ = c.is_idle();
        let _: Vec<_> = c.queued().collect();
        assert_eq!(c.epoch(), before);
        let mut empty = CoreState::new();
        assert!(empty.pop_queued().is_none());
        assert_eq!(empty.epoch(), 0, "popping nothing is not a mutation");
    }

    #[test]
    fn persist_round_trips_the_epoch_and_rejects_a_bad_pstate() {
        let mut c = CoreState::new();
        c.start(executing(0));
        c.enqueue(queued(1));
        c.enqueue(queued(2));
        let mut enc = Encoder::new();
        c.encode(&mut enc);
        let mut bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 1 + 33 + 8 + 2 * 25 + 8);
        let back = CoreState::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.epoch(), 3);
        // The executing task's P-state byte follows its tag and two ids.
        for bad in [5u8, 0xFF] {
            bytes[17] = bad;
            assert_eq!(
                CoreState::decode(&mut Decoder::new(&bytes)),
                Err(DecodeError::Corrupt("p-state index out of range"))
            );
        }
    }

    #[test]
    fn queued_iterates_in_order() {
        let mut c = CoreState::new();
        c.enqueue(queued(3));
        c.enqueue(queued(4));
        let ids: Vec<usize> = c.queued().map(|q| q.task.0).collect();
        assert_eq!(ids, vec![3, 4]);
    }
}
