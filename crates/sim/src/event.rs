//! The discrete-event queue.
//!
//! Events are ordered by time; ties break deterministically — completions
//! before arrivals (a core freed at instant `t` is visible to a task
//! arriving at `t`), then insertion order. Determinism here is what makes
//! whole trials reproducible bit-for-bit from a seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;
use ecds_workload::TaskId;

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task finishes on a core (flat core index).
    Completion {
        /// Flat index of the core finishing the task.
        core: usize,
        /// The finishing task.
        task: TaskId,
    },
    /// A task arrives and must be mapped immediately.
    Arrival(TaskId),
}

impl EventKind {
    /// Tie-break rank at equal times: completions first.
    fn rank(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::Arrival(_) => 1,
        }
    }
}

/// A tag byte and two `u64` payload words: `0 ‖ task ‖ 0` for an arrival,
/// `1 ‖ core ‖ task` for a completion.
impl Persist for EventKind {
    const MIN_ENCODED_LEN: u64 = 17;

    fn encode(&self, enc: &mut Encoder) {
        match *self {
            EventKind::Arrival(task) => {
                enc.put_u8(0);
                task.encode(enc);
                enc.put_u64(0);
            }
            EventKind::Completion { core, task } => {
                enc.put_u8(1);
                enc.put_u64(core as u64);
                task.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => {
                let task = TaskId::decode(dec)?;
                dec.u64()?;
                Ok(EventKind::Arrival(task))
            }
            1 => Ok(EventKind::Completion {
                core: dec.u64()? as usize,
                task: TaskId::decode(dec)?,
            }),
            _ => Err(DecodeError::Corrupt("unknown event tag")),
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time at which the event fires.
    pub time: Time,
    /// What fires.
    pub kind: EventKind,
    /// Insertion sequence number (set by the queue; final tie-break).
    seq: u64,
}

impl Event {
    /// Insertion sequence number: the final tie-break of the pop order.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// `time ‖ kind ‖ seq`, the time finite.
impl Persist for Event {
    const MIN_ENCODED_LEN: u64 = 8 + EventKind::MIN_ENCODED_LEN + 8;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.time);
        self.kind.encode(enc);
        enc.put_u64(self.seq);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            time: dec.finite_f64()?,
            kind: EventKind::decode(dec)?,
            seq: dec.u64()?,
        })
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic priority queue of events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `capacity` events before the first
    /// reallocation — reserve-ahead for deep queues (a 10⁶-event queue
    /// would otherwise pay ~20 doubling copies on the hot path).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `kind` at `time`.
    ///
    /// # Panics
    ///
    /// Panics when `time` is not finite.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, kind, seq });
    }

    /// Pops the earliest event (completions before arrivals at equal
    /// times, then FIFO).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next insertion sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending event in pop order, each carrying its insertion
    /// sequence number.
    ///
    /// Allocates only the returned vector: the pending events are copied
    /// out of the live heap and sorted by the pop order `(time, rank,
    /// seq)` directly — no heap clone, no pop loop — so checkpointing a
    /// 10⁶-event queue costs one allocation and one sort.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::with_capacity(self.heap.len());
        out.extend(self.heap.iter().copied());
        // `Ord` is reversed for the max-heap; pop order is descending.
        out.sort_unstable_by(|a, b| b.cmp(a));
        out
    }
}

/// `next_seq ‖ events`, the events in pop order ([`EventQueue::snapshot`]).
/// Pop order depends only on the total event order `(time, rank, seq)`,
/// so the decoded queue replays identically whatever its heap layout;
/// that freedom lets the decode heapify in O(n) instead of pushing one
/// event at a time. Every decoded `seq` must lie below `next_seq`.
impl Persist for EventQueue {
    const MIN_ENCODED_LEN: u64 = 16;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.next_seq);
        self.snapshot().encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let next_seq = dec.u64()?;
        let events = Vec::<Event>::decode(dec)?;
        if events.iter().any(|e| e.seq >= next_seq) {
            return Err(DecodeError::Corrupt(
                "event sequence beyond the queue counter",
            ));
        }
        Ok(Self {
            heap: BinaryHeap::from(events),
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Arrival(TaskId(0)));
        q.push(1.0, EventKind::Arrival(TaskId(1)));
        q.push(3.0, EventKind::Arrival(TaskId(2)));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn completion_beats_arrival_at_same_time() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::Arrival(TaskId(0)));
        q.push(
            2.0,
            EventKind::Completion {
                core: 3,
                task: TaskId(9),
            },
        );
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Completion { .. }
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(_)));
    }

    #[test]
    fn equal_events_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Arrival(TaskId(0)));
        q.push(1.0, EventKind::Arrival(TaskId(1)));
        q.push(1.0, EventKind::Arrival(TaskId(2)));
        let ids: Vec<TaskId> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival(t) => t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, EventKind::Arrival(TaskId(0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::Arrival(TaskId(0)));
    }

    fn queue_bytes(q: &EventQueue) -> Vec<u8> {
        let mut enc = Encoder::new();
        q.encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn snapshot_is_in_pop_order_and_roundtrips() {
        let mut q = EventQueue::with_capacity(64);
        q.push(2.0, EventKind::Arrival(TaskId(0)));
        q.push(
            2.0,
            EventKind::Completion {
                core: 1,
                task: TaskId(7),
            },
        );
        q.push(1.0, EventKind::Arrival(TaskId(1)));
        q.push(2.0, EventKind::Arrival(TaskId(2)));
        let snap = q.snapshot();
        let bytes = queue_bytes(&q);
        assert_eq!(bytes.len(), 16 + 4 * 33);
        let mut rebuilt = EventQueue::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        for expected in &snap {
            let a = q.pop().unwrap();
            let b = rebuilt.pop().unwrap();
            assert_eq!(a.time.to_bits(), expected.time.to_bits());
            assert_eq!(a.kind, expected.kind);
            assert_eq!(a.seq(), expected.seq());
            assert_eq!(b.time.to_bits(), a.time.to_bits());
            assert_eq!(b.kind, a.kind);
            assert_eq!(b.seq(), a.seq());
        }
        assert!(q.is_empty() && rebuilt.is_empty());
    }

    #[test]
    fn decode_rejects_a_bad_tag_and_a_seq_past_the_counter() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Arrival(TaskId(0)));
        let bytes = queue_bytes(&q);
        // next_seq ‖ len ‖ time ‖ tag ‖ two words ‖ seq.
        let mut bad_tag = bytes.clone();
        bad_tag[24] = 2;
        assert_eq!(
            EventQueue::decode(&mut Decoder::new(&bad_tag)).map(|_| ()),
            Err(DecodeError::Corrupt("unknown event tag"))
        );
        let mut stale_counter = bytes.clone();
        stale_counter[..8].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            EventQueue::decode(&mut Decoder::new(&stale_counter)).map(|_| ()),
            Err(DecodeError::Corrupt(
                "event sequence beyond the queue counter"
            ))
        );
        let mut nan_time = bytes;
        nan_time[16..24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            EventQueue::decode(&mut Decoder::new(&nan_time)).map(|_| ()),
            Err(DecodeError::Corrupt("expected a finite f64"))
        );
    }

    #[test]
    fn reserve_does_not_disturb_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::Arrival(TaskId(0)));
        q.reserve(1_000);
        q.push(1.0, EventKind::Arrival(TaskId(1)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(t) if t == TaskId(1)));
    }
}
