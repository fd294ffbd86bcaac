//! The discrete-event queue.
//!
//! Events are ordered by time; ties break deterministically — completions
//! before arrivals (a core freed at instant `t` is visible to a task
//! arriving at `t`), then insertion order. Determinism here is what makes
//! whole trials reproducible bit-for-bit from a seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

    /// The next insertion sequence number (checkpoint support).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshots every pending event in pop order, carrying each event's
    /// insertion sequence number so a reconstructed queue pops in exactly
    /// the same order (checkpoint support).
    ///
    /// Allocates only the returned vector: the pending events are copied
    /// out of the live heap and sorted by the pop order `(time, rank,
    /// seq)` directly — no heap clone, no pop loop — so checkpointing a
    /// 10⁶-event queue costs one allocation and one sort.
    pub fn snapshot(&self) -> Vec<(Time, EventKind, u64)> {
        let mut out: Vec<(Time, EventKind, u64)> = Vec::with_capacity(self.heap.len());
        out.extend(self.heap.iter().map(|e| (e.time, e.kind, e.seq)));
        out.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.rank().cmp(&b.1.rank()))
                .then_with(|| a.2.cmp(&b.2))
        });
        out
    }

    /// Rebuilds a queue from a [`snapshot`](EventQueue::snapshot) and the
    /// saved `next_seq`. Pop order depends only on the total event order
    /// (time, rank, seq), so the rebuilt queue replays identically
    /// regardless of heap-internal layout; that freedom is what lets the
    /// rebuild heapify in O(n) instead of pushing one event at a time.
    ///
    /// # Panics
    ///
    /// Panics when any event time is not finite (validate before calling
    /// from a decode path).
    pub fn from_parts(next_seq: u64, events: Vec<(Time, EventKind, u64)>) -> Self {
        let events: Vec<Event> = events
            .into_iter()
            .map(|(time, kind, seq)| {
                assert!(time.is_finite(), "event time must be finite");
                Event { time, kind, seq }
            })
            .collect();
        Self {
            heap: BinaryHeap::from(events),
            next_seq,
        }
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
        let mut rebuilt = EventQueue::from_parts(q.next_seq(), snap.clone());
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        for &(time, kind, _) in &snap {
            let a = q.pop().unwrap();
            let b = rebuilt.pop().unwrap();
            assert_eq!(a.time.to_bits(), time.to_bits());
            assert_eq!(a.kind, kind);
            assert_eq!(b.time.to_bits(), a.time.to_bits());
            assert_eq!(b.kind, a.kind);
        }
        assert!(q.is_empty() && rebuilt.is_empty());
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
