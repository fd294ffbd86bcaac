//! Property tests of the [`EventQueue`] ordering contract — the invariants
//! every commitment discipline now inherits from the unified engine:
//!
//! 1. pops are non-decreasing in time;
//! 2. at equal times, completions pop before arrivals (a core freed at
//!    instant `t` is visible to work mapped at `t`);
//! 3. within one `(time, kind-rank)` class, insertion order is preserved
//!    (FIFO) — the final, total tie-break that makes trials reproducible
//!    bit-for-bit.

use ecds_persist::{Decoder, Encoder, Persist};
use ecds_sim::event::Event;
use ecds_sim::{EventKind, EventQueue};
use ecds_workload::TaskId;
use proptest::prelude::*;

/// One scripted push: a small time grid (to force plenty of exact ties), a
/// completion flag, and a payload id.
fn arb_pushes() -> impl Strategy<Value = Vec<(u8, bool, usize)>> {
    prop::collection::vec((0u8..6, prop::bool::ANY, 0usize..64), 1..40)
}

fn build(pushes: &[(u8, bool, usize)]) -> EventQueue {
    let mut q = EventQueue::new();
    for &(slot, completion, id) in pushes {
        let time = slot as f64;
        let kind = if completion {
            EventKind::Completion {
                core: id % 8,
                task: TaskId(id),
            }
        } else {
            EventKind::Arrival(TaskId(id))
        };
        q.push(time, kind);
    }
    q
}

fn rank(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Completion { .. } => 0,
        EventKind::Arrival(_) => 1,
    }
}

fn payload(kind: &EventKind) -> usize {
    match kind {
        EventKind::Completion { task, .. } => task.0,
        EventKind::Arrival(task) => task.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pops_are_time_ordered(pushes in arb_pushes()) {
        let mut q = build(&pushes);
        let mut last = f64::NEG_INFINITY;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= last, "time went backwards: {} after {last}", e.time);
            last = e.time;
        }
    }

    #[test]
    fn completions_pop_before_arrivals_at_equal_times(pushes in arb_pushes()) {
        let mut q = build(&pushes);
        let mut prev: Option<(f64, u8)> = None;
        while let Some(e) = q.pop() {
            let r = rank(&e.kind);
            if let Some((pt, pr)) = prev {
                if e.time == pt {
                    prop_assert!(
                        r >= pr,
                        "arrival popped before completion at t={pt}"
                    );
                }
            }
            prev = Some((e.time, r));
        }
    }

    #[test]
    fn insertion_order_is_the_final_tie_break(pushes in arb_pushes()) {
        let mut q = build(&pushes);
        // Expected order within each (time, rank) class = push order.
        let mut popped: Vec<(f64, u8, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time, rank(&e.kind), payload(&e.kind)));
        }
        // Project the pushes per class and compare against the pops.
        for slot in 0u8..6 {
            for completion in [true, false] {
                let expected: Vec<usize> = pushes
                    .iter()
                    .filter(|&&(s, c, _)| s == slot && c == completion)
                    .map(|&(_, _, id)| id)
                    .collect();
                let r = u8::from(!completion);
                let got: Vec<usize> = popped
                    .iter()
                    .filter(|&&(t, pr, _)| t == slot as f64 && pr == r)
                    .map(|&(_, _, id)| id)
                    .collect();
                prop_assert_eq!(
                    &expected, &got,
                    "class (t={}, completion={}) not FIFO", slot, completion
                );
            }
        }
    }

    #[test]
    fn every_push_pops_exactly_once(pushes in arb_pushes()) {
        let mut q = build(&pushes);
        prop_assert_eq!(q.len(), pushes.len());
        let mut n = 0usize;
        while q.pop().is_some() {
            n += 1;
        }
        prop_assert_eq!(n, pushes.len());
        prop_assert!(q.is_empty());
    }

    #[test]
    fn persist_round_trips_a_partly_drained_queue(pushes in arb_pushes(), drained in 0usize..40) {
        let mut q = build(&pushes);
        for _ in 0..drained.min(pushes.len()) {
            q.pop();
        }
        let mut enc = Encoder::new();
        q.encode(&mut enc);
        prop_assert!(enc.written() >= EventQueue::MIN_ENCODED_LEN);
        let mut dec = Decoder::new(enc.as_slice());
        let mut back = EventQueue::decode(&mut dec).expect("a fresh encoding decodes");
        prop_assert!(dec.finish().is_ok());
        let mut again = Encoder::new();
        back.encode(&mut again);
        prop_assert_eq!(again.as_slice(), enc.as_slice());
        while let Some(a) = q.pop() {
            let b = back.pop().expect("same length");
            prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.seq(), b.seq());
        }
        prop_assert!(back.is_empty());
    }

    #[test]
    fn event_decoders_never_panic_on_random_bytes(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..160),
    ) {
        // Each decode either succeeds or returns a typed error.
        let _ = EventKind::decode(&mut Decoder::new(&bytes));
        let _ = Event::decode(&mut Decoder::new(&bytes));
        let _ = EventQueue::decode(&mut Decoder::new(&bytes));
    }
}

/// Pin for checkpointing at depth: a 10⁵-event queue snapshots into
/// exactly one right-sized vector (no heap clone, no pop loop, no
/// over-allocation), its encoding is tightly linear in depth (33 bytes per
/// event + two `u64` headers), and the decoded queue pops bit-identically.
#[test]
fn depth_1e5_snapshot_is_right_sized_and_roundtrips() {
    const DEPTH: usize = 100_000;
    let mut q = EventQueue::with_capacity(DEPTH);
    // Deterministic pseudo-shuffled times with plenty of exact ties, both
    // event kinds interleaved.
    for i in 0..DEPTH {
        let time = ((i * 7919) % 1013) as f64 * 0.5;
        let kind = if i % 3 == 0 {
            EventKind::Completion {
                core: i % 97,
                task: TaskId(i),
            }
        } else {
            EventKind::Arrival(TaskId(i))
        };
        q.push(time, kind);
    }

    let snap = q.snapshot();
    assert_eq!(snap.len(), DEPTH);
    assert_eq!(
        snap.capacity(),
        DEPTH,
        "snapshot must allocate exactly one len-sized vector"
    );

    // Snapshot is already in pop order: (time, rank, seq) non-decreasing.
    for w in snap.windows(2) {
        let key = |e: &Event| (e.time, rank(&e.kind), e.seq());
        assert!(key(&w[0]) <= key(&w[1]), "snapshot not in pop order");
    }

    // Per event: f64 time (8) + kind tag (1) + two u64 payload words (16)
    // + u64 seq (8).
    let mut enc = Encoder::new();
    q.encode(&mut enc);
    assert_eq!(
        enc.as_slice().len(),
        16 + DEPTH * 33,
        "queue checkpoint section must stay tightly linear in depth"
    );

    let mut dec = Decoder::new(enc.as_slice());
    let mut rebuilt = EventQueue::decode(&mut dec).expect("a fresh encoding decodes");
    dec.finish()
        .expect("the queue consumes exactly its encoding");
    assert_eq!(rebuilt.next_seq(), q.next_seq());
    loop {
        match (q.pop(), rebuilt.pop()) {
            (None, None) => break,
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits());
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.seq(), b.seq());
            }
            _ => panic!("queues drained at different depths"),
        }
    }
}
