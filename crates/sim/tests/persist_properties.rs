//! Property tests of the simulator's checkpoint codecs: every public
//! `Persist` impl of this crate re-encodes its decoded value to the same
//! bytes (so every float survives bit for bit), never encodes below its
//! declared `MIN_ENCODED_LEN`, and turns random bytes into a value or a
//! typed error, never a panic. The event types are covered in
//! `event_queue_properties.rs`.

use ecds_cluster::PState;
use ecds_persist::{Decoder, Encoder, Persist};
use ecds_sim::{
    CoreState, ExecutingTask, Horizon, QueuedTask, Retention, RetiredTally, ServeConfig, SimConfig,
    TelemetryFold, TransitionLog,
};
use ecds_workload::{TaskId, TaskTypeId};
use proptest::prelude::*;

/// Encodes `value`, decodes it back, and re-encodes the result: the two
/// encodings must be byte-identical and at least `T::MIN_ENCODED_LEN` long.
fn assert_round_trip<T: Persist>(value: &T) {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    prop_assert!(enc.written() >= T::MIN_ENCODED_LEN);
    let mut dec = Decoder::new(enc.as_slice());
    let back = T::decode(&mut dec).expect("a fresh encoding decodes");
    prop_assert!(dec.finish().is_ok());
    let mut again = Encoder::new();
    back.encode(&mut again);
    prop_assert_eq!(again.as_slice(), enc.as_slice());
}

fn arb_pstate() -> impl Strategy<Value = PState> {
    (0usize..5).prop_map(PState::from_index)
}

/// Finite times from raw parts (negative zero included).
fn arb_time() -> impl Strategy<Value = f64> {
    (prop::bool::ANY, 0.0f64..1e9).prop_map(|(neg, t)| if neg { -t } else { t })
}

/// Any `f64` bit pattern (NaN payloads, infinities, both zeros).
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    (0..=u64::MAX).prop_map(f64::from_bits)
}

fn arb_option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, inner).prop_map(|(some, v)| some.then_some(v))
}

fn arb_queued() -> impl Strategy<Value = QueuedTask> {
    (0usize..1 << 40, 0usize..100, arb_pstate(), arb_time()).prop_map(
        |(task, type_id, pstate, deadline)| QueuedTask {
            task: TaskId(task),
            type_id: TaskTypeId(type_id),
            pstate,
            deadline,
        },
    )
}

fn arb_executing() -> impl Strategy<Value = ExecutingTask> {
    (arb_queued(), arb_time()).prop_map(|(q, start)| ExecutingTask {
        task: q.task,
        type_id: q.type_id,
        pstate: q.pstate,
        start,
        deadline: q.deadline,
    })
}

/// A core driven through its public mutators, so the epoch and the
/// queue are consistent with some real history.
fn arb_core() -> impl Strategy<Value = CoreState> {
    (
        arb_option(arb_executing()),
        prop::collection::vec(arb_queued(), 0..6),
        0usize..4,
    )
        .prop_map(|(executing, queued, pops)| {
            let mut core = CoreState::new();
            if let Some(exec) = executing {
                core.start(exec);
            }
            for q in queued {
                core.enqueue(q);
            }
            for _ in 0..pops {
                core.pop_queued();
            }
            core
        })
}

fn arb_log() -> impl Strategy<Value = TransitionLog> {
    (
        arb_pstate(),
        prop::collection::vec((0.0f64..100.0, arb_pstate()), 0..8),
        arb_option(0.0f64..100.0),
    )
        .prop_map(|(initial, steps, end)| {
            let mut log = TransitionLog::new(0.0, initial);
            let mut now = 0.0;
            for (gap, state) in steps {
                now += gap;
                log.record(now, state);
            }
            if let Some(tail) = end {
                log.finalize(now + tail);
            }
            log
        })
}

fn arb_sim_config() -> impl Strategy<Value = SimConfig> {
    (
        arb_pstate(),
        arb_option(arb_f64_bits()),
        arb_option(arb_pstate()),
        prop::bool::ANY,
    )
        .prop_map(
            |(initial_pstate, energy_budget, idle_downshift, cancel_overdue)| SimConfig {
                initial_pstate,
                energy_budget,
                idle_downshift,
                cancel_overdue,
            },
        )
}

fn arb_serve_config() -> impl Strategy<Value = ServeConfig> {
    (
        prop::bool::ANY,
        0..=u64::MAX,
        arb_option(1..=u64::MAX),
        arb_option(0..=u64::MAX),
    )
        .prop_map(|(rolling, n, flush, max_arrivals)| ServeConfig {
            horizon: if rolling {
                Horizon::Rolling { lookahead: n }
            } else {
                Horizon::Fixed(n)
            },
            retention: match flush {
                Some(flush_every) => Retention::Bounded { flush_every },
                None => Retention::Full,
            },
            max_arrivals,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn run_state_round_trips(queued in arb_queued(), executing in arb_executing(),
                             core in arb_core()) {
        assert_round_trip(&queued);
        assert_round_trip(&executing);
        assert_round_trip(&core);
        let mut enc = Encoder::new();
        core.encode(&mut enc);
        let back = CoreState::decode(&mut Decoder::new(enc.as_slice())).unwrap();
        prop_assert_eq!(back.epoch(), core.epoch());
    }

    #[test]
    fn transition_log_round_trips(log in arb_log()) {
        assert_round_trip(&log);
    }

    #[test]
    fn counters_and_configs_round_trip(
        words in (0..=u64::MAX, 0..=u64::MAX, 0..=u64::MAX, 0..=u64::MAX, 0..=u64::MAX),
        fold in (0..=u64::MAX, arb_f64_bits(), arb_f64_bits(), 0..=u64::MAX),
        sim in arb_sim_config(),
        serve in arb_serve_config(),
    ) {
        let (retired, completed, on_time, cancelled, discarded) = words;
        assert_round_trip(&RetiredTally { retired, completed, on_time, cancelled, discarded });
        let (samples, sum_queue_depth, peak_queue_depth, max_busy) = fold;
        assert_round_trip(&TelemetryFold { samples, sum_queue_depth, peak_queue_depth, max_busy });
        assert_round_trip(&sim);
        assert_round_trip(&serve);
    }

    #[test]
    fn decoders_never_panic_on_random_bytes(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..160),
    ) {
        // Each decode either succeeds or returns a typed error.
        let _ = QueuedTask::decode(&mut Decoder::new(&bytes));
        let _ = ExecutingTask::decode(&mut Decoder::new(&bytes));
        let _ = CoreState::decode(&mut Decoder::new(&bytes));
        let _ = Vec::<CoreState>::decode(&mut Decoder::new(&bytes));
        let _ = TransitionLog::decode(&mut Decoder::new(&bytes));
        let _ = RetiredTally::decode(&mut Decoder::new(&bytes));
        let _ = TelemetryFold::decode(&mut Decoder::new(&bytes));
        let _ = SimConfig::decode(&mut Decoder::new(&bytes));
        let _ = ServeConfig::decode(&mut Decoder::new(&bytes));
    }
}
