//! Property tests of workload-generation invariants.

use ecds_cluster::{generate_cluster, ClusterGenConfig, PState};
use ecds_persist::{Decoder, Encoder, Persist};
use ecds_pmf::SeedDerive;
use ecds_workload::{
    BurstPattern, EtcMatrix, ExecTable, Task, TaskId, TaskTypeId, WorkloadConfig, WorkloadTrace,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cvb_entries_are_positive_and_centered(
        seed in 0u64..1000,
        mu in 100.0f64..2000.0,
        v_task in 0.05f64..0.6,
        v_mach in 0.05f64..0.6,
    ) {
        let m = EtcMatrix::generate_cvb(30, 6, mu, v_task, v_mach, &SeedDerive::new(seed));
        for t in 0..30 {
            for n in 0..6 {
                prop_assert!(m.mean(TaskTypeId(t), n) > 0.0);
            }
        }
        // Grand mean concentrates around μ_task (generous tolerance: 180
        // correlated draws with two CV layers).
        let gm = m.grand_mean();
        prop_assert!(gm > mu * 0.5 && gm < mu * 1.6, "grand mean {gm} vs mu {mu}");
    }

    #[test]
    fn arrivals_are_sorted_positive_and_complete(
        seed in 0u64..1000,
        fast_inv in 2.0f64..40.0,
        slow_inv in 40.0f64..400.0,
        window in 10usize..200,
    ) {
        let pattern = BurstPattern::scaled_with_rates(window, 1.0 / fast_inv, 1.0 / slow_inv);
        prop_assert_eq!(pattern.total_tasks(), window);
        let seeds = SeedDerive::new(seed);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig { window, arrivals: pattern, ..WorkloadConfig::small_for_tests() };
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let times: Vec<f64> = trace.tasks().iter().map(|t| t.arrival).collect();
        prop_assert_eq!(times.len(), window);
        prop_assert!(times[0] > 0.0);
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deadlines_always_leave_positive_slack(seed in 0u64..200) {
        let seeds = SeedDerive::new(seed);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        for task in trace.tasks() {
            prop_assert!(task.deadline > task.arrival);
            // The load factor alone guarantees at least t_avg of slack.
            prop_assert!(task.relative_deadline() >= table.t_avg());
        }
    }

    #[test]
    fn exec_table_is_monotone_in_pstate(seed in 0u64..100) {
        let seeds = SeedDerive::new(seed);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        for t in 0..cfg.num_types {
            for n in 0..cluster.num_nodes() {
                for w in PState::ALL.windows(2) {
                    prop_assert!(
                        table.eet(TaskTypeId(t), n, w[0]) < table.eet(TaskTypeId(t), n, w[1])
                    );
                }
            }
        }
    }

    #[test]
    fn actual_times_are_within_pmf_support(seed in 0u64..100, q in 0.0f64..1.0) {
        let seeds = SeedDerive::new(seed);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        for t in 0..cfg.num_types {
            let pmf = table.pmf(TaskTypeId(t), 0, PState::P2);
            let actual = table.actual_time(TaskTypeId(t), 0, PState::P2, q);
            prop_assert!(actual >= pmf.min_value() && actual <= pmf.max_value());
        }
    }

    #[test]
    fn traces_pair_across_heuristics(seed in 0u64..100, trial in 0u64..20) {
        // Trace generation must not depend on anything but (seed, trial) —
        // the pairing property the experiment grid relies on.
        let seeds = SeedDerive::new(seed);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        let a = WorkloadTrace::generate(&cfg, &table, &seeds, trial);
        let b = WorkloadTrace::generate(&cfg, &table, &seeds, trial);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn task_codec_round_trips_bitwise(
        id in 0usize..1 << 40,
        type_id in 0usize..100,
        arrival in 0.0f64..1e9,
        slack in 0.0f64..1e6,
        quantile_bits in 0..=u64::MAX,
    ) {
        // The quantile travels as raw bits, so any pattern must survive.
        let task = Task {
            id: TaskId(id),
            type_id: TaskTypeId(type_id),
            arrival,
            deadline: arrival + slack,
            quantile: f64::from_bits(quantile_bits),
        };
        let mut enc = Encoder::new();
        task.encode(&mut enc);
        prop_assert!(enc.written() >= Task::MIN_ENCODED_LEN);
        let mut dec = Decoder::new(enc.as_slice());
        let back = Task::decode(&mut dec).expect("a fresh encoding decodes");
        prop_assert!(dec.finish().is_ok());
        let mut again = Encoder::new();
        back.encode(&mut again);
        prop_assert_eq!(again.as_slice(), enc.as_slice());
        prop_assert_eq!(back.id, task.id);
        prop_assert_eq!(back.type_id, task.type_id);
    }

    #[test]
    fn task_decoders_never_panic_on_random_bytes(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..96),
    ) {
        // Each decode either succeeds or returns a typed error.
        let _ = Task::decode(&mut Decoder::new(&bytes));
        let _ = Vec::<TaskId>::decode(&mut Decoder::new(&bytes));
        let _ = TaskTypeId::decode(&mut Decoder::new(&bytes));
    }
}
