//! Differential proof that the evaluator's versioned queue-prefix cache is
//! invisible: full trials run with the caching scheduler must be
//! bit-identical — task outcomes, energy, makespan, exhaustion, telemetry
//! series — to trials run with `OracleMapper`, whose reference evaluator
//! recomputes every prefix.
//!
//! The seed × heuristic sweep runs trial 1; `integration_evaluator_oracle`
//! covers trial 0 of the same grid.

pub mod common;

use common::{assert_semantically_identical, run_against_oracle, OracleMapper};
use ecds::prelude::*;

/// Three seeds × all four heuristics with the paper's best filter chain —
/// the configuration where prefix pmfs drive every decision through ECT,
/// ρ, and the robustness filter.
#[test]
fn cached_equals_uncached_across_seeds_and_heuristics() {
    for master in [3, 11, 29] {
        for kind in HeuristicKind::ALL {
            let (a, b) = run_against_oracle(master, 1, kind, FilterVariant::EnergyAndRobustness);
            assert_semantically_identical(&a, &b, &format!("seed {master} / {kind}"));
        }
    }
}

/// Filters change which candidates survive to the heuristic, so each chain
/// exercises different prefix-consumption paths.
#[test]
fn cached_equals_uncached_across_filter_variants() {
    for variant in FilterVariant::ALL {
        let (a, b) = run_against_oracle(7, 1, HeuristicKind::Mect, variant);
        assert_semantically_identical(&a, &b, &format!("variant {variant}"));
    }
}

/// The cache must actually be doing something: on a bursty trace the
/// scheduler looks at every core per arrival while most cores' queues
/// change only between their own events, so lookups hit. The oracle keeps
/// no cache and reports no cache statistics.
#[test]
fn cached_runs_report_hits_and_uncached_report_none() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let kind = HeuristicKind::Mect;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut cached = build_scheduler(kind, variant, &scenario, 0);
    let a = Simulation::new(&scenario, &trace).run(cached.as_mut());
    let hits = a.telemetry().mapper.prefix_cache_hits();
    let misses = a.telemetry().mapper.prefix_cache_misses();
    assert!(hits > 0, "no cache hits over a whole trial");
    assert!(misses > 0, "every core mutates at least once");
    assert_eq!(
        a.telemetry().prefix_cache_hit_rate(),
        Some(hits as f64 / (hits + misses) as f64)
    );

    let mut uncached = OracleMapper::build(kind, variant, &scenario, 0);
    let b = Simulation::new(&scenario, &trace).run(&mut uncached);
    assert_eq!(b.telemetry().mapper.prefix_cache_hits(), 0);
    assert_eq!(b.telemetry().mapper.prefix_cache_misses(), 0);
    assert_eq!(b.telemetry().prefix_cache_hit_rate(), None);
    assert_semantically_identical(&a, &b, "counter check pair");
}
