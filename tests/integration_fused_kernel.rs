//! Differential proof that the fused scratch kernel is invisible at trial
//! scale: full simulations run with the fused evaluator must be
//! bit-identical — task outcomes, energy, makespan, exhaustion, telemetry
//! series — to simulations run with `OracleMapper`, whose reference
//! evaluator uses the allocating `Pmf` pipeline, across seeds, heuristics,
//! and filter variants.
//!
//! The seed × heuristic sweep runs trial 2; `integration_evaluator_oracle`
//! covers trial 0 of the same grid.

pub mod common;

use common::{assert_semantically_identical, run_against_oracle, OracleMapper};
use ecds::prelude::*;

/// Three seeds × all four heuristics with the paper's best filter chain —
/// the configuration where every decision flows through the kernel via
/// ECT, ρ, and the robustness filter.
#[test]
fn fused_equals_legacy_across_seeds_and_heuristics() {
    for master in [3, 11, 29] {
        for kind in HeuristicKind::ALL {
            let (a, b) = run_against_oracle(master, 2, kind, FilterVariant::EnergyAndRobustness);
            assert_semantically_identical(&a, &b, &format!("seed {master} / {kind}"));
        }
    }
}

/// Filters change which candidates survive to the heuristic, so each chain
/// exercises different kernel-consumption paths.
#[test]
fn fused_equals_legacy_across_filter_variants() {
    for variant in FilterVariant::ALL {
        let (a, b) = run_against_oracle(17, 2, HeuristicKind::Mect, variant);
        assert_semantically_identical(&a, &b, &format!("variant {variant}"));
    }
}

/// The fused, cached default must match the fully legacy evaluator (no
/// cache, no scratch, no classes) — the oracle, the deepest differential
/// reference available.
#[test]
fn fused_cached_equals_fully_legacy_evaluator() {
    let (a, b) = run_against_oracle(
        19,
        0,
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
    );
    assert_semantically_identical(&a, &b, "fused+cache vs fully legacy");
}

/// The fused path must actually be exercised: a full trial on the default
/// scheduler reports a busy kernel counter, and the oracle reports zero.
#[test]
fn fused_runs_report_kernel_calls_and_legacy_report_zero() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let kind = HeuristicKind::Mect;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut fused = build_scheduler(kind, variant, &scenario, 0);
    let a = Simulation::new(&scenario, &trace).run(fused.as_mut());
    assert!(
        a.telemetry().mapper.fused_kernel_calls > 0,
        "default scheduler must route convolutions through the fused kernel"
    );

    let mut legacy = OracleMapper::build(kind, variant, &scenario, 0);
    let b = Simulation::new(&scenario, &trace).run(&mut legacy);
    assert_eq!(b.telemetry().mapper.fused_kernel_calls, 0);
    assert_semantically_identical(&a, &b, "counter check pair");
}
