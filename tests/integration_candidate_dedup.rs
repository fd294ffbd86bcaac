//! Differential proof that candidate equivalence-class deduplication is
//! invisible: full trials run with the deduplicating scheduler must be
//! bit-identical — task outcomes, energy, makespan, exhaustion, telemetry
//! series — to trials run with `OracleMapper`, whose reference evaluator
//! evaluates every (core, P-state) pair independently.
//!
//! The seed × heuristic sweep runs trial 3; `integration_evaluator_oracle`
//! covers trial 0 of the same grid.

pub mod common;

use common::{assert_semantically_identical, run_against_oracle, OracleMapper};
use ecds::prelude::*;

/// Three seeds × all heuristics, with the paper's best filter chain — the
/// configuration where replicated estimates drive every decision through
/// ECT, ρ, and the robustness filter (so any replication error would change
/// assignments, not just diagnostics).
#[test]
fn deduped_equals_per_core_across_seeds_and_heuristics() {
    for master in [3, 11, 29] {
        for kind in HeuristicKind::ALL {
            let (a, b) = run_against_oracle(master, 3, kind, FilterVariant::EnergyAndRobustness);
            assert_semantically_identical(&a, &b, &format!("seed {master} / {kind}"));
        }
    }
}

/// Filters drop different candidate subsets, so each chain exercises
/// different replicated-estimate consumption paths — including argmin
/// tie-breaks among bit-identical class members, which must keep resolving
/// to the lowest (core, P-state) emitted.
#[test]
fn deduped_equals_per_core_across_filter_variants() {
    for variant in FilterVariant::ALL {
        let (a, b) = run_against_oracle(23, 3, HeuristicKind::Mect, variant);
        assert_semantically_identical(&a, &b, &format!("variant {variant}"));
    }
}

/// The deduplicating evaluator with its prefix cache emptied before every
/// decision — every class is formed from freshly built prefixes and a full
/// shard rebuild — selecting through the oracle's filters and heuristic.
struct ColdCacheMapper {
    evaluator: CandidateEvaluator,
    oracle: OracleMapper,
}

impl Mapper for ColdCacheMapper {
    fn on_trial_start(&mut self) {
        self.oracle.on_trial_start();
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        self.evaluator.reset_cache();
        let candidates = self.evaluator.evaluate_all(view, task);
        self.oracle.select(task, view, candidates)
    }
}

/// Dedup does not lean on the cache: with no prefix ever reused, the
/// deduplicating evaluator must still be invisible relative to the
/// uncached per-core oracle.
#[test]
fn deduped_equals_per_core_without_prefix_cache() {
    let scenario = Scenario::small_for_tests(11);
    let trace = scenario.trace(0);
    let kind = HeuristicKind::LightestLoad;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut deduped = ColdCacheMapper {
        evaluator: CandidateEvaluator::default(),
        oracle: OracleMapper::build(kind, variant, &scenario, 0),
    };
    let mut per_core = OracleMapper::build(kind, variant, &scenario, 0);
    let a = Simulation::new(&scenario, &trace).run(&mut deduped);
    let b = Simulation::new(&scenario, &trace).run(&mut per_core);
    assert_semantically_identical(&a, &b, "uncached pair");
}

/// Dedup must actually be collapsing work: on the bundled scenario most
/// arrivals see several interchangeable cores, so classes per event sit
/// strictly below the core count and skipped evaluations accumulate. The
/// per-core oracle reports no dedup stats at all.
#[test]
fn deduped_runs_report_classes_and_per_core_report_none() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let kind = HeuristicKind::Mect;
    let variant = FilterVariant::EnergyAndRobustness;
    let mut deduped = build_scheduler(kind, variant, &scenario, 0);
    let a = Simulation::new(&scenario, &trace).run(deduped.as_mut());
    let mapper = a.telemetry().mapper;
    let (classes, events) = mapper
        .candidate_classes
        .expect("classes are always counted");
    assert!(events > 0, "every arrival is a mapping event");
    assert!(classes >= events, "at least one class per event");
    let cores = scenario.cluster().total_cores() as u64;
    assert!(
        classes < events * cores,
        "some event must collapse at least two cores ({classes} classes \
         over {events} events on {cores} cores)"
    );
    let per_event = mapper.classes_per_event().expect("events were recorded");
    assert!(per_event >= 1.0 && per_event < cores as f64);
    assert!(mapper.dedup_skipped_evaluations > 0);

    let mut per_core = OracleMapper::build(kind, variant, &scenario, 0);
    let b = Simulation::new(&scenario, &trace).run(&mut per_core);
    assert_eq!(b.telemetry().mapper.candidate_classes, None);
    assert_eq!(b.telemetry().mapper.dedup_skipped_evaluations, 0);
    assert_eq!(b.telemetry().mapper.classes_per_event(), None);
    assert_semantically_identical(&a, &b, "counter check pair");
}
