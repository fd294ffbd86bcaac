//! Bounded retention agrees with full retention.
//!
//! Every finite trial is a full-retention `ServeSession` (that is how
//! `Simulation::run_with` runs it; `integration_unified_engine` checks it
//! against bulk-loaded reference engines). A bounded-retention session
//! retires settled tasks, folds telemetry and compacts energy logs as it
//! goes; its summary must still report the same counts, the same total
//! energy bits and the same makespan as the full run of the same trace.

use ecds::prelude::*;

#[test]
fn bounded_retention_summary_agrees_with_full_run() {
    // Bounded retention requires an unconstrained energy budget (compaction
    // destroys the exhaustion history a budget check would need).
    let scenario = Scenario::small_for_tests(9).with_sim_config(SimConfig::unconstrained());
    let trace = scenario.trace(0);

    let mut full_scheduler = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut full_discipline = ImmediateDiscipline::new(full_scheduler.as_mut());
    let full = Simulation::new(&scenario, &trace).run_with(&mut full_discipline);

    let mut serve_scheduler = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut serve_discipline = ImmediateDiscipline::new(serve_scheduler.as_mut());
    let mut source = TraceArrivalSource::new(&trace);
    let cfg = ServeConfig {
        horizon: Horizon::Fixed(trace.len() as u64),
        retention: Retention::Bounded { flush_every: 16 },
        max_arrivals: None,
    };
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        cfg,
        &mut source,
        &mut serve_discipline,
    );
    session.run(&mut source, &mut serve_discipline);
    let summary = session.finish_summary(&serve_discipline);

    assert_eq!(summary.arrivals as usize, trace.len());
    assert_eq!(
        summary.tally.retired,
        trace.len() as u64,
        "all tasks retire"
    );
    assert_eq!(summary.tally.completed as usize, full.completed());
    assert_eq!(summary.tally.cancelled as usize, full.cancelled());
    assert_eq!(summary.tally.discarded as usize, full.discarded());
    assert_eq!(
        summary.tally.on_time as usize,
        full.on_time_ignoring_energy(),
        "deadline hits agree (no budget, so energy cannot disqualify)"
    );
    assert_eq!(
        summary.total_energy.to_bits(),
        full.total_energy().to_bits(),
        "energy folds are bit-identical under compaction"
    );
    assert_eq!(summary.makespan.to_bits(), full.makespan().to_bits());
}
