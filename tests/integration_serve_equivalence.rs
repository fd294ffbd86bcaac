//! Serve-vs-classic equivalence at paper scale.
//!
//! A [`ServeSession`] fed a finite [`TraceArrivalSource`] under
//! `ServeConfig::finite` is the *same* simulation as the classic
//! `Simulation::run_with` — the serving loop keeps exactly one pending
//! arrival resident, so every event pops in the same order and every f64
//! operation executes in the same sequence. This suite holds that claim to
//! `to_bits` identity on the paper-scale 1,000-task workload, on every
//! heuristic at test scale, and for the batch discipline.

use ecds::ext::{run_batch, BatchDiscipline, BatchEdf, BatchMaxRho, BatchPolicy};
use ecds::prelude::*;

// ---------------------------------------------------------------------------
// Bit-identity helper (shared shape with tests/integration_checkpoint.rs).
// ---------------------------------------------------------------------------

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn assert_bit_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(a.outcomes().len(), b.outcomes().len(), "{label}: counts");
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.task, y.task, "{label}");
        assert_eq!(x.assignment, y.assignment, "{label}: {:?}", x.task);
        assert_eq!(
            opt_bits(x.start),
            opt_bits(y.start),
            "{label}: {:?}",
            x.task
        );
        assert_eq!(
            opt_bits(x.completion),
            opt_bits(y.completion),
            "{label}: {:?}",
            x.task
        );
        assert_eq!(x.cancelled, y.cancelled, "{label}: {:?}", x.task);
    }
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy"
    );
    assert_eq!(
        opt_bits(a.exhausted_at()),
        opt_bits(b.exhausted_at()),
        "{label}: exhaustion"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    let bits2 = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
        v.iter().map(|&(p, q)| (p.to_bits(), q.to_bits())).collect()
    };
    assert_eq!(
        bits2(&ta.queue_depth),
        bits2(&tb.queue_depth),
        "{label}: queue depth"
    );
    assert_eq!(
        ta.busy_cores
            .iter()
            .map(|&(t, n)| (t.to_bits(), n))
            .collect::<Vec<_>>(),
        tb.busy_cores
            .iter()
            .map(|&(t, n)| (t.to_bits(), n))
            .collect::<Vec<_>>(),
        "{label}: busy cores"
    );
    assert_eq!(bits2(&ta.power), bits2(&tb.power), "{label}: power");
    assert_eq!(ta.mapper, tb.mapper, "{label}: mapper stats");
}

fn serve_trace(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    discipline: &mut dyn Discipline,
) -> TrialResult {
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        ServeConfig::finite(trace.len()),
        &mut source,
        discipline,
    );
    session.run(&mut source, discipline);
    session.finish(discipline)
}

// ---------------------------------------------------------------------------
// The tentpole acceptance test: the paper's 1,000-task workload.
// ---------------------------------------------------------------------------

#[test]
fn thousand_task_serve_matches_classic() {
    let scenario = Scenario::paper(1353);
    let trace = scenario.trace(0);
    assert_eq!(trace.len(), 1000, "paper scenario must be full scale");

    let build = || {
        build_scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::EnergyAndRobustness,
            &scenario,
            0,
        )
    };
    let mut classic_scheduler = build();
    let mut classic_discipline = ImmediateDiscipline::new(classic_scheduler.as_mut());
    let classic = Simulation::new(&scenario, &trace).run_with(&mut classic_discipline);

    let mut serve_scheduler = build();
    let mut serve_discipline = ImmediateDiscipline::new(serve_scheduler.as_mut());
    let served = serve_trace(&scenario, &trace, &mut serve_discipline);

    assert_bit_identical(&classic, &served, "LL/en+rob");
}

/// The smaller grid: every heuristic under both engines, with the energy
/// budget active, at test scale.
#[test]
fn small_scale_serve_matches_classic_for_every_heuristic() {
    for master in [3, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        for kind in HeuristicKind::ALL {
            let mut classic_scheduler =
                build_scheduler(kind, FilterVariant::EnergyAndRobustness, &scenario, 0);
            let mut classic_discipline = ImmediateDiscipline::new(classic_scheduler.as_mut());
            let classic = Simulation::new(&scenario, &trace).run_with(&mut classic_discipline);

            let mut serve_scheduler =
                build_scheduler(kind, FilterVariant::EnergyAndRobustness, &scenario, 0);
            let mut serve_discipline = ImmediateDiscipline::new(serve_scheduler.as_mut());
            let served = serve_trace(&scenario, &trace, &mut serve_discipline);

            assert_bit_identical(&classic, &served, &format!("seed {master} / {kind}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Batch discipline equivalence.
// ---------------------------------------------------------------------------

#[test]
fn batch_serve_matches_run_batch() {
    for master in [5, 17] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);

        type MakePolicy = fn() -> Box<dyn BatchPolicy>;
        let policies: [(&str, MakePolicy); 2] = [
            ("max-rho", || Box::new(BatchMaxRho::default())),
            ("edf", || Box::new(BatchEdf)),
        ];
        for (label, make) in policies {
            let mut classic_policy = make();
            let classic = run_batch(&scenario, &trace, classic_policy.as_mut());

            let mut serve_policy = make();
            let mut discipline = BatchDiscipline::new(serve_policy.as_mut());
            let served = serve_trace(&scenario, &trace, &mut discipline);

            assert_bit_identical(&classic, &served, &format!("seed {master} / {label}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded retention: the summary agrees with the full-retention result.
// ---------------------------------------------------------------------------

#[test]
fn bounded_retention_summary_agrees_with_full_run() {
    // Bounded retention requires an unconstrained energy budget (compaction
    // destroys the exhaustion history a budget check would need).
    let scenario = Scenario::small_for_tests(9).with_sim_config(SimConfig::unconstrained());
    let trace = scenario.trace(0);

    let mut classic_scheduler = build_scheduler(
        HeuristicKind::LightestLoad,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut classic_discipline = ImmediateDiscipline::new(classic_scheduler.as_mut());
    let classic = Simulation::new(&scenario, &trace).run_with(&mut classic_discipline);

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
    assert_eq!(summary.tally.completed as usize, classic.completed());
    assert_eq!(summary.tally.cancelled as usize, classic.cancelled());
    assert_eq!(summary.tally.discarded as usize, classic.discarded());
    assert_eq!(
        summary.tally.on_time as usize,
        classic.on_time_ignoring_energy(),
        "deadline hits agree (no budget, so energy cannot disqualify)"
    );
    assert_eq!(
        summary.total_energy.to_bits(),
        classic.total_energy().to_bits(),
        "energy folds are bit-identical under compaction"
    );
    assert_eq!(summary.makespan.to_bits(), classic.makespan().to_bits());
}
