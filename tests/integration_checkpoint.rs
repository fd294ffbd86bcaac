//! Differential checkpoint/restore suite.
//!
//! A serving session checkpointed at an arbitrary event boundary and
//! restored into *freshly constructed* collaborators (source, discipline,
//! scheduler) must finish the trial bit-identically to an uninterrupted
//! run — same outcomes, energy, telemetry, and RNG consumption. Identity
//! is asserted through `f64::to_bits`, never float `==`, so `-0.0`/`0.0`
//! masking and NaN-hostility cannot hide a divergence.

pub mod common;

use common::assert_bit_identical;
use ecds::ext::{BatchDiscipline, BatchEdf, BatchMaxRho, BatchPolicy};
use ecds::prelude::*;
use ecds::sim::{ServeConfig, ServeSession};
use ecds::workload::TraceArrivalSource;

// ---------------------------------------------------------------------------
// Immediate mode.
// ---------------------------------------------------------------------------

fn serve_immediate(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    kind: HeuristicKind,
    variant: FilterVariant,
    checkpoint_at: Option<u64>,
) -> TrialResult {
    let cfg = ServeConfig::finite(trace.len());
    let Some(at) = checkpoint_at else {
        // Uninterrupted reference run.
        let mut scheduler = build_scheduler(kind, variant, scenario, 0);
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run(&mut source, &mut discipline);
        return session.finish(&mut discipline);
    };
    // Drive `at` events, checkpoint, and drop every live object.
    let bytes = {
        let mut scheduler = build_scheduler(kind, variant, scenario, 0);
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run_events(at, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    // Resume into brand-new collaborators.
    let mut scheduler = build_scheduler(kind, variant, scenario, 0);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect("restore of a freshly sealed checkpoint");
    session.run(&mut source, &mut discipline);
    session.finish(&mut discipline)
}

/// The acceptance grid: three seeds, every heuristic, snapshots at the very
/// start (event 0), mid-burst, and deep into the trial.
#[test]
fn immediate_restore_is_bit_identical_across_the_grid() {
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        for kind in HeuristicKind::ALL {
            let variant = FilterVariant::EnergyAndRobustness;
            let reference = serve_immediate(&scenario, &trace, kind, variant, None);
            for at in [0, 37, 93] {
                let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
                assert_bit_identical(
                    &reference,
                    &resumed,
                    &format!("seed {master} / {kind} / checkpoint@{at}"),
                );
            }
        }
    }
}

/// A dense snapshot sweep on one configuration: every part of the trial —
/// the primed-but-unstarted state, the first burst, queue drain — must be a
/// valid checkpoint boundary. The Random heuristic makes this also a test
/// of exact RNG stream positioning.
#[test]
fn immediate_restore_holds_at_every_probed_boundary() {
    let scenario = Scenario::small_for_tests(11);
    let trace = scenario.trace(1);
    let kind = HeuristicKind::Random;
    let variant = FilterVariant::Energy;
    let reference = serve_immediate(&scenario, &trace, kind, variant, None);
    for at in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 110, 200] {
        let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
        assert_bit_identical(&reference, &resumed, &format!("boundary {at}"));
    }
}

/// Cancel-overdue adds the chained-cancellation path to the restored state
/// machine (queued tasks cancelled at completion events).
#[test]
fn immediate_restore_survives_cancel_overdue() {
    let base = Scenario::small_for_tests(29);
    let scenario = base.with_sim_config({
        let mut c = *base.sim_config();
        c.cancel_overdue = true;
        c
    });
    let trace = scenario.trace(0);
    let kind = HeuristicKind::Mect;
    let variant = FilterVariant::None;
    let reference = serve_immediate(&scenario, &trace, kind, variant, None);
    assert!(
        reference.cancelled() > 0 || reference.completed() > 0,
        "scenario must exercise the engine"
    );
    for at in [17, 61] {
        let resumed = serve_immediate(&scenario, &trace, kind, variant, Some(at));
        assert_bit_identical(&reference, &resumed, &format!("cancel_overdue@{at}"));
    }
}

// ---------------------------------------------------------------------------
// Batch mode.
// ---------------------------------------------------------------------------

fn serve_batch(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    policy: &mut dyn BatchPolicy,
    checkpoint_at: Option<u64>,
) -> TrialResult {
    let cfg = ServeConfig::finite(trace.len());
    let Some(at) = checkpoint_at else {
        let mut discipline = BatchDiscipline::new(policy);
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run(&mut source, &mut discipline);
        return session.finish(&mut discipline);
    };
    let bytes = {
        let mut discipline = BatchDiscipline::new(policy);
        let mut source = TraceArrivalSource::new(trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            cfg,
            &mut source,
            &mut discipline,
        );
        session.run_events(at, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    let mut discipline = BatchDiscipline::new(policy);
    let mut source = TraceArrivalSource::new(trace);
    let mut session = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect("restore of a freshly sealed batch checkpoint");
    session.run(&mut source, &mut discipline);
    session.finish(&mut discipline)
}

/// Batch mode checkpoints the central pending bag and the energy ledger in
/// the discipline itself — restoring mid-trial must keep dispatch decisions
/// identical for both bundled policies.
#[test]
fn batch_restore_is_bit_identical() {
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        let reference = serve_batch(&scenario, &trace, &mut BatchMaxRho::default(), None);
        for at in [0, 37, 93] {
            let resumed = serve_batch(&scenario, &trace, &mut BatchMaxRho::default(), Some(at));
            assert_bit_identical(
                &reference,
                &resumed,
                &format!("max-rho seed {master} / checkpoint@{at}"),
            );
        }
        let reference = serve_batch(&scenario, &trace, &mut BatchEdf, None);
        for at in [0, 37, 93] {
            let resumed = serve_batch(&scenario, &trace, &mut BatchEdf, Some(at));
            assert_bit_identical(
                &reference,
                &resumed,
                &format!("edf seed {master} / checkpoint@{at}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness of the restore path itself.
// ---------------------------------------------------------------------------

/// A checkpoint taken after the queue drained restores to a finished
/// session.
#[test]
fn restore_of_a_drained_session_finishes_directly() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let reference = serve_immediate(
        &scenario,
        &trace,
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        None,
    );
    // Far beyond the event count: run_events drains, checkpoint captures
    // the terminal state.
    let resumed = serve_immediate(
        &scenario,
        &trace,
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        Some(1_000_000),
    );
    assert_bit_identical(&reference, &resumed, "drained checkpoint");
}

/// Restoring under a different simulator configuration must fail with the
/// typed mismatch error, not silently diverge.
#[test]
fn restore_rejects_config_mismatch() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let bytes = {
        let mut scheduler = build_scheduler(
            HeuristicKind::ShortestQueue,
            FilterVariant::None,
            &scenario,
            0,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(&trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            ServeConfig::finite(trace.len()),
            &mut source,
            &mut discipline,
        );
        session.run_events(10, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    let mut other_cfg = *scenario.sim_config();
    other_cfg.cancel_overdue = !other_cfg.cancel_overdue;
    let mut scheduler = build_scheduler(
        HeuristicKind::ShortestQueue,
        FilterVariant::None,
        &scenario,
        0,
    );
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(&trace);
    let err = ServeSession::restore(
        scenario.cluster(),
        scenario.table(),
        &other_cfg,
        &bytes,
        &mut source,
        &mut discipline,
    )
    .expect_err("config digest must be verified");
    assert!(
        matches!(
            err,
            ecds::persist::DecodeError::Corrupt("checkpoint simulator config mismatch")
        ),
        "unexpected error: {err:?}"
    );
}

/// A checkpoint written under an earlier wire-format version is rejected
/// with the typed version error, never reinterpreted: version 1 carried
/// evaluator-configuration flags that version 2 dropped, version 2
/// carried a per-prefix stamp epoch that version 3 dropped, and version 3
/// carried the scheduler's recorded `(task, ρ)` predictions that version 4
/// dropped.
#[test]
fn restore_rejects_a_version_1_checkpoint() {
    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let build = || {
        build_scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::EnergyAndRobustness,
            &scenario,
            0,
        )
    };
    let bytes = {
        let mut scheduler = build();
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(&trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            ServeConfig::finite(trace.len()),
            &mut source,
            &mut discipline,
        );
        session.run_events(40, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    let body = ecds::persist::open(&bytes, ecds::sim::CHECKPOINT_VERSION)
        .expect("a live checkpoint opens under the current version");
    for version in [1, 2, 3] {
        let sealed = ecds::persist::seal(version, body);
        let mut scheduler = build();
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(&trace);
        let err = ServeSession::restore(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            &sealed,
            &mut source,
            &mut discipline,
        )
        .expect_err("an earlier-version checkpoint must not restore");
        assert!(
            matches!(
                err,
                ecds::persist::DecodeError::UnsupportedVersion { found } if found == version
            ),
            "version {version}: unexpected error: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The wire format, pinned.
// ---------------------------------------------------------------------------

/// Runs `events` events of an immediate-mode session over trial `trial` of
/// `scenario` and returns its sealed checkpoint.
fn immediate_checkpoint(
    scenario: &Scenario,
    trial: u64,
    kind: HeuristicKind,
    variant: FilterVariant,
    events: u64,
) -> Vec<u8> {
    let trace = scenario.trace(trial);
    let mut scheduler = build_scheduler(kind, variant, scenario, 0);
    let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
    let mut source = TraceArrivalSource::new(&trace);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        ServeConfig::finite(trace.len()),
        &mut source,
        &mut discipline,
    );
    session.run_events(events, &mut source, &mut discipline);
    session.checkpoint(&source, &discipline)
}

/// Checkpoint (a) of the pin table: LL/en+rob on seed 3, 40 events.
fn checkpoint_a() -> Vec<u8> {
    immediate_checkpoint(
        &Scenario::small_for_tests(3),
        0,
        HeuristicKind::LightestLoad,
        FilterVariant::EnergyAndRobustness,
        40,
    )
}

/// Five checkpoints covering every section of the format — both horizon
/// and retention tags, every event kind, executing and queued cores,
/// cancelled outcomes, cached prefixes, the Random RNG, the batch pending
/// bag and the bursty source's RNG words — pinned to their length and
/// FNV-1a-64 digest.
///
/// A failure here means the wire format changed. Bump
/// `CHECKPOINT_VERSION` (old checkpoints must be rejected, never
/// reinterpreted) and re-pin the values.
#[test]
fn checkpoint_wire_format_is_pinned() {
    let digest = |bytes: &[u8]| (bytes.len(), ecds::persist::fnv1a_64(bytes));

    assert_eq!(digest(&checkpoint_a()), (3_911, 0x3ec0f5be99c38b44), "(a)");

    let b = immediate_checkpoint(
        &Scenario::small_for_tests(11),
        1,
        HeuristicKind::Random,
        FilterVariant::Energy,
        89,
    );
    assert_eq!(digest(&b), (7_306, 0xdaf2e756fcc486d5), "(b)");

    let base = Scenario::small_for_tests(29);
    let cancelling = base.with_sim_config({
        let mut c = *base.sim_config();
        c.cancel_overdue = true;
        c
    });
    let c = immediate_checkpoint(&cancelling, 0, HeuristicKind::Mect, FilterVariant::None, 61);
    assert_eq!(digest(&c), (4_931, 0x898a012a779d609f), "(c)");

    let d = {
        let scenario = Scenario::small_for_tests(3);
        let trace = scenario.trace(0);
        let mut policy = BatchMaxRho::default();
        let mut discipline = BatchDiscipline::new(&mut policy);
        let mut source = TraceArrivalSource::new(&trace);
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            ServeConfig::finite(trace.len()),
            &mut source,
            &mut discipline,
        );
        session.run_events(37, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    assert_eq!(digest(&d), (3_053, 0x96a3175f11467bd6), "(d)");

    let e = {
        let scenario = Scenario::small_for_tests(7).with_sim_config(SimConfig::unconstrained());
        let mut source = BurstyArrivalSource::new(
            scenario.workload().arrivals.clone(),
            scenario.workload(),
            scenario.table(),
            scenario.seeds(),
            0,
        );
        let mut scheduler = build_scheduler(
            HeuristicKind::Random,
            FilterVariant::Robustness,
            &scenario,
            2,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut session = ServeSession::new(
            scenario.cluster(),
            scenario.table(),
            scenario.sim_config(),
            ServeConfig::streaming(50, 16, 400),
            &mut source,
            &mut discipline,
        );
        session.run_events(500, &mut source, &mut discipline);
        session.checkpoint(&source, &discipline)
    };
    assert_eq!(digest(&e), (4_318, 0xbae9b5ade7c8d89b), "(e)");
}

/// Every field check the restore makes, one corrupted field at a time:
/// the body of checkpoint (a) is opened, one field is overwritten at its
/// byte offset, the body is re-sealed (so the checksum passes), and the
/// restore must refuse it with the check's exact error text.
#[test]
fn restore_rejects_each_corrupt_field() {
    use ecds::persist::{open, seal, DecodeError};
    use ecds::sim::CHECKPOINT_VERSION;

    let scenario = Scenario::small_for_tests(3);
    let trace = scenario.trace(0);
    let sealed = checkpoint_a();
    let body = open(&sealed, CHECKPOINT_VERSION).expect("a live checkpoint opens");
    let restore_into = |cluster: &Cluster, bytes: &[u8]| {
        let mut scheduler = build_scheduler(
            HeuristicKind::LightestLoad,
            FilterVariant::EnergyAndRobustness,
            &scenario,
            0,
        );
        let mut discipline = ImmediateDiscipline::new(scheduler.as_mut());
        let mut source = TraceArrivalSource::new(&trace);
        ServeSession::restore(
            cluster,
            scenario.table(),
            scenario.sim_config(),
            bytes,
            &mut source,
            &mut discipline,
        )
        .map(|_| ())
    };
    /// Overwrites one field of a checkpoint body in place.
    type Edit = fn(&mut [u8]);
    let corrupted = |edit: Edit| {
        let mut bytes = body.to_vec();
        edit(&mut bytes);
        restore_into(scenario.cluster(), &seal(CHECKPOINT_VERSION, &bytes))
    };
    fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    assert_eq!(restore_into(scenario.cluster(), &sealed), Ok(()));
    let cases: [(&str, Edit); 7] = [
        ("unknown horizon tag", |b| b[13] = 7),
        ("unknown retention tag", |b| b[22] = 7),
        ("flush_every must be positive", |b| {
            b[22] = 1;
            put_u64(b, 23, 0);
        }),
        // Checkpoint (a) is full-retention with buffered samples.
        ("bounded checkpoint carries buffered telemetry", |b| {
            b[22] = 1;
            put_u64(b, 23, 64);
        }),
        ("expected a finite f64", |b| {
            put_u64(b, 32, f64::NAN.to_bits())
        }),
        ("arrived count exceeds streamed tasks", |b| {
            put_u64(b, 48, 1 << 40)
        }),
        ("store tasks not dense and id-ordered", |b| {
            put_u64(b, 169, 5)
        }),
    ];
    for (what, edit) in cases {
        assert_eq!(corrupted(edit), Err(DecodeError::Corrupt(what)), "{what}");
    }
    let paper = Scenario::paper(3);
    assert_eq!(
        restore_into(paper.cluster(), &sealed),
        Err(DecodeError::Corrupt(
            "core count does not match the cluster"
        ))
    );
}
