//! Micro-benchmarks of the hot paths, written to
//! `results/BENCH_kernel.json`: pmf algebra (the paper notes convolution
//! overhead "can be negligible if task execution times are sufficiently
//! long"), candidate evaluation, the robustness calculation, and the
//! whole-trial cost of the convolution impulse cap.

mod common;

use std::hint::black_box;

use common::Report;
use ecds_core::{system_robustness, CandidateEvaluator, FilterVariant, LightestLoad, Scheduler};
use ecds_pmf::{Gamma, Pmf, PmfScratch, ReductionPolicy, SeedDerive};
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, Simulation, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gamma_pmf(mean: f64, impulses: usize) -> Pmf {
    let gamma = Gamma::from_mean_cv(mean, 0.2);
    let mut rng = StdRng::seed_from_u64(7);
    ecds_pmf::empirical_pmf(
        &mut rng,
        ecds_pmf::SamplePmfConfig::new(impulses * 10, impulses),
        |r| gamma.sample(r),
    )
}

/// The fused scratch kernel against the legacy convolve→reduce pipeline at
/// the default 24-impulse cap: "fused_warm" reuses one workspace across
/// iterations (the evaluator's steady state), "fused_cold" pays the buffer
/// growth on every call.
fn kernel(report: &mut Report) {
    let policy = ReductionPolicy::default_cap();
    let cap = policy.max_impulses;
    for impulses in [8usize, 24, 64] {
        let a = gamma_pmf(750.0, impulses);
        let b = gamma_pmf(900.0, impulses);
        let fields = [("impulses", impulses), ("cap", cap)];
        report.measure("pmf_kernel", "legacy", &fields, 2000, || {
            drop(black_box(a.convolve(&b, policy)))
        });
        let mut scratch = PmfScratch::new();
        report.measure("pmf_kernel", "fused_warm", &fields, 2000, || {
            let out = scratch.convolve_reduced(black_box(&a), black_box(&b), policy);
            black_box(out.expectation());
        });
        report.measure("pmf_kernel", "fused_cold", &fields, 2000, || {
            let mut fresh = PmfScratch::new();
            let out = fresh.convolve_reduced(black_box(&a), black_box(&b), policy);
            black_box(out.expectation());
        });
    }
}

fn pmf_ops(report: &mut Report) {
    let p = gamma_pmf(750.0, 24);
    let shifted = p.shift(100.0);
    report.measure("pmf", "truncate_renormalize", &[], 10_000, || {
        drop(black_box(shifted.truncate_below(black_box(750.0))))
    });
    report.measure("pmf", "quantile", &[], 10_000, || {
        black_box(p.quantile(black_box(0.73)).unwrap());
    });
    let seeds = SeedDerive::new(42);
    report.measure("pmf", "seed_derivation", &[], 10_000, || {
        black_box(seeds.seed(ecds_pmf::Stream::Quantiles, black_box(17), black_box(3)));
    });
}

/// Every core executing one task with `depth` more queued behind it
/// (burst-time telemetry shows per-core depths of this order).
fn busy_view_fixture(depth: usize) -> (Scenario, Vec<CoreState>) {
    let scenario = Scenario::small_for_tests(3);
    let mut cores = vec![CoreState::new(); scenario.cluster().total_cores()];
    for (i, core) in cores.iter_mut().enumerate() {
        core.start(ExecutingTask {
            task: TaskId(i),
            type_id: TaskTypeId(i % 10),
            pstate: ecds_cluster::PState::P1,
            start: 0.0,
            deadline: 4000.0,
        });
        for q in 0..depth {
            core.enqueue(QueuedTask {
                task: TaskId(100 + i * depth + q),
                type_id: TaskTypeId((i + 3 + q) % 10),
                pstate: ecds_cluster::PState::P2,
                deadline: 6000.0,
            });
        }
    }
    (scenario, cores)
}

fn probe_task() -> Task {
    Task {
        id: TaskId(50),
        type_id: TaskTypeId(5),
        arrival: 500.0,
        deadline: 3000.0,
        quantile: 0.5,
    }
}

/// `evaluate_all` with every queue-prefix pmf served from the prefix cache
/// ("warm": the warm-up batch primes it) against recomputing the prefixes
/// on every call ("cold": `reset_cache` before each sweep). At depth 8 the
/// prefix convolution chain dominates the sweep, which is the load the
/// cache exists for.
fn evaluate_all(report: &mut Report) {
    let task = probe_task();
    for depth in [1usize, 8] {
        let (scenario, cores) = busy_view_fixture(depth);
        let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 500.0, 10, 60);
        let mut cold = CandidateEvaluator::default();
        report.measure("evaluate_all", "cold", &[("depth", depth)], 100, || {
            cold.reset_cache();
            drop(black_box(cold.evaluate_all(&view, &task)));
        });
        let mut warm = CandidateEvaluator::default();
        report.measure("evaluate_all", "warm", &[("depth", depth)], 100, || {
            drop(black_box(warm.evaluate_all(&view, &task)))
        });
    }
}

fn robustness_and_trace(report: &mut Report) {
    let (scenario, cores) = busy_view_fixture(1);
    let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 500.0, 10, 60);
    report.measure("system_robustness", "depth_1", &[], 200, || {
        black_box(system_robustness(&view, ReductionPolicy::default()));
    });
    let mut trial = 0u64;
    report.measure("trace", "generate_small", &[], 50, || {
        trial += 1;
        drop(black_box(scenario.trace(trial)));
    });
}

/// The speed side of the impulse-cap ablation: one whole small LL/en+rob
/// trial per cap (allocation *quality* under the cap is measured by
/// `ablations impulse-cap`).
fn trial_per_cap(report: &mut Report) {
    let scenario = Scenario::small_for_tests(1353);
    let trace = scenario.trace(0);
    let budget = scenario.energy_budget().unwrap();
    for cap in [4usize, 8, 24, 64] {
        report.measure("trial", "ll_en_rob", &[("cap", cap)], 3, || {
            let mut sched = Scheduler::new(
                Box::new(LightestLoad),
                FilterVariant::EnergyAndRobustness.build(),
                budget,
                ReductionPolicy::new(cap),
            );
            black_box(Simulation::new(&scenario, &trace).run(&mut sched).missed());
        });
    }
}

fn main() {
    let mut report = Report::new("BENCH_kernel.json");
    kernel(&mut report);
    pmf_ops(&mut report);
    evaluate_all(&mut report);
    robustness_and_trace(&mut report);
    trial_per_cap(&mut report);
    report.write();
}
