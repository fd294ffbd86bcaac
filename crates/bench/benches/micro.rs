//! Micro-benchmarks of the hot paths, written to
//! `results/BENCH_kernel.json`: pmf algebra (the paper notes convolution
//! overhead "can be negligible if task execution times are sufficiently
//! long"), candidate evaluation, the robustness calculation, and the
//! whole-trial cost of the convolution impulse cap.

mod common;

use std::hint::black_box;

use common::{probe_tasks, Report};
use ecds_core::{system_robustness, CandidateEvaluator, FilterVariant, LightestLoad, Scheduler};
use ecds_pmf::{Gamma, Pmf, PmfScratch, ReductionPolicy, SeedDerive};
use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario, Simulation, SystemView};
use ecds_workload::{TaskId, TaskTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gamma_pmf(mean: f64, impulses: usize, seed: u64) -> Pmf {
    let gamma = Gamma::from_mean_cv(mean, 0.2);
    let mut rng = StdRng::seed_from_u64(seed);
    ecds_pmf::empirical_pmf(
        &mut rng,
        ecds_pmf::SamplePmfConfig::new(impulses * 10, impulses),
        |r| gamma.sample(r),
    )
}

/// Distinct pairs each kernel row cycles through: the evaluator never
/// convolves one pair over and over, so a row that did would let the
/// branch predictor learn the merge's exact branch sequence.
const PAIRS: usize = 256;

/// The fused scratch kernel against the legacy convolve→reduce pipeline at
/// the default 24-impulse cap: "fused_warm" reuses one workspace across
/// iterations (the evaluator's steady state), "fused_cold" pays the buffer
/// growth on every call. Every row cycles through the same [`PAIRS`]
/// distinct pairs of its impulse count, one pair per call.
fn kernel(report: &mut Report) {
    let policy = ReductionPolicy::default_cap();
    let cap = policy.max_impulses;
    for impulses in [8usize, 24, 64] {
        let pairs: Vec<(Pmf, Pmf)> = (0..PAIRS as u64)
            .map(|s| {
                (
                    gamma_pmf(750.0, impulses, 2 * s),
                    gamma_pmf(900.0, impulses, 2 * s + 1),
                )
            })
            .collect();
        let fields = [("impulses", impulses), ("cap", cap), ("pairs", PAIRS)];
        let mut next = pairs.iter().cycle();
        report.measure("pmf_kernel", "legacy", &fields, 2000, || {
            let (a, b) = next.next().unwrap();
            drop(black_box(a.convolve(b, policy)))
        });
        let mut scratch = PmfScratch::new();
        let mut next = pairs.iter().cycle();
        report.measure("pmf_kernel", "fused_warm", &fields, 2000, || {
            let (a, b) = next.next().unwrap();
            let out =
                scratch.convolve_reduced(black_box(a.impulses()), black_box(b.impulses()), policy);
            black_box(out.expectation());
        });
        let mut next = pairs.iter().cycle();
        report.measure("pmf_kernel", "fused_cold", &fields, 2000, || {
            let (a, b) = next.next().unwrap();
            let mut fresh = PmfScratch::new();
            let out =
                fresh.convolve_reduced(black_box(a.impulses()), black_box(b.impulses()), policy);
            black_box(out.expectation());
        });
    }
}

fn pmf_ops(report: &mut Report) {
    let p = gamma_pmf(750.0, 24, 7);
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

/// `evaluate_all` with every queue-prefix pmf served from the prefix cache
/// ("warm": the warm-up batch primes it) against recomputing the prefixes
/// on every call ("cold": `reset_cache` before each sweep). At depth 8 the
/// prefix convolution chain dominates the sweep, which is the load the
/// cache exists for. Each call maps the next of the ten probe tasks.
fn evaluate_all(report: &mut Report) {
    let tasks = probe_tasks();
    for depth in [1usize, 8] {
        let (scenario, cores) = busy_view_fixture(depth);
        let view = SystemView::new(scenario.cluster(), scenario.table(), &cores, 500.0, 10, 60);
        let fields = [("depth", depth)];
        let mut cold = CandidateEvaluator::default();
        let mut next = tasks.iter().cycle();
        report.measure("evaluate_all", "cold", &fields, 100, || {
            cold.reset_cache();
            drop(black_box(cold.evaluate_all(&view, next.next().unwrap())));
        });
        let mut warm = CandidateEvaluator::default();
        let mut next = tasks.iter().cycle();
        report.measure("evaluate_all", "warm", &fields, 100, || {
            drop(black_box(warm.evaluate_all(&view, next.next().unwrap())))
        });
    }
}

/// Distinct view times `system_robustness` cycles through: each shifts the
/// truncation point of every executing task, so no two calls share input.
const VIEWS: usize = 10;

fn robustness_and_trace(report: &mut Report) {
    let (scenario, cores) = busy_view_fixture(1);
    let views: Vec<SystemView<'_>> = (0..VIEWS)
        .map(|k| {
            let now = 500.0 + 25.0 * k as f64;
            SystemView::new(scenario.cluster(), scenario.table(), &cores, now, 10, 60)
        })
        .collect();
    let mut next = views.iter().cycle();
    report.measure("system_robustness", "depth_1", &[], 200, || {
        black_box(system_robustness(
            next.next().unwrap(),
            ReductionPolicy::default(),
        ));
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
