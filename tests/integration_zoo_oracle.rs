//! Differential proof for the literature zoo (\[MaA99\]'s MET, OLB and KPB,
//! and the deterministic det-MCT): behind the paper's en+rob filters, full
//! trials scheduled by the production heuristics are bit-identical to
//! trials scheduled by `OracleMapper`, whose `Rule`s restate each
//! heuristic on the per-core reference candidate stream. MET and OLB
//! decide from grouped classes in production, KPB and det-MCT from
//! per-core classes.

pub mod common;

use common::{assert_semantically_identical, OracleMapper, Rule};
use ecds::prelude::*;

#[test]
fn zoo_equals_oracle_under_en_rob() {
    type Build = fn() -> Box<dyn Heuristic>;
    let zoo: [(Rule, Build); 5] = [
        (Rule::Met, || Box::new(MinimumExecutionTime)),
        (Rule::Olb, || Box::new(OpportunisticLoadBalancing)),
        (Rule::Kpb(20.0), || Box::new(KPercentBest::new(20.0))),
        (Rule::Kpb(50.0), || Box::new(KPercentBest::new(50.0))),
        (Rule::DetMct, || Box::new(DeterministicMct)),
    ];
    let variant = FilterVariant::EnergyAndRobustness;
    for master in [3, 11, 29] {
        let scenario = Scenario::small_for_tests(master);
        let trace = scenario.trace(0);
        let budget = scenario.energy_budget().unwrap();
        for (rule, build) in zoo {
            let mut fast =
                Scheduler::new(build(), variant.build(), budget, ReductionPolicy::default());
            let mut oracle = OracleMapper::new(rule, variant, &scenario, 0);
            let a = Simulation::new(&scenario, &trace).run(&mut fast);
            let b = Simulation::new(&scenario, &trace).run(&mut oracle);
            assert!(a.completed() > 0, "seed {master} / {}", fast.label());
            assert_semantically_identical(&a, &b, &format!("seed {master} / {}", fast.label()));
        }
    }
}
