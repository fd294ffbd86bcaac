//! Property-based proof that the fused scratch kernel is *bit-identical* —
//! `Pmf::bit_eq` or `assert_eq!` on the full impulse lists, not
//! approximate — to the legacy `convolve` + `reduce` pipeline. Bit-identity is load-bearing: impulse
//! reduction makes convolution non-associative, and the prefix cache's
//! correctness argument (DESIGN.md §7) assumes recompute ≡ cached
//! bit-for-bit, so the fused and legacy paths must be interchangeable at
//! the bit level across every policy.

use ecds_pmf::{Pmf, PmfScratch, ReductionPolicy};
use proptest::prelude::*;

/// Strategy producing a valid pmf with 1..=24 impulses (24 is the
/// workspace's impulse cap, so 24 × 24 is the evaluator's common kernel
/// shape), values in [0, 1000], weights in (0, 1].
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0.0f64..1000.0, 0.01f64..1.0), 1..=24)
        .prop_map(|pairs| Pmf::from_pairs(&pairs).expect("valid pairs"))
}

/// Strategy producing a pmf with up to 24 impulses on the grid
/// {0, 0.5, ..., 20}: sums are exact, so `a_i + b_j` ties across product
/// rows — the case where a stable sort's tie order decides the output.
fn arb_tied_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u32..=40, 1u32..=8), 1..=24).prop_map(|pairs| {
        let pairs: Vec<(f64, f64)> = pairs
            .into_iter()
            .map(|(v, w)| (f64::from(v) * 0.5, f64::from(w)))
            .collect();
        Pmf::from_pairs(&pairs).expect("valid pairs")
    })
}

/// The policies under test: no reduction, degenerate single-impulse cap,
/// caps below and at the workspace default.
fn arb_policy() -> impl Strategy<Value = ReductionPolicy> {
    // 0 encodes `unlimited`; 1..=24 are literal caps (1 = degenerate
    // single-impulse cap, 24 = the workspace default).
    (0usize..=24).prop_map(|cap| match cap {
        0 => ReductionPolicy::unlimited(),
        n => ReductionPolicy::new(n),
    })
}

/// One fused kernel call on `a ⊛ b` in `scratch`, materialized.
fn fused_pmf(scratch: &mut PmfScratch, a: &Pmf, b: &Pmf, policy: ReductionPolicy) -> Pmf {
    scratch
        .convolve_reduced(a.impulses(), b.impulses(), policy)
        .to_pmf()
}

/// One fused kernel call against the legacy pipeline, bit for bit.
fn assert_fused_equals_legacy(a: &Pmf, b: &Pmf, policy: ReductionPolicy) {
    let legacy = a.convolve(b, policy);
    let fused = fused_pmf(&mut PmfScratch::new(), a, b, policy);
    // `bit_eq` compares every value's and probability's bits: identity,
    // not tolerance (it also tells `-0.0` from `0.0`).
    prop_assert!(
        fused.bit_eq(&legacy),
        "fused {fused:?} != legacy {legacy:?}"
    );
}

/// A chain of convolutions through the resident prefix against the legacy
/// fold, compared at every step.
fn assert_chain_equals_legacy(pmfs: &[Pmf], policy: ReductionPolicy) {
    // Chains compound any divergence: one ULP in step 1 changes the
    // reduction bucketing of step 2. Fold both pipelines left and compare
    // at every step via the prefix API.
    let mut legacy = pmfs[0].clone();
    let mut scratch = PmfScratch::new();
    scratch.load_prefix_shifted(&pmfs[0], 0.0);
    for (step, next) in pmfs[1..].iter().enumerate() {
        legacy = legacy.convolve(next, policy);
        scratch.convolve_prefix_with(next, policy);
        prop_assert!(scratch.prefix().to_pmf().bit_eq(&legacy), "step {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_equals_legacy_bitwise(a in arb_pmf(), b in arb_pmf(), policy in arb_policy()) {
        assert_fused_equals_legacy(&a, &b, policy);
    }

    #[test]
    fn fused_equals_legacy_bitwise_on_tied_sums(
        a in arb_tied_pmf(),
        b in arb_tied_pmf(),
        policy in arb_policy(),
    ) {
        assert_fused_equals_legacy(&a, &b, policy);
    }

    #[test]
    fn fused_view_moments_equal_legacy_bitwise(
        a in arb_pmf(),
        b in arb_pmf(),
        policy in arb_policy(),
        x in 0.0f64..2500.0,
    ) {
        let legacy = a.convolve(&b, policy);
        let mut scratch = PmfScratch::new();
        let view = scratch.convolve_reduced(a.impulses(), b.impulses(), policy);
        prop_assert_eq!(view.expectation().to_bits(), legacy.expectation().to_bits());
        prop_assert_eq!(view.prob_le(x).to_bits(), legacy.prob_le(x).to_bits());
        prop_assert_eq!(view.min_value().to_bits(), legacy.min_value().to_bits());
        prop_assert_eq!(view.max_value().to_bits(), legacy.max_value().to_bits());
    }

    #[test]
    fn chained_convolutions_stay_bit_identical(
        pmfs in prop::collection::vec(arb_pmf(), 2..=5),
        policy in arb_policy(),
    ) {
        assert_chain_equals_legacy(&pmfs, policy);
    }

    #[test]
    fn chained_convolutions_on_tied_sums_stay_bit_identical(
        pmfs in prop::collection::vec(arb_tied_pmf(), 2..=5),
        policy in arb_policy(),
    ) {
        assert_chain_equals_legacy(&pmfs, policy);
    }

    #[test]
    fn scratch_reuse_does_not_contaminate(
        a in arb_pmf(),
        b in arb_pmf(),
        c in arb_pmf(),
        d in arb_pmf(),
        p1 in arb_policy(),
        p2 in arb_policy(),
    ) {
        // Two unrelated kernel calls through one workspace must each match
        // a fresh legacy computation — stale buffer contents must be
        // invisible.
        let mut scratch = PmfScratch::new();
        let first = fused_pmf(&mut scratch, &a, &b, p1);
        let second = fused_pmf(&mut scratch, &c, &d, p2);
        prop_assert_eq!(first, a.convolve(&b, p1));
        prop_assert_eq!(second, c.convolve(&d, p2));
    }

    #[test]
    fn scratch_truncate_equals_allocating_truncate(
        p in arb_pmf(),
        start in -100.0f64..100.0,
        cutoff in 0.0f64..1200.0,
    ) {
        // The reference oracle truncates with the allocating method; the
        // evaluator truncates the resident prefix in place.
        let legacy = p.shift(start).truncate_below_or_floor(cutoff);
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&p, start);
        scratch.truncate_prefix_below_or_floor(cutoff);
        prop_assert!(scratch.prefix().to_pmf().bit_eq(&legacy));
    }

    #[test]
    fn scratch_prefix_pipeline_equals_legacy_pipeline(
        exec in arb_pmf(),
        queued in prop::collection::vec(arb_pmf(), 0..=4),
        start in 0.0f64..200.0,
        dt in 0.0f64..1500.0,
        policy in arb_policy(),
    ) {
        // The full queue-prefix build as the evaluator runs it: shift the
        // executing pmf by its start, truncate-or-floor at `now`, then
        // convolve the queued pmfs on in FIFO order.
        let now = start + dt;
        let legacy = {
            let mut acc = exec.shift(start).truncate_below_or_floor(now);
            for q in &queued {
                acc = acc.convolve(q, policy);
            }
            acc
        };
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&exec, start);
        scratch.truncate_prefix_below_or_floor(now);
        for q in &queued {
            scratch.convolve_prefix_with(q, policy);
        }
        prop_assert_eq!(scratch.prefix().to_pmf(), legacy);
    }
}
