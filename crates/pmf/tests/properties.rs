//! Property-based tests of the pmf algebra invariants that the robustness
//! machinery depends on.

use ecds_pmf::{Impulse, Pmf, ReductionPolicy, ScaledPmf};
use proptest::prelude::*;

/// Strategy producing a valid pmf with 1..=12 impulses, values in
/// [0, 1000], weights in (0, 1].
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0.0f64..1000.0, 0.01f64..1.0), 1..=12).prop_map(|pairs| {
        // Deduplicate values so the pmf has deterministic support size.
        Pmf::from_pairs(&pairs).expect("valid pairs")
    })
}

proptest! {
    #[test]
    fn construction_normalizes_mass(p in arb_pmf()) {
        prop_assert!((p.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impulses_sorted_strictly(p in arb_pmf()) {
        for w in p.impulses().windows(2) {
            prop_assert!(w[0].value < w[1].value);
        }
    }

    #[test]
    fn convolution_preserves_mass(a in arb_pmf(), b in arb_pmf()) {
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        prop_assert!((c.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_adds_means(a in arb_pmf(), b in arb_pmf()) {
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        let expected = a.expectation() + b.expectation();
        prop_assert!((c.expectation() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    #[test]
    fn convolution_adds_variances(a in arb_pmf(), b in arb_pmf()) {
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        let expected = a.variance() + b.variance();
        prop_assert!((c.variance() - expected).abs() < 1e-5 * expected.max(1.0));
    }

    #[test]
    fn reduced_convolution_preserves_mean(a in arb_pmf(), b in arb_pmf(), cap in 1usize..8) {
        let c = a.convolve(&b, ReductionPolicy::new(cap));
        prop_assert!(c.len() <= cap);
        let expected = a.expectation() + b.expectation();
        prop_assert!((c.expectation() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    #[test]
    fn reduction_bounds_support(p in arb_pmf(), cap in 1usize..6) {
        let r = p.reduce(ReductionPolicy::new(cap));
        prop_assert!(r.len() <= cap.min(p.len()));
        prop_assert!(r.min_value() >= p.min_value() - 1e-9);
        prop_assert!(r.max_value() <= p.max_value() + 1e-9);
        prop_assert!((r.expectation() - p.expectation()).abs() < 1e-6 * p.expectation().max(1.0));
    }

    #[test]
    fn cdf_is_monotone(p in arb_pmf(), xs in prop::collection::vec(0.0f64..1200.0, 2..8)) {
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut last = 0.0;
        for x in sorted {
            let c = p.prob_le(x);
            prop_assert!(c >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&c));
            last = c;
        }
    }

    #[test]
    fn quantile_then_cdf_covers_u(p in arb_pmf(), u in 0.0f64..1.0) {
        let v = p.quantile(u).unwrap();
        prop_assert!(p.prob_le(v) + 1e-9 >= u);
    }

    #[test]
    fn quantile_is_monotone(p in arb_pmf(), u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(p.quantile(lo).unwrap() <= p.quantile(hi).unwrap());
    }

    #[test]
    fn shift_translates_moments(p in arb_pmf(), dt in -500.0f64..500.0) {
        let s = p.shift(dt);
        prop_assert!((s.expectation() - (p.expectation() + dt)).abs() < 1e-6);
        prop_assert!((s.variance() - p.variance()).abs() < 1e-4 * p.variance().max(1.0));
    }

    #[test]
    fn truncation_yields_valid_pmf(p in arb_pmf(), cut in 0.0f64..1000.0) {
        match p.truncate_below(cut) {
            Ok(t) => {
                prop_assert!((t.total_mass() - 1.0).abs() < 1e-9);
                prop_assert!(t.min_value() >= cut);
                prop_assert!(t.expectation() + 1e-9 >= p.expectation()
                    || t.expectation() >= cut - 1e-9);
            }
            Err(_) => {
                prop_assert!(p.max_value() < cut);
            }
        }
    }

    #[test]
    fn truncation_never_lowers_expectation(p in arb_pmf(), cut in 0.0f64..900.0) {
        if let Ok(t) = p.truncate_below(cut) {
            prop_assert!(t.expectation() + 1e-9 >= p.expectation().min(t.min_value()));
            // Stronger: conditioning on X >= cut cannot lower the mean.
            prop_assert!(t.expectation() + 1e-6 >= p.expectation());
        }
    }

    #[test]
    fn scaled_view_scales_moments(p in arb_pmf(), f in 0.1f64..4.0) {
        let s = ScaledPmf::new(p.impulses(), f);
        prop_assert!((s.expectation() - f * p.expectation()).abs() < 1e-6 * p.expectation().max(1.0));
        prop_assert_eq!(s.expectation().to_bits(), s.to_pmf().expectation().to_bits());
    }
}

#[test]
fn impulse_list_round_trip() {
    let imps = vec![Impulse::new(1.0, 0.25), Impulse::new(2.0, 0.75)];
    let p = Pmf::new(imps.clone()).unwrap();
    assert_eq!(p.impulses(), imps.as_slice());
}
