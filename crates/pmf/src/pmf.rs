//! The discrete probability mass function type at the heart of the
//! completion-time and robustness machinery.
//!
//! Its transforms that need more than a pass over the impulses —
//! [convolution](crate::convolve), [truncation](crate::truncate) and
//! [reduction](crate::reduce) — are `Pmf` methods defined in their own
//! modules.

use crate::error::PmfError;
use crate::impulse::Impulse;
use crate::{Prob, Time, MASS_EPSILON, VALUE_MERGE_EPSILON};

/// A discrete probability mass function over finite time values.
///
/// # Invariants
///
/// * at least one impulse,
/// * impulses strictly sorted by `value` (duplicates merged),
/// * every probability finite and strictly positive,
/// * probabilities sum to one within [`MASS_EPSILON`].
///
/// All constructors enforce these invariants; transformation methods
/// preserve them.
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    impulses: Vec<Impulse>,
}

impl Pmf {
    /// Builds a pmf from an impulse list, validating and normalizing it.
    ///
    /// The list is sorted by value, duplicated values (within
    /// [`VALUE_MERGE_EPSILON`] relative tolerance) are merged, and the mass
    /// must already sum to one within [`MASS_EPSILON`].
    pub fn new(impulses: Vec<Impulse>) -> Result<Self, PmfError> {
        if impulses.is_empty() {
            return Err(PmfError::Empty);
        }
        for imp in &impulses {
            if !imp.value.is_finite() {
                return Err(PmfError::InvalidValue { value: imp.value });
            }
            if !imp.prob.is_finite() || imp.prob <= 0.0 {
                return Err(PmfError::InvalidProbability { prob: imp.prob });
            }
        }
        let total: f64 = impulses.iter().map(|i| i.prob).sum();
        if (total - 1.0).abs() > MASS_EPSILON {
            return Err(PmfError::NotNormalized { total });
        }
        let mut imps = impulses;
        sort_and_merge(&mut imps);
        Ok(Self { impulses: imps })
    }

    /// Builds a pmf from `(value, weight)` pairs, rescaling the weights so
    /// they sum to one. Weights need not be normalized but must be positive.
    pub fn from_pairs(pairs: &[(Time, Prob)]) -> Result<Self, PmfError> {
        if pairs.is_empty() {
            return Err(PmfError::Empty);
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(PmfError::NotNormalized { total });
        }
        let impulses: Vec<Impulse> = pairs
            .iter()
            .map(|&(v, w)| Impulse::new(v, w / total))
            .collect();
        Self::new(impulses)
    }

    /// A degenerate pmf: the outcome is `value` with probability one.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn singleton(value: Time) -> Self {
        assert!(value.is_finite(), "singleton pmf value must be finite");
        Self {
            impulses: vec![Impulse::new(value, 1.0)],
        }
    }

    /// Internal constructor for impulse lists already known to satisfy the
    /// invariants (sorted, merged, positive, normalized). Debug builds
    /// re-check.
    pub(crate) fn from_invariant_impulses(impulses: Vec<Impulse>) -> Self {
        debug_assert!(!impulses.is_empty());
        debug_assert!(impulses.windows(2).all(|w| w[0].value < w[1].value));
        debug_assert!(impulses.iter().all(Impulse::is_valid));
        debug_assert!(
            (impulses.iter().map(|i| i.prob).sum::<f64>() - 1.0).abs() < 1e-6,
            "mass must be 1"
        );
        Self { impulses }
    }

    /// The impulses, sorted ascending by value.
    #[inline]
    pub fn impulses(&self) -> &[Impulse] {
        &self.impulses
    }

    /// Number of support points.
    #[inline]
    pub fn len(&self) -> usize {
        self.impulses.len()
    }

    /// `true` only for an (unconstructible) empty pmf; present for API
    /// completeness and clippy's `len_without_is_empty`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.impulses.is_empty()
    }

    /// Smallest support value.
    #[inline]
    pub fn min_value(&self) -> Time {
        self.impulses[0].value
    }

    /// Largest support value.
    #[inline]
    pub fn max_value(&self) -> Time {
        self.impulses[self.impulses.len() - 1].value
    }

    /// The expectation `E[X]`.
    pub fn expectation(&self) -> f64 {
        self.impulses.iter().map(Impulse::weighted_value).sum()
    }

    /// The variance `Var[X]`, computed against the mean for numerical
    /// stability (never negative; tiny negative rounding is clamped).
    pub fn variance(&self) -> f64 {
        let mean = self.expectation();
        let var: f64 = self
            .impulses
            .iter()
            .map(|i| {
                let d = i.value - mean;
                d * d * i.prob
            })
            .sum();
        var.max(0.0)
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// `P(X <= x)` — used to compute the robustness value ρ as the
    /// probability that a completion time meets a deadline (Sec. IV-C:
    /// "sum the impulses in the distribution that are less than the
    /// deadline").
    pub fn prob_le(&self, x: Time) -> Prob {
        let mut acc = 0.0;
        for imp in &self.impulses {
            if imp.value <= x {
                acc += imp.prob;
            } else {
                break;
            }
        }
        acc.min(1.0)
    }

    /// The generalized inverse CDF: the smallest support value `v` such that
    /// `P(X <= v) >= u`.
    ///
    /// The workload generator pre-draws a uniform quantile per task and
    /// inverts it through whichever execution-time pmf the chosen assignment
    /// selects, so a task is intrinsically "fast" or "slow" across
    /// heuristics within a trial.
    pub fn quantile(&self, u: Prob) -> Result<Time, PmfError> {
        Ok(self.impulses[quantile_index(&self.impulses, u)?].value)
    }

    /// Shifts every support value by `dt` (e.g. turning an execution-time
    /// pmf into a completion-time pmf given a start time).
    pub fn shift(&self, dt: Time) -> Self {
        assert!(dt.is_finite(), "shift must be finite");
        let impulses = self
            .impulses
            .iter()
            .map(|i| Impulse::new(i.value + dt, i.prob))
            .collect();
        Self::from_invariant_impulses(impulses)
    }

    /// Total probability mass (1 within [`MASS_EPSILON`]; exposed for tests
    /// and debug assertions).
    pub fn total_mass(&self) -> f64 {
        self.impulses.iter().map(|i| i.prob).sum()
    }

    /// Deterministic 64-bit fingerprint of the pmf's exact bit pattern: an
    /// FNV-1a hash over the `(value.to_bits(), prob.to_bits())` pairs in
    /// support order. Stable across runs and platforms (no per-process
    /// entropy), so it can key caches and equivalence classes.
    ///
    /// Equal fingerprints are a fast *necessary* condition for bit
    /// identity, not a proof — confirm with [`Pmf::bit_eq`] where soundness
    /// matters (hash collisions, however unlikely, must not change
    /// results).
    pub fn fingerprint(&self) -> u64 {
        crate::impulse::fingerprint_impulses(&self.impulses)
    }

    /// `true` iff `self` and `other` have bit-identical impulse sequences
    /// (`f64::to_bits` on every value and probability). Stricter than
    /// `==` on floats — NaN-robust and `-0.0`-aware — and exactly the
    /// relation under which two pmfs are interchangeable in the
    /// non-associative convolution algebra.
    pub fn bit_eq(&self, other: &Pmf) -> bool {
        crate::impulse::impulses_bit_identical(&self.impulses, &other.impulses)
    }
}

/// The index of the impulse [`Pmf::quantile`] returns: the first whose
/// cumulative mass reaches `u` (within [`MASS_EPSILON`]), or the last one
/// when the accumulated mass falls a hair short of 1.
pub(crate) fn quantile_index(impulses: &[Impulse], u: Prob) -> Result<usize, PmfError> {
    if !(0.0..=1.0).contains(&u) || u.is_nan() {
        return Err(PmfError::InvalidQuantile { u });
    }
    let mut acc = 0.0;
    for (idx, imp) in impulses.iter().enumerate() {
        acc += imp.prob;
        if acc >= u - MASS_EPSILON {
            return Ok(idx);
        }
    }
    Ok(impulses.len() - 1)
}

/// Sorts impulses by value and merges (sums the probability of) support
/// points that coincide within [`VALUE_MERGE_EPSILON`] relative tolerance.
pub(crate) fn sort_and_merge(impulses: &mut Vec<Impulse>) {
    let kept = sort_and_merge_in_place(impulses);
    impulses.truncate(kept);
}

/// [`sort_and_merge`] within the slice: the merged impulses move to the
/// front, and their count is returned.
pub(crate) fn sort_and_merge_in_place(xs: &mut [Impulse]) -> usize {
    xs.sort_by(|a, b| a.value.total_cmp(&b.value));
    merge_coincident_in_place(xs)
}

/// The coincidence merge of [`sort_and_merge`] on a sorted slice, in
/// place: each run of coinciding values compacts into its first element,
/// probabilities summed in order. Returns the merged count; the slice's
/// tail past it is left over.
pub(crate) fn merge_coincident_in_place(xs: &mut [Impulse]) -> usize {
    if xs.is_empty() {
        return 0;
    }
    let mut w = 0;
    for r in 1..xs.len() {
        if values_coincide(xs[w].value, xs[r].value) {
            let prob = xs[r].prob;
            xs[w].prob += prob;
        } else {
            w += 1;
            xs[w] = xs[r];
        }
    }
    w + 1
}

#[inline]
pub(crate) fn values_coincide(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= VALUE_MERGE_EPSILON * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf_half_half() -> Pmf {
        Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap()
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Pmf::new(vec![]), Err(PmfError::Empty));
    }

    #[test]
    fn new_rejects_unnormalized() {
        let err = Pmf::new(vec![Impulse::new(1.0, 0.4)]).unwrap_err();
        assert!(matches!(err, PmfError::NotNormalized { .. }));
    }

    #[test]
    fn new_rejects_bad_probability() {
        let err = Pmf::new(vec![Impulse::new(1.0, 0.0), Impulse::new(2.0, 1.0)]).unwrap_err();
        assert!(matches!(err, PmfError::InvalidProbability { .. }));
    }

    #[test]
    fn new_rejects_bad_value() {
        let err = Pmf::new(vec![Impulse::new(f64::NAN, 1.0)]).unwrap_err();
        assert!(matches!(err, PmfError::InvalidValue { .. }));
    }

    #[test]
    fn new_sorts_and_merges() {
        let p = Pmf::new(vec![
            Impulse::new(5.0, 0.25),
            Impulse::new(1.0, 0.5),
            Impulse::new(5.0, 0.25),
        ])
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.impulses()[0].value, 1.0);
        assert_eq!(p.impulses()[1].value, 5.0);
        assert!((p.impulses()[1].prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_pairs_normalizes_weights() {
        let p = Pmf::from_pairs(&[(1.0, 2.0), (2.0, 6.0)]).unwrap();
        assert!((p.impulses()[0].prob - 0.25).abs() < 1e-12);
        assert!((p.impulses()[1].prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_pairs_rejects_nonpositive_total() {
        assert!(Pmf::from_pairs(&[(1.0, 0.0)]).is_err());
        assert!(Pmf::from_pairs(&[]).is_err());
    }

    #[test]
    fn singleton_has_unit_mass_at_value() {
        let p = Pmf::singleton(42.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.expectation(), 42.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.prob_le(42.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn singleton_rejects_nan() {
        let _ = Pmf::singleton(f64::NAN);
    }

    #[test]
    fn expectation_and_variance() {
        let p = pmf_half_half();
        assert_eq!(p.expectation(), 15.0);
        assert_eq!(p.variance(), 25.0);
        assert_eq!(p.std_dev(), 5.0);
    }

    #[test]
    fn prob_le_is_a_cdf() {
        let p = pmf_half_half();
        assert_eq!(p.prob_le(5.0), 0.0);
        assert_eq!(p.prob_le(10.0), 0.5);
        assert_eq!(p.prob_le(15.0), 0.5);
        assert_eq!(p.prob_le(20.0), 1.0);
        assert_eq!(p.prob_le(25.0), 1.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let p = pmf_half_half();
        assert_eq!(p.quantile(0.0).unwrap(), 10.0);
        assert_eq!(p.quantile(0.3).unwrap(), 10.0);
        assert_eq!(p.quantile(0.5).unwrap(), 10.0);
        assert_eq!(p.quantile(0.51).unwrap(), 20.0);
        assert_eq!(p.quantile(1.0).unwrap(), 20.0);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        let p = pmf_half_half();
        assert!(p.quantile(-0.1).is_err());
        assert!(p.quantile(1.1).is_err());
        assert!(p.quantile(f64::NAN).is_err());
    }

    #[test]
    fn shift_moves_support() {
        let p = pmf_half_half().shift(100.0);
        assert_eq!(p.min_value(), 110.0);
        assert_eq!(p.max_value(), 120.0);
        assert_eq!(p.expectation(), 115.0);
    }

    #[test]
    fn shift_by_negative_is_allowed() {
        let p = pmf_half_half().shift(-10.0);
        assert_eq!(p.min_value(), 0.0);
    }

    #[test]
    fn total_mass_is_one() {
        assert!((pmf_half_half().total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_values() {
        let p = Pmf::from_pairs(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]).unwrap();
        assert_eq!(p.min_value(), 1.0);
        assert_eq!(p.max_value(), 3.0);
    }

    #[test]
    fn tiny_probabilities_survive_construction() {
        let p = Pmf::from_pairs(&[(1.0, 1e-12), (2.0, 1.0)]).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        // The tiny impulse still contributes to the CDF.
        assert!(p.prob_le(1.0) > 0.0);
    }

    #[test]
    fn variance_never_negative_despite_rounding() {
        // Values far from zero stress the E[X²] − E[X]² cancellation that
        // the mean-centered implementation avoids.
        let p = Pmf::from_pairs(&[(1e9, 0.5), (1e9 + 1e-3, 0.5)]).unwrap();
        assert!(p.variance() >= 0.0);
    }

    #[test]
    fn quantile_at_exact_cumulative_boundary() {
        let p = Pmf::from_pairs(&[(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]).unwrap();
        assert_eq!(p.quantile(0.25).unwrap(), 1.0);
        assert_eq!(p.quantile(0.5).unwrap(), 2.0);
        assert_eq!(p.quantile(0.500001).unwrap(), 3.0);
    }

    #[test]
    fn convolve_with_singleton_is_shift() {
        let p = pmf_half_half();
        let shifted = p.convolve(&Pmf::singleton(7.0), crate::ReductionPolicy::unlimited());
        assert_eq!(shifted, p.shift(7.0));
    }

    #[test]
    fn fingerprint_matches_iff_bits_match() {
        let p = pmf_half_half();
        let q = Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap();
        assert_eq!(p.fingerprint(), q.fingerprint());
        assert!(p.bit_eq(&q));
        let shifted = p.shift(1.0);
        assert_ne!(p.fingerprint(), shifted.fingerprint());
        assert!(!p.bit_eq(&shifted));
        // Same support, different masses: still distinguished.
        let r = Pmf::from_pairs(&[(10.0, 0.25), (20.0, 0.75)]).unwrap();
        assert_ne!(p.fingerprint(), r.fingerprint());
    }

    #[test]
    fn negative_support_round_trips_through_ops() {
        let p = Pmf::from_pairs(&[(-5.0, 0.5), (5.0, 0.5)]).unwrap();
        assert_eq!(p.expectation(), 0.0);
        assert_eq!(p.prob_le(0.0), 0.5);
        let t = p.truncate_below(0.0).unwrap();
        assert_eq!(t.min_value(), 5.0);
    }
}
