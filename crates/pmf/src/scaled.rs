//! A borrowed pmf whose support is multiplied by a factor on read.
//!
//! The paper derives each deeper P-state's execution-time pmf by scaling
//! the base-state pmf with the node's clock multiplier (Sec. III-B). A
//! [`ScaledPmf`] is that derived pmf without its own storage: it borrows
//! the base impulses and yields `Impulse::new(value * factor, prob)`, the
//! same product a materialized copy would hold, so every query through it
//! is bit-identical to the same query on [`ScaledPmf::to_pmf`].

use crate::error::PmfError;
use crate::impulse::Impulse;
use crate::pmf::{quantile_index, Pmf};
use crate::{Prob, Time};

/// A valid impulse sequence (sorted, merged, positive, unit mass) read
/// with every support value multiplied by a positive `factor`.
///
/// Multiplying by a positive factor keeps the support sorted and the
/// probabilities untouched, so the view satisfies the [`Pmf`] invariants
/// whenever its base does. A factor of exactly `1.0` reads the base
/// values bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct ScaledPmf<'a> {
    base: &'a [Impulse],
    factor: f64,
}

impl<'a> ScaledPmf<'a> {
    /// A view of `base` scaled by `factor`. `base` must satisfy the
    /// [`Pmf`] invariants (debug builds check them).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn new(base: &'a [Impulse], factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        debug_assert!(!base.is_empty());
        debug_assert!(base.windows(2).all(|w| w[0].value < w[1].value));
        debug_assert!(base.iter().all(Impulse::is_valid));
        Self { base, factor }
    }

    /// The scaled impulses, ascending by value.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Impulse> + 'a {
        let factor = self.factor;
        self.base
            .iter()
            .map(move |b| Impulse::new(b.value * factor, b.prob))
    }

    /// Number of support points.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` for an empty view (unconstructible; API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Smallest support value.
    #[inline]
    pub fn min_value(&self) -> Time {
        self.base[0].value * self.factor
    }

    /// Largest support value.
    #[inline]
    pub fn max_value(&self) -> Time {
        self.base[self.base.len() - 1].value * self.factor
    }

    /// The expectation `E[X]` — same summation order as
    /// [`Pmf::expectation`].
    pub fn expectation(&self) -> f64 {
        self.iter().map(|i| i.weighted_value()).sum()
    }

    /// `P(X <= x)` — same accumulation order as [`Pmf::prob_le`].
    pub fn prob_le(&self, x: Time) -> Prob {
        let mut acc = 0.0;
        for imp in self.iter() {
            if imp.value <= x {
                acc += imp.prob;
            } else {
                break;
            }
        }
        acc.min(1.0)
    }

    /// The generalized inverse CDF, as [`Pmf::quantile`]: the search runs
    /// over the probabilities alone, which scaling leaves untouched, so it
    /// picks the same impulse and only that impulse's value is scaled.
    pub fn quantile(&self, u: Prob) -> Result<Time, PmfError> {
        Ok(self.base[quantile_index(self.base, u)?].value * self.factor)
    }

    /// Materializes the view as an owned [`Pmf`] (one allocation).
    pub fn to_pmf(&self) -> Pmf {
        Pmf::from_invariant_impulses(self.iter().collect())
    }
}

impl<'a> From<&'a Pmf> for ScaledPmf<'a> {
    /// `pmf` itself, read unscaled.
    fn from(pmf: &'a Pmf) -> Self {
        Self::new(pmf.impulses(), 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf_half_half() -> Pmf {
        Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap()
    }

    #[test]
    fn scaling_stretches_support() {
        let p = pmf_half_half();
        let s = ScaledPmf::new(p.impulses(), 2.0);
        assert_eq!(s.min_value(), 20.0);
        assert_eq!(s.max_value(), 40.0);
        assert_eq!(s.expectation(), 30.0);
        // Variance scales by factor^2.
        assert_eq!(s.to_pmf().variance(), 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let _ = ScaledPmf::new(pmf_half_half().impulses(), 0.0);
    }

    #[test]
    fn queries_match_the_materialized_pmf_bit_for_bit() {
        let p = Pmf::from_pairs(&[(3.7, 0.2), (11.3, 0.5), (19.1, 0.3)]).unwrap();
        for factor in [1.0, 1.0 / 0.7, 2.3] {
            let s = ScaledPmf::new(p.impulses(), factor);
            let m = s.to_pmf();
            assert_eq!(s.len(), m.len());
            assert_eq!(s.expectation().to_bits(), m.expectation().to_bits());
            for x in [0.0, 10.0, 25.0, 40.0, 100.0] {
                assert_eq!(s.prob_le(x).to_bits(), m.prob_le(x).to_bits());
            }
            for u in [0.0, 0.2, 0.5, 0.69, 0.999, 1.0] {
                assert_eq!(
                    s.quantile(u).unwrap().to_bits(),
                    m.quantile(u).unwrap().to_bits()
                );
            }
            assert!(s.quantile(1.5).is_err());
        }
    }

    #[test]
    fn unit_factor_reads_the_base_bits() {
        let p = Pmf::from_pairs(&[(0.1 + 0.2, 0.25), (7.0, 0.75)]).unwrap();
        assert!(ScaledPmf::from(&p).to_pmf().bit_eq(&p));
    }
}
