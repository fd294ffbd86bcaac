//! The borrowed pmf: an impulse slice whose support is multiplied by a
//! factor on read.
//!
//! The paper derives each deeper P-state's execution-time pmf by scaling
//! the base-state pmf with the node's clock multiplier (Sec. III-B). A
//! [`ScaledPmf`] is that derived pmf without its own storage: it borrows
//! the base impulses and yields `Impulse::new(value * factor, prob)`, the
//! same product a materialized copy would hold, so every query through it
//! is bit-identical to the same query on [`ScaledPmf::to_pmf`].
//!
//! At factor `1.0` it is a plain borrowed pmf: [`crate::PmfScratch`]
//! returns its kernel output and its resident queue prefix this way.
//! `x * 1.0 == x` for every finite `f64`, `-0.0` included, so a unit
//! factor reads the slice bit for bit.

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
/// values bit for bit; that is how an execution-time table's base state,
/// an owned [`Pmf`] (`From<&Pmf>`) and the fused kernel's buffers are
/// read.
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

    /// `base` read unscaled. No factor check: `1.0` passes it. `base`
    /// must satisfy the [`Pmf`] invariants.
    pub(crate) fn unit(base: &'a [Impulse]) -> Self {
        debug_assert!(!base.is_empty(), "a pmf has at least one impulse");
        Self { base, factor: 1.0 }
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

    /// Materializes the view as an owned [`Pmf`] (one allocation; use the
    /// queries when the distribution is consumed immediately).
    pub fn to_pmf(&self) -> Pmf {
        Pmf::from_invariant_impulses(self.iter().collect())
    }
}

impl<'a> From<&'a Pmf> for ScaledPmf<'a> {
    /// `pmf` itself, read unscaled.
    fn from(pmf: &'a Pmf) -> Self {
        Self::unit(pmf.impulses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

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

    /// Valid impulse sequences as owned pmfs: values in [-1000, 1000) with
    /// `-0.0` and `0.0` drawn often (they merge into one `-0.0` impulse),
    /// unshifted, shifted by `-0.0` (which keeps `-0.0`) or by up to ±500.
    fn arb_pmf() -> impl Strategy<Value = Pmf> {
        let impulse = (0u32..8, -1000.0f64..1000.0, 0.01f64..1.0);
        (
            proptest::collection::vec(impulse, 1..=24),
            0u32..3,
            -500.0f64..500.0,
        )
            .prop_map(|(draws, shift, dt)| {
                let pairs: Vec<(f64, f64)> = draws
                    .into_iter()
                    .map(|(zero, v, w)| match zero {
                        0 => (-0.0, w),
                        1 => (0.0, w),
                        _ => (v, w),
                    })
                    .collect();
                let p = Pmf::from_pairs(&pairs).expect("valid pairs");
                match shift {
                    0 => p,
                    1 => p.shift(-0.0),
                    _ => p.shift(dt),
                }
            })
    }

    proptest::proptest! {
        /// The fact the kernel output and the resident prefix rest on: a
        /// unit-factor view reads its slice exactly as the [`Pmf`] holding
        /// that slice does.
        #[test]
        fn unit_factor_reads_the_raw_slice_bit_for_bit(
            p in arb_pmf(),
            x in -1500.0f64..1500.0,
        ) {
            let unit = ScaledPmf::unit(p.impulses());
            let bits = |i: &Impulse| (i.value.to_bits(), i.prob.to_bits());
            assert!(unit.iter().map(|i| bits(&i)).eq(p.impulses().iter().map(bits)));
            assert_eq!(unit.min_value().to_bits(), p.min_value().to_bits());
            assert_eq!(unit.max_value().to_bits(), p.max_value().to_bits());
            assert_eq!(unit.expectation().to_bits(), p.expectation().to_bits());
            for x in [x, p.min_value(), p.max_value(), 0.0, -0.0] {
                assert_eq!(unit.prob_le(x).to_bits(), p.prob_le(x).to_bits());
            }
            assert!(unit.to_pmf().bit_eq(&p));
        }
    }
}
