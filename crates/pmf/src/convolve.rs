//! Convolution of pmfs — the sum of independent discrete random variables.
//!
//! Predicting the completion time of a task queued behind others requires
//! summing their (independent) execution-time random variables, which for
//! pmfs is a discrete convolution (Sec. IV-B). Convolving `n`-point and
//! `m`-point pmfs yields up to `n × m` support points, so repeated
//! convolution must be paired with [impulse reduction](crate::reduce) to
//! keep cost bounded; the paper notes the overhead "can be negligible if
//! task execution times are sufficiently long or the performance gained
//! justifies their usage".

use crate::impulse::Impulse;
use crate::pmf::{sort_and_merge, Pmf};
use crate::reduce::ReductionPolicy;

impl Pmf {
    /// Convolution with `other`: the distribution of `X + Y` for
    /// independent `X ~ self`, `Y ~ other`. The result is reduced to
    /// `policy.max_impulses` support points.
    pub fn convolve(&self, other: &Pmf, policy: ReductionPolicy) -> Pmf {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut impulses = Vec::with_capacity(small.len() * large.len());
        for ia in small.impulses() {
            for ib in large.impulses() {
                impulses.push(Impulse::new(ia.value + ib.value, ia.prob * ib.prob));
            }
        }
        sort_and_merge(&mut impulses);
        Pmf::from_invariant_impulses(impulses).reduce(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(lo: f64, hi: f64) -> Pmf {
        Pmf::from_pairs(&[(lo, 0.5), (hi, 0.5)]).unwrap()
    }

    #[test]
    fn convolve_singletons_adds_values() {
        let a = Pmf::singleton(3.0);
        let b = Pmf::singleton(4.0);
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        assert_eq!(c.len(), 1);
        assert_eq!(c.expectation(), 7.0);
    }

    #[test]
    fn convolve_coins_gives_binomial_support() {
        let c = coin(0.0, 1.0).convolve(&coin(0.0, 1.0), ReductionPolicy::unlimited());
        assert_eq!(c.len(), 3);
        let probs: Vec<f64> = c.impulses().iter().map(|i| i.prob).collect();
        assert!((probs[0] - 0.25).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert!((probs[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn convolution_mean_is_sum_of_means() {
        let a = Pmf::from_pairs(&[(1.0, 0.2), (5.0, 0.8)]).unwrap();
        let b = Pmf::from_pairs(&[(10.0, 0.6), (30.0, 0.4)]).unwrap();
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        assert!((c.expectation() - (a.expectation() + b.expectation())).abs() < 1e-12);
    }

    #[test]
    fn convolution_variance_is_sum_of_variances() {
        let a = coin(0.0, 2.0);
        let b = coin(0.0, 6.0);
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        assert!((c.variance() - (a.variance() + b.variance())).abs() < 1e-9);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = Pmf::from_pairs(&[(1.0, 0.3), (2.0, 0.7)]).unwrap();
        let b = Pmf::from_pairs(&[(0.5, 0.5), (4.0, 0.25), (8.0, 0.25)]).unwrap();
        let ab = a.convolve(&b, ReductionPolicy::unlimited());
        let ba = b.convolve(&a, ReductionPolicy::unlimited());
        assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.impulses().iter().zip(ba.impulses()) {
            assert!((x.value - y.value).abs() < 1e-12);
            assert!((x.prob - y.prob).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_respects_reduction_cap() {
        let a = Pmf::from_pairs(&(0..20).map(|i| (i as f64, 1.0)).collect::<Vec<_>>()).unwrap();
        let b = a.clone();
        let c = a.convolve(&b, ReductionPolicy::new(8));
        assert!(c.len() <= 8);
        // Mean preserved by mean-preserving reduction.
        assert!((c.expectation() - 2.0 * a.expectation()).abs() < 1e-9);
    }

    #[test]
    fn convolution_chains_fold_left() {
        let c = [2.0, 3.0].into_iter().fold(Pmf::singleton(1.0), |acc, v| {
            acc.convolve(&Pmf::singleton(v), ReductionPolicy::unlimited())
        });
        assert_eq!(c.expectation(), 6.0);
    }

    #[test]
    fn overlapping_sums_merge() {
        // 1+4 == 2+3 == 5: the merged support must carry combined mass.
        let a = Pmf::from_pairs(&[(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = Pmf::from_pairs(&[(3.0, 0.5), (4.0, 0.5)]).unwrap();
        let c = a.convolve(&b, ReductionPolicy::unlimited());
        assert_eq!(c.len(), 3); // 4, 5, 6
        assert!((c.prob_le(5.0) - 0.75).abs() < 1e-12);
        let mid = c.impulses().iter().find(|i| i.value == 5.0).unwrap();
        assert!((mid.prob - 0.5).abs() < 1e-12);
    }
}
