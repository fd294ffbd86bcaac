//! CMOS dynamic-power model and per-node power profiles (paper Eq. 7,
//! Sec. VI).
//!
//! Power in state π is `μ(i, π) = A·C_L·V(π)²·f(π)`: the paper draws a peak
//! (P0) wattage uniformly in \[125, 135\] W per node, draws a deep-state
//! voltage in \[1.000, 1.150\] V and a base-state voltage in
//! \[1.400, 1.550\] V, linearly interpolates voltages for the middle states,
//! takes frequencies proportional to the node's performance ladder, folds
//! `A·C_L` into a constant calibrated from the peak wattage, and evaluates
//! Eq. 7 for every state. The resulting deep-state power lands near 25% of
//! peak, matching contemporary AMD Phenom parts.

use crate::pstate::{PState, PStateLadder, NUM_PSTATES};

/// A validated voltage range `[lo, hi]` in volts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageRange {
    /// Lower bound (volts).
    pub lo: f64,
    /// Upper bound (volts).
    pub hi: f64,
}

impl VoltageRange {
    /// Creates a range; bounds must be finite, positive, and ordered.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo > 0.0, "voltages must be positive");
        assert!(lo <= hi, "lo must not exceed hi");
        Self { lo, hi }
    }
}

/// Per-node, per-P-state average power draw `μ(i, π)` in watts.
///
/// The paper approximates within-state power variation by a scalar average
/// (Sec. III-A), as does this type; full power distributions are left to
/// the paper's future work (Sec. VIII).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    watts: [f64; NUM_PSTATES],
}

impl PowerProfile {
    /// Builds a profile directly from per-state wattages.
    ///
    /// # Panics
    ///
    /// Panics unless the wattages are finite, positive, and strictly
    /// decreasing from `P0` to `P4` (more performance must cost more power —
    /// the paper's monotonicity assumption).
    pub fn from_watts(watts: [f64; NUM_PSTATES]) -> Self {
        assert!(
            watts.iter().all(|w| w.is_finite() && *w > 0.0),
            "wattages must be finite and positive"
        );
        assert!(
            watts.windows(2).all(|w| w[0] > w[1]),
            "power must strictly decrease from P0 to P4"
        );
        Self { watts }
    }

    /// Evaluates the CMOS model for a node: peak wattage at `P0`, voltages
    /// interpolated linearly from `v_base` (at `P0`) down to `v_deep`
    /// (at `P4`), frequencies proportional to the ladder's performance.
    ///
    /// `A·C_L` is eliminated by calibration:
    /// `μ(π) = peak · (V(π)/V(P0))² · (f(π)/f(P0))`.
    pub fn from_cmos(peak_watts: f64, v_base: f64, v_deep: f64, ladder: &PStateLadder) -> Self {
        assert!(
            peak_watts.is_finite() && peak_watts > 0.0,
            "peak wattage must be positive"
        );
        assert!(
            v_base.is_finite() && v_deep.is_finite() && v_deep > 0.0,
            "voltages must be finite and positive"
        );
        assert!(v_base > v_deep, "base voltage must exceed deep voltage");
        let mut watts = [0.0; NUM_PSTATES];
        let steps = (NUM_PSTATES - 1) as f64;
        for state in PState::ALL {
            let idx = state.index() as f64;
            // Linear interpolation: idx 0 → v_base, idx 4 → v_deep.
            let v = v_base + (v_deep - v_base) * idx / steps;
            let f = ladder.frequency(state); // 1.0 at P0
            watts[state.index()] = peak_watts * (v / v_base).powi(2) * f;
        }
        Self::from_watts(watts)
    }

    /// Power draw of one core in `state`, in watts — `μ(i, π)`.
    #[inline]
    pub fn watts(&self, state: PState) -> f64 {
        self.watts[state.index()]
    }

    /// Peak (P0) power draw.
    #[inline]
    pub fn peak_watts(&self) -> f64 {
        self.watts[0]
    }

    /// Deepest-state (P4) power draw.
    #[inline]
    pub fn deepest_watts(&self) -> f64 {
        self.watts[NUM_PSTATES - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> PStateLadder {
        // ~20% performance step per state.
        PStateLadder::from_relative_performance([2.0736, 1.728, 1.44, 1.2, 1.0])
    }

    #[test]
    fn cmos_peak_is_exact() {
        let p = PowerProfile::from_cmos(130.0, 1.475, 1.075, &ladder());
        assert!((p.peak_watts() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn cmos_power_strictly_decreases_with_depth() {
        let p = PowerProfile::from_cmos(130.0, 1.475, 1.075, &ladder());
        for w in PState::ALL.windows(2) {
            assert!(p.watts(w[0]) > p.watts(w[1]));
        }
    }

    #[test]
    fn cmos_deep_state_is_roughly_quarter_of_peak() {
        // Paper: "power consumption for the low P-state of about 25% that in
        // the high P-state". With a ~2x frequency ratio and (1.075/1.475)²
        // voltage ratio: 0.482 · 0.531 ≈ 0.256.
        let p = PowerProfile::from_cmos(130.0, 1.475, 1.075, &ladder());
        let ratio = p.deepest_watts() / p.peak_watts();
        assert!((0.18..0.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn watts_lookup_by_state() {
        let p = PowerProfile::from_watts([100.0, 80.0, 60.0, 40.0, 20.0]);
        assert_eq!(p.watts(PState::P2), 60.0);
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn non_monotone_watts_rejected() {
        let _ = PowerProfile::from_watts([100.0, 80.0, 90.0, 40.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "base voltage must exceed")]
    fn inverted_voltages_rejected() {
        let _ = PowerProfile::from_cmos(130.0, 1.0, 1.4, &ladder());
    }

    #[test]
    #[should_panic(expected = "peak wattage")]
    fn zero_peak_rejected() {
        let _ = PowerProfile::from_cmos(0.0, 1.475, 1.075, &ladder());
    }

    #[test]
    fn voltage_range_validates() {
        let r = VoltageRange::new(1.0, 1.15);
        assert_eq!(r.lo, 1.0);
        assert_eq!(r.hi, 1.15);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn inverted_voltage_range_rejected() {
        let _ = VoltageRange::new(1.5, 1.0);
    }
}
