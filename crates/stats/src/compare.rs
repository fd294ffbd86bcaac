//! Percentage comparisons between experiment variants — the numbers the
//! paper quotes in Sec. VII ("at least a 13% improvement in each heuristic
//! due to filtering").

/// Relative improvement of `new` over `baseline` for a lower-is-better
/// metric (missed deadlines), in percent: positive means `new` is better.
///
/// Returns `None` when the baseline is zero (improvement undefined).
pub fn improvement_pct(baseline: f64, new: f64) -> Option<f64> {
    if baseline == 0.0 {
        None
    } else {
        Some((baseline - new) / baseline * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // Paper: Random rob improves 561.5 → 335.5, "a 22.6% improvement"
        // ... actually (561.5-335.5)/561.5 = 40.2%; the paper's 22.6% is of
        // the window. Both conventions appear; we use relative-to-baseline.
        let pct = improvement_pct(561.5, 335.5).unwrap();
        assert!((pct - 40.249).abs() < 0.01);
    }

    #[test]
    fn worsening_is_negative() {
        let pct = improvement_pct(100.0, 103.45).unwrap();
        assert!(pct < 0.0);
    }

    #[test]
    fn zero_baseline_is_none() {
        assert_eq!(improvement_pct(0.0, 5.0), None);
    }
}
