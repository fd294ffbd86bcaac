//! Simulator configuration.

use ecds_cluster::PState;
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;

use crate::state::{decode_pstate, encode_pstate};

/// Tunable simulator behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// P-state every core occupies at time zero (paper-faithful default:
    /// the deepest state `P4`, so an untouched core burns minimum power).
    pub initial_pstate: PState,
    /// Energy budget ζ_max in joule-equivalents (watts × time units);
    /// `None` disables the constraint (useful for calibration runs).
    pub energy_budget: Option<f64>,
    /// When set, a core transitions to this P-state the moment it runs out
    /// of queued work — modeling the per-node "power management kernel" of
    /// Sec. III-A parking idle cores in the frugal state. `Some(P4)` is the
    /// paper-faithful default: the paper's headline numbers (≈37% missed
    /// for unfiltered MECT against a budget of `t_avg × p_avg × 1000`) are
    /// only reachable when idle cores do not keep burning their last task's
    /// P-state power — see DESIGN.md §3.2. `None` (idle cores linger in
    /// their last P-state) is kept as an ablation.
    pub idle_downshift: Option<PState>,
    /// Extension (paper future work: "a system with the ability to cancel
    /// and/or reschedule tasks"): when `true`, a queued task whose deadline
    /// has already passed when it would start executing is cancelled
    /// instead of run — it was going to miss anyway, so executing it only
    /// burns budget. The paper-faithful value is `false` ("our cluster
    /// resource manager cannot stop a task after it has been scheduled and
    /// must execute it to completion").
    pub cancel_overdue: bool,
}

impl SimConfig {
    /// The paper-faithful configuration with the given budget.
    pub fn paper(energy_budget: f64) -> Self {
        assert!(
            energy_budget.is_finite() && energy_budget > 0.0,
            "energy budget must be positive"
        );
        Self {
            initial_pstate: PState::P4,
            energy_budget: Some(energy_budget),
            idle_downshift: Some(PState::P4),
            cancel_overdue: false,
        }
    }

    /// A configuration with no energy constraint.
    pub fn unconstrained() -> Self {
        Self {
            initial_pstate: PState::P4,
            energy_budget: None,
            idle_downshift: Some(PState::P4),
            cancel_overdue: false,
        }
    }

    /// The budget, or +∞ when unconstrained.
    pub fn budget_or_infinite(&self) -> f64 {
        self.energy_budget.unwrap_or(f64::INFINITY)
    }
}

/// `initial ‖ budget ‖ idle downshift ‖ cancel_overdue`; a checkpoint
/// leads with it so a restore can refuse a different configuration.
impl Persist for SimConfig {
    const MIN_ENCODED_LEN: u64 = 4;

    fn encode(&self, enc: &mut Encoder) {
        encode_pstate(enc, self.initial_pstate);
        self.energy_budget.encode(enc);
        match self.idle_downshift {
            None => enc.put_bool(false),
            Some(state) => {
                enc.put_bool(true);
                encode_pstate(enc, state);
            }
        }
        enc.put_bool(self.cancel_overdue);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            initial_pstate: decode_pstate(dec)?,
            energy_budget: Option::decode(dec)?,
            idle_downshift: if dec.bool()? {
                Some(decode_pstate(dec)?)
            } else {
                None
            },
            cancel_overdue: dec.bool()?,
        })
    }
}

/// Computes the paper's Sec. VI energy budget:
/// `ζ_max = t_avg × p_avg × window` — the energy needed to run an average
/// task, at the average per-core power over all machines and P-states,
/// `window` times. Deliberately insufficient to finish every task on time,
/// forcing the heuristics to trade performance against energy.
pub fn paper_energy_budget(t_avg: Time, p_avg: f64, window: usize) -> f64 {
    assert!(
        t_avg > 0.0 && p_avg > 0.0 && window > 0,
        "budget inputs must be positive"
    );
    t_avg * p_avg * window as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = SimConfig::paper(1000.0);
        assert_eq!(c.initial_pstate, PState::P4);
        assert_eq!(c.energy_budget, Some(1000.0));
        assert_eq!(c.idle_downshift, Some(PState::P4));
    }

    #[test]
    fn unconstrained_budget_is_infinite() {
        assert_eq!(
            SimConfig::unconstrained().budget_or_infinite(),
            f64::INFINITY
        );
    }

    #[test]
    fn budget_formula_matches_section_vi() {
        // t_avg ≈ 1353, p_avg ≈ 70 W, 1000 tasks.
        let b = paper_energy_budget(1353.0, 70.0, 1000);
        assert!((b - 94_710_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = SimConfig::paper(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn budget_formula_rejects_zero_window() {
        let _ = paper_energy_budget(1.0, 1.0, 0);
    }
}
