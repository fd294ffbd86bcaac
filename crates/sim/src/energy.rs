//! Energy accounting per the paper's Eqs. 1–2.
//!
//! Each core's consumption is fully determined by its list of P-state
//! transitions ν(i,j,k): between consecutive transitions the core draws the
//! constant power μ(i, π) of its current state, so core energy is
//! `η(i,j,k) = Σ μ(i, pstate(ν_n)) × Δt_n` (Eq. 1), and cluster energy is
//! `ζ = Σ η(i,j,k) / ε(i)` (Eq. 2 — supply losses).
//!
//! Because total cluster power is piecewise constant between transitions,
//! the instant cumulative energy crosses a budget is computed *exactly* by
//! walking the merged transition timeline — no numerical integration.

use ecds_cluster::{Cluster, PState};
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;

use crate::state::{decode_pstate, encode_pstate};

/// One core's P-state transition log.
///
/// The first entry is the mandatory transition at workload start; the log is
/// closed by [`TransitionLog::finalize`] at workload end (the paper assumes
/// "each core makes at least two P-state transitions, one at the start of
/// workload execution and one at the end").
///
/// ```
/// use ecds_cluster::PState;
/// use ecds_sim::TransitionLog;
///
/// // A core parked at P4 (20 W) runs one task at P0 (100 W) from t=5 to
/// // the workload end at t=8: Eq. 1 gives 5·20 + 3·100 = 400.
/// let mut log = TransitionLog::new(0.0, PState::P4);
/// log.record(5.0, PState::P0);
/// log.finalize(8.0);
/// let watts = |s: PState| if s == PState::P0 { 100.0 } else { 20.0 };
/// assert_eq!(log.core_energy(watts), 400.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionLog {
    /// Energy of transitions already folded away by
    /// `TransitionLog::compact`, accumulated in the same left-to-right
    /// `+=` order [`TransitionLog::core_energy`] would have used, so
    /// compaction never changes the final sum's bit pattern.
    folded: f64,
    /// `(time, state entered)`, strictly ordered by time; consecutive
    /// entries always change state (same-state records are coalesced).
    entries: Vec<(Time, PState)>,
    end: Option<Time>,
}

impl TransitionLog {
    /// Opens the log with the initial state at `start` (usually 0).
    pub fn new(start: Time, initial: PState) -> Self {
        assert!(start.is_finite(), "start time must be finite");
        Self {
            folded: 0.0,
            entries: vec![(start, initial)],
            end: None,
        }
    }

    /// Folds every completed segment into the log's folded energy and
    /// drops all entries but the last, bounding the log's memory by the
    /// transition rate between compactions instead of the run length.
    ///
    /// The fold performs exactly the `+=` sequence
    /// [`TransitionLog::core_energy`] would have performed over the
    /// dropped prefix, so the eventual total is bit-identical to an
    /// uncompacted run. Only valid before [`TransitionLog::finalize`];
    /// note [`EnergyAccountant::power_timeline`] and
    /// [`EnergyAccountant::exhaustion_time`] only see transitions that
    /// survive compaction, so compacting callers must not rely on them.
    pub(crate) fn compact(&mut self, watts: impl Fn(PState) -> f64) {
        assert!(self.end.is_none(), "cannot compact a finalized log");
        for w in self.entries.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            self.folded += watts(s0) * (t1 - t0);
        }
        let last = self.tail();
        self.entries.clear();
        self.entries.push(last);
    }

    /// The latest entry. [`TransitionLog::new`] seeds the log and nothing
    /// empties it for good, so there always is one.
    fn tail(&self) -> (Time, PState) {
        *self.entries.last().expect("log never empty")
    }

    /// Records a transition to `state` at `time`. Out-of-order records are
    /// rejected; re-entering the current state is a no-op (the core never
    /// physically transitioned).
    pub fn record(&mut self, time: Time, state: PState) {
        assert!(self.end.is_none(), "log already finalized");
        let (last_t, last_s) = self.tail();
        assert!(
            time >= last_t,
            "transitions must be recorded in time order ({time} < {last_t})"
        );
        if state != last_s {
            self.entries.push((time, state));
        }
    }

    /// Closes the log at `end` (the workload-end transition).
    pub fn finalize(&mut self, end: Time) {
        assert!(self.end.is_none(), "log already finalized");
        let (last_t, _) = self.tail();
        assert!(end >= last_t, "end must not precede the last transition");
        self.end = Some(end);
    }

    /// The transitions recorded so far.
    pub fn entries(&self) -> &[(Time, PState)] {
        &self.entries
    }

    /// Whether [`TransitionLog::finalize`] has been called.
    pub fn is_finalized(&self) -> bool {
        self.end.is_some()
    }

    /// Eq. 1: this core's internal (pre-supply-loss) energy, given its
    /// node's per-state power `watts`.
    ///
    /// # Panics
    ///
    /// Panics when the log is not finalized.
    pub fn core_energy(&self, watts: impl Fn(PState) -> f64) -> f64 {
        let end = self.end.expect("finalize the log before integrating");
        // `folded` is 0.0 unless compaction ran, so the uncompacted f64 op
        // sequence is unchanged.
        let mut total = self.folded;
        for w in self.entries.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            total += watts(s0) * (t1 - t0);
        }
        let (t_last, s_last) = self.tail();
        total += watts(s_last) * (end - t_last);
        total
    }
}

/// `folded ‖ entries ‖ end`, each entry a finite time and a P-state byte.
/// A decoded log holds at least its opening entry, in time order.
impl Persist for TransitionLog {
    const MIN_ENCODED_LEN: u64 = 8 + 8 + 9 + 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.folded);
        enc.put_u64(self.entries.len() as u64);
        for &(time, state) in &self.entries {
            enc.put_f64(time);
            encode_pstate(enc, state);
        }
        self.end.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let folded = dec.f64()?;
        let n = dec.len_prefix(9)?;
        if n == 0 {
            return Err(DecodeError::Corrupt("transition log must not be empty"));
        }
        let mut entries = Vec::with_capacity(n as usize);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..n {
            let time = dec.finite_f64()?;
            if time < prev {
                return Err(DecodeError::Corrupt("transition log out of time order"));
            }
            prev = time;
            entries.push((time, decode_pstate(dec)?));
        }
        Ok(Self {
            folded,
            entries,
            end: Option::decode(dec)?,
        })
    }
}

/// Cluster-wide energy accountant: one [`TransitionLog`] per core (flat
/// indexing matching [`Cluster::cores`]).
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    /// One log per core; a checkpoint carries them in this order.
    pub(crate) logs: Vec<TransitionLog>,
}

impl EnergyAccountant {
    /// Opens one log per core of `cluster`, all starting at `start` in
    /// `initial`.
    pub fn new(cluster: &Cluster, start: Time, initial: PState) -> Self {
        Self {
            logs: (0..cluster.total_cores())
                .map(|_| TransitionLog::new(start, initial))
                .collect(),
        }
    }

    /// Records a transition on the core with flat index `core`.
    pub fn record(&mut self, core: usize, time: Time, state: PState) {
        self.logs[core].record(time, state);
    }

    /// Compacts every core's log (see `TransitionLog::compact`),
    /// bounding accountant memory for long-running serving loops. Total
    /// energy stays bit-identical; the power timeline and exhaustion
    /// query lose the folded prefix, so compaction is only used on the
    /// unconstrained serving path.
    pub(crate) fn compact(&mut self, cluster: &Cluster) {
        for (core, log) in self.logs.iter_mut().enumerate() {
            let node = cluster.node_of(cluster.core(core));
            log.compact(|s| node.power.watts(s));
        }
    }

    /// Closes every log at `end`.
    pub fn finalize(&mut self, end: Time) {
        for log in &mut self.logs {
            log.finalize(end);
        }
    }

    /// Eq. 2: total wall energy `ζ` of the cluster (supply losses applied
    /// per node).
    pub fn total_energy(&self, cluster: &Cluster) -> f64 {
        self.logs
            .iter()
            .zip(cluster.cores())
            .map(|(log, core)| {
                let node = cluster.node_of(*core);
                log.core_energy(|s| node.power.watts(s)) / node.efficiency
            })
            .sum()
    }

    /// The total cluster wall-power timeline: `(time, watts)` pairs where
    /// `watts` is the piecewise-constant power drawn from each `time` until
    /// the next entry (the last entry holds until workload end). Requires
    /// finalized logs.
    pub fn power_timeline(&self, cluster: &Cluster) -> Vec<(Time, f64)> {
        let mut changes: Vec<(Time, usize, PState)> = Vec::new();
        for (core, log) in self.logs.iter().enumerate() {
            assert!(log.is_finalized(), "finalize before querying the timeline");
            for &(time, state) in log.entries() {
                changes.push((time, core, state));
            }
        }
        changes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut per_core = vec![0.0f64; self.logs.len()];
        let mut total = 0.0f64;
        let mut out: Vec<(Time, f64)> = Vec::new();
        let mut idx = 0;
        while idx < changes.len() {
            let t = changes[idx].0;
            while idx < changes.len() && changes[idx].0 == t {
                let (_, core, state) = changes[idx];
                let node = cluster.node_of(cluster.core(core));
                total -= per_core[core];
                per_core[core] = node.power.watts(state) / node.efficiency;
                total += per_core[core];
                idx += 1;
            }
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 = total,
                _ => out.push((t, total)),
            }
        }
        out
    }
}

/// The exact instant cumulative wall energy reaches `budget`, or `None` if
/// the budget outlasts the workload.
///
/// Integrates a piecewise-constant
/// [`power_timeline`](EnergyAccountant::power_timeline) segment by segment,
/// so the crossing point is solved in closed form within the segment where
/// it occurs; the last segment runs to `end`, the workload end the logs
/// were finalized at.
pub fn exhaustion_time(timeline: &[(Time, f64)], end: Time, budget: f64) -> Option<Time> {
    assert!(budget >= 0.0, "budget must be non-negative");
    let &(first, _) = timeline.first()?;
    if budget == 0.0 {
        return Some(first);
    }
    let mut consumed = 0.0f64;
    for (idx, &(start, watts)) in timeline.iter().enumerate() {
        let until = timeline.get(idx + 1).map_or(end, |&(t, _)| t);
        let dt = until - start;
        if dt > 0.0 {
            let segment = watts * dt;
            if consumed + segment >= budget {
                return Some(start + (budget - consumed) / watts);
            }
            consumed += segment;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_cluster::{NodeSpec, PStateLadder, PowerProfile};

    fn flat_power_node(cores: usize, watts: [f64; 5], eff: f64) -> NodeSpec {
        NodeSpec::new(
            1,
            cores,
            PStateLadder::from_relative_performance([2.0, 1.7, 1.4, 1.2, 1.0]),
            PowerProfile::from_watts(watts),
            eff,
        )
    }

    fn one_core_cluster() -> Cluster {
        Cluster::new(vec![flat_power_node(
            1,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            1.0,
        )])
    }

    #[test]
    fn single_state_energy_is_power_times_time() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.finalize(10.0);
        let e = log.core_energy(|s| if s == PState::P4 { 20.0 } else { 0.0 });
        assert!((e - 200.0).abs() < 1e-9);
    }

    #[test]
    fn multi_segment_energy_sums_segments() {
        let mut log = TransitionLog::new(0.0, PState::P4); // 20 W
        log.record(5.0, PState::P0); // 100 W
        log.record(8.0, PState::P2); // 60 W
        log.finalize(10.0);
        let watts = |s: PState| [100.0, 80.0, 60.0, 40.0, 20.0][s.index()];
        // 5·20 + 3·100 + 2·60 = 100 + 300 + 120 = 520.
        assert!((log.core_energy(watts) - 520.0).abs() < 1e-9);
    }

    #[test]
    fn same_state_records_coalesce() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.record(3.0, PState::P4);
        assert_eq!(log.entries().len(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut log = TransitionLog::new(5.0, PState::P4);
        log.record(3.0, PState::P0);
    }

    #[test]
    #[should_panic(expected = "finalize the log")]
    fn unfinalized_energy_panics() {
        let log = TransitionLog::new(0.0, PState::P4);
        let _ = log.core_energy(|_| 1.0);
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn record_after_finalize_panics() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.finalize(1.0);
        log.record(2.0, PState::P0);
    }

    fn log_bytes(log: &TransitionLog) -> Vec<u8> {
        let mut enc = Encoder::new();
        log.encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn log_persist_round_trips_and_validates() {
        let mut log = TransitionLog::new(0.0, PState::P4);
        log.record(5.0, PState::P0);
        log.record(8.0, PState::P2);
        log.compact(|_| 20.0);
        log.record(9.0, PState::P1);
        log.finalize(12.0);
        let bytes = log_bytes(&log);
        assert_eq!(
            TransitionLog::decode(&mut Decoder::new(&bytes)),
            Ok(log.clone())
        );

        // No entries: every log opens with its start transition.
        let mut empty = bytes[..8].to_vec();
        empty.extend_from_slice(&0u64.to_le_bytes());
        empty.push(0);
        assert_eq!(
            TransitionLog::decode(&mut Decoder::new(&empty)),
            Err(DecodeError::Corrupt("transition log must not be empty"))
        );

        // Entry times at 16..24 and 25..33: move the second before the first.
        let mut backwards = bytes.clone();
        backwards[25..33].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert_eq!(
            TransitionLog::decode(&mut Decoder::new(&backwards)),
            Err(DecodeError::Corrupt("transition log out of time order"))
        );

        // The first entry's P-state byte sits after its time.
        let mut bad_state = bytes;
        bad_state[24] = 5;
        assert_eq!(
            TransitionLog::decode(&mut Decoder::new(&bad_state)),
            Err(DecodeError::Corrupt("p-state index out of range"))
        );
    }

    #[test]
    fn accountant_total_applies_efficiency() {
        let cluster = Cluster::new(vec![flat_power_node(
            2,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            0.5,
        )]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        // Two cores × 20 W × 10 / 0.5 efficiency = 800.
        assert!((acc.total_energy(&cluster) - 800.0).abs() < 1e-9);
    }

    /// [`exhaustion_time`] over `acc`'s timeline, to the end its logs
    /// were finalized at.
    fn exhausted(acc: &EnergyAccountant, cluster: &Cluster, budget: f64) -> Option<Time> {
        let end = acc.logs[0].end.expect("finalized");
        exhaustion_time(&acc.power_timeline(cluster), end, budget)
    }

    #[test]
    fn exhaustion_time_exact_single_core() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.record(0, 10.0, PState::P0); // 100 W afterwards
        acc.finalize(20.0);
        // Energy: 200 by t=10, then 100 W. Budget 500 → t = 10 + 300/100 = 13.
        let t = exhausted(&acc, &cluster, 500.0).unwrap();
        assert!((t - 13.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_in_first_segment() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.finalize(100.0);
        let t = exhausted(&acc, &cluster, 1000.0).unwrap();
        assert!((t - 50.0).abs() < 1e-9);
    }

    #[test]
    fn budget_outlasting_workload_returns_none() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        assert_eq!(exhausted(&acc, &cluster, 1e9), None);
    }

    #[test]
    fn exhaustion_exactly_at_end_is_reported() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.finalize(10.0);
        // Total energy = 200 exactly.
        let t = exhausted(&acc, &cluster, 200.0).unwrap();
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_exhausts_at_start() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.finalize(10.0);
        assert_eq!(exhausted(&acc, &cluster, 0.0), Some(0.0));
    }

    #[test]
    fn power_timeline_tracks_transitions() {
        let cluster = one_core_cluster();
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4); // 20 W
        acc.record(0, 5.0, PState::P0); // 100 W
        acc.record(0, 9.0, PState::P2); // 60 W
        acc.finalize(12.0);
        let timeline = acc.power_timeline(&cluster);
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0], (0.0, 20.0));
        assert_eq!(timeline[1], (5.0, 100.0));
        assert_eq!(timeline[2], (9.0, 60.0));
    }

    #[test]
    fn power_timeline_sums_cores_and_applies_efficiency() {
        let cluster = Cluster::new(vec![flat_power_node(
            2,
            [100.0, 80.0, 60.0, 40.0, 20.0],
            0.5,
        )]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.record(1, 3.0, PState::P0);
        acc.finalize(10.0);
        let timeline = acc.power_timeline(&cluster);
        // t=0: 2 cores × 20/0.5 = 80 W; t=3: 40 + 200 = 240 W.
        assert_eq!(timeline[0], (0.0, 80.0));
        assert!((timeline[1].1 - 240.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_matches_total_energy_consistency() {
        // The budget equal to total energy must exhaust at or before the
        // end; any larger budget must not exhaust.
        let cluster = Cluster::new(vec![
            flat_power_node(2, [100.0, 80.0, 60.0, 40.0, 20.0], 0.9),
            flat_power_node(1, [130.0, 100.0, 70.0, 50.0, 30.0], 0.95),
        ]);
        let mut acc = EnergyAccountant::new(&cluster, 0.0, PState::P4);
        acc.record(0, 2.0, PState::P0);
        acc.record(1, 4.0, PState::P2);
        acc.record(2, 5.0, PState::P1);
        acc.record(0, 7.0, PState::P3);
        acc.finalize(12.0);
        let total = acc.total_energy(&cluster);
        let t = exhausted(&acc, &cluster, total).unwrap();
        assert!((t - 12.0).abs() < 1e-6);
        assert_eq!(exhausted(&acc, &cluster, total * 1.001), None);
    }
}
