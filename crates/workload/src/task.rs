//! Task identity and per-task trace data.

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::{Prob, Time};

/// Identifier of a task *type* (one of the paper's 100 well-known types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskTypeId(pub usize);

/// Identifier of a task *instance* within one trial window (0-based arrival
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type{}", self.0)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// One task instance in a trial trace.
///
/// `quantile` is the pre-drawn uniform variate that determines the task's
/// *actual* execution time once an assignment is chosen: the simulator
/// inverts it through the execution-time pmf of the chosen
/// (type, node, P-state). Pre-drawing makes a task intrinsically fast or
/// slow across heuristics within a trial, so heuristic comparisons within a
/// trial are paired (see DESIGN.md §3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Instance id (arrival order within the window).
    pub id: TaskId,
    /// The task's type.
    pub type_id: TaskTypeId,
    /// Arrival time (also the mapping time — immediate mode).
    pub arrival: Time,
    /// Hard individual deadline `δ(z)`.
    pub deadline: Time,
    /// Pre-drawn uniform quantile in `[0, 1)` for actual-time realization.
    pub quantile: Prob,
}

impl Task {
    /// Slack between arrival and deadline.
    #[inline]
    pub fn relative_deadline(&self) -> Time {
        self.deadline - self.arrival
    }
}

/// Ids travel as `u64`, whatever the platform's pointer width.
impl Persist for TaskTypeId {
    const MIN_ENCODED_LEN: u64 = 8;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0 as u64);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self(dec.u64()? as usize))
    }
}

/// Ids travel as `u64`, whatever the platform's pointer width.
impl Persist for TaskId {
    const MIN_ENCODED_LEN: u64 = 8;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0 as u64);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self(dec.u64()? as usize))
    }
}

/// `id ‖ type ‖ arrival ‖ deadline ‖ quantile`; the two times must be
/// finite, the quantile travels as raw bits.
impl Persist for Task {
    const MIN_ENCODED_LEN: u64 = 40;

    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.type_id.encode(enc);
        enc.put_f64(self.arrival);
        enc.put_f64(self.deadline);
        enc.put_f64(self.quantile);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            id: TaskId::decode(dec)?,
            type_id: TaskTypeId::decode(dec)?,
            arrival: dec.finite_f64()?,
            deadline: dec.finite_f64()?,
            quantile: dec.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_ids() {
        assert_eq!(TaskTypeId(3).to_string(), "type3");
        assert_eq!(TaskId(17).to_string(), "task17");
    }

    #[test]
    fn relative_deadline_subtracts_arrival() {
        let t = Task {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 100.0,
            deadline: 350.0,
            quantile: 0.5,
        };
        assert_eq!(t.relative_deadline(), 250.0);
    }

    #[test]
    fn task_times_must_be_finite() {
        let t = Task {
            id: TaskId(3),
            type_id: TaskTypeId(1),
            arrival: 1.0,
            deadline: 9.0,
            quantile: 0.25,
        };
        let mut enc = Encoder::new();
        t.encode(&mut enc);
        let mut bytes = enc.into_bytes();
        assert_eq!(bytes.len() as u64, Task::MIN_ENCODED_LEN);
        assert_eq!(Task::decode(&mut Decoder::new(&bytes)), Ok(t));
        // The deadline is the fourth word.
        bytes[24..32].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert_eq!(
            Task::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("expected a finite f64"))
        );
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TaskId(1) < TaskId(2));
        assert!(TaskTypeId(0) < TaskTypeId(9));
    }
}
