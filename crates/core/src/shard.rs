//! The candidate equivalence classes of one mapping event (DESIGN.md §13).
//!
//! Cores whose estimates must be bit-identical — same node template, same
//! queue depth, bit-identical queue prefix — form one class, evaluated once
//! on its lowest-index member (DESIGN.md §11). The evaluator regroups the
//! cores on every sweep, in one ascending pass: each core joins its class
//! or founds a new one. The pass already visits every core to refresh its
//! prefix-cache entry, so a partition kept alive between sweeps would save
//! no asymptotic work. The three buffers below are reused, so a
//! steady-state sweep allocates nothing.
//!
//! Class *identity* is bit-exact, never hashed: a core joins an existing
//! class only when its `(template, fingerprint, depth)` key matches **and**
//! its queue prefix is impulse-for-impulse bit-identical
//! ([`Pmf::bit_eq`](ecds_pmf::Pmf::bit_eq)) to the class representative's.
//! Classes whose keys collide but whose bits differ sit side by side in the
//! key order, in founding order.
//!
//! The partition is derived state: it is never checkpointed.

use ecds_cluster::NUM_PSTATES;

use crate::estimate::AssignmentEstimate;

/// Grouping key of one candidate equivalence class. Two cores can share a
/// class only when their keys are equal; equal keys still require
/// bit-identical prefixes (checked against the class representative) before
/// a core joins. `depth` rides in the key so every member shares one queue
/// depth — what lets Shortest Queue select straight from the class list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClassKey {
    /// Node template of every member (estimates depend on the core only
    /// through its node spec and execution-time table, both per-template).
    pub template: u32,
    /// Prefix fingerprint (`None` for the idle class) — a fast filter,
    /// never trusted alone.
    pub fingerprint: Option<u64>,
    /// Queue depth shared by every member.
    pub depth: u32,
}

/// One equivalence class of the current sweep.
#[derive(Debug)]
pub(crate) struct ShardClass {
    /// The grouping key.
    pub key: ClassKey,
    /// Lowest-index member: the first core to join, since cores join in
    /// ascending order. The representative and the tie-break anchor.
    pub min_core: u32,
    /// Member count.
    pub count: u32,
    /// Per-P-state estimates on the representative, filed by
    /// [`CandidateEvaluator::evaluate_all_into`](crate::CandidateEvaluator::evaluate_all_into).
    pub ests: [AssignmentEstimate; NUM_PSTATES],
}

/// One equivalence class of (core, P-state) candidates as the indexed
/// selection path sees it: the five per-P-state estimates evaluated once on
/// the class representative, plus everything a heuristic or filter needs to
/// reproduce the full-scan selection bit-for-bit without materializing the
/// `cores × P-states` candidate stream.
///
/// Produced by
/// [`CandidateEvaluator::evaluate_indexed_into`](crate::CandidateEvaluator::evaluate_indexed_into)
/// in deterministic key order. Tie-breaking anchors on
/// [`ClassCandidate::min_core`]: because every member carries bit-identical
/// estimates, the earliest candidate a full scan would keep is exactly the
/// minimum member core at the smallest qualifying P-state.
#[derive(Debug, Clone, Copy)]
pub struct ClassCandidate {
    /// Lowest-index member — the representative, and the core a full-scan
    /// argmin's first-wins tie-break would select from this class.
    pub min_core: usize,
    /// Queue depth shared by every member (Shortest Queue's primary key).
    pub depth: usize,
    /// Number of member cores.
    pub members: usize,
    /// Per-P-state estimates, indexed by P-state.
    pub ests: [AssignmentEstimate; NUM_PSTATES],
    /// Per-P-state feasibility, narrowed in place by indexed filters.
    pub retained: [bool; NUM_PSTATES],
}

impl ClassCandidate {
    /// `true` while at least one P-state remains feasible.
    pub fn any_retained(&self) -> bool {
        self.retained.iter().any(|&r| r)
    }
}

pub(crate) const ZERO_ESTS: [AssignmentEstimate; NUM_PSTATES] = [AssignmentEstimate {
    eet: 0.0,
    ect: 0.0,
    eec: 0.0,
    rho: 0.0,
}; NUM_PSTATES];

/// The partition of one sweep. Structure only: freshness, prefix
/// recomputation and counter accounting stay in the evaluator, which
/// clears the index and joins every core in ascending order.
#[derive(Debug, Default)]
pub(crate) struct ShardIndex {
    /// `(key, class id)` of every class, sorted by key; classes sharing a
    /// key sit side by side in founding order. Classes are packed for
    /// evaluation in this order, which keeps each template's together.
    pub order: Vec<(ClassKey, u32)>,
    /// Class records by id, in founding order.
    pub classes: Vec<ShardClass>,
    /// Class id of every core joined so far.
    pub class_of: Vec<u32>,
}

impl ShardIndex {
    /// Empties the partition, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.order.clear();
        self.classes.clear();
        self.class_of.clear();
    }

    /// Joins the next core, `class_of.len()`, to the class matching `key`
    /// whose representative satisfies `bits_eq`, founding a new class when
    /// none does. `bits_eq` receives a representative core; it must confirm
    /// *bit identity* of the queue prefixes — fingerprint equality (already
    /// folded into `key`) is never sufficient on its own. The previous
    /// core's class is tried first: neighbouring cores often share one.
    pub fn join(&mut self, key: ClassKey, bits_eq: impl Fn(u32) -> bool) {
        let core = self.class_of.len() as u32;
        let fits = |class: &ShardClass| class.key == key && bits_eq(class.min_core);
        let id = match self.class_of.last() {
            Some(&prev) if fits(&self.classes[prev as usize]) => prev,
            _ => {
                let lo = self.order.partition_point(|(k, _)| *k < key);
                let hi = self.order.partition_point(|(k, _)| *k <= key);
                let found = self.order[lo..hi]
                    .iter()
                    .map(|&(_, id)| id)
                    .find(|&id| fits(&self.classes[id as usize]));
                found.unwrap_or_else(|| {
                    let id = self.classes.len() as u32;
                    self.classes.push(ShardClass {
                        key,
                        min_core: core,
                        count: 0,
                        ests: ZERO_ESTS,
                    });
                    self.order.insert(hi, (key, id));
                    id
                })
            }
        };
        self.classes[id as usize].count += 1;
        self.class_of.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(template: u32, fingerprint: Option<u64>, depth: u32) -> ClassKey {
        ClassKey {
            template,
            fingerprint,
            depth,
        }
    }

    #[test]
    fn join_groups_equal_keys_and_bits() {
        let mut idx = ShardIndex::default();
        for _ in 0..4 {
            idx.join(key(0, Some(7), 1), |_| true);
        }
        assert_eq!(idx.classes.len(), 1);
        assert_eq!(idx.class_of, [0; 4]);
        assert_eq!(idx.classes[0].count, 4);
        assert_eq!(idx.classes[0].min_core, 0);
        // A cleared index starts a new partition from core 0.
        idx.clear();
        idx.join(key(2, None, 0), |_| true);
        assert_eq!(idx.class_of, [0]);
        assert_eq!(idx.order, [(key(2, None, 0), 0)]);
    }

    #[test]
    fn bit_mismatch_chains_under_one_key() {
        let mut idx = ShardIndex::default();
        let k = key(1, Some(9), 1);
        // Core 0 founds class 0. Core 1 shares its key but not its bits
        // and founds class 1; core 2 matches only core 0's bits, so it
        // skips the previous core's class. Core 3 founds class 2 under a
        // smaller key.
        idx.join(k, |_| true);
        idx.join(k, |rep| rep != 0);
        idx.join(k, |rep| rep == 0);
        idx.join(key(0, Some(9), 1), |_| true);
        assert_eq!(idx.class_of, [0, 1, 0, 2]);
        let min_cores: Vec<u32> = idx.classes.iter().map(|c| c.min_core).collect();
        assert_eq!(min_cores, [0, 1, 3]);
        let counts: Vec<u32> = idx.classes.iter().map(|c| c.count).collect();
        assert_eq!(counts, [2, 1, 1]);
        // Key order first; within one key, founding order.
        assert_eq!(idx.order, [(key(0, Some(9), 1), 2), (k, 0), (k, 1)]);
    }
}
