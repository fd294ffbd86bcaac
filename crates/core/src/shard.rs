//! The persistent shard index over candidate equivalence classes
//! (DESIGN.md §13).
//!
//! Rebuilding the class partition of DESIGN.md §11 on every mapping event
//! costs a prefix refresh and a class join per core even when nothing
//! changed. The shard index makes the partition *persistent*: the classes
//! live across events, and each event detaches and re-joins only the cores
//! whose cached prefix went stale — an epoch bump or a closed validity
//! window, found by one scan of the cache's freshness predicate. One
//! arrival then costs O(cores) cheap predicate checks plus O(active classes
//! + stale cores) index work instead of O(cores × P-states) estimates.
//!
//! Class *identity* is bit-exact, never hashed: a core joins an existing
//! class only when its `(template, fingerprint, depth)` key matches **and**
//! its queue prefix is impulse-for-impulse bit-identical
//! ([`Pmf::bit_eq`](ecds_pmf::Pmf::bit_eq)) to the class representative's.
//! Fingerprint collisions chain (`next` links), so the incremental index
//! always holds the partition a full rebuild would produce, and every
//! counter the committed artifacts embed stays arithmetically exact.
//!
//! The index is derived state: it is never checkpointed. Restores, cache
//! resets, and cluster-size changes empty it, and the next sweep rebuilds
//! it in full.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use ecds_cluster::NUM_PSTATES;

use crate::estimate::AssignmentEstimate;

/// Sentinel class id: "not a member of any class" / "end of chain".
pub(crate) const CLASS_NONE: u32 = u32::MAX;

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

/// One persistent equivalence class.
#[derive(Debug)]
pub(crate) struct ShardClass {
    /// The grouping key (kept for chain unlinking).
    pub key: ClassKey,
    /// Live member count; the class is freed when it reaches zero.
    pub count: u32,
    /// Lazy min-heap of member cores: stale entries (cores that left) are
    /// skipped on peek, so the minimum live member — the deterministic
    /// representative and tie-break anchor — is O(log members) amortized.
    pub members: BinaryHeap<Reverse<u32>>,
    /// Next class with the same key but different prefix bits
    /// (fingerprint-collision chain), `CLASS_NONE`-terminated.
    pub next: u32,
}

impl ShardClass {
    /// The minimum live member of this class, whose id is `id` — the
    /// deterministic representative. Pops stale heap entries (members
    /// whose `class_of` entry no longer names `id`) lazily.
    pub fn min_member(&mut self, id: u32, class_of: &[u32]) -> u32 {
        loop {
            let &Reverse(top) = self
                .members
                .peek()
                .expect("a live class has at least one member");
            if class_of[top as usize] == id {
                return top;
            }
            self.members.pop();
        }
    }
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

/// The persistent index state. Structure-only: freshness predicates,
/// prefix recomputation, and counter accounting stay in the evaluator,
/// which drives the two-phase sweep (leave every stale core first, then
/// refresh and re-join in ascending core order). An empty `class_of` means
/// the next sweep rebuilds the whole structure.
#[derive(Debug, Default)]
pub(crate) struct ShardIndex {
    /// Chain heads by class key.
    pub by_key: BTreeMap<ClassKey, u32>,
    /// Class slots (free-listed).
    pub classes: Vec<ShardClass>,
    /// Free class slots available for reuse.
    pub free: Vec<u32>,
    /// Per-core class membership (`CLASS_NONE` while detached mid-sweep).
    pub class_of: Vec<u32>,
    /// Number of live (non-freed) classes.
    pub active: usize,
    /// Per-sweep scratch: the cores whose membership must be revalidated.
    pub candidates: Vec<u32>,
    /// Per-class estimates, computed once per mapping event.
    pub ests: Vec<[AssignmentEstimate; NUM_PSTATES]>,
}

impl ShardIndex {
    /// Discards every class, so the next sweep rebuilds in full. Called on
    /// cache resets and restores (the index is derived from the prefix
    /// cache, never checkpointed).
    pub fn reset(&mut self) {
        self.begin_rebuild(0);
    }

    /// Clears the class structure in place (capacities retained) ahead of
    /// a full re-join of all `n` cores.
    pub fn begin_rebuild(&mut self, n: usize) {
        self.by_key.clear();
        self.classes.clear();
        self.free.clear();
        self.class_of.clear();
        self.class_of.resize(n, CLASS_NONE);
        self.active = 0;
        self.candidates.clear();
    }

    /// Detaches `core` from its class, freeing the class when it empties.
    /// Idempotent for already-detached cores.
    pub fn leave(&mut self, core: u32) {
        let id = self.class_of[core as usize];
        if id == CLASS_NONE {
            return;
        }
        self.class_of[core as usize] = CLASS_NONE;
        let class = &mut self.classes[id as usize];
        class.count -= 1;
        if class.count > 0 {
            return;
        }
        // Unlink the emptied class from its key chain and free the slot.
        let key = class.key;
        let next = class.next;
        class.members.clear();
        let head = self
            .by_key
            .get_mut(&key)
            .expect("a live class's key is indexed");
        if *head == id {
            if next == CLASS_NONE {
                self.by_key.remove(&key);
            } else {
                *head = next;
            }
        } else {
            let mut prev = *head;
            loop {
                let after = self.classes[prev as usize].next;
                if after == id {
                    self.classes[prev as usize].next = next;
                    break;
                }
                prev = after;
            }
        }
        self.free.push(id);
        self.active -= 1;
    }

    /// Attaches `core` (currently detached) to the class matching `key`
    /// whose representative's prefix satisfies `bits_eq`, creating a new
    /// class at the chain head when none matches. `bits_eq` receives the
    /// candidate representative core; it must confirm *bit identity* of the
    /// queue prefixes — fingerprint equality (already folded into `key`) is
    /// never sufficient on its own.
    pub fn join(&mut self, core: u32, key: ClassKey, bits_eq: impl Fn(u32) -> bool) {
        debug_assert_eq!(self.class_of[core as usize], CLASS_NONE);
        let mut id = self.by_key.get(&key).copied().unwrap_or(CLASS_NONE);
        while id != CLASS_NONE {
            let rep = self.classes[id as usize].min_member(id, &self.class_of);
            if bits_eq(rep) {
                break;
            }
            id = self.classes[id as usize].next;
        }
        if id == CLASS_NONE {
            id = match self.free.pop() {
                Some(slot) => {
                    let class = &mut self.classes[slot as usize];
                    class.key = key;
                    class.count = 0;
                    class.members.clear();
                    class.next = CLASS_NONE;
                    slot
                }
                None => {
                    self.classes.push(ShardClass {
                        key,
                        count: 0,
                        members: BinaryHeap::new(),
                        next: CLASS_NONE,
                    });
                    (self.classes.len() - 1) as u32
                }
            };
            let prior_head = self.by_key.insert(key, id).unwrap_or(CLASS_NONE);
            self.classes[id as usize].next = prior_head;
            self.active += 1;
        }
        let class = &mut self.classes[id as usize];
        class.count += 1;
        class.members.push(Reverse(core));
        self.class_of[core as usize] = id;
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

    fn min_member(idx: &mut ShardIndex, id: u32) -> u32 {
        idx.classes[id as usize].min_member(id, &idx.class_of)
    }

    fn index_with(n: usize) -> ShardIndex {
        let mut idx = ShardIndex::default();
        idx.begin_rebuild(n);
        idx
    }

    #[test]
    fn join_groups_equal_keys_and_bits() {
        let mut idx = index_with(4);
        for core in 0..4 {
            idx.join(core, key(0, Some(7), 1), |_| true);
        }
        assert_eq!(idx.active, 1);
        let id = idx.class_of[0];
        assert!((1..4).all(|c| idx.class_of[c] == id));
        assert_eq!(idx.classes[id as usize].count, 4);
        assert_eq!(min_member(&mut idx, id), 0);
    }

    #[test]
    fn bit_mismatch_chains_under_one_key() {
        let mut idx = index_with(3);
        // Core 0 founds a class; cores 1 and 2 share its key but only core
        // 2's bits match core 1's (never core 0's): two chained classes.
        idx.join(0, key(0, Some(9), 1), |_| true);
        idx.join(1, key(0, Some(9), 1), |rep| rep != 0);
        idx.join(2, key(0, Some(9), 1), |rep| rep != 0);
        assert_eq!(idx.active, 2);
        assert_ne!(idx.class_of[0], idx.class_of[1]);
        assert_eq!(idx.class_of[1], idx.class_of[2]);
    }

    #[test]
    fn leave_frees_empty_classes_and_unlinks_chains() {
        let mut idx = index_with(3);
        idx.join(0, key(0, Some(9), 1), |_| true);
        idx.join(1, key(0, Some(9), 1), |rep| rep != 0);
        idx.join(2, key(0, Some(9), 1), |rep| rep != 0);
        // Drop the chained class's members: the head class must survive.
        idx.leave(1);
        idx.leave(2);
        assert_eq!(idx.active, 1);
        assert_eq!(
            idx.class_of[0],
            *idx.by_key.get(&key(0, Some(9), 1)).unwrap()
        );
        assert_eq!(idx.classes[idx.class_of[0] as usize].next, CLASS_NONE);
        // Dropping the last member removes the key entirely.
        idx.leave(0);
        assert_eq!(idx.active, 0);
        assert!(idx.by_key.is_empty());
        assert_eq!(idx.free.len(), 2);
        // Leave is idempotent on detached cores.
        idx.leave(0);
        assert_eq!(idx.active, 0);
    }

    #[test]
    fn min_member_tracks_departures_lazily() {
        let mut idx = index_with(4);
        for core in 0..4 {
            idx.join(core, key(1, None, 0), |_| true);
        }
        let id = idx.class_of[3];
        assert_eq!(min_member(&mut idx, id), 0);
        idx.leave(0);
        assert_eq!(min_member(&mut idx, id), 1);
        // Re-joining pushes a fresh heap entry; the minimum recovers.
        idx.join(0, key(1, None, 0), |_| true);
        assert_eq!(min_member(&mut idx, id), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut idx = index_with(2);
        idx.join(0, key(0, None, 0), |_| true);
        let first = idx.class_of[0];
        idx.leave(0);
        idx.join(1, key(5, Some(1), 2), |_| true);
        assert_eq!(idx.class_of[1], first, "freed slot must be recycled");
        assert_eq!(idx.classes.len(), 1);
    }

    #[test]
    fn reset_schedules_rebuild() {
        let mut idx = index_with(2);
        idx.join(0, key(0, None, 0), |_| true);
        idx.reset();
        assert!(idx.by_key.is_empty());
        assert!(idx.class_of.is_empty());
        assert_eq!(idx.active, 0);
    }
}
