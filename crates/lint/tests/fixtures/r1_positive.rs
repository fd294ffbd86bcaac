//! R1 fixture: epoch-guarded types with mutators that forget the bump.

// lint: epoch-guarded
pub struct Ledger {
    entries: Vec<u64>,
    epoch: u64,
}

impl Ledger {
    /// Bumps correctly: not flagged.
    pub fn push(&mut self, v: u64) {
        self.entries.push(v);
        self.epoch += 1;
    }

    /// VIOLATION: public mutator without an epoch bump.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// An epoch-versioned cache of a prefix fingerprint: the
/// whole point of the epoch is to version the recorded fingerprint, so a
/// `restamp` that rewrites the fingerprint without bumping is the exact
/// bug R1 exists to catch.
// lint: epoch-guarded
pub struct Stamp {
    fingerprint: Option<u64>,
    epoch: u64,
}

impl Stamp {
    /// VIOLATION: rewrites the guarded state but forgets the bump.
    pub fn restamp(&mut self, fingerprint: Option<u64>) {
        self.fingerprint = fingerprint;
    }

    /// Read-only methods need no bump.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }
}

pub struct CoreState {
    epoch: u64,
    queued: Vec<u64>,
}

/// `CoreState` is always guarded by name, marker or not.
impl CoreState {
    /// VIOLATION: public mutator without an epoch bump.
    pub fn enqueue(&mut self, v: u64) {
        self.queued.push(v);
    }

    /// VIOLATION: an in-place checkpoint-restore path that rewrites the
    /// guarded queue but forgets the epoch. A restored core serving cached
    /// prefixes stamped before the restore is exactly the stale-cache bug
    /// R1 exists to catch — restore must either bump or go through an
    /// associated constructor that decodes the saved epoch explicitly.
    pub fn restore_queue(&mut self, queued: Vec<u64>) {
        self.queued = queued;
    }
}

/// A shard index over (node, prefix-identity) equivalence classes like the
/// evaluator's: membership is valid only for the epoch it was observed at,
/// so any mutator that rewires a class chain without bumping leaves the
/// index advertising stale classes — reads would then serve estimates for
/// a partition the cores have already left.
// lint: epoch-guarded
pub struct ShardIndex {
    class_of: Vec<u32>,
    epoch: u64,
}

impl ShardIndex {
    /// Bumps correctly: not flagged.
    pub fn rebuild(&mut self, class_of: Vec<u32>) {
        self.class_of = class_of;
        self.epoch += 1;
    }

    /// VIOLATION: rekeys a core's class without the epoch bump — the
    /// stale-index bug R1 exists to catch on the sharded decision path.
    pub fn rekey(&mut self, core: usize, class: u32) {
        self.class_of[core] = class;
    }
}
