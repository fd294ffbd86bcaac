//! R1 fixture: everything here is fine.

// lint: epoch-guarded
pub struct Ledger {
    entries: Vec<u64>,
    epoch: u64,
}

impl Ledger {
    /// Unconditional bump.
    pub fn push(&mut self, v: u64) {
        self.entries.push(v);
        self.epoch += 1;
    }

    /// A bump on every exit path satisfies R1v2, branches included.
    pub fn pop(&mut self) -> Option<u64> {
        let out = self.entries.pop();
        if out.is_some() {
            self.epoch += 1;
        } else {
            self.epoch += 1;
        }
        out
    }

    /// Private mutators are the type's own business.
    fn rewrite(&mut self) {
        self.entries.clear();
    }

    /// Read-only methods need no bump.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An epoch-versioned cache of a prefix fingerprint, bumping
/// on every restamp: fine.
// lint: epoch-guarded
pub struct Stamp {
    fingerprint: Option<u64>,
    epoch: u64,
}

impl Stamp {
    pub fn restamp(&mut self, fingerprint: Option<u64>) {
        self.fingerprint = fingerprint;
        self.epoch += 1;
    }
}

/// The checkpoint-restore constructor pattern: associated functions carry
/// no `&mut self`, so rebuilding a guarded value from decoded parts —
/// including the *saved* epoch — is out of R1's scope by construction.
/// This is the shape `CoreState`'s `Persist::decode` has: it builds the
/// value, saved epoch included, without a `&mut self` receiver.
impl Stamp {
    pub fn from_checkpoint_parts(fingerprint: Option<u64>, epoch: u64) -> Self {
        Self { fingerprint, epoch }
    }
}

/// Unmarked types are out of scope entirely.
pub struct Scratch {
    data: Vec<u64>,
}

impl Scratch {
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::Ledger;

    impl Ledger {
        /// Test-only helpers are exempt.
        pub fn reset_for_test(&mut self) {
            self.entries.clear();
        }
    }
}
