//! Dirty-core mailbox: the engine's incremental-invalidation feed for
//! shard-indexed evaluators.
//!
//! Every mutation that bumps a [`CoreState`](crate::CoreState) epoch also
//! appends the core's flat index here. A consumer (the evaluator's shard
//! index) keeps a monotone cursor into the *absolute* mark sequence and
//! drains only the marks it has not seen yet — O(marks since last
//! decision) instead of O(cores) per arrival.
//!
//! The mailbox is deliberately lossy under pressure: when the buffer
//! reaches its limit it is discarded wholesale and the absolute base
//! jumps past the dropped marks. A consumer whose cursor predates the
//! base cannot tell which cores it missed and must fall back to a full
//! freshness scan — which is always correct, merely slower. Correctness
//! therefore never depends on the mailbox: it is a hint channel, and the
//! consumer re-checks every hinted core against the exact cache-freshness
//! predicate before acting.
//!
//! Marks are transient runtime state: they are *not* checkpointed. A
//! restored engine starts with an empty mailbox, and a restored evaluator
//! rebuilds its shard index in full at its first sweep (see
//! `CandidateEvaluator::restore_state`).

/// Append-only buffer of recently mutated core indices with an absolute
/// position, so consumers can detect dropped marks.
#[derive(Debug, Clone)]
pub struct DirtyCores {
    /// Marks not yet discarded; absolute index of `buf[i]` is `base + i`.
    buf: Vec<u32>,
    /// Absolute index of `buf[0]`.
    base: u64,
    /// Buffer length at which the next mark discards everything first.
    limit: usize,
}

/// Default mark-buffer limit: far above the marks any single event can
/// produce, small enough that an overflow costs one cheap full scan.
pub const DEFAULT_DIRTY_LIMIT: usize = 4096;

impl Default for DirtyCores {
    fn default() -> Self {
        Self::new(DEFAULT_DIRTY_LIMIT)
    }
}

impl DirtyCores {
    /// An empty mailbox discarding its buffer at `limit` marks.
    ///
    /// # Panics
    ///
    /// Panics when `limit` is zero.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "mark limit must be positive");
        Self {
            buf: Vec::new(),
            base: 0,
            limit,
        }
    }

    /// Records that `core` mutated. On overflow the whole buffer is
    /// dropped and the base jumps, signalling consumers behind the jump.
    pub fn mark(&mut self, core: usize) {
        if self.buf.len() >= self.limit {
            self.base += self.buf.len() as u64;
            self.buf.clear();
        }
        self.buf.push(core as u32);
    }

    /// Absolute index one past the newest mark — the cursor value a
    /// consumer holds after draining everything.
    pub fn head(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// The marks at absolute positions `cursor..head()`, or `None` when
    /// marks before `cursor` were discarded (the consumer missed some and
    /// must fall back to a full scan).
    pub fn marks_since(&self, cursor: u64) -> Option<&[u32]> {
        if cursor < self.base {
            return None;
        }
        let skip = (cursor - self.base) as usize;
        Some(self.buf.get(skip..).unwrap_or(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_accumulate_and_drain_from_cursor() {
        let mut d = DirtyCores::new(8);
        d.mark(3);
        d.mark(5);
        assert_eq!(d.marks_since(0), Some(&[3u32, 5][..]));
        let cursor = d.head();
        d.mark(1);
        assert_eq!(d.marks_since(cursor), Some(&[1u32][..]));
        assert_eq!(d.marks_since(d.head()), Some(&[][..]));
    }

    #[test]
    fn overflow_discards_and_reports_the_gap() {
        let mut d = DirtyCores::new(2);
        d.mark(0);
        d.mark(1);
        // A fully drained consumer survives the jump without a gap.
        let drained = d.head();
        d.mark(2); // discards [0, 1], base jumps to 2
        assert_eq!(d.marks_since(drained), Some(&[2u32][..]));
        // A consumer still behind the jump sees the gap.
        assert_eq!(d.marks_since(0), None);
        assert_eq!(d.marks_since(1), None);
    }

    #[test]
    fn cursor_past_head_is_empty_not_a_gap() {
        let d = DirtyCores::new(4);
        assert_eq!(d.marks_since(0), Some(&[][..]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        let _ = DirtyCores::new(0);
    }
}
