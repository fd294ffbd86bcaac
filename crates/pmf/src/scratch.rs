//! Allocation-free fused convolution kernel over a reusable workspace.
//!
//! The mapper hot path (Sec. IV-B) convolves a queue-prefix pmf with an
//! execution-time pmf for *every* (core, P-state) candidate of every
//! mapping event — millions of times per experiment grid. The legacy
//! pipeline ([`Pmf::convolve`] → [`Pmf::reduce`]) allocates an `n × m`
//! impulse buffer, stable-sorts it (another hidden allocation), constructs
//! an intermediate [`Pmf`], and then `reduce` allocates (or clones) once
//! more. [`PmfScratch`] fuses the pipeline into passes over buffers that
//! are reused across calls, so the steady-state cost is arithmetic only.
//! Results come back as a unit-factor [`ScaledPmf`] borrowing the
//! workspace, so ECT and ρ are read off the buffer in the same summation
//! order as on a materialized [`Pmf`].
//!
//! # Bit-identity contract
//!
//! The fused kernel produces output **bit-identical** to the legacy
//! pipeline — not approximately equal. This is load-bearing: the
//! queue-prefix cache (DESIGN.md §7) argues correctness via "recompute ≡
//! cached bit-for-bit", and impulse reduction makes convolution
//! non-associative, so any rounding divergence would compound across a
//! trial. Three properties carry the contract:
//!
//! 1. **Sorting.** The legacy path stable-sorts the `n × m` products. A
//!    stable sort's output *sequence* is uniquely determined (non-decreasing
//!    values, ties in original order), so any stable algorithm reproduces it
//!    bit-for-bit. Each of the `n` product rows (one `small` impulse against
//!    every `large` impulse) is already non-decreasing — float addition is
//!    monotone — so a merge sort of the `n` pre-sorted rows (halves split
//!    recursively, ping-ponging between two buffers) is such a stable
//!    algorithm, and it runs in `O(n·m·log n)` without allocating.
//!
//!    Each run pair is merged from both ends at once. A *front* chain takes
//!    the smaller head (a tie takes the left run) and emits the first `s`
//!    elements of the stable merge; a *back* chain takes the larger tail (a
//!    tie takes the right run, which the stable order puts last) and emits
//!    the last `s`. With `s = min(|L|, |R|)` neither run runs dry within
//!    `s` steps, and the two sets are disjoint because `2s ≤ |L| + |R|`; the
//!    middle left between them (non-empty only above an odd split, such as
//!    1 + 2 rows) goes through the scalar merge. The two halves of an even
//!    split are sorted side by side, so their merges run in lockstep and
//!    four independent chains are in flight. Each step is a load → compare → index-update chain; a
//!    one-directional merge runs one such chain (and mispredicts the branch
//!    the data makes unpredictable), the bidirectional merge overlaps up to
//!    four. The sort dominates the kernel, as the phases of kernel calls
//!    sampled from the `serve-mid` benchmark workload show (µs per call;
//!    80% of its calls are 24 × 24; DESIGN.md §7.1 has the method):
//!
//!    | merge | products | stable merge sort | coincidence merge | equal-mass reduce | ECT/ρ reads |
//!    |---|---|---|---|---|---|
//!    | one-directional | 0.8 | 15.5 | 1.8 | 1.0 | 0.06 |
//!    | bidirectional | 0.8 | 9.0 | 1.8 | 1.1 | 0.06 |
//!
//!    The merge compares with `<`, which ties `-0.0` with `0.0` where the
//!    legacy `total_cmp` puts `-0.0` first; equal values are contiguous
//!    after the merge, so a stable sort of the zero block restores the
//!    legacy order.
//! 2. **Summation order.** Coincident-value merging accumulates
//!    probabilities in emission order, exactly as
//!    `sort_and_merge` (in `crate::pmf`) does; the reduction pass replays
//!    [`Pmf::reduce`]'s bucket walk (including its running
//!    emitted-mass accumulator) operation for operation.
//! 3. **Post-reduction normalization.** `reduce` stable-sorts and
//!    coincidence-merges its bucket centroids; the kernel does the same
//!    with an in-place insertion sort (stable, therefore the same
//!    permutation) and an in-place merge.
//!
//! The legacy entry points remain untouched as the differential reference;
//! `crates/pmf/tests/kernel_equivalence.rs` proves the equivalence over
//! arbitrary pmfs, policies, and chained convolutions.

use crate::impulse::Impulse;
#[cfg(doc)]
use crate::pmf::Pmf;
use crate::pmf::{merge_coincident_in_place, values_coincide};
use crate::reduce::ReductionPolicy;
use crate::scaled::ScaledPmf;
use crate::Time;

/// Reusable workspace for the fused convolve→merge→reduce kernel and for a
/// resident queue-prefix pmf built without intermediate allocations.
///
/// One scratch serves one evaluation thread; buffers grow to the high-water
/// mark of the workload and are then reused, so steady-state kernel calls
/// perform **zero heap allocations**. The struct also counts kernel
/// invocations ([`PmfScratch::kernel_calls`]) so callers can report
/// allocation-free-path coverage.
#[derive(Debug, Default)]
pub struct PmfScratch {
    /// The `n × m` products, row-major: row `r` holds `small[r] + large[·]`.
    products: Vec<Impulse>,
    /// Ping-pong buffer for the run merge over `products`.
    merge_buf: Vec<Impulse>,
    /// Sorted, coincidence-merged support of the convolution.
    merged: Vec<Impulse>,
    /// Final (reduced) result of the most recent kernel call.
    out: Vec<Impulse>,
    /// The resident queue-prefix pmf (empty = no prefix loaded).
    prefix: Vec<Impulse>,
    /// The scaled operand of [`PmfScratch::convolve_prefix_with`].
    operand: Vec<Impulse>,
    /// Fused kernel invocations since construction or the last
    /// [`PmfScratch::reset_kernel_calls`].
    kernel_calls: u64,
}

impl PmfScratch {
    /// An empty workspace; buffers are grown lazily by the first calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fused kernel invocations recorded so far.
    #[inline]
    pub fn kernel_calls(&self) -> u64 {
        self.kernel_calls
    }

    /// Zeroes the kernel invocation counter (buffers are kept).
    pub fn reset_kernel_calls(&mut self) {
        self.kernel_calls = 0;
    }

    /// Restores the kernel invocation counter to a checkpointed value, so
    /// a resumed run reports the same cumulative instrumentation as an
    /// uninterrupted one. The workspace buffers are untouched — they carry
    /// no observable state between kernel calls.
    pub fn set_kernel_calls(&mut self, calls: u64) {
        self.kernel_calls = calls;
    }

    /// Fused equivalent of `a.convolve(b, policy)` over raw impulse slices
    /// (both must satisfy the [`Pmf`] invariants): convolves and reduces
    /// entirely inside the workspace and returns the result unscaled,
    /// valid until the next call that touches the workspace.
    ///
    /// Bit-identical to the legacy pipeline (see the module docs).
    pub fn convolve_reduced(
        &mut self,
        a: &[Impulse],
        b: &[Impulse],
        policy: ReductionPolicy,
    ) -> ScaledPmf<'_> {
        let Self {
            products,
            merge_buf,
            merged,
            out,
            kernel_calls,
            ..
        } = self;
        fused_convolve_reduce(a, b, policy, products, merge_buf, merged, out);
        *kernel_calls += 1;
        ScaledPmf::unit(out)
    }

    /// Grows every kernel buffer to hold a call of up to `products`
    /// (`n × m`) products, so that no later call of that size allocates
    /// whatever sizes came before it. A caller that deals one workload's
    /// calls out to several scratches brings each to the workload's
    /// high-water mark this way, instead of letting each grow on whichever
    /// calls it happens to get.
    pub fn reserve_products(&mut self, products: usize) {
        for buf in [
            &mut self.products,
            &mut self.merge_buf,
            &mut self.merged,
            &mut self.out,
        ] {
            buf.reserve(products.saturating_sub(buf.len()));
        }
    }

    // --- resident queue-prefix operations -------------------------------

    /// Discards the resident prefix (the "idle empty core" state).
    pub fn clear_prefix(&mut self) {
        self.prefix.clear();
    }

    /// `true` when a prefix is loaded.
    #[inline]
    pub fn has_prefix(&self) -> bool {
        !self.prefix.is_empty()
    }

    /// The resident prefix, unscaled.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds at once, else on the first read) if no
    /// prefix is loaded; check [`PmfScratch::has_prefix`] first.
    pub fn prefix(&self) -> ScaledPmf<'_> {
        ScaledPmf::unit(&self.prefix)
    }

    /// Loads `pmf.shift(dt)` as the resident prefix without allocating —
    /// the buffer-reuse equivalent of [`Pmf::shift`] on the materialized
    /// pmf, value arithmetic identical (`value + dt` per scaled impulse).
    pub fn load_prefix_shifted<'p>(&mut self, pmf: impl Into<ScaledPmf<'p>>, dt: Time) {
        assert!(dt.is_finite(), "shift must be finite");
        self.prefix.clear();
        self.prefix.extend(
            pmf.into()
                .iter()
                .map(|i| Impulse::new(i.value + dt, i.prob)),
        );
    }

    /// In-place [`Pmf::truncate_below_or_floor`] on the resident prefix:
    /// drops impulses below `cutoff` and renormalizes with the same
    /// summation order as the allocating method; if every impulse is in the
    /// past the prefix degenerates to a singleton at `cutoff`.
    pub fn truncate_prefix_below_or_floor(&mut self, cutoff: Time) {
        assert!(cutoff.is_finite(), "cutoff must be finite");
        debug_assert!(self.has_prefix(), "no prefix loaded");
        // Support is sorted, so the kept impulses are a suffix.
        let kept_from = self
            .prefix
            .iter()
            .position(|i| i.value >= cutoff)
            .unwrap_or(self.prefix.len());
        self.prefix.drain(..kept_from);
        if self.prefix.is_empty() {
            self.prefix.push(Impulse::new(cutoff, 1.0));
            return;
        }
        // Same order as `truncate_below`: sum the kept run, then divide.
        let mass: f64 = self.prefix.iter().map(|i| i.prob).sum();
        for imp in &mut self.prefix {
            imp.prob /= mass;
        }
    }

    /// Replaces the resident prefix with `prefix ⊛ b` (reduced per
    /// `policy`) via the fused kernel — the zero-allocation equivalent of
    /// `prefix = prefix.convolve(&b.to_pmf(), policy)`: `b`'s scaled
    /// impulses land in a reused operand buffer first.
    pub fn convolve_prefix_with<'p>(
        &mut self,
        b: impl Into<ScaledPmf<'p>>,
        policy: ReductionPolicy,
    ) {
        debug_assert!(self.has_prefix(), "no prefix loaded");
        let Self {
            products,
            merge_buf,
            merged,
            out,
            prefix,
            operand,
            kernel_calls,
        } = self;
        operand.clear();
        operand.extend(b.into().iter());
        fused_convolve_reduce(prefix, operand, policy, products, merge_buf, merged, out);
        *kernel_calls += 1;
        std::mem::swap(prefix, out);
    }
}

/// The fused kernel: convolve `a ⊛ b`, merge coincident support points, and
/// reduce to `policy.max_impulses`, leaving the result in `out`. All
/// buffers are caller-owned and reused; no allocation happens once they
/// have grown to the workload's high-water mark.
// lint: alloc-free
#[allow(clippy::too_many_arguments)]
fn fused_convolve_reduce(
    a: &[Impulse],
    b: &[Impulse],
    policy: ReductionPolicy,
    products: &mut Vec<Impulse>,
    merge_buf: &mut Vec<Impulse>,
    merged: &mut Vec<Impulse>,
    out: &mut Vec<Impulse>,
) {
    debug_assert!(!a.is_empty() && !b.is_empty());
    // Same operand orientation as the legacy `convolve` (ties keep `a`).
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (small.len(), large.len());

    // Pass 1: the n × m products, row-major — identical push order (and
    // identical `value + value` / `prob * prob` arithmetic) to the legacy
    // product loop, so the stable-sort-equivalence argument applies.
    products.clear();
    products.reserve(n * m);
    for ia in small {
        for ib in large {
            products.push(Impulse::new(ia.value + ib.value, ia.prob * ib.prob));
        }
    }

    // Pass 2: stable merge sort of the n pre-sorted rows (see
    // `merge_sort_rows`), then the coincident-value merge, replaying
    // `sort_and_merge`'s accumulation. The merge buffer only ever grows: the
    // sort writes every slot of `[..total]` before reading it.
    let total = n * m;
    if merge_buf.len() < total {
        merge_buf.resize(total, Impulse::new(0.0, 1.0));
    }
    let sorted = merge_sort_rows(products, &mut merge_buf[..total], m);
    // The merge's `<` ties `-0.0` with `0.0`, where the legacy `total_cmp`
    // puts `-0.0` first: put the (contiguous) zeros in that order too.
    let zeros =
        sorted.partition_point(|i| i.value < 0.0)..sorted.partition_point(|i| i.value <= 0.0);
    insertion_sort_stable(&mut sorted[zeros]);
    merged.clear();
    for &imp in sorted.iter() {
        push_merged(merged, imp);
    }

    // Pass 3: equal-mass impulse reduction, replaying `reduce`'s bucket
    // walk exactly. At or under the cap the merged support *is* the result
    // (the legacy path clones here; we just hand the buffer over).
    let cap = policy.max_impulses;
    if merged.len() <= cap {
        std::mem::swap(merged, out);
    } else {
        reduce_into(merged, cap, out);
    }

    debug_assert!(!out.is_empty());
    debug_assert!(out.windows(2).all(|w| w[0].value < w[1].value));
    debug_assert!(out.iter().all(Impulse::is_valid));
    debug_assert!(
        (out.iter().map(|i| i.prob).sum::<f64>() - 1.0).abs() < 1e-6,
        "kernel output mass must be 1"
    );
}

/// Stable-sorts `rows` — consecutive runs of `width` impulses, each already
/// non-decreasing by value — by merging rows recursively: the rows split
/// into halves (24 → 12 + 12 → 6 + 6 → 3 + 3 → 1 + 2 → 1 + 1), so every
/// merge is balanced except the one above an odd split, and the two halves
/// of an even split are sorted side by side. Each level ping-pongs between
/// `rows` and the equally long `buf`; the rows at the deepest level are
/// read in place, so only the shallower leaves of odd splits are copied.
/// Returns whichever of the two holds the sorted sequence: the order of a
/// stable `sort_by` on `f64::partial_cmp` of the values (see the module
/// docs).
fn merge_sort_rows<'a>(
    rows: &'a mut [Impulse],
    buf: &'a mut [Impulse],
    width: usize,
) -> &'a mut [Impulse] {
    debug_assert_eq!(rows.len(), buf.len());
    let n = rows.len() / width;
    if n <= 1 {
        return rows;
    }
    // The deepest leaves sit `ceil(log2 n)` levels down; the result lands
    // in `buf` exactly when that depth is odd.
    let into_buf = n.next_power_of_two().trailing_zeros() % 2 == 1;
    sort_rows(rows, buf, width, into_buf);
    if into_buf {
        buf
    } else {
        rows
    }
}

/// Sorts one segment of whole rows into `buf` (`into_buf`) or back into
/// `rows`, with `buf` as the other half of the ping-pong.
fn sort_rows(rows: &mut [Impulse], buf: &mut [Impulse], width: usize, into_buf: bool) {
    let n = rows.len() / width;
    if n == 1 {
        if into_buf {
            buf.copy_from_slice(rows);
        }
        return;
    }
    let mid = n / 2 * width;
    let balanced = 2 * mid == rows.len();
    {
        let (rows_l, rows_r) = rows.split_at_mut(mid);
        let (buf_l, buf_r) = buf.split_at_mut(mid);
        if balanced {
            sort_rows_pair([rows_l, rows_r], [buf_l, buf_r], width, !into_buf);
        } else {
            sort_rows(rows_l, buf_l, width, !into_buf);
            sort_rows(rows_r, buf_r, width, !into_buf);
        }
    }
    let (src, dst) = if into_buf {
        (&*rows, buf)
    } else {
        (&*buf, rows)
    };
    BiMerge::new(src, mid).merge_into(dst);
}

/// [`sort_rows`] for two segments of the same row count, level by level
/// in lockstep, so their merges run as one four-chain loop.
fn sort_rows_pair(
    rows: [&mut [Impulse]; 2],
    bufs: [&mut [Impulse]; 2],
    width: usize,
    into_buf: bool,
) {
    let n = rows[0].len() / width;
    debug_assert_eq!(rows[1].len(), n * width);
    let [rows_a, rows_b] = rows;
    let [buf_a, buf_b] = bufs;
    if n == 1 {
        if into_buf {
            buf_a.copy_from_slice(rows_a);
            buf_b.copy_from_slice(rows_b);
        }
        return;
    }
    let mid = n / 2 * width;
    {
        let (rows_al, rows_ar) = rows_a.split_at_mut(mid);
        let (rows_bl, rows_br) = rows_b.split_at_mut(mid);
        let (buf_al, buf_ar) = buf_a.split_at_mut(mid);
        let (buf_bl, buf_br) = buf_b.split_at_mut(mid);
        sort_rows_pair([rows_al, rows_bl], [buf_al, buf_bl], width, !into_buf);
        sort_rows_pair([rows_ar, rows_br], [buf_ar, buf_br], width, !into_buf);
    }
    if into_buf {
        BiMerge::merge_pair_into(
            BiMerge::new(rows_a, mid),
            BiMerge::new(rows_b, mid),
            buf_a,
            buf_b,
        );
    } else {
        BiMerge::merge_pair_into(
            BiMerge::new(buf_a, mid),
            BiMerge::new(buf_b, mid),
            rows_a,
            rows_b,
        );
    }
}

/// A stable merge of the runs `src[..mid]` (left) and `src[mid..]` (right),
/// run from both ends at once. Step `k` of the front chain emits output `k`
/// (the smaller head; a tie takes the left run), step `k` of the back chain
/// output `len - 1 - k` (the larger tail; a tie takes the right run, which
/// the stable order puts last). Over `s = min(mid, len - mid)` steps the
/// chains emit the first and the last `s` elements of the unique stable
/// merge — disjoint sets, because `2s ≤ len` — and neither run runs dry, so
/// no step needs an exhaustion check.
///
/// Each chain carries one index and derives the other from `k`: the front
/// chain has taken `src[..front]` and `src[mid..mid + k - front]`; the back
/// chain has left `src[..back]` and `src[mid..len + mid - k - back]`.
struct BiMerge<'a> {
    src: &'a [Impulse],
    mid: usize,
    front: usize,
    back: usize,
}

impl<'a> BiMerge<'a> {
    fn new(src: &'a [Impulse], mid: usize) -> Self {
        Self {
            src,
            mid,
            front: 0,
            back: mid,
        }
    }

    /// Front step `k`, for `k < s`.
    #[inline(always)]
    fn front(&mut self, k: usize) -> Impulse {
        let (x, y) = (self.src[self.front], self.src[self.mid + k - self.front]);
        // The right head wins only when strictly smaller.
        let take_right = y.value < x.value;
        self.front += usize::from(!take_right);
        if take_right {
            y
        } else {
            x
        }
    }

    /// Back step `k`, for `k < s`.
    #[inline(always)]
    fn back(&mut self, k: usize) -> Impulse {
        let len = self.src.len();
        let (x, y) = (
            self.src[self.back - 1],
            self.src[len + self.mid - k - self.back - 1],
        );
        // The left tail wins only when strictly larger.
        let take_left = y.value < x.value;
        self.back -= usize::from(take_left);
        if take_left {
            x
        } else {
            y
        }
    }

    /// Steps per chain: `s = min(|L|, |R|)`.
    fn steps(&self) -> usize {
        self.mid.min(self.src.len() - self.mid)
    }

    /// Splits `out` into the front chain's `s` slots, the middle, and the
    /// back chain's `s` slots.
    fn split_out<'o>(
        &self,
        out: &'o mut [Impulse],
    ) -> (&'o mut [Impulse], &'o mut [Impulse], &'o mut [Impulse]) {
        let (len, s) = (out.len(), self.steps());
        debug_assert_eq!(self.src.len(), len);
        let (lo, rest) = out.split_at_mut(s);
        let (middle, hi) = rest.split_at_mut(len - 2 * s);
        (lo, middle, hi)
    }

    /// After all `s` steps of both chains, merges the middle they leave
    /// (empty for a balanced merge) with the scalar [`merge_runs`].
    fn merge_middle(&self, middle: &mut [Impulse]) {
        let (len, s) = (self.src.len(), self.steps());
        let right = self.mid + s - self.front..len + self.mid - s - self.back;
        merge_runs(&self.src[self.front..self.back], &self.src[right], middle);
    }

    /// Runs all `s` steps of both chains into `out`, then the middle.
    fn merge_into(mut self, out: &mut [Impulse]) {
        let (lo, middle, hi) = self.split_out(out);
        for (k, (lo, hi)) in lo.iter_mut().zip(hi.iter_mut().rev()).enumerate() {
            *lo = self.front(k);
            *hi = self.back(k);
        }
        self.merge_middle(middle);
    }

    /// [`BiMerge::merge_into`] for two merges of the same shape, their
    /// steps interleaved: four independent chains in flight.
    fn merge_pair_into(mut a: Self, mut b: Self, out_a: &mut [Impulse], out_b: &mut [Impulse]) {
        debug_assert!(a.src.len() == b.src.len() && a.mid == b.mid);
        let (lo_a, middle_a, hi_a) = a.split_out(out_a);
        let (lo_b, middle_b, hi_b) = b.split_out(out_b);
        let slots = lo_a
            .iter_mut()
            .zip(hi_a.iter_mut().rev())
            .zip(lo_b.iter_mut())
            .zip(hi_b.iter_mut().rev());
        for (k, (((lo_a, hi_a), lo_b), hi_b)) in slots.enumerate() {
            *lo_a = a.front(k);
            *lo_b = b.front(k);
            *hi_a = a.back(k);
            *hi_b = b.back(k);
        }
        a.merge_middle(middle_a);
        b.merge_middle(middle_b);
    }
}

/// The scalar stable merge, used for the middle [`BiMerge`] leaves
/// between its chains: `a` and `b` are non-decreasing by value; ties
/// take `a` (the left run), so relative order of equal values — and with it
/// the stable-sort output permutation — is preserved.
#[inline]
fn merge_runs(a: &[Impulse], b: &[Impulse], out: &mut [Impulse]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        // `b` wins only on strict `<`; equality keeps the left run.
        if i < a.len() && (j >= b.len() || a[i].value <= b[j].value) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Streaming arm of [`crate::pmf::sort_and_merge`]: merge `imp` into the
/// last emitted impulse when their values coincide, preserving the legacy
/// accumulation order.
#[inline]
fn push_merged(merged: &mut Vec<Impulse>, imp: Impulse) {
    match merged.last_mut() {
        Some(last) if values_coincide(last.value, imp.value) => {
            last.prob += imp.prob;
        }
        _ => merged.push(imp),
    }
}

/// The equal-mass bucket pass of [`Pmf::reduce`], writing into a
/// reused buffer. Operation-for-operation identical to the legacy function
/// (including the running emitted-mass accumulator and the trailing
/// stable-sort + coincidence-merge), minus its allocations.
fn reduce_into(src: &[Impulse], cap: usize, out: &mut Vec<Impulse>) {
    debug_assert!(src.len() > cap && cap >= 1);
    let target_mass = 1.0 / cap as f64;
    out.clear();
    let mut bucket_mass = 0.0;
    let mut bucket_weighted = 0.0;
    let mut filled_buckets = 0usize;
    let mut emitted_mass = 0.0;
    let n = src.len();
    for (idx, imp) in src.iter().enumerate() {
        bucket_mass += imp.prob;
        bucket_weighted += imp.weighted_value();
        let remaining_impulses = n - idx - 1;
        let remaining_buckets = cap - filled_buckets - 1;
        let must_flush = remaining_impulses == remaining_buckets && remaining_buckets > 0;
        let quota_met =
            bucket_mass + 1e-15 >= target_mass * (filled_buckets + 1) as f64 - emitted_mass;
        // The last impulse always closes its bucket: that is `reduce`'s
        // trailing flush, whose mass is positive because every impulse's is.
        if idx + 1 == n || ((quota_met || must_flush) && remaining_buckets > 0) {
            out.push(Impulse::new(bucket_weighted / bucket_mass, bucket_mass));
            emitted_mass += bucket_mass;
            filled_buckets += 1;
            bucket_mass = 0.0;
            bucket_weighted = 0.0;
        }
    }
    debug_assert!(out.len() <= cap);
    // `reduce` runs `sort_and_merge` on its bucket centroids; replicate
    // with a stable in-place sort (same permutation as any stable sort —
    // centroids are already sorted in all but pathological rounding cases)
    // and an in-place coincidence merge (same accumulation order).
    insertion_sort_stable(out);
    let kept = merge_coincident_in_place(out);
    out.truncate(kept);
}

/// Stable in-place insertion sort by value in the legacy `total_cmp`
/// order — O(n) on an (almost always) already sorted list, and by
/// stability bit-identical in output order to the legacy `sort_by`.
fn insertion_sort_stable(xs: &mut [Impulse]) {
    for i in 1..xs.len() {
        let mut j = i;
        while j > 0 && xs[j - 1].value.total_cmp(&xs[j].value).is_gt() {
            xs.swap(j - 1, j);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pmf;
    use std::cmp::Ordering;

    /// The kernel's result for `a ⊛ b`, materialized.
    fn fused_pmf(scratch: &mut PmfScratch, a: &Pmf, b: &Pmf, policy: ReductionPolicy) -> Pmf {
        scratch
            .convolve_reduced(a.impulses(), b.impulses(), policy)
            .to_pmf()
    }

    fn pmf(pairs: &[(f64, f64)]) -> Pmf {
        Pmf::from_pairs(pairs).unwrap()
    }

    fn wide(n: usize) -> Pmf {
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 1.7, 1.0 + i as f64)).collect();
        Pmf::from_pairs(&pairs).unwrap()
    }

    #[test]
    fn fused_matches_legacy_bitwise_simple() {
        let a = pmf(&[(1.0, 0.3), (2.0, 0.7)]);
        let b = pmf(&[(0.5, 0.5), (4.0, 0.25), (8.0, 0.25)]);
        let mut scratch = PmfScratch::new();
        for policy in [
            ReductionPolicy::unlimited(),
            ReductionPolicy::new(1),
            ReductionPolicy::new(3),
            ReductionPolicy::default_cap(),
        ] {
            let legacy = a.convolve(&b, policy);
            let fused = fused_pmf(&mut scratch, &a, &b, policy);
            assert_eq!(fused, legacy);
        }
    }

    #[test]
    fn fused_matches_legacy_with_overlapping_sums() {
        // 1+4 == 2+3: exercises the coincidence merge.
        let a = pmf(&[(1.0, 0.5), (2.0, 0.5)]);
        let b = pmf(&[(3.0, 0.5), (4.0, 0.5)]);
        let mut scratch = PmfScratch::new();
        let legacy = a.convolve(&b, ReductionPolicy::unlimited());
        let fused = fused_pmf(&mut scratch, &a, &b, ReductionPolicy::unlimited());
        assert_eq!(fused, legacy);
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn fused_matches_legacy_under_heavy_reduction() {
        let a = wide(20);
        let b = wide(17);
        let mut scratch = PmfScratch::new();
        for cap in [1, 2, 5, 8, 24] {
            let policy = ReductionPolicy::new(cap);
            assert_eq!(
                fused_pmf(&mut scratch, &a, &b, policy),
                a.convolve(&b, policy),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_mismatched_sizes() {
        let mut scratch = PmfScratch::new();
        let big = wide(30);
        let small = pmf(&[(5.0, 1.0)]);
        let policy = ReductionPolicy::new(8);
        // Big → small → big again: buffers must not carry stale state.
        assert_eq!(
            fused_pmf(&mut scratch, &big, &big, policy),
            big.convolve(&big, policy)
        );
        assert_eq!(
            fused_pmf(&mut scratch, &small, &small, policy),
            small.convolve(&small, policy)
        );
        assert_eq!(
            fused_pmf(&mut scratch, &big, &small, policy),
            big.convolve(&small, policy)
        );
    }

    #[test]
    fn view_queries_match_pmf_queries() {
        let a = wide(12);
        let b = wide(9);
        let policy = ReductionPolicy::new(6);
        let mut scratch = PmfScratch::new();
        let legacy = a.convolve(&b, policy);
        let view = scratch.convolve_reduced(a.impulses(), b.impulses(), policy);
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(view.expectation()), bits(legacy.expectation()));
        assert_eq!(bits(view.min_value()), bits(legacy.min_value()));
        assert_eq!(bits(view.max_value()), bits(legacy.max_value()));
        assert_eq!(view.len(), legacy.len());
        for x in [0.0, 3.0, 17.5, 80.0] {
            assert_eq!(bits(view.prob_le(x)), bits(legacy.prob_le(x)));
        }
        assert!(view.to_pmf().bit_eq(&legacy));
    }

    #[test]
    fn prefix_pipeline_matches_legacy_pipeline() {
        let exec = wide(10);
        let queued = [wide(7), pmf(&[(3.0, 0.4), (9.0, 0.6)]), wide(5)];
        let policy = ReductionPolicy::new(8);
        let (start, now) = (12.5, 20.0);

        // Legacy: shift → truncate-or-floor → fold convolutions.
        let mut legacy = exec.shift(start).truncate_below_or_floor(now);
        for q in &queued {
            legacy = legacy.convolve(q, policy);
        }

        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&exec, start);
        scratch.truncate_prefix_below_or_floor(now);
        for q in &queued {
            scratch.convolve_prefix_with(q, policy);
        }
        assert_eq!(scratch.prefix().to_pmf(), legacy);
    }

    #[test]
    fn truncate_prefix_floors_to_singleton() {
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&wide(6), 0.0);
        scratch.truncate_prefix_below_or_floor(1e9);
        assert!(scratch.prefix().to_pmf().bit_eq(&Pmf::singleton(1e9)));
    }

    #[test]
    fn kernel_call_counter_counts_and_resets() {
        let mut scratch = PmfScratch::new();
        let a = wide(4);
        assert_eq!(scratch.kernel_calls(), 0);
        let _ =
            scratch.convolve_reduced(a.impulses(), a.impulses(), ReductionPolicy::default_cap());
        scratch.load_prefix_shifted(&a, 0.0);
        scratch.convolve_prefix_with(&a, ReductionPolicy::default_cap());
        assert_eq!(scratch.kernel_calls(), 2);
        scratch.reset_kernel_calls();
        assert_eq!(scratch.kernel_calls(), 0);
    }

    #[test]
    fn reserved_buffers_hold_every_call_up_to_the_reservation() {
        let mut scratch = PmfScratch::new();
        scratch.reserve_products(24 * 24);
        // `merged` and `out` trade buffers, so compare the set of four.
        let buffers = |s: &PmfScratch| {
            let mut at =
                [&s.products, &s.merge_buf, &s.merged, &s.out].map(|b| b.as_ptr() as usize);
            at.sort_unstable();
            at
        };
        let before = buffers(&scratch);
        for (n, m) in [(24, 24), (1, 24), (5, 7), (24, 3), (1, 1), (12, 24)] {
            for policy in [ReductionPolicy::default_cap(), ReductionPolicy::unlimited()] {
                let (a, b) = (wide(n), wide(m));
                assert_eq!(
                    fused_pmf(&mut scratch, &a, &b, policy),
                    a.convolve(&b, policy)
                );
                assert_eq!(buffers(&scratch), before, "{n} × {m} moved a buffer");
            }
        }
    }

    #[test]
    fn clear_prefix_resets_residency() {
        let mut scratch = PmfScratch::new();
        assert!(!scratch.has_prefix());
        scratch.load_prefix_shifted(&wide(3), 1.0);
        assert!(scratch.has_prefix());
        scratch.clear_prefix();
        assert!(!scratch.has_prefix());
    }

    #[test]
    fn fused_matches_legacy_on_signed_zero_ties() {
        // Row 0 holds -1 + 1 = 0.0, row 1 holds -0.0 + -0.0 = -0.0: a tie
        // across rows that the legacy `total_cmp` sort breaks by sign.
        let a = pmf(&[(-1.0, 0.5), (-0.0, 0.5)]);
        let b = pmf(&[(-0.0, 0.25), (1.0, 0.75)]);
        let mut scratch = PmfScratch::new();
        for policy in [ReductionPolicy::unlimited(), ReductionPolicy::new(2)] {
            let legacy = a.convolve(&b, policy);
            let fused = fused_pmf(&mut scratch, &a, &b, policy);
            assert!(fused.bit_eq(&legacy), "{fused:?} vs {legacy:?}");
        }
    }

    /// Runs the merge pass over `rows` (each non-decreasing) and compares
    /// it bit for bit with std's stable `sort_by`. Each product's
    /// probability is its row-major position, so any reordering of tied
    /// values shows; the merge buffer starts as NaN, so any slot the pass
    /// fails to write shows too.
    fn assert_merge_pass_matches_std_sort(rows: &[Vec<f64>]) {
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width));
        assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])));
        let mut products: Vec<Impulse> = rows
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &v)| Impulse::new(v, (i + 1) as f64))
            .collect();
        let mut oracle = products.clone();
        // Finite values, so `partial_cmp` is total here except that it
        // ties `-0.0` with `0.0`, as the merge's `<` does.
        oracle.sort_by(|x, y| x.value.partial_cmp(&y.value).unwrap_or(Ordering::Equal));
        let mut buf = vec![Impulse::new(f64::NAN, f64::NAN); products.len()];
        let sorted = merge_sort_rows(&mut products, &mut buf, width);
        let bits = |xs: &[Impulse]| -> Vec<(u64, u64)> {
            xs.iter()
                .map(|i| (i.value.to_bits(), i.prob.to_bits()))
                .collect()
        };
        assert_eq!(bits(sorted), bits(&oracle), "rows {rows:?}");
    }

    /// `n` sorted rows of `m` values: drawn from `0..grid` when `grid` is
    /// set (so sums tie across rows), else continuous.
    fn rows(n: usize, m: usize, grid: Option<u64>, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..m)
                    .map(|_| match grid {
                        Some(g) => (next() % g) as f64,
                        None => (next() >> 11) as f64 / (1u64 << 53) as f64 * 1000.0,
                    })
                    .collect();
                row.sort_by(f64::total_cmp);
                row
            })
            .collect()
    }

    #[test]
    fn merge_pass_matches_std_stable_sort() {
        let mut seed = 0;
        let mut check = |n: usize, m: usize, grid: Option<u64>| {
            seed += 1;
            assert_merge_pass_matches_std_sort(&rows(n, m, grid, seed));
        };
        // 1 × k and k × 1 shapes.
        for k in [1, 2, 7, 24] {
            check(1, k, None);
            check(k, 1, None);
            check(k, 1, Some(3));
        }
        // Odd totals, and row counts whose passes leave unbalanced
        // remainder runs, continuous and on tie-heavy grids.
        for n in [3, 5, 7, 24] {
            for m in [1, 2, 3, 5, 24] {
                for grid in [None, Some(2), Some(16)] {
                    check(n, m, grid);
                }
            }
        }
        // All values equal: the output is the input order.
        for (n, m) in [(3, 4), (5, 5), (24, 24)] {
            check(n, m, Some(1));
        }
    }

    #[test]
    fn merge_pass_ties_signed_zeros_in_row_order() {
        assert_merge_pass_matches_std_sort(&[
            vec![-0.0, 0.0, 1.0],
            vec![0.0, 0.0, 2.0],
            vec![-1.0, -0.0, -0.0],
            vec![-0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        ]);
    }

    #[test]
    fn insertion_sort_is_stable_and_sorts() {
        let mut xs = vec![
            Impulse::new(3.0, 0.1),
            Impulse::new(1.0, 0.2),
            Impulse::new(3.0, 0.3),
            Impulse::new(2.0, 0.4),
        ];
        insertion_sort_stable(&mut xs);
        let values: Vec<f64> = xs.iter().map(|i| i.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 3.0]);
        // Stability: the 3.0 with prob 0.1 was pushed first and stays first.
        assert_eq!(xs[2].prob, 0.1);
        assert_eq!(xs[3].prob, 0.3);
    }
}
