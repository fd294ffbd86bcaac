//! Per-assignment estimation: the stochastic completion-time computation of
//! Sec. IV-B and the expectation operators of Sec. V-A.

use std::sync::atomic::{AtomicU64, Ordering};

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::{Impulse, Pmf, PmfScratch, Prob, ReductionPolicy, Time};
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::candidate::EvaluatedCandidate;
use crate::pool::{Batch, Job};
use crate::shard::{ClassCandidate, ClassKey, ShardClass, ShardIndex, CLASS_NONE, ZERO_ESTS};

/// The four quantities Sec. V-A defines per assignment of task `z` to core
/// `k` (of processor `j`, node `i`) in P-state `π` at time `t_l`.
///
/// Deliberately *not* `PartialEq`: float `==` is the wrong relation for
/// differential testing (NaN-hostile, and weaker than the bit identity the
/// pipeline actually guarantees — `-0.0 == 0.0` would mask a real
/// divergence). Compare with [`AssignmentEstimate::bit_eq`].
#[derive(Debug, Clone, Copy)]
pub struct AssignmentEstimate {
    /// `EET(i,j,k,π,z)`: expectation of the execution-time pmf.
    pub eet: Time,
    /// `ECT(i,j,k,π,t_l,z)`: expectation of the completion-time pmf.
    pub ect: Time,
    /// `EEC(i,j,k,π,z) = EET × μ(i,π) / ε(i)`: expected wall energy.
    pub eec: f64,
    /// `ρ(i,j,k,π,t_l,z)`: probability of finishing by the deadline.
    pub rho: Prob,
}

impl AssignmentEstimate {
    /// `true` iff all four quantities match bit-for-bit (`f64::to_bits`) —
    /// the identity differential suites assert, consistent with lint rule
    /// R3's stance on float equality.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.eet.to_bits() == other.eet.to_bits()
            && self.ect.to_bits() == other.ect.to_bits()
            && self.eec.to_bits() == other.eec.to_bits()
            && self.rho.to_bits() == other.rho.to_bits()
    }
}

/// Builds the completion-time pmf of the *last pending* task on `core` at
/// the view's time — the "queue prefix" every candidate on that core is
/// convolved with — plus the inclusive upper bound of the time window over
/// which it stays *bit-identical* while the core's epoch is unchanged (the
/// basis of the evaluator's cache; see DESIGN.md §7). `None` for an idle,
/// empty core.
///
/// Per Sec. IV-B: the executing task's execution-time pmf is shifted by its
/// start time, impulses in the past are removed and the rest renormalized
/// (a task that has outlived its entire distribution is treated as
/// completing now); queued tasks' execution-time pmfs are convolved on in
/// FIFO order. The whole chain runs on the scratch's resident prefix buffer
/// (zero intermediate `Pmf`s) and is materialized once at the end, for the
/// cache entry every later lookup borrows. Bit-identical to
/// [`crate::reference::pending_completion_pmf`].
///
/// The prefix's only time dependence is the truncation of the executing
/// task's shifted pmf at `now`: truncating at any `t` with
/// `now <= t <= min kept impulse` keeps the same impulse set, hence the
/// same renormalization and the same convolution chain. So the bound is
/// the truncated pmf's minimum value — including the degenerate floor case
/// (all mass elapsed → singleton at `now`, valid only at exactly `now`).
/// Idle empty cores have no time dependence (bound `+∞`); the
/// idle-but-queued branch (unreachable with the bundled engine, but kept
/// correct for custom engines) shifts by `now` directly, so its bound is
/// `now` itself.
fn build_prefix(
    view: &SystemView<'_>,
    core: usize,
    policy: ReductionPolicy,
    scratch: &mut PmfScratch,
) -> (Option<Pmf>, Time) {
    let state = view.core_state(core);
    let node = view.cluster().core(core).node;
    let table = view.table();
    let now = view.time();

    let mut valid_until = f64::INFINITY;
    scratch.clear_prefix();
    if let Some(exec) = state.executing() {
        scratch.load_prefix_shifted(table.pmf(exec.type_id, node, exec.pstate), exec.start);
        scratch.truncate_prefix_below_or_floor(now);
        valid_until = scratch.prefix().min_value();
    }
    for queued in state.queued() {
        let exec_pmf = table.pmf(queued.type_id, node, queued.pstate);
        if scratch.has_prefix() {
            scratch.convolve_prefix_with(exec_pmf, policy);
        } else {
            valid_until = now;
            scratch.load_prefix_shifted(exec_pmf, now);
        }
    }
    let prefix = scratch.has_prefix().then(|| scratch.prefix().to_pmf());
    (prefix, valid_until)
}

/// `pmf.shift(dt).expectation()` of the pmf whose impulses are `pmf`,
/// without materializing the shifted pmf: the sum runs over
/// `(value + dt) * prob` in impulse order — exactly the `weighted_value`
/// terms [`Pmf::expectation`] would add — so the result is bit-identical to
/// the allocating form.
fn shifted_expectation(pmf: &[Impulse], dt: Time) -> f64 {
    pmf.iter().map(|i| (i.value + dt) * i.prob).sum()
}

/// `pmf.shift(dt).prob_le(x)` without materializing the shifted pmf — the
/// same accumulate-and-break loop as [`Pmf::prob_le`] over `value + dt`.
fn shifted_prob_le(pmf: &[Impulse], dt: Time, x: Time) -> Prob {
    let mut acc = 0.0;
    for imp in pmf {
        if imp.value + dt <= x {
            acc += imp.prob;
        } else {
            break;
        }
    }
    acc.min(1.0)
}

/// One core's cached queue prefix: the pmf (or `None` for an idle empty
/// core) plus the state it is exact for.
#[derive(Debug, Clone)]
struct CachedPrefix {
    /// [`CoreState::epoch`](ecds_sim::CoreState::epoch) at computation time.
    epoch: u64,
    /// View time the prefix was computed at.
    computed_at: Time,
    /// Inclusive end of the exact-validity window (see [`build_prefix`]).
    valid_until: Time,
    prefix: Option<Pmf>,
    /// [`Pmf::fingerprint`] of `prefix` (`None` when there is no prefix),
    /// recomputed on every fill — the fast equivalence-class key of
    /// DESIGN.md §11.
    fingerprint: Option<u64>,
}

/// `epoch ‖ computed_at ‖ valid_until ‖ prefix ‖ fingerprint`; a NaN
/// validity bound is refused (every comparison against it would be false).
impl Persist for CachedPrefix {
    const MIN_ENCODED_LEN: u64 = 8 + 8 + 8 + 1 + 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.epoch);
        enc.put_f64(self.computed_at);
        enc.put_f64(self.valid_until);
        self.prefix.encode(enc);
        self.fingerprint.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let epoch = dec.u64()?;
        let computed_at = dec.f64()?;
        let valid_until = dec.f64()?;
        if computed_at.is_nan() || valid_until.is_nan() {
            return Err(DecodeError::Corrupt(
                "cache validity window must not be NaN",
            ));
        }
        Ok(Self {
            epoch,
            computed_at,
            valid_until,
            prefix: Option::decode(dec)?,
            fingerprint: Option::decode(dec)?,
        })
    }
}

/// The prefix cache's one freshness predicate: `core`'s entry exists, was
/// computed at the core's current `epoch`, and `now` lies inside its
/// exact-validity window.
fn is_fresh(entries: &[Option<CachedPrefix>], core: usize, epoch: u64, now: Time) -> bool {
    matches!(
        entries.get(core),
        Some(Some(e)) if e.epoch == epoch && e.computed_at <= now && now <= e.valid_until
    )
}

/// The cache entry of `core`, which the caller has just refreshed via
/// [`CandidateEvaluator::refresh_entry`].
fn entry_of(entries: &[Option<CachedPrefix>], core: usize) -> &CachedPrefix {
    entries[core].as_ref().unwrap()
}

/// Bit-identity of two optional queue prefixes: both absent (idle, empty
/// cores), or present and impulse-for-impulse bit-identical.
fn prefix_bit_eq(a: Option<&Pmf>, b: Option<&Pmf>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.bit_eq(b),
        _ => false,
    }
}

/// An impulse range `[start, end)` of [`ClassBatch::impulses`].
type Span = (u32, u32);

/// Appends `src` to `buf` and returns where it landed.
fn stash(buf: &mut Vec<Impulse>, src: impl IntoIterator<Item = Impulse>) -> Span {
    let start = buf.len() as u32;
    buf.extend(src);
    (start, buf.len() as u32)
}

/// One class representative's share of a decision: its inputs as spans of
/// the batch's impulse buffer, and its `(ECT, ρ)` result slots.
#[derive(Debug, Default)]
struct ClassItem {
    /// The representative core (its node gives EET and EEC).
    core: u32,
    /// Where the caller files the estimates: a position in the class list
    /// or a shard class id.
    slot: u32,
    /// The representative's cached queue prefix; empty for an idle class.
    prefix: Span,
    /// The task's execution-time pmf on the class's template, per P-state.
    exec: [Span; NUM_PSTATES],
    /// `ECT` then `ρ` bits per P-state, written by whichever thread
    /// computes the item.
    ect_rho: [AtomicU64; 2 * NUM_PSTATES],
}

impl ClassItem {
    /// The five per-P-state estimates, once the item is computed: `EET`
    /// and `EEC` from the node, `ECT` and `ρ` from the result slots.
    fn estimates(&self, view: &SystemView<'_>, task: &Task) -> [AssignmentEstimate; NUM_PSTATES] {
        let cluster = view.cluster();
        let core_id = cluster.core(self.core as usize);
        let node = cluster.node_of(core_id);
        let table = view.table();
        let slot = |i: usize| f64::from_bits(self.ect_rho[i].load(Ordering::Relaxed));
        PState::ALL.map(|pstate| {
            let eet = table.eet(task.type_id, core_id.node, pstate);
            AssignmentEstimate {
                eet,
                ect: slot(2 * pstate.index()),
                eec: eet * node.power.watts(pstate) / node.efficiency,
                rho: slot(2 * pstate.index() + 1),
            }
        })
    }
}

/// One decision's per-class kernel work (DESIGN.md §13.5): every class
/// representative's queue prefix, and the task's execution-time pmfs once
/// per (node template, P-state), copied into one buffer that helper
/// threads read while the evaluator's cache stays its own.
#[derive(Debug, Default)]
struct ClassBatch {
    policy: ReductionPolicy,
    now: Time,
    deadline: Time,
    /// Items that run the fused kernel (busy representatives).
    busy: usize,
    /// The largest `n × m` kernel call packed so far (a high-water mark).
    products: usize,
    /// The template whose execution-time pmfs `exec` holds.
    template: Option<usize>,
    exec: [Span; NUM_PSTATES],
    impulses: Vec<Impulse>,
    items: Vec<ClassItem>,
}

impl ClassBatch {
    /// Empties the batch for a decision on `task` at the view's time.
    fn refill(&mut self, view: &SystemView<'_>, task: &Task, policy: ReductionPolicy) {
        self.policy = policy;
        self.now = view.time();
        self.deadline = task.deadline;
        self.busy = 0;
        self.template = None;
        self.impulses.clear();
        self.items.clear();
    }

    /// Packs the class whose representative is `core`, with queue prefix
    /// `prefix`; its estimates will be filed under `slot`. Classes arrive
    /// template by template, so each template's execution-time pmfs are
    /// scaled into the buffer once.
    fn pack_class(
        &mut self,
        view: &SystemView<'_>,
        task: &Task,
        core: usize,
        slot: usize,
        prefix: Option<&Pmf>,
    ) {
        let node = view.cluster().core(core).node;
        let table = view.table();
        let template = table.template_of(node);
        if self.template != Some(template) {
            self.template = Some(template);
            for pstate in PState::ALL {
                let exec = table.pmf(task.type_id, node, pstate).iter();
                self.exec[pstate.index()] = stash(&mut self.impulses, exec);
            }
        }
        let prefix = prefix.map_or((0, 0), |p| {
            stash(&mut self.impulses, p.impulses().iter().copied())
        });
        if prefix.0 != prefix.1 {
            self.busy += 1;
            for (start, end) in self.exec {
                let products = (prefix.1 - prefix.0) as usize * (end - start) as usize;
                self.products = self.products.max(products);
            }
        }
        self.items.push(ClassItem {
            core: core as u32,
            slot: slot as u32,
            prefix,
            exec: self.exec,
            ect_rho: Default::default(),
        });
    }

    fn span(&self, (start, end): Span) -> &[Impulse] {
        &self.impulses[start as usize..end as usize]
    }
}

impl Batch for ClassBatch {
    fn item_count(&self) -> usize {
        self.items.len()
    }

    fn products(&self) -> usize {
        self.products
    }

    /// `(ECT, ρ)` per P-state. The completion-time pmf is never
    /// materialized: the convolution lands in `scratch` and the two
    /// moments are read straight off the buffer (busy representative), or
    /// computed shift-free from the execution-time pmf (idle one).
    fn compute_item(&self, item: usize, scratch: &mut PmfScratch) {
        let item = &self.items[item];
        let prefix = self.span(item.prefix);
        for (p, &exec) in item.exec.iter().enumerate() {
            let exec = self.span(exec);
            let (ect, rho) = if prefix.is_empty() {
                (
                    shifted_expectation(exec, self.now),
                    shifted_prob_le(exec, self.now, self.deadline),
                )
            } else {
                let completion = scratch.convolve_reduced(prefix, exec, self.policy);
                (completion.expectation(), completion.prob_le(self.deadline))
            };
            item.ect_rho[2 * p].store(ect.to_bits(), Ordering::Relaxed);
            item.ect_rho[2 * p + 1].store(rho.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Packs every live class of `shard` into `batch` for a decision on `task`,
/// in class-key order (then chain order), which keeps each template's
/// classes together. `slot_of(key, id, class, rep)` says where the
/// estimates of class `id`, represented by its minimum member `rep`, are to
/// be filed.
fn pack_classes(
    batch: &mut ClassBatch,
    shard: &mut ShardIndex,
    cache: &[Option<CachedPrefix>],
    view: &SystemView<'_>,
    task: &Task,
    policy: ReductionPolicy,
    mut slot_of: impl FnMut(&ClassKey, u32, &ShardClass, usize) -> usize,
) {
    batch.refill(view, task, policy);
    let ShardIndex {
        by_key,
        classes,
        class_of,
        ..
    } = shard;
    for (key, &head) in by_key.iter() {
        let mut id = head;
        while id != CLASS_NONE {
            let class = &mut classes[id as usize];
            let rep = class.min_member(id, class_of) as usize;
            let slot = slot_of(key, id, class, rep);
            let prefix = entry_of(cache, rep).prefix.as_ref();
            batch.pack_class(view, task, rep, slot, prefix);
            id = class.next;
        }
    }
}

/// Computes every class packed into `job` — idle helper threads share the
/// kernel calls — books the helpers' calls on `scratch`, and files each
/// class's estimates through `file(slot, ests)` in packing order. Returns
/// the number of classes.
fn compute_classes(
    job: &mut Job<ClassBatch>,
    scratch: &mut PmfScratch,
    view: &SystemView<'_>,
    task: &Task,
    mut file: impl FnMut(usize, [AssignmentEstimate; NUM_PSTATES]),
) -> u64 {
    let share = job.batch().busy > 1;
    let helper_calls = job.execute(scratch, share);
    scratch.set_kernel_calls(scratch.kernel_calls() + helper_calls);
    let batch = job.batch();
    for item in &batch.items {
        file(item.slot as usize, item.estimates(view, task));
    }
    batch.items.len() as u64
}

/// Evaluates all candidate assignments for one arriving task.
///
/// The evaluator has exactly one configuration, and three mechanisms make
/// it cheap without changing a single bit of its output:
///
/// * A *versioned prefix cache*: the queue prefix of each core is
///   remembered together with the core's mutation epoch and its
///   exact-validity time window, and reused across mapping events as long
///   as both still match (DESIGN.md §7).
/// * The allocation-free *fused kernel*: every convolution runs in one
///   [`PmfScratch`] workspace reused across all (core, P-state) candidates
///   and across events (DESIGN.md §7.1).
/// * The persistent *shard index* over candidate equivalence classes:
///   cores whose queue prefixes are bit-identical (confirmed, never
///   assumed, via fingerprint then [`Pmf::bit_eq`]) are evaluated once on
///   the lowest-index representative and the estimates replicated, while
///   candidates are still emitted in core-major / P-state-minor order
///   (DESIGN.md §11, §13). Each call re-examines only the cores whose
///   cache entries went stale, found by one scan of the freshness
///   predicate, so the index is maintained incrementally on any view.
///
/// * *Shared kernel calls*: a decision's class representatives are packed
///   into one job whose items the calling thread and any idle threads of
///   the process-wide helper pool claim and compute, each in its own
///   scratch, with results bit-identical to computing them alone
///   (DESIGN.md §13.5).
///
/// The reference these are tested against is [`crate::reference`]: a
/// per-core, uncached restatement of Sec. IV-B over the allocating
/// [`Pmf`] operations. The evaluator owns its state outright: the only
/// entries are the per-decision sweeps, which take `&mut self` (one
/// evaluator per scheduler). Any number of evaluators may run on as many
/// threads; they share the helpers, never their state.
#[derive(Debug)]
pub struct CandidateEvaluator {
    policy: ReductionPolicy,
    cache: Vec<Option<CachedPrefix>>,
    scratch: PmfScratch,
    shard: ShardIndex,
    /// The current decision's per-class kernel work.
    job: Job<ClassBatch>,
    hits: u64,
    misses: u64,
    /// Equivalence classes summed over all mapping events.
    dedup_classes: u64,
    /// Mapping events (`evaluate_all` / `evaluate_indexed_into` calls).
    dedup_events: u64,
    /// (core, P-state) evaluations skipped via class replication.
    dedup_skipped: u64,
}

impl CandidateEvaluator {
    /// Creates an evaluator with the given convolution reduction policy.
    pub fn new(policy: ReductionPolicy) -> Self {
        Self {
            policy,
            cache: Vec::new(),
            scratch: PmfScratch::new(),
            shard: ShardIndex::default(),
            job: Job::default(),
            hits: 0,
            misses: 0,
            dedup_classes: 0,
            dedup_events: 0,
            dedup_skipped: 0,
        }
    }

    /// The reduction policy in use.
    pub fn policy(&self) -> ReductionPolicy {
        self.policy
    }

    /// Number of fused-kernel invocations since construction or the last
    /// [`CandidateEvaluator::reset_cache`].
    pub fn fused_kernel_calls(&self) -> u64 {
        self.scratch.kernel_calls()
    }

    /// `(hits, misses)` of the prefix cache since construction or the last
    /// [`CandidateEvaluator::reset_cache`]. Always `Some`; the `Option`
    /// matches [`ecds_sim::MapperStats::prefix_cache`].
    pub fn prefix_cache_stats(&self) -> Option<(u64, u64)> {
        Some((self.hits, self.misses))
    }

    /// `(classes, events)` — candidate equivalence classes summed over all
    /// mapping events, and the number of such events — since construction
    /// or the last [`CandidateEvaluator::reset_cache`]. Always `Some`; the
    /// `Option` matches [`ecds_sim::MapperStats::candidate_classes`].
    pub fn dedup_stats(&self) -> Option<(u64, u64)> {
        Some((self.dedup_classes, self.dedup_events))
    }

    /// (core, P-state) evaluations skipped because the core belonged to an
    /// already-evaluated equivalence class.
    pub fn dedup_skipped_evaluations(&self) -> u64 {
        self.dedup_skipped
    }

    /// Drops every cached prefix and zeroes the hit/miss, dedup, and
    /// kernel counters. Must be called between trials: a fresh trial resets
    /// every core to epoch 0, which would otherwise collide with stale
    /// entries.
    pub fn reset_cache(&mut self) {
        self.cache.clear();
        self.scratch.reset_kernel_calls();
        self.shard.reset();
        self.hits = 0;
        self.misses = 0;
        self.dedup_classes = 0;
        self.dedup_events = 0;
        self.dedup_skipped = 0;
    }

    /// Serializes the evaluator's mutable state — the counters, the fused
    /// kernel's call count, and every prefix-cache entry (epoch, validity
    /// window, pmf, fingerprint) — into a serving checkpoint.
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.hits);
        enc.put_u64(self.misses);
        enc.put_u64(self.dedup_classes);
        enc.put_u64(self.dedup_events);
        enc.put_u64(self.dedup_skipped);
        enc.put_u64(self.scratch.kernel_calls());
        self.cache.encode(enc);
    }

    /// Restores state written by [`CandidateEvaluator::save_state`].
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.hits = dec.u64()?;
        self.misses = dec.u64()?;
        self.dedup_classes = dec.u64()?;
        self.dedup_events = dec.u64()?;
        self.dedup_skipped = dec.u64()?;
        self.scratch.set_kernel_calls(dec.u64()?);
        self.cache = Vec::decode(dec)?;
        // The shard index is derived from the cache entries and never
        // checkpointed: a restore schedules a full rebuild instead.
        self.shard.reset();
        Ok(())
    }

    /// Brings `core`'s cache entry up to date: a lookup counts as a hit
    /// when the core's epoch and the view time both sit inside the cached
    /// entry's exact-validity window, and recomputes the prefix and its
    /// fingerprint otherwise. Postcondition: `self.cache[core]` is `Some`
    /// and exact for the view.
    fn refresh_entry(&mut self, view: &SystemView<'_>, core: usize) {
        let epoch = view.core_epoch(core);
        let now = view.time();
        let entries = &mut self.cache;
        if entries.len() <= core {
            entries.resize(view.cluster().total_cores().max(core + 1), None);
        }
        if is_fresh(entries, core, epoch, now) {
            self.hits += 1;
            return;
        }
        self.misses += 1;
        let (prefix, valid_until) = build_prefix(view, core, self.policy, &mut self.scratch);
        entries[core] = Some(CachedPrefix {
            epoch,
            computed_at: now,
            valid_until,
            fingerprint: prefix.as_ref().map(Pmf::fingerprint),
            prefix,
        });
    }

    /// Evaluates every (core, P-state) assignment for `task`, in
    /// deterministic core-major / P-state-minor order.
    ///
    /// Each equivalence class of the shard index is evaluated once on its
    /// lowest-index member and the estimates replicated to the others —
    /// bit-identical to per-core evaluation, because the estimates depend
    /// on the core only through its node and queue prefix (DESIGN.md §11).
    /// The emitted candidate stream is unchanged in length, order, and
    /// content.
    pub fn evaluate_all(&mut self, view: &SystemView<'_>, task: &Task) -> Vec<EvaluatedCandidate> {
        let mut out = Vec::with_capacity(view.cluster().total_cores() * NUM_PSTATES);
        self.evaluate_all_into(view, task, &mut out);
        out
    }

    /// [`CandidateEvaluator::evaluate_all`] into a caller-owned buffer:
    /// `out` is cleared and refilled, retaining its capacity — the
    /// steady-state serve path reuses one buffer across every mapping
    /// event instead of allocating a fresh candidate vector per arrival.
    // lint: alloc-free
    pub fn evaluate_all_into(
        &mut self,
        view: &SystemView<'_>,
        task: &Task,
        out: &mut Vec<EvaluatedCandidate>,
    ) {
        let num_cores = view.cluster().total_cores();
        out.clear();
        out.reserve(num_cores * NUM_PSTATES);
        self.shard_sweep(view);
        let Self {
            policy,
            cache,
            scratch,
            shard,
            job,
            ..
        } = self;
        shard.ests.resize(shard.classes.len(), ZERO_ESTS);
        pack_classes(
            &mut job.batch_mut(),
            shard,
            cache,
            view,
            task,
            *policy,
            |_, id, _, _| id as usize,
        );
        let ests = &mut shard.ests;
        let touched = compute_classes(job, scratch, view, task, |id, e| ests[id] = e);
        for core in 0..num_cores {
            let ests = shard.ests[shard.class_of[core] as usize];
            for (idx, pstate) in PState::ALL.into_iter().enumerate() {
                out.push(EvaluatedCandidate {
                    core,
                    pstate,
                    est: ests[idx],
                });
            }
        }
        self.note_dedup_event(num_cores, touched);
    }

    /// Books one mapping event that touched `classes` of the `num_cores`
    /// cores (`dedup_skipped` counts `NUM_PSTATES` per replicated core).
    fn note_dedup_event(&mut self, num_cores: usize, classes: u64) {
        self.dedup_classes += classes;
        self.dedup_events += 1;
        self.dedup_skipped += (num_cores as u64 - classes) * NUM_PSTATES as u64;
    }

    /// Brings the shard index exactly up to date with `view` (DESIGN.md
    /// §13): one in-order scan picks every core whose cache entry fails
    /// the freshness predicate [`CandidateEvaluator::refresh_entry`]
    /// applies (epoch bumped, or view time outside the exact-validity
    /// window), detaches exactly those, then refreshes and re-joins them
    /// in ascending core order. The index is rebuilt in full only when its
    /// size does not match the cluster: first use, a cache reset, a
    /// restore or a cluster-size change.
    ///
    /// Every candidate core is refreshed through
    /// [`CandidateEvaluator::refresh_entry`] (one hit or miss each), and
    /// every other core is a hit, booked in bulk — so the cache counters
    /// equal one lookup per core per event whichever way the sweep went.
    fn shard_sweep(&mut self, view: &SystemView<'_>) {
        let n = view.cluster().total_cores();
        let now = view.time();
        let shard = &mut self.shard;
        let rebuild = shard.class_of.len() != n;
        if rebuild {
            shard.begin_rebuild(n);
        }
        let mut candidates = std::mem::take(&mut shard.candidates);
        candidates.clear();
        let cache = &self.cache;
        candidates.extend((0..n as u32).filter(|&core| {
            let core = core as usize;
            rebuild || !is_fresh(cache, core, view.core_epoch(core), now)
        }));
        // Two-phase: detach every candidate first, so phase 2's bit-identity
        // checks only ever compare against representatives that are either
        // untouched (still fresh) or already refreshed this sweep.
        for &core in &candidates {
            shard.leave(core);
        }
        for &core in &candidates {
            let core = core as usize;
            self.refresh_entry(view, core);
            let cache = &self.cache;
            let e = entry_of(cache, core);
            let node = view.cluster().core(core).node;
            let key = ClassKey {
                template: view.cluster().template_of(node) as u32,
                fingerprint: e.fingerprint,
                depth: view.core_state(core).depth() as u32,
            };
            let prefix = e.prefix.as_ref();
            self.shard.join(core as u32, key, |rep| {
                prefix_bit_eq(prefix, entry_of(cache, rep as usize).prefix.as_ref())
            });
        }
        self.hits += (n - candidates.len()) as u64;
        self.shard.candidates = candidates;
    }

    /// Evaluates every candidate assignment for `task` as one
    /// [`ClassCandidate`] per equivalence class — the five per-P-state
    /// estimates computed once on each class's minimum member — without
    /// materializing the `cores × P-states` candidate stream. `out` is
    /// cleared and refilled (capacity retained) in deterministic key order.
    ///
    /// Cache and dedup counters advance exactly as a full-scan
    /// `evaluate_all` would.
    ///
    /// Always returns `true`: every view takes the indexed path. The
    /// `bool` exists only for `perfbench`'s `TracedScheduler` until
    /// ROADMAP item 1(0b) times it through
    /// [`Scheduler::assign_observed`](crate::Scheduler::assign_observed).
    // lint: alloc-free
    pub fn evaluate_indexed_into(
        &mut self,
        view: &SystemView<'_>,
        task: &Task,
        out: &mut Vec<ClassCandidate>,
    ) -> bool {
        out.clear();
        let num_cores = view.cluster().total_cores();
        self.shard_sweep(view);
        let Self {
            policy,
            cache,
            scratch,
            shard,
            job,
            ..
        } = self;
        out.reserve(shard.active);
        // Key order, then chain order, is deterministic — though selection
        // never depends on it: indexed tie-breaks anchor on `min_core`,
        // reproducing the full scan's first-wins argmin.
        pack_classes(
            &mut job.batch_mut(),
            shard,
            cache,
            view,
            task,
            *policy,
            |key, _, class, rep| {
                out.push(ClassCandidate {
                    min_core: rep,
                    depth: key.depth as usize,
                    members: class.count as usize,
                    ests: ZERO_ESTS,
                    retained: [true; NUM_PSTATES],
                });
                out.len() - 1
            },
        );
        compute_classes(job, scratch, view, task, |at, ests| out[at].ests = ests);
        debug_assert_eq!(out.len(), shard.active);
        self.note_dedup_event(num_cores, out.len() as u64);
        true
    }
}

impl Default for CandidateEvaluator {
    fn default() -> Self {
        Self::new(ReductionPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::candidates_bit_eq;
    use crate::reference::{self, pending_completion_pmf};
    use ecds_sim::{CoreState, ExecutingTask, QueuedTask, Scenario};
    use ecds_workload::{TaskId, TaskTypeId};

    fn scenario() -> Scenario {
        Scenario::small_for_tests(17)
    }

    /// The oracle's full candidate stream for `view`.
    fn oracle(view: &SystemView<'_>, task: &Task) -> Vec<EvaluatedCandidate> {
        reference::evaluate_all(view, task, ReductionPolicy::default())
    }

    /// The estimate for (`core`, `pstate`) out of a fresh evaluator's sweep.
    fn estimate(
        view: &SystemView<'_>,
        task: &Task,
        core: usize,
        pstate: PState,
    ) -> AssignmentEstimate {
        CandidateEvaluator::default().evaluate_all(view, task)[core * NUM_PSTATES + pstate.index()]
            .est
    }

    fn mk_task(scenario: &Scenario, arrival: f64) -> Task {
        let type_id = TaskTypeId(0);
        Task {
            id: TaskId(0),
            type_id,
            arrival,
            deadline: arrival + scenario.table().type_average(type_id) + scenario.table().t_avg(),
            quantile: 0.5,
        }
    }

    /// A hand-built view.
    fn view_at<'a>(
        s: &'a Scenario,
        cores: &'a [CoreState],
        now: f64,
        arrived: usize,
    ) -> SystemView<'a> {
        SystemView::new(s.cluster(), s.table(), cores, now, arrived, 60)
    }

    fn idle_cores(scenario: &Scenario) -> Vec<CoreState> {
        vec![CoreState::new(); scenario.cluster().total_cores()]
    }

    #[test]
    fn idle_core_completion_is_shifted_exec_pmf() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 100.0, 1, 60);
        let task = mk_task(&s, 100.0);
        let est = estimate(&view, &task, 0, PState::P0);
        let exec = s
            .table()
            .pmf(task.type_id, s.cluster().core(0).node, PState::P0);
        assert!((est.ect - (exec.expectation() + 100.0)).abs() < 1e-9);
        assert!(est.bit_eq(&oracle(&view, &task)[0].est));
    }

    #[test]
    fn cached_prefix_round_trips_and_rejects_a_nan_window() {
        let entry = CachedPrefix {
            epoch: 7,
            computed_at: 10.0,
            valid_until: f64::INFINITY,
            prefix: Some(Pmf::from_pairs(&[(12.0, 0.5), (15.0, 0.5)]).unwrap()),
            fingerprint: Some(0xfeed),
        };
        let mut enc = Encoder::new();
        entry.encode(&mut enc);
        let mut bytes = enc.into_bytes();
        let back = CachedPrefix::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.epoch, 7);
        assert_eq!(back.valid_until, f64::INFINITY);
        assert!(prefix_bit_eq(back.prefix.as_ref(), entry.prefix.as_ref()));
        assert_eq!(back.fingerprint, Some(0xfeed));
        for at in [8, 16] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
            assert!(matches!(
                CachedPrefix::decode(&mut Decoder::new(&bad)),
                Err(DecodeError::Corrupt(
                    "cache validity window must not be NaN"
                ))
            ));
        }
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            CachedPrefix::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated)
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn cached_prefix_persist_round_trips_bitwise(
            epoch in 0..=u64::MAX,
            computed_at in 0.0f64..1e6,
            window in (proptest::bool::ANY, 0.0f64..1e6),
            weights in proptest::collection::vec(1u32..100, 0..6),
            fingerprint in (proptest::bool::ANY, 0..=u64::MAX),
        ) {
            let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
            let pairs: Vec<(f64, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (computed_at + i as f64, f64::from(w) / total))
                .collect();
            let entry = CachedPrefix {
                epoch,
                computed_at,
                // An infinite bound is legal; only NaN is refused.
                valid_until: if window.0 { f64::INFINITY } else { computed_at + window.1 },
                prefix: (!pairs.is_empty()).then(|| Pmf::from_pairs(&pairs).unwrap()),
                fingerprint: fingerprint.0.then_some(fingerprint.1),
            };
            let mut enc = Encoder::new();
            entry.encode(&mut enc);
            proptest::prop_assert!(enc.written() >= CachedPrefix::MIN_ENCODED_LEN);
            let mut dec = Decoder::new(enc.as_slice());
            let back = CachedPrefix::decode(&mut dec).expect("a fresh encoding decodes");
            proptest::prop_assert!(dec.finish().is_ok());
            let mut again = Encoder::new();
            back.encode(&mut again);
            proptest::prop_assert_eq!(again.as_slice(), enc.as_slice());
        }

        #[test]
        fn cached_prefix_decode_never_panics_on_random_bytes(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..128),
        ) {
            let _ = CachedPrefix::decode(&mut Decoder::new(&bytes));
            let _ = Vec::<Option<CachedPrefix>>::decode(&mut Decoder::new(&bytes));
        }
    }

    #[test]
    fn pending_pmf_none_for_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        assert!(pending_completion_pmf(&view, 0, ReductionPolicy::default()).is_none());
    }

    #[test]
    fn busy_core_prefix_raises_ect() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(9),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 0.0,
            deadline: 5000.0,
        });
        let view = SystemView::new(s.cluster(), s.table(), &cores, 10.0, 1, 60);
        let task = mk_task(&s, 10.0);
        let all = CandidateEvaluator::default().evaluate_all(&view, &task);
        let (busy, idle) = (all[0].est, all[NUM_PSTATES].est);
        // Core 1 may be on a different node, so compare like-for-like: the
        // candidate on the busy core must complete later than its own
        // execution time would allow from t_l.
        let own_eet = s
            .table()
            .eet(task.type_id, s.cluster().core(0).node, PState::P0);
        assert!(busy.ect > 10.0 + own_eet - 1e-9);
        assert!(busy.rho <= 1.0 && idle.rho <= 1.0);
    }

    #[test]
    fn queued_tasks_stack_in_the_prefix() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(8),
            type_id: TaskTypeId(1),
            pstate: PState::P2,
            start: 0.0,
            deadline: 5000.0,
        });
        let one_depth = {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            pending_completion_pmf(&view, 0, ReductionPolicy::default())
                .unwrap()
                .expectation()
        };
        cores[0].enqueue(QueuedTask {
            task: TaskId(9),
            type_id: TaskTypeId(2),
            pstate: PState::P1,
            deadline: 5000.0,
        });
        let two_depth = {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            pending_completion_pmf(&view, 0, ReductionPolicy::default())
                .unwrap()
                .expectation()
        };
        let queued_eet = s
            .table()
            .eet(TaskTypeId(2), s.cluster().core(0).node, PState::P1);
        assert!((two_depth - one_depth - queued_eet).abs() < 2.0,
            "prefix should grow by the queued task's EET (one {one_depth}, two {two_depth}, eet {queued_eet})");
    }

    #[test]
    fn truncation_moves_prediction_forward() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(8),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 0.0,
            deadline: 5000.0,
        });
        let eet = s
            .table()
            .eet(TaskTypeId(1), s.cluster().core(0).node, PState::P0);
        // Observe long past the mean: most impulses are truncated and the
        // predicted completion is pushed to at least `now`.
        let late = 3.0 * eet;
        let view = SystemView::new(s.cluster(), s.table(), &cores, late, 1, 60);
        let pmf = pending_completion_pmf(&view, 0, ReductionPolicy::default()).unwrap();
        assert!(pmf.min_value() >= late - 1e-9);
    }

    #[test]
    fn evaluate_all_is_core_major_deterministic() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let all = ev.evaluate_all(&view, &task);
        assert_eq!(all.len(), s.cluster().total_cores() * 5);
        for (idx, c) in all.iter().enumerate() {
            assert_eq!(c.core, idx / 5);
            assert_eq!(c.pstate, PState::from_index(idx % 5));
        }
        let again = ev.evaluate_all(&view, &task);
        assert!(candidates_bit_eq(&all, &again));
    }

    #[test]
    fn repeated_evaluate_all_hits_the_cache() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let first = ev.evaluate_all(&view, &task);
        assert_eq!(ev.prefix_cache_stats(), Some((0, n)));
        let second = ev.evaluate_all(&view, &task);
        assert_eq!(ev.prefix_cache_stats(), Some((n, n)));
        assert!(candidates_bit_eq(&first, &second));
    }

    #[test]
    fn epoch_bump_invalidates_the_cached_prefix() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        let task = mk_task(&s, 5.0);
        let mut ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
            let _ = ev.evaluate_all(&view, &task);
        }
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P0,
            start: 5.0,
            deadline: 5000.0,
        });
        let view = SystemView::new(s.cluster(), s.table(), &cores, 5.0, 1, 60);
        let cached = ev.evaluate_all(&view, &task);
        assert_eq!(
            ev.prefix_cache_stats(),
            Some((n - 1, n + 1)),
            "mutation must miss"
        );
        assert!(candidates_bit_eq(&cached, &oracle(&view, &task)));
    }

    #[test]
    fn time_advance_within_window_hits_and_stays_exact() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P2,
            start: 0.0,
            deadline: 5000.0,
        });
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let at_t1 = ev.evaluate_all(&view, &task);
        // The executing pmf's support starts well above t=1, so a small
        // advance keeps the truncation unchanged: every lookup must hit and
        // the estimates must be bit-identical to the oracle's recompute.
        let later = SystemView::new(s.cluster(), s.table(), &cores, 2.0, 2, 60);
        let at_t2 = ev.evaluate_all(&later, &task);
        assert_eq!(ev.prefix_cache_stats(), Some((n, n)));
        assert!(candidates_bit_eq(
            &at_t1[..NUM_PSTATES],
            &at_t2[..NUM_PSTATES]
        ));
        assert!(candidates_bit_eq(&at_t2, &oracle(&later, &task)));
    }

    #[test]
    fn time_advance_past_first_impulse_misses_and_recomputes() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        cores[0].start(ExecutingTask {
            task: TaskId(3),
            type_id: TaskTypeId(1),
            pstate: PState::P4,
            start: 0.0,
            deadline: 50_000.0,
        });
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let n = s.cluster().total_cores() as u64;
        let node = s.cluster().core(0).node;
        let raw = s.table().pmf(TaskTypeId(1), node, PState::P4);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1.0, 1, 60);
        let _ = ev.evaluate_all(&view, &task);
        // Jump past the support's start: some impulses fall into the past,
        // the truncation changes, and the cache must recompute.
        let late_t = raw.min_value() + raw.expectation() * 0.5;
        let late = SystemView::new(s.cluster(), s.table(), &cores, late_t, 2, 60);
        let recomputed = ev.evaluate_all(&late, &task);
        assert_eq!(ev.prefix_cache_stats(), Some((n - 1, n + 1)));
        assert!(candidates_bit_eq(&recomputed, &oracle(&late, &task)));
    }

    #[test]
    fn reset_cache_clears_entries_and_counters() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        let _ = ev.evaluate_all(&view, &task);
        ev.reset_cache();
        assert_eq!(ev.prefix_cache_stats(), Some((0, 0)));
        let _ = ev.evaluate_all(&view, &task);
        let n = s.cluster().total_cores() as u64;
        assert_eq!(
            ev.prefix_cache_stats(),
            Some((0, n)),
            "entries were dropped"
        );
    }

    #[test]
    fn evaluator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CandidateEvaluator>();
    }

    fn busy_cores(s: &Scenario) -> Vec<CoreState> {
        let mut cores = idle_cores(s);
        for (i, core) in cores.iter_mut().enumerate() {
            core.start(ExecutingTask {
                task: TaskId(i),
                type_id: TaskTypeId(i % 3),
                pstate: PState::P1,
                start: 0.0,
                deadline: 5000.0,
            });
            core.enqueue(QueuedTask {
                task: TaskId(100 + i),
                type_id: TaskTypeId((i + 1) % 3),
                pstate: PState::P2,
                deadline: 6000.0,
            });
        }
        cores
    }

    #[test]
    fn fused_evaluate_all_is_bit_identical_to_legacy() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        // The oracle runs the allocating `Pmf::convolve` pipeline.
        let mut fused = CandidateEvaluator::default();
        assert!(candidates_bit_eq(
            &fused.evaluate_all(&view, &task),
            &oracle(&view, &task)
        ));
    }

    #[test]
    fn fused_kernel_calls_count_and_reset() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let mut ev = CandidateEvaluator::default();
        assert_eq!(ev.fused_kernel_calls(), 0);
        let _ = ev.evaluate_all(&view, &task);
        // Per busy core: one prefix convolution (the queued task); per
        // class: one candidate convolution per P-state.
        let n = s.cluster().total_cores() as u64;
        let (classes, _) = ev.dedup_stats().unwrap();
        let per_event = classes * PState::ALL.len() as u64;
        assert_eq!(ev.fused_kernel_calls(), n + per_event);
        // A repeat on the same view hits every prefix: candidates only.
        let _ = ev.evaluate_all(&view, &task);
        assert_eq!(ev.fused_kernel_calls(), n + 2 * per_event);
        ev.reset_cache();
        assert_eq!(ev.fused_kernel_calls(), 0);
    }

    #[test]
    fn dedup_cuts_candidate_kernel_calls_to_one_set_per_class() {
        let s = scenario();
        let cores = busy_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
        let task = mk_task(&s, 50.0);
        let mut ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        let n = s.cluster().total_cores() as u64;
        let (classes, events) = ev.dedup_stats().expect("dedup is on by default");
        assert_eq!(events, 1);
        assert!(classes <= n, "at most one class per core");
        // One prefix convolution per core (every entry is refreshed), but
        // candidate convolutions only for class representatives.
        assert_eq!(
            ev.fused_kernel_calls(),
            n + classes * PState::ALL.len() as u64
        );
        assert_eq!(
            ev.dedup_skipped_evaluations(),
            (n - classes) * PState::ALL.len() as u64
        );
    }

    #[test]
    fn dedup_collapses_idle_cores_per_node() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let all = ev.evaluate_all(&view, &task);
        assert_eq!(all.len(), s.cluster().total_cores() * NUM_PSTATES);
        // Every idle core of a node is interchangeable: exactly one class
        // per node.
        let nodes = s.cluster().num_nodes() as u64;
        assert_eq!(ev.dedup_stats(), Some((nodes, 1)));
        let n = s.cluster().total_cores() as u64;
        assert_eq!(
            ev.dedup_skipped_evaluations(),
            (n - nodes) * NUM_PSTATES as u64
        );
    }

    #[test]
    fn dedup_is_bit_identical_to_per_core_evaluation() {
        let s = scenario();
        for cores in [idle_cores(&s), busy_cores(&s)] {
            let view = SystemView::new(s.cluster(), s.table(), &cores, 50.0, 1, 60);
            let task = mk_task(&s, 50.0);
            assert!(candidates_bit_eq(
                &CandidateEvaluator::default().evaluate_all(&view, &task),
                &oracle(&view, &task)
            ));
        }
    }

    #[test]
    fn reset_cache_zeroes_dedup_counters() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let mut ev = CandidateEvaluator::default();
        let _ = ev.evaluate_all(&view, &task);
        ev.reset_cache();
        assert_eq!(ev.dedup_stats(), Some((0, 0)));
        assert_eq!(ev.dedup_skipped_evaluations(), 0);
    }

    /// Asserts every observable counter of the two evaluators agrees —
    /// the incremental sweep must be *arithmetically* exact against a full
    /// rebuild, not just bit-identical in its candidate stream, because
    /// the committed artifacts embed these counters.
    fn assert_counters_eq(a: &CandidateEvaluator, b: &CandidateEvaluator) {
        assert_eq!(a.prefix_cache_stats(), b.prefix_cache_stats());
        assert_eq!(a.dedup_stats(), b.dedup_stats());
        assert_eq!(a.dedup_skipped_evaluations(), b.dedup_skipped_evaluations());
        assert_eq!(a.fused_kernel_calls(), b.fused_kernel_calls());
    }

    #[test]
    fn shard_indexed_evaluate_all_stays_exact_across_mutations() {
        let s = scenario();
        let mut cores = idle_cores(&s);
        let mut shard = CandidateEvaluator::default();
        // Its shard index is emptied before every call, so it rebuilds in
        // full from the same warm cache.
        let mut reference = CandidateEvaluator::default();
        let n = s.cluster().total_cores();
        let mut now = 0.0;
        for step in 0..8 {
            let task = mk_task(&s, now);
            {
                let view = view_at(&s, &cores, now, 1 + step);
                let stream = shard.evaluate_all(&view, &task);
                reference.shard.reset();
                assert!(candidates_bit_eq(
                    &stream,
                    &reference.evaluate_all(&view, &task)
                ));
                assert!(candidates_bit_eq(&stream, &oracle(&view, &task)));
                assert_counters_eq(&shard, &reference);
            }
            // Mutate a handful of cores — epoch bumps nothing reports to
            // the evaluator — and advance time unevenly so some steps cross
            // validity windows.
            for k in 0..=(step % 3) {
                let c = (step * 5 + k * 7) % n;
                if cores[c].executing().is_some() {
                    cores[c].enqueue(QueuedTask {
                        task: TaskId(1000 + step * 10 + k),
                        type_id: TaskTypeId((step + k) % 3),
                        pstate: PState::P2,
                        deadline: now + 6000.0,
                    });
                } else {
                    cores[c].start(ExecutingTask {
                        task: TaskId(500 + step * 10 + k),
                        type_id: TaskTypeId(step % 3),
                        pstate: PState::P1,
                        start: now,
                        deadline: now + 5000.0,
                    });
                }
            }
            now += 0.5 + 150.0 * (step % 4) as f64;
        }
    }

    #[test]
    fn shard_recomputes_closed_validity_windows_at_unchanged_epochs() {
        let s = scenario();
        let cores = busy_cores(&s);
        let mut shard = CandidateEvaluator::default();
        let mut reference = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = view_at(&s, &cores, 1.0, 1);
        assert!(candidates_bit_eq(
            &shard.evaluate_all(&view, &task),
            &reference.evaluate_all(&view, &task)
        ));
        // Jump far past every executing pmf's first impulse with no epoch
        // bump: every prefix's truncation changes, so both evaluators must
        // recompute every busy core — the shard finds them through the
        // validity windows alone.
        let node = s.cluster().core(0).node;
        let raw = s.table().pmf(TaskTypeId(0), node, PState::P1);
        let late_t = raw.min_value() + raw.expectation() * 3.0;
        let late_task = mk_task(&s, late_t);
        let late = view_at(&s, &cores, late_t, 2);
        let stream = shard.evaluate_all(&late, &late_task);
        reference.shard.reset();
        assert!(candidates_bit_eq(
            &stream,
            &reference.evaluate_all(&late, &late_task)
        ));
        assert!(candidates_bit_eq(&stream, &oracle(&late, &late_task)));
        assert_counters_eq(&shard, &reference);
        let (_, misses) = shard.prefix_cache_stats().unwrap();
        let n = s.cluster().total_cores() as u64;
        assert!(misses > n, "the second event must have recomputed");
    }

    #[test]
    fn shard_rebuilds_after_reset() {
        let s = scenario();
        let cores = busy_cores(&s);
        let mut shard = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = view_at(&s, &cores, 1.0, 1);
        let before = shard.evaluate_all(&view, &task);
        shard.reset_cache();
        let mut fresh = CandidateEvaluator::default();
        assert!(candidates_bit_eq(
            &shard.evaluate_all(&view, &task),
            &fresh.evaluate_all(&view, &task)
        ));
        assert_counters_eq(&shard, &fresh);
        assert!(candidates_bit_eq(
            &before,
            &shard.evaluate_all(&view, &task)
        ));
    }

    #[test]
    fn indexed_classes_cover_every_core_with_identical_estimates() {
        let s = scenario();
        let cores = busy_cores(&s);
        let mut ev = CandidateEvaluator::default();
        let task = mk_task(&s, 1.0);
        let view = view_at(&s, &cores, 1.0, 1);
        let mut classes = Vec::new();
        assert!(ev.evaluate_indexed_into(&view, &task, &mut classes));
        let n = s.cluster().total_cores();
        assert_eq!(classes.iter().map(|c| c.members).sum::<usize>(), n);
        // Each class's estimates are bit-identical to the representative's
        // candidates in the oracle's stream.
        let all = oracle(&view, &task);
        for class in &classes {
            assert!(class.any_retained());
            for (pi, est) in class.ests.iter().enumerate() {
                let cand = &all[class.min_core * NUM_PSTATES + pi];
                assert_eq!(cand.core, class.min_core);
                assert!(est.bit_eq(&cand.est));
            }
        }
    }

    #[test]
    fn hand_built_views_group_classes_like_per_core_selection() {
        use crate::heuristics::{
            ll::LightestLoad, mect::MinimumExpectedCompletionTime, met::MinimumExecutionTime,
            olb::OpportunisticLoadBalancing, sq::ShortestQueue, Heuristic,
        };
        let s = scenario();
        let n = s.cluster().total_cores();
        let mut cores = idle_cores(&s);
        for c in (0..n).step_by(3) {
            mutate(&mut cores[c], 0, c % 3, c, 0.0);
            mutate(&mut cores[c], 1, (c + 1) % 3, n + c, 0.0);
        }
        let view = view_at(&s, &cores, 1.0, 1);
        let task = mk_task(&s, 1.0);
        let mut classes = Vec::new();
        assert!(CandidateEvaluator::default().evaluate_indexed_into(&view, &task, &mut classes));
        assert!(classes.len() < n, "idle cores must share classes");
        let stream = oracle(&view, &task);
        let mut heuristics: [Box<dyn Heuristic>; 5] = [
            Box::new(ShortestQueue),
            Box::new(MinimumExpectedCompletionTime),
            Box::new(LightestLoad),
            Box::new(MinimumExecutionTime),
            Box::new(OpportunisticLoadBalancing),
        ];
        for h in &mut heuristics {
            let want = h
                .choose(&task, &view, &stream)
                .map(|i| (stream[i].core, stream[i].pstate));
            let got = h
                .choose_indexed(&task, &view, &classes)
                .map(|(ci, pstate)| (classes[ci].min_core, pstate));
            assert_eq!(got, want, "{}", h.name());
        }
    }

    /// One mutation in the style of `tests/shard_properties.rs`: `op` 0
    /// starts (or enqueues behind the executing task), 1 enqueues on a
    /// busy core, 2 completes and starts the next queued task.
    fn mutate(core: &mut CoreState, op: usize, type_id: usize, id: usize, now: f64) {
        let type_id = TaskTypeId(type_id);
        match op {
            0 if core.executing().is_none() => core.start(ExecutingTask {
                task: TaskId(id),
                type_id,
                pstate: PState::P1,
                start: now,
                deadline: now + 5_000.0,
            }),
            0 | 1 if core.executing().is_some() => core.enqueue(QueuedTask {
                task: TaskId(id),
                type_id,
                pstate: PState::from_index(id % NUM_PSTATES),
                deadline: now + 6_000.0,
            }),
            2 if core.executing().is_some() => {
                if let (_, Some(q)) = core.complete() {
                    core.start(ExecutingTask {
                        task: q.task,
                        type_id: q.type_id,
                        pstate: q.pstate,
                        start: now,
                        deadline: q.deadline,
                    });
                }
            }
            _ => {}
        }
    }

    fn classes_bit_eq(a: &[ClassCandidate], b: &[ClassCandidate]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.min_core == y.min_core
                    && x.depth == y.depth
                    && x.members == y.members
                    && x.retained == y.retained
                    && x.ests.iter().zip(&y.ests).all(|(p, q)| p.bit_eq(q))
            })
    }

    fn saved(ev: &CandidateEvaluator) -> Vec<u8> {
        let mut enc = Encoder::new();
        ev.save_state(&mut enc);
        enc.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Over arbitrary mutation sequences, an evaluator whose decisions
        /// may be shared with the helper pool and one whose every decision
        /// runs on the caller alone emit bit-identical class lists and
        /// candidate streams, count the same kernel calls, classes and
        /// cache lookups, and checkpoint to the same bytes — on the
        /// indexed path and the per-core one.
        #[test]
        fn helpers_never_change_a_bit(
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..64, 0usize..3, 0usize..10), 0..8),
                    0.1f64..300.0,
                ),
                1..10,
            ),
            slack in 100.0f64..4_000.0,
        ) {
            let s = scenario();
            let n = s.cluster().total_cores();
            let mut cores = busy_cores(&s);
            let mut shared = CandidateEvaluator::default();
            let mut alone = CandidateEvaluator::default();
            let (mut shared_classes, mut alone_classes) = (Vec::new(), Vec::new());
            let (mut shared_stream, mut alone_stream) = (Vec::new(), Vec::new());
            let (mut now, mut id) = (0.0, 1_000);
            for (step, (ops, dt)) in steps.iter().enumerate() {
                now += dt;
                for &(pick, op, type_id) in ops {
                    mutate(&mut cores[pick % n], op, type_id, id, now);
                    id += 1;
                }
                let view = view_at(&s, &cores, now, 1 + step);
                let task = Task {
                    id: TaskId(step),
                    type_id: TaskTypeId(step % 10),
                    arrival: now,
                    deadline: now + slack,
                    quantile: 0.5,
                };
                proptest::prop_assert!(shared.evaluate_indexed_into(&view, &task, &mut shared_classes));
                let indexed = crate::pool::without_helpers(|| {
                    alone.evaluate_indexed_into(&view, &task, &mut alone_classes)
                });
                proptest::prop_assert!(indexed);
                proptest::prop_assert!(classes_bit_eq(&shared_classes, &alone_classes));
                shared.evaluate_all_into(&view, &task, &mut shared_stream);
                crate::pool::without_helpers(|| {
                    alone.evaluate_all_into(&view, &task, &mut alone_stream)
                });
                proptest::prop_assert!(candidates_bit_eq(&shared_stream, &alone_stream));
                assert_counters_eq(&shared, &alone);
                proptest::prop_assert_eq!(saved(&shared), saved(&alone));
            }
        }
    }

    #[test]
    fn deeper_pstates_cost_more_time_on_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let all = CandidateEvaluator::default().evaluate_all(&view, &task);
        let (p0, p4) = (all[PState::P0.index()].est, all[PState::P4.index()].est);
        assert!(p4.eet > p0.eet);
        assert!(p4.ect > p0.ect);
        assert!(p4.rho <= p0.rho + 1e-9);
    }

    #[test]
    fn eec_combines_power_and_efficiency() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0);
        let est = estimate(&view, &task, 0, PState::P1);
        let node = s.cluster().node(s.cluster().core(0).node);
        let expected = est.eet * node.power.watts(PState::P1) / node.efficiency;
        assert!((est.eec - expected).abs() < 1e-9);
    }

    #[test]
    fn rho_is_high_with_generous_deadline_on_idle_core() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 60);
        let task = mk_task(&s, 0.0); // deadline = type avg + t_avg: generous
        let est = estimate(&view, &task, 0, PState::P0);
        assert!(est.rho > 0.9, "rho {}", est.rho);
    }

    #[test]
    fn rho_is_zero_for_impossible_deadline() {
        let s = scenario();
        let cores = idle_cores(&s);
        let view = SystemView::new(s.cluster(), s.table(), &cores, 1000.0, 1, 60);
        let mut task = mk_task(&s, 1000.0);
        task.deadline = 1000.5; // far below any execution time
        let est = estimate(&view, &task, 0, PState::P0);
        assert_eq!(est.rho, 0.0);
    }
}
