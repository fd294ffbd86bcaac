//! Process-wide helper threads that share one caller's batch of independent
//! items (DESIGN.md §13.5).
//!
//! A mapping decision evaluates every busy equivalence class with its own
//! fused-kernel calls, and no class's result depends on another's. A
//! [`Job`] holds such a batch; [`Job::execute`] posts it to the pool, runs
//! the same claim loop as every helper that joins (one atomic index handing
//! out items, as `run_parallel` does for trials), and returns once every
//! item is done. Each item writes only its own result slot, and the kernel
//! is a pure function of its inputs, so the results are bit-identical
//! whichever thread claimed which item — and whether any helper joined at
//! all.
//!
//! The pool is one process-wide set of at most `available_parallelism() − 1`
//! parked threads, however many evaluators are alive: every evaluator
//! posts into the same queue, and a job seats helpers only on CPUs no other
//! caller is computing on. Helpers start on the first shared job, so a
//! process that never evaluates (or runs on one CPU) starts none. A caller
//! waits only for helpers that hold a claimed item, never for work nobody
//! has claimed: with no helper awake it simply runs every item itself.
//!
//! Helpers own no buffers. A job carries one scratch per helper that may
//! join it, and the caller grows every one of them — and its own — to the
//! batch's largest kernel call before posting, on its own thread. Which
//! thread computes which item then never decides whether an allocation
//! happens, so a warm job allocates nothing however the items fall.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

use ecds_pmf::PmfScratch;

/// A batch of independent items that any thread may compute, each into its
/// own result slot inside the batch.
pub(crate) trait Batch: Send + Sync + 'static {
    /// Number of items.
    fn item_count(&self) -> usize;
    /// The largest `n × m` kernel call any item makes.
    fn products(&self) -> usize;
    /// Computes item `item` in `scratch`. Must write only that item's
    /// result, so items may run concurrently and in any order.
    fn compute_item(&self, item: usize, scratch: &mut PmfScratch);
}

/// Most helpers one job takes: eight participants leave each about 17 of
/// a 140-class decision, and every further one would add a scratch to
/// every evaluator for little gain.
const MAX_HELPERS_PER_JOB: usize = 7;

type Payload = Box<dyn Any + Send>;

/// What helpers and the caller share: the batch and its claim state.
struct Shared<B> {
    batch: RwLock<B>,
    /// Next unclaimed item; pushed past the end once a participant panics.
    next: AtomicUsize,
    /// Item count of the posted batch.
    items: AtomicUsize,
    /// Kernel calls the helpers made for the current batch.
    helper_calls: AtomicU64,
    /// The first panic payload raised by any participant.
    panic: Mutex<Option<Payload>>,
    /// One scratch per helper that may join, grown by the caller.
    scratches: [Mutex<PmfScratch>; MAX_HELPERS_PER_JOB],
}

/// The pool's view of a posted job, independent of its batch type.
trait Claim: Send + Sync {
    /// Claims the next unclaimed item, or `None` when every item has
    /// been claimed.
    fn claim(&self) -> Option<usize>;
    /// Computes item `first` and every further item this thread can
    /// claim, as the job's `seat`-th helper: its kernel calls are booked
    /// on the job.
    fn help_from(&self, seat: usize, first: usize);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<B: Batch> Shared<B> {
    /// One item per claim: an item is a class's five kernel calls (tens
    /// of µs), so the claim's atomic RMW is noise, and a caller never waits
    /// on more than the one item each helper is computing.
    fn claim_item(&self) -> Option<usize> {
        let item = self.next.fetch_add(1, Ordering::Relaxed);
        (item < self.items.load(Ordering::Relaxed)).then_some(item)
    }

    /// The claim loop every participant runs, starting with item `first`
    /// (if any). A panicking item stops every participant from claiming
    /// further and leaves its payload for the caller to re-raise.
    fn claim_loop(&self, mut first: Option<usize>, scratch: &mut PmfScratch) {
        let batch = self.batch.read().unwrap_or_else(PoisonError::into_inner);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while let Some(item) = first {
                batch.compute_item(item, scratch);
                first = self.claim_item();
            }
        }));
        if let Err(payload) = outcome {
            self.next.store(batch.item_count(), Ordering::Relaxed);
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

impl<B: Batch> Claim for Shared<B> {
    fn claim(&self) -> Option<usize> {
        self.claim_item()
    }

    fn help_from(&self, seat: usize, first: usize) {
        let scratch = &mut *lock(&self.scratches[seat]);
        let before = scratch.kernel_calls();
        self.claim_loop(Some(first), scratch);
        self.helper_calls
            .fetch_add(scratch.kernel_calls() - before, Ordering::Relaxed);
    }
}

/// A reusable job: the batch the caller refills before each
/// [`Job::execute`], shared with whichever helpers join.
pub(crate) struct Job<B> {
    shared: Arc<Shared<B>>,
    /// The kernel-call size every participant's scratch holds, once a
    /// batch has been shared.
    fit: usize,
}

impl<B: Batch + Default> Default for Job<B> {
    fn default() -> Self {
        let shared = Arc::new(Shared {
            batch: RwLock::new(B::default()),
            next: AtomicUsize::new(0),
            items: AtomicUsize::new(0),
            helper_calls: AtomicU64::new(0),
            panic: Mutex::new(None),
            scratches: std::array::from_fn(|_| Mutex::new(PmfScratch::new())),
        });
        Self { shared, fit: 0 }
    }
}

impl<B> fmt::Debug for Job<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job").finish_non_exhaustive()
    }
}

impl<B: Batch> Job<B> {
    /// The batch, for refilling. No helper is inside a job between two
    /// [`Job::execute`] calls, so the write lock is uncontended.
    pub fn batch_mut(&mut self) -> RwLockWriteGuard<'_, B> {
        self.shared
            .batch
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Computes every item of the batch, with whichever helpers are idle
    /// when `share` holds, and returns the kernel calls the helpers made
    /// (the caller's own calls are already on `scratch`). Returns only
    /// once every item is done and no helper is inside the job.
    ///
    /// # Panics
    ///
    /// Re-raises, with its original payload, the first panic any
    /// participant hit while computing an item.
    pub fn execute(&mut self, scratch: &mut PmfScratch, share: bool) -> u64 {
        let shared = &self.shared;
        let (items, products) = {
            let batch = shared.batch.read().unwrap_or_else(PoisonError::into_inner);
            (batch.item_count(), batch.products())
        };
        let started = if share && helpers_allowed() {
            POOL.helpers()
        } else {
            0
        };
        let helpers = started.min(MAX_HELPERS_PER_JOB);
        // A caller alone computes every item in order, so its scratch
        // grows deterministically; only a shared batch needs reserving.
        if helpers > 0 && products > self.fit {
            scratch.reserve_products(products);
            for seat in &shared.scratches[..helpers] {
                lock(seat).reserve_products(products);
            }
            self.fit = products;
        }
        shared.items.store(items, Ordering::Relaxed);
        shared.next.store(0, Ordering::Relaxed);
        shared.helper_calls.store(0, Ordering::Relaxed);
        // Seat helpers only on CPUs no caller is computing on: under
        // `experiments --threads N` the callers already fill the machine,
        // and a woken helper would only take turns with them.
        let callers = Caller::enter();
        let idle_cpus = (started + 1).saturating_sub(callers.count);
        let seats = helpers.min(items.saturating_sub(1)).min(idle_cpus);
        let posted = (seats > 0).then(|| POOL.post(Arc::clone(shared) as Arc<dyn Claim>, seats));
        let first = shared.claim_item();
        shared.claim_loop(first, scratch);
        if let Some(ticket) = posted {
            POOL.withdraw(ticket);
        }
        if let Some(payload) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        shared.helper_calls.load(Ordering::Relaxed)
    }

    /// Read access to the batch and its results after
    /// [`Job::execute`].
    pub fn batch(&self) -> RwLockReadGuard<'_, B> {
        self.shared
            .batch
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Callers inside [`Job::execute`] process-wide.
static CALLERS: AtomicUsize = AtomicUsize::new(0);

/// One caller's presence in [`CALLERS`], for the length of an execute.
struct Caller {
    /// Callers inside, this one included, when it entered.
    count: usize,
}

impl Caller {
    fn enter() -> Self {
        Self {
            count: CALLERS.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        CALLERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One job in the pool's queue.
struct Posted {
    ticket: u64,
    /// `None` once the caller has withdrawn it: no helper may enter.
    job: Option<Arc<dyn Claim>>,
    /// Seats (helper scratches) the job offers.
    seats: usize,
    /// Helpers that have entered so far; the next one takes this seat.
    entered: usize,
    /// Helpers currently inside, each holding a claimed item or
    /// about to find none left.
    inside: usize,
}

struct PoolState {
    /// Helpers that have started and reached their first park.
    parked: usize,
    next_ticket: u64,
    posted: Vec<Posted>,
}

/// The process-wide helper pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Helpers park here while no posted job has unclaimed items.
    work: Condvar,
    /// Callers wait here for the helpers inside their withdrawn job, and
    /// the first caller for the helpers it started.
    drained: Condvar,
}

/// Helper threads started (once, on the first shared job).
static HELPERS: OnceLock<usize> = OnceLock::new();

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        parked: 0,
        next_ticket: 0,
        posted: Vec::new(),
    }),
    work: Condvar::new(),
    drained: Condvar::new(),
};

impl Pool {
    /// Helper threads this process runs ([`helpers_wanted`]), started on
    /// first call.
    fn helpers(&'static self) -> usize {
        *HELPERS.get_or_init(|| {
            let want = helpers_wanted();
            // A helper the OS refuses is one fewer helper, never an error:
            // callers never depend on one joining.
            let started = (0..want)
                .filter(|_| {
                    std::thread::Builder::new()
                        .spawn(move || self.helper_main())
                        .is_ok()
                })
                .count();
            // Wait until every helper has parked, so the allocations of
            // starting a thread all happen inside this first call.
            let mut state = lock(&self.state);
            while state.parked < started {
                state = self
                    .drained
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            started
        })
    }

    /// Queues `job`, which seats up to `seats` helpers, and wakes as many
    /// parked ones.
    fn post(&self, job: Arc<dyn Claim>, seats: usize) -> u64 {
        let mut state = lock(&self.state);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.posted.push(Posted {
            ticket,
            job: Some(job),
            seats,
            entered: 0,
            inside: 0,
        });
        for _ in 0..seats {
            self.work.notify_one();
        }
        ticket
    }

    /// Closes the job to new helpers, waits for those inside to leave, and
    /// drops it from the queue. On return the pool holds no reference to
    /// the job.
    fn withdraw(&self, ticket: u64) {
        let mut state = lock(&self.state);
        let at = |state: &PoolState| state.posted.iter().position(|p| p.ticket == ticket);
        if let Some(i) = at(&state) {
            state.posted[i].job = None;
        }
        while let Some(i) = at(&state) {
            if state.posted[i].inside == 0 {
                state.posted.swap_remove(i);
                break;
            }
            state = self
                .drained
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A helper's life: claim an item of any posted job under the queue
    /// lock (so a caller only ever waits on claimed work), compute it and
    /// every item after it, leave, repeat; park when nothing is left.
    fn helper_main(&self) {
        let mut state = lock(&self.state);
        state.parked += 1;
        self.drained.notify_all();
        loop {
            let claimed = state.posted.iter_mut().find_map(|p| {
                let job = p.job.as_ref().filter(|_| p.entered < p.seats)?;
                let first = job.claim()?;
                let seat = p.entered;
                p.entered += 1;
                p.inside += 1;
                Some((p.ticket, Arc::clone(job), seat, first))
            });
            let Some((ticket, job, seat, first)) = claimed else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(state);
            job.help_from(seat, first);
            drop(job);
            state = lock(&self.state);
            if let Some(p) = state.posted.iter_mut().find(|p| p.ticket == ticket) {
                p.inside -= 1;
                if p.inside == 0 {
                    self.drained.notify_all();
                }
            }
        }
    }
}

/// Helper threads to start: one fewer than the CPUs the process may use.
#[cfg(not(test))]
fn helpers_wanted() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// The unit-test build starts a full job's worth of helpers whatever the
/// CPU count, so its tests cover jobs with several helpers on any host.
#[cfg(test)]
fn helpers_wanted() -> usize {
    MAX_HELPERS_PER_JOB
}

#[cfg(not(test))]
fn helpers_allowed() -> bool {
    true
}

#[cfg(test)]
thread_local! {
    static WITHHELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn helpers_allowed() -> bool {
    !WITHHELD.with(std::cell::Cell::get)
}

/// Runs `f` with every [`Job::execute`] on this thread computing its batch
/// alone, as on a one-CPU host.
#[cfg(test)]
pub(crate) fn without_helpers<R>(f: impl FnOnce() -> R) -> R {
    WITHHELD.with(|w| w.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    WITHHELD.with(|w| w.set(false));
    out.unwrap_or_else(|payload| resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Items that record who computed them; item `panic_at` panics.
    struct Probe {
        done: Vec<AtomicU64>,
        by: Vec<Mutex<Option<ThreadId>>>,
        panic_at: Option<usize>,
        /// Every item waits until this many helpers have computed an item,
        /// or until the participants have slept `patience` ms in all.
        wait_for_helpers: usize,
        patience: AtomicU32,
        /// The helpers (threads other than the caller) that computed an
        /// item.
        helpers: Mutex<Vec<ThreadId>>,
        /// The thread that executes the job.
        caller: ThreadId,
    }

    impl Probe {
        fn new(n: usize) -> Self {
            Self {
                done: (0..n).map(|_| AtomicU64::new(0)).collect(),
                by: (0..n).map(|_| Mutex::new(None)).collect(),
                panic_at: None,
                wait_for_helpers: 0,
                helpers: Mutex::new(Vec::new()),
                patience: AtomicU32::new(200),
                caller: std::thread::current().id(),
            }
        }

        fn helpers_seen(&self) -> usize {
            lock(&self.helpers).len()
        }
    }

    impl Default for Probe {
        fn default() -> Self {
            Self::new(0)
        }
    }

    impl Batch for Probe {
        fn item_count(&self) -> usize {
            self.done.len()
        }

        fn products(&self) -> usize {
            0
        }

        fn compute_item(&self, item: usize, _scratch: &mut PmfScratch) {
            assert!(self.panic_at != Some(item), "item {item} exploded");
            let me = std::thread::current().id();
            *lock(&self.by[item]) = Some(me);
            let mut helpers = lock(&self.helpers);
            if me != self.caller && !helpers.contains(&me) {
                helpers.push(me);
            }
            drop(helpers);
            // Parked helpers need a moment to wake and claim an item.
            while self.helpers_seen() < self.wait_for_helpers
                && self
                    .patience
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |p| p.checked_sub(1))
                    .is_ok()
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.done[item].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn job_of(probe: Probe) -> Job<Probe> {
        let mut job = Job::<Probe>::default();
        *job.batch_mut() = probe;
        job
    }

    #[test]
    fn every_item_runs_exactly_once_and_the_job_is_reusable() {
        let mut job = job_of(Probe::new(37));
        let mut scratch = PmfScratch::new();
        for round in 1..=3 {
            job.execute(&mut scratch, true);
            let batch = job.batch();
            for (i, d) in batch.done.iter().enumerate() {
                assert_eq!(d.load(Ordering::SeqCst), round, "item {i}");
            }
        }
        assert_eq!(POOL.helpers(), MAX_HELPERS_PER_JOB);
    }

    #[test]
    fn a_withheld_caller_computes_every_item_itself() {
        let mut job = job_of(Probe::new(64));
        let mut scratch = PmfScratch::new();
        without_helpers(|| job.execute(&mut scratch, true));
        let me = std::thread::current().id();
        let batch = job.batch();
        assert!(batch.by.iter().all(|t| *lock(t) == Some(me)));
        assert_eq!(batch.helpers_seen(), 0);
    }

    /// Runs 64-item jobs whose items wait for `helpers` helpers until one
    /// job has that many. Concurrent tests are callers too and may fill
    /// seats or keep helpers busy, so some attempt finds them free.
    fn some_job_seats(helpers: usize) -> bool {
        (0..100).any(|_| {
            let mut probe = Probe::new(64);
            probe.wait_for_helpers = helpers;
            let mut job = job_of(probe);
            job.execute(&mut PmfScratch::new(), true);
            let batch = job.batch();
            assert!(batch.done.iter().all(|d| d.load(Ordering::SeqCst) == 1));
            batch.helpers_seen() >= helpers
        })
    }

    #[test]
    fn idle_helpers_join_a_posted_job() {
        assert!(some_job_seats(1), "no helper computed an item in 100 jobs");
    }

    #[test]
    fn several_helpers_share_one_job() {
        assert!(
            some_job_seats(2),
            "no job had two helpers computing items in 100 jobs"
        );
    }

    #[test]
    fn a_panicking_item_re_raises_on_the_caller_and_the_pool_survives() {
        for panic_at in [0, 13, 63] {
            let mut probe = Probe::new(64);
            probe.panic_at = Some(panic_at);
            let mut job = job_of(probe);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                job.execute(&mut PmfScratch::new(), true)
            }))
            .expect_err("the panic must reach the caller");
            let message = caught
                .downcast_ref::<String>()
                .cloned()
                .expect("the item's own payload");
            assert_eq!(message, format!("item {panic_at} exploded"));
            // The job and the pool stay usable.
            job.batch_mut().panic_at = None;
            job.execute(&mut PmfScratch::new(), true);
        }
    }
}
