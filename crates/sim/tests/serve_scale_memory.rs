//! The mega-scale acceptance run: a 10,000-core templated cluster serving
//! 1,000,000 streamed arrivals from the λ-scaled bursty source, under the
//! live-byte tracking allocator from `serve_memory.rs`. Resident memory
//! must plateau after warm-up — it tracks in-flight work (bounded by the
//! cluster and burst depth), not the million-arrival stream length — and
//! the templated topology keeps the fixed footprint O(templates), not
//! O(nodes).
//!
//! The whole file is a single `#[test]` in its own integration binary so no
//! concurrent test pollutes the global allocation accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ecds_cluster::{ClusterGenConfig, PState};
use ecds_sim::{
    Assignment, ImmediateDiscipline, Mapper, Scenario, ServeConfig, ServeSession, SimConfig,
    SystemView,
};
use ecds_workload::{BurstPattern, BurstyArrivalSource, Task, WorkloadConfig};

/// System allocator wrapper tracking live bytes and their high-water mark.
struct LiveBytesAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static HIGH_WATER: AtomicI64 = AtomicI64::new(0);

fn record_alloc(size: usize) {
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        record_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

fn high_water() -> i64 {
    HIGH_WATER.load(Ordering::Relaxed)
}

/// A deliberately cheap mapper (core = id mod cores, fastest P-state): the
/// test measures the serving loop's memory behaviour at cluster scale, not
/// scheduling cost — `perfbench`'s `serve-mid` workload times real decisions.
struct ModuloMapper {
    cores: usize,
}

impl Mapper for ModuloMapper {
    fn assign(&mut self, task: &Task, _view: &SystemView<'_>) -> Option<Assignment> {
        Some(Assignment {
            core: task.id.0 % self.cores,
            pstate: PState::P0,
        })
    }
}

const WARMUP_ARRIVALS: u64 = 100_000;
const TOTAL_ARRIVALS: u64 = 1_000_000;

#[test]
fn ten_thousand_cores_serve_a_million_arrivals_in_bounded_memory() {
    // 2,400 nodes stamped from 8 templates: ≈15k cores expected, and the
    // whole topology + exec table stay O(templates) to build and hold.
    // Bounded retention forbids an energy budget (compaction destroys the
    // exhaustion history a budget check would need).
    let scenario = Scenario::with_configs(
        7,
        ClusterGenConfig::scaled(2_400, 8),
        WorkloadConfig::small_for_tests(),
    )
    .with_sim_config(SimConfig::unconstrained());
    let total_cores = scenario.cluster().total_cores();
    assert!(
        total_cores >= 10_000,
        "scenario must reach the 10⁴-core scale; got {total_cores}"
    );

    // λ scales with the cluster so the mega-cluster sees the paper's
    // subscription level instead of idling at paper-absolute rates.
    let pattern = BurstPattern::scaled_to_cluster(1_000, total_cores);
    let mut source = BurstyArrivalSource::new(
        pattern,
        scenario.workload(),
        scenario.table(),
        scenario.seeds(),
        0,
    );
    let mut mapper = ModuloMapper { cores: total_cores };
    let mut discipline = ImmediateDiscipline::new(&mut mapper);
    let cfg = ServeConfig::streaming(8, 64, TOTAL_ARRIVALS);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        cfg,
        &mut source,
        &mut discipline,
    );

    // Warm-up: grow every retained buffer (event queue, telemetry fold
    // window, per-core energy logs between compactions) to steady state.
    let mut max_resident = 0;
    while session.arrivals_pulled() < WARMUP_ARRIVALS {
        assert!(
            session.step(&mut source, &mut discipline),
            "infinite source must not drain during warm-up"
        );
        max_resident = max_resident.max(session.resident_tasks());
    }
    let warm_high_water = high_water();

    // Serve ten times the warm-up volume: any per-arrival leak would track
    // stream length and blow through the plateau bound.
    while session.step(&mut source, &mut discipline) {
        max_resident = max_resident.max(session.resident_tasks());
    }
    let final_high_water = high_water();

    let summary = session.finish_summary(&discipline);
    assert_eq!(summary.arrivals, TOTAL_ARRIVALS);
    assert_eq!(
        summary.tally.retired, TOTAL_ARRIVALS,
        "every settled task must retire out of resident memory"
    );
    assert!(summary.total_energy.is_finite() && summary.total_energy > 0.0);

    // Resident tasks track in-flight work — bounded by cores plus the
    // burst backlog, far below the million-arrival stream.
    assert!(
        max_resident < 4 * total_cores,
        "resident tasks must stay bounded; peak was {max_resident}"
    );

    // The plateau: deterministic run, so this bound cannot flake.
    let slack = warm_high_water / 2;
    assert!(
        final_high_water <= warm_high_water + slack,
        "live-byte high-water mark grew past the plateau: warm-up {warm_high_water} B, \
         final {final_high_water} B"
    );
}
