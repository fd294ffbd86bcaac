//! The paper-scale execution-time table's resident heap, measured under a
//! live-byte tracking allocator (the machinery of
//! `crates/sim/tests/serve_memory.rs`). The table stores each (type,
//! template) base-state pmf once and derives the deeper P-states on read,
//! so its 100 × 8 cells hold about 0.3 MiB of impulses; storing all five
//! P-states as separate pmfs took about 1.6 MiB.
//!
//! The whole file is a single `#[test]` in its own integration binary so no
//! concurrent test pollutes the global allocation accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ecds_cluster::{generate_cluster, ClusterGenConfig};
use ecds_pmf::SeedDerive;
use ecds_workload::{ExecTable, WorkloadConfig};

/// System allocator wrapper that tracks live bytes.
struct LiveBytesAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

/// The bound: the arena (800 cells × ≤ 24 impulses × 16 B ≈ 300 KiB)
/// plus the cached expectations, with room to spare — and a third of
/// what the five-pmfs-per-cell table held.
const MAX_TABLE_BYTES: i64 = 512 * 1024;

#[test]
fn paper_table_holds_at_most_512_kib_of_heap() {
    let seeds = SeedDerive::new(1353);
    let cluster = generate_cluster(&ClusterGenConfig::paper(), &seeds);
    let cfg = WorkloadConfig::paper();
    let before = LIVE.load(Ordering::Relaxed);
    let table = ExecTable::generate(&cfg, &cluster, &seeds);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(table.num_types() * table.num_templates(), 800);
    assert!(
        held <= MAX_TABLE_BYTES,
        "the paper table holds {held} B of heap, more than {MAX_TABLE_BYTES} B"
    );
    eprintln!("paper table: {held} B of heap");
}
