//! Heap-allocation regression tests for the run loop. This binary installs
//! a counting global allocator, so it holds nothing else.
//!
//! A tick should allocate only when a buffer grows, not as a matter of
//! course: before the pipeline's stage loop was made allocation-free the
//! serial run loop performed 7.4 (LU) and 6.9 (Radix) heap allocations per
//! node-cycle.

use smtp::{build_system, AppKind, ExperimentConfig, MachineModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide and the test harness runs tests on
/// parallel threads: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Heap allocations per node-cycle over `measured` cycles of the inline
/// engine loop, after `warm_up` cycles in which queues and scratch buffers
/// reach their working size. Each leg ends by exhausting its cycle budget
/// (a structured `Deadlock`, whose one-off diagnosis is counted too).
fn allocations_per_node_cycle(cfg: &ExperimentConfig, warm_up: u64, measured: u64) -> f64 {
    let _guard = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut sys = build_system(cfg);
    sys.run(warm_up)
        .expect_err("workload too small: over during warm-up");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let end = sys.run(warm_up + measured);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    end.expect_err("workload too small: over while measuring");
    assert_eq!(sys.now(), warm_up + measured);
    allocations as f64 / (measured * cfg.nodes as u64) as f64
}

fn point(app: AppKind, nodes: usize, ways: usize, scale: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineModel::SMTp, app, nodes, ways);
    cfg.cpu_ghz = 2.0;
    cfg.scale = scale;
    cfg
}

#[test]
fn busy_pipeline_ticks_do_not_allocate() {
    // One node, four threads, no network: nearly every tick is a busy one.
    let rate = allocations_per_node_cycle(&point(AppKind::Lu, 1, 4, 0.5), 10_000, 30_000);
    assert!(rate < 0.25, "LU: {rate:.3} heap allocations per node-cycle");
}

#[test]
fn memory_stalled_ticks_do_not_allocate() {
    // Sixteen nodes of all-to-all writes: most pipelines sit stalled while
    // handlers, the network and memory work.
    let rate = allocations_per_node_cycle(&point(AppKind::Radix, 16, 2, 0.0625), 5_000, 20_000);
    assert!(
        rate < 0.25,
        "Radix: {rate:.3} heap allocations per node-cycle"
    );
}
