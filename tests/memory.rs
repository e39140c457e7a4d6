//! Teardown hygiene: repeated in-process pod runs must hold live heap
//! memory flat.
//!
//! The simulator's teardown sweep ([`ustore_sim::Sim::teardown`]) exists
//! so that `Rc` cycles between the network, RPC nodes, client mounts and
//! their scheduled timers are broken when a run ends. Without it, every
//! `repro` invocation that builds several pods in one process (perf and
//! slo build five) would leak a whole deployment per run. This test pins
//! the sweep down with a live-byte-counting global allocator: after a
//! warm-up run, four more identical runs must not grow the live heap.
//!
//! This file is its own test binary on purpose — a `#[global_allocator]`
//! is process-wide, and the single test keeps the counter honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ustore_bench::podscale::{run_podscale, PodConfig, RunOpts};

/// Delegates to the system allocator while tracking net live bytes.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Runs `f` repeatedly and asserts the live heap stays flat run-over-run.
///
/// The first call is a warm-up (lazy statics, thread-local scratch, the
/// test harness's own buffers); subsequent calls must each return the
/// heap to within `tolerance` bytes of the post-warm-up baseline. A
/// leaked deployment would show up as megabytes per run.
fn assert_flat(label: &str, tolerance: i64, mut f: impl FnMut()) {
    f();
    let baseline = live();
    for round in 0..4 {
        f();
        let now = live();
        assert!(
            now - baseline <= tolerance,
            "{label}: live heap grew {} bytes over {} run(s) (baseline {baseline}, \
             tolerance {tolerance}) — a torn-down pod is still reachable",
            now - baseline,
            round + 1,
        );
    }
}

#[test]
fn repeated_pod_runs_hold_live_memory_flat() {
    let cfg = PodConfig::tiny();
    // Single-world engine: the classic path relies purely on the
    // Sim::teardown sweep to break the deployment's Rc cycles.
    assert_flat("classic tiny pod", 256 * 1024, || {
        let run = run_podscale(41, &cfg, &RunOpts::default());
        assert!(run.writes_ok > 0, "workload served");
    });
    // Sharded engine: per-world sims are torn down by their executor
    // threads; the join must not strand world state either.
    assert_flat("sharded tiny pod", 256 * 1024, || {
        let run = run_podscale(42, &cfg, &RunOpts::sharded(2));
        assert!(run.writes_ok > 0, "workload served");
    });
    // The partitioned+leased shape adds partition coordinator groups and
    // the client lease map — those must be swept too.
    let leased = PodConfig::tiny().partitioned();
    assert_flat("partitioned leased tiny pod", 256 * 1024, || {
        let run = run_podscale(43, &leased, &RunOpts::sharded(2));
        assert!(run.writes_ok > 0, "workload served");
    });
}
