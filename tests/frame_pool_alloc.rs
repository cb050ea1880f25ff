//! Steady-state allocation accounting for the explorers' frame slots.
//!
//! The contract: once the first full-depth descent has allocated one
//! frame-body slot per depth, a step of `dpor`, `lazy-dpor`, `dfs` or
//! `caching` allocates **zero** frame bodies. A body is an executor, up
//! to three clock engines (the explorer's own relation and each relation
//! the collector reads) and their prefix accumulators;
//! `Executor::assign_from` / `ClockEngine::assign_from` copy into the
//! slot's buffers instead of cloning afresh, and the accumulators are
//! plain values. This binary installs a counting global allocator and
//! proves the contract end-to-end: exploring thousands of tree edges must
//! cost a near-constant number of allocations (engine setup, index/trace
//! growth, fingerprint-set resizes), not the ~7 heap clones per step an
//! unpooled explorer pays.
//!
//! The whole check lives in one `#[test]` so no concurrently running test
//! can pollute the counter (this is the only test in this binary).

use lazylocks::{
    DfsEnumeration, Dpor, ExploreConfig, Explorer, HbrCaching, LazyDpor, MetricsHandle,
    ProfileHandle,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(
    f: impl FnOnce() -> lazylocks::ExploreStats,
) -> (u64, lazylocks::ExploreStats) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = f();
    (ALLOCS.load(Ordering::Relaxed) - before, stats)
}

#[test]
fn steady_state_steps_allocate_zero_frame_bodies() {
    // Five racy counters: every pair of operations conflicts, so DPOR
    // cannot reduce the tree and the budget below yields tens of
    // thousands of steps. The program is bug-free (buggy leaves allocate
    // a BugReport, which would obscure the frame-body accounting).
    let program = {
        let mut b = lazylocks_model::ProgramBuilder::new("racy-counters");
        let x = b.var("x", 0);
        for i in 0..5 {
            b.thread(format!("T{i}"), |t| {
                t.load(lazylocks_model::Reg(0), x);
                t.add(lazylocks_model::Reg(0), lazylocks_model::Reg(0), 1);
                t.store(x, lazylocks_model::Reg(0));
                t.set(lazylocks_model::Reg(0), 0);
            });
        }
        b.build()
    };
    // The contract must hold with the metrics registry live too: recording
    // is relaxed adds on a pre-sized slab, so instrumentation adds setup
    // allocations (the slab) but nothing per step.
    // ...and with the exploration profiler live: site attribution is
    // relaxed adds on dense slabs that grow to the program's dimensions
    // once, and span tracking uses packed u64 keys, so profiling too
    // must add setup allocations but nothing per step.
    let configs = [
        ("", ExploreConfig::with_limit(3_000)),
        (
            "+metrics",
            ExploreConfig::with_limit(3_000).with_metrics(MetricsHandle::enabled()),
        ),
        (
            "+profile",
            ExploreConfig::with_limit(3_000).with_profile(ProfileHandle::enabled()),
        ),
    ];

    for (suffix, config) in &configs {
        for (label, explorer) in [
            ("dpor", Box::new(Dpor::default()) as Box<dyn Explorer>),
            ("lazy-dpor", Box::new(LazyDpor)),
        ] {
            let label = format!("{label}{suffix}");
            let (allocs, stats) = allocations_during(|| explorer.explore(&program, config));
            // Enough steady-state work that per-step allocations would
            // dominate: each slot reuse is one frame body (one
            // executor + up to two clock engines, NOT heap-cloned).
            assert!(
                stats.frames_pooled > 5_000,
                "{label}: expected a deep run, got {} slot reuses",
                stats.frames_pooled
            );
            // The unpooled engine paid ~7 allocations per edge (executor
            // buffers + clock slab); the pooled engine's total must stay
            // far below one allocation per edge — setup plus amortised
            // growth only.
            assert!(
                allocs < stats.frames_pooled / 4,
                "{label}: {allocs} allocations for {} pooled frames — \
                 steady-state steps must not allocate frame bodies",
                stats.frames_pooled
            );
        }
        // `dfs` and `caching` reuse their slots the same way but do not
        // count `frames_pooled` (it stays 0 for them), so bound their
        // allocations by `events`, the visible steps summed over the
        // explored schedules (30,000 here).
        for (label, explorer) in [
            ("dfs", Box::new(DfsEnumeration) as Box<dyn Explorer>),
            ("caching(mode=lazy)", Box::new(HbrCaching::lazy())),
        ] {
            let label = format!("{label}{suffix}");
            let (allocs, stats) = allocations_during(|| explorer.explore(&program, config));
            assert_eq!(stats.frames_pooled, 0, "{label}");
            assert!(
                stats.events > 20_000,
                "{label}: expected a deep run, got {} events",
                stats.events
            );
            assert!(
                allocs < stats.events / 4,
                "{label}: {allocs} allocations for {} events — \
                 steady-state steps must not allocate frame bodies",
                stats.events
            );
        }
    }
}
