//! Allocation regression test for multi-phase regions.
//!
//! A parallel region builds its work source once and re-arms it in place
//! at every phase boundary, so the number of heap allocations a region
//! makes must not grow with its phase count. A counting global allocator
//! measures a 10-phase and a 1000-phase region on the same pool. On the
//! fused (spin and futex) driver the two counts must agree within
//! [`SLACK`]; the condvar driver dispatches once per phase, so there the
//! growth must merely be the same for every policy.
//!
//! The binary holds a single test so that no other test's allocations
//! land in the shared counter while a region is being measured.

use afs_runtime::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation made by any thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest tolerated difference between the allocation counts of a
/// 1000-phase and a 10-phase region. Per-region allocations (metrics
/// accumulators, the source itself) are the same for both; the slack only
/// absorbs one-off lazy growth inside the pool's bookkeeping.
const SLACK: u64 = 8;

/// Allocations made while one region of `phases` phases runs. Phase
/// lengths shrink and wrap (Gauss-style), so every boundary re-arms for a
/// different iteration count.
fn region_allocs(pool: &Pool, policy: &RuntimeScheduler, phases: usize) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    let m = parallel_phases(
        pool,
        phases,
        |ph| 300 - (ph as u64 * 7) % 290,
        policy,
        |_, i| {
            std::hint::black_box(i);
        },
    );
    let after = ALLOCS.load(Ordering::SeqCst);
    std::hint::black_box(m);
    after - before
}

#[test]
fn region_allocations_do_not_grow_with_phase_count() {
    let policies = [
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::chunk_self(16),
        RuntimeScheduler::adaptive(2),
    ];
    for kind in [BarrierKind::Spin, BarrierKind::Futex, BarrierKind::Condvar] {
        let pool = Pool::builder(2).barrier(kind).build();
        let mut growth = Vec::new();
        for policy in &policies {
            // Warm-up: lets lazily built state (the adaptive source cache,
            // grab-ahead stashes, recorder rings) reach its steady size.
            region_allocs(&pool, policy, 10);
            let short = region_allocs(&pool, policy, 10);
            let long = region_allocs(&pool, policy, 1000);
            if kind != BarrierKind::Condvar {
                // The fused driver: one dispatch, one source, and nothing
                // allocated per phase.
                assert!(
                    long <= short + SLACK,
                    "{} on {kind:?}: 1000 phases made {long} allocations, 10 made {short}",
                    policy.name()
                );
            }
            growth.push((policy.name(), long.saturating_sub(short)));
        }
        // The condvar driver dispatches (and so allocates) once per phase,
        // but that cost is the rendezvous's alone: it must not depend on
        // the policy, i.e. no policy builds a source per phase.
        let (lo, hi) = (
            growth.iter().map(|g| g.1).min().unwrap(),
            growth.iter().map(|g| g.1).max().unwrap(),
        );
        assert!(
            hi - lo <= SLACK,
            "{kind:?}: per-region allocation growth differs across policies: {growth:?}"
        );
    }
}
