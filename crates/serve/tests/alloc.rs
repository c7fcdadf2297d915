//! Allocation regression test for the fused batch driver.
//!
//! The dispatcher keeps its last batch and reloads it in place, and a
//! batch holds one re-armable work source per kind instead of building a
//! source per request phase. So, in steady state, what a `dispatch_next`
//! allocates must not depend on how many phases its requests have. A
//! counting global allocator measures a batch of 16 four-phase AFS
//! requests and a batch of 16 one-phase ones on the same manual server;
//! the two counts must agree within [`SLACK`]. Building a source per
//! phase costs about six allocations per extra phase, i.e. ~290 more for
//! the four-phase batch.
//!
//! The binary holds a single test so that no other test's allocations
//! land in the shared counter while a batch is being measured.

use afs_runtime::Pool;
use afs_serve::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Largest tolerated difference between the allocation counts of the
/// four-phase and the one-phase batch. Per-dispatch allocations (the
/// returned id vector, the pool's job closure) are the same for both; the
/// slack only absorbs one-off lazy growth inside the pool's bookkeeping.
const SLACK: u64 = 4;

/// Requests per batch: fills `Batch { max_requests: 16, .. }` exactly.
const REQS: usize = 16;

/// Admits and stages one batch of [`REQS`] `phases`-phase AFS requests,
/// then returns the allocations made by the `dispatch_next` that runs it.
fn batch_allocs(server: &LoopServer, phases: u32) -> u64 {
    for _ in 0..REQS {
        let verdict = server.admit(LoopRequest {
            tenant: 0,
            kernel: ServeKernel::Touch,
            n: 64,
            phases,
            policy: ServePolicy::Afs,
            deadline: None,
        });
        assert!(verdict.is_accepted());
    }
    assert_eq!(server.pump(), REQS);
    let before = ALLOCS.load(Ordering::SeqCst);
    let ran = server.dispatch_next();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(ran.len(), REQS, "the whole stage fuses into one batch");
    drop(ran);
    after - before
}

#[test]
fn batch_allocations_do_not_grow_with_phase_count() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .discipline(Discipline::Batch {
            max_requests: REQS,
            max_iters: 4096,
        })
        .manual()
        .build();
    // Warm-up: lets the reused batch's buffers, the admission histograms
    // and the pool's lazily built state reach their steady size.
    for _ in 0..4 {
        batch_allocs(&server, 4);
        batch_allocs(&server, 1);
    }
    let mut pairs = Vec::new();
    for _ in 0..3 {
        let four = batch_allocs(&server, 4);
        let one = batch_allocs(&server, 1);
        pairs.push((four, one));
    }
    for &(four, one) in &pairs {
        assert!(
            four.abs_diff(one) <= SLACK,
            "a batch of {REQS} four-phase requests made {four} allocations, \
             one of {REQS} one-phase requests made {one} (all pairs: {pairs:?})"
        );
    }
    let ledger = server.shutdown();
    assert_eq!(ledger.completed, ledger.admitted);
    assert_eq!(ledger.failed, 0);
}
