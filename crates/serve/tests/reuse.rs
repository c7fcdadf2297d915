//! Batch-reuse differential tests.
//!
//! The dispatcher keeps its last batch and reloads it in place, and the
//! phases of a batch share one re-armable source per kind. That is sound
//! only if every phase still hands out exactly its own loop. Back-to-back
//! batches on one manual server mix every `ServePolicy`, 1–3 phases and
//! loops of 0, fewer than P, and up to 1024 iterations; each tenant runs
//! one policy. Every request must run exactly `n × phases` iterations —
//! checked both through the tenant iteration counters and through the
//! `Touch` workset, whose slot `s` must count exactly the request phases
//! with `n > s` — and must retire exactly once. A fault-injected panic
//! fails only its own request and leaves the next batch, which re-arms
//! the half-drained source, clean; a supervisor pool swap discards the
//! spare batch instead of reusing it.

use afs_runtime::{FaultPlan, Pool};
use afs_serve::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const P: usize = 2;

/// Workset slots per tenant: no loop below is longer, so slots never alias.
const SLOTS: usize = 1024;

/// One policy per tenant, in tenant order.
const POLICIES: [ServePolicy; 6] = [
    ServePolicy::Afs,
    ServePolicy::AfsGrabAhead { ahead: 4 },
    ServePolicy::SelfSched,
    ServePolicy::Css { chunk: 3 },
    ServePolicy::Static,
    ServePolicy::Adaptive,
];

/// Loop lengths: empty, shorter than P, uneven, and the workset size.
const SIZES: [u64; 10] = [0, 1, 2, 3, 7, 64, 100, 257, 1000, SLOTS as u64];

/// Tenant of the fault-injected request (past the policy tenants).
const FAULT_TENANT: usize = POLICIES.len();

/// The injected panic's coordinates: phase 1 of a request, at an
/// iteration only the faulting request's loop reaches.
const FAULT_PHASE: usize = 1;
const FAULT_ITER: u64 = 5000;

/// SplitMix64: a seeded stream for the request mix.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// What one tenant should have run: total iterations and, per workset
/// slot, the number of request phases that touched it.
struct Expected {
    iters: Vec<u64>,
    workset: Vec<Vec<u64>>,
    ids: HashSet<u64>,
    admitted: u64,
}

impl Expected {
    fn new() -> Self {
        Expected {
            iters: vec![0; POLICIES.len()],
            workset: vec![vec![0; SLOTS]; POLICIES.len()],
            ids: HashSet::new(),
            admitted: 0,
        }
    }

    fn book(&mut self, tenant: usize, n: u64, phases: u32) {
        self.iters[tenant] += n * phases as u64;
        for slot in &mut self.workset[tenant][..n as usize] {
            *slot += phases as u64;
        }
        self.admitted += 1;
    }
}

fn request(tenant: usize, n: u64, phases: u32) -> LoopRequest {
    LoopRequest {
        tenant,
        kernel: ServeKernel::Touch,
        n,
        phases,
        policy: POLICIES.get(tenant).copied().unwrap_or(ServePolicy::Afs),
        deadline: None,
    }
}

/// Admits `reqs`, then runs them as one batch and checks that exactly
/// their ids ran, each for the first time.
fn run_batch(server: &LoopServer, exp: &mut Expected, reqs: &[LoopRequest]) {
    let mut admitted = HashSet::new();
    for r in reqs {
        match server.admit(r.clone()) {
            Admit::Accepted { id } => admitted.insert(id),
            Admit::Shed(reason) => panic!("request shed: {reason:?}"),
        };
        if r.tenant < POLICIES.len() {
            exp.book(r.tenant, r.n, r.phases);
        }
    }
    assert_eq!(server.pump(), reqs.len());
    let ran: HashSet<u64> = server
        .dispatch_next()
        .into_iter()
        .map(|(_, id)| id)
        .collect();
    assert_eq!(ran, admitted, "the batch ran exactly the staged requests");
    for id in ran {
        assert!(exp.ids.insert(id), "request {id} dispatched twice");
    }
}

/// A batch of 1–16 requests, each from a random policy tenant.
fn random_batch(rng: &mut Rng) -> Vec<LoopRequest> {
    (0..1 + rng.below(16))
        .map(|_| {
            let tenant = rng.below(POLICIES.len() as u64) as usize;
            let n = SIZES[rng.below(SIZES.len() as u64) as usize];
            request(tenant, n, 1 + rng.below(3) as u32)
        })
        .collect()
}

/// Checks every policy tenant's iteration counter and workset against
/// what it was booked for.
fn check_work(server: &LoopServer, exp: &Expected) {
    let snap = server.serve_snapshot();
    for (t, policy) in POLICIES.iter().enumerate() {
        assert_eq!(
            snap.tenants[t].iters,
            exp.iters[t],
            "{}: iteration counter",
            policy.label()
        );
        let got = server.workset(t);
        assert_eq!(
            got[..SLOTS],
            exp.workset[t][..],
            "{}: workset",
            policy.label()
        );
    }
}

#[test]
fn reused_batches_run_every_request_exactly_once() {
    let pool = Pool::builder(P)
        .faults(
            FaultPlan::new(11)
                .with_panic_at(0, FAULT_PHASE, FAULT_ITER)
                .with_panic_at(1, FAULT_PHASE, FAULT_ITER),
        )
        .build();
    let mut builder = LoopServer::builder(Arc::new(pool)).discipline(Discipline::Batch {
        max_requests: 16,
        max_iters: 1 << 20,
    });
    for policy in POLICIES {
        builder = builder.tenant_spec(TenantSpec::new(policy.label()).workset_slots(SLOTS));
    }
    let server = builder.tenant("fault").manual().build();
    let mut rng = Rng(2024);
    let mut exp = Expected::new();
    for _ in 0..40 {
        run_batch(&server, &mut exp, &random_batch(&mut rng));
        check_work(&server, &exp);
    }
    // The faulting request is the batch's only AFS-kind unit, so nothing
    // re-arms the AFS source after its last phase panics: the source
    // (queue words, grab-ahead stash) is left half-drained for the next
    // batch to re-arm. Its batchmates run on the other source kinds.
    let mut faulty: Vec<LoopRequest> = [2, 3, 4, 2, 4]
        .iter()
        .map(|&t| request(t, SIZES[rng.below(SIZES.len() as u64) as usize], 2))
        .collect();
    faulty.push(LoopRequest {
        policy: ServePolicy::AfsGrabAhead { ahead: 8 },
        ..request(FAULT_TENANT, 8192, 2)
    });
    run_batch(&server, &mut exp, &faulty);
    let snap = server.serve_snapshot();
    assert_eq!(snap.failed, 1, "exactly the poisoned request fails");
    assert_eq!(snap.tenants[FAULT_TENANT].failed, 1);
    check_work(&server, &exp);
    for _ in 0..40 {
        run_batch(&server, &mut exp, &random_batch(&mut rng));
        check_work(&server, &exp);
    }
    let ledger = server.shutdown();
    assert_eq!(ledger.admitted, exp.admitted + 1);
    assert_eq!(
        ledger.completed, exp.admitted,
        "every clean request completed"
    );
    assert_eq!(ledger.failed, 1);
    assert_eq!(ledger.timed_out + ledger.expired + ledger.shed_total(), 0);
    for (t, tenant) in ledger.tenants.iter().enumerate().take(POLICIES.len()) {
        assert_eq!(tenant.failed, 0, "tenant {t}");
        assert_eq!(
            tenant.sojourn_ns.samples, tenant.completed,
            "tenant {t}: one completion stamp per request"
        );
    }
}

/// The spare batch belongs to the pool it was built for. After the
/// supervisor swaps pools, the next dispatch must build a fresh batch on
/// the replacement: its work lands in the new pool's counters, and the
/// retired pool is freed instead of being kept alive by the spare.
#[test]
fn a_pool_swap_discards_the_spare_batch() {
    let wounded = Arc::new(
        Pool::builder(P)
            .faults(
                FaultPlan::new(5)
                    .with_panic_at(0, 0, FAULT_ITER)
                    .with_panic_at(1, 0, FAULT_ITER),
            )
            .build(),
    );
    let retired = Arc::downgrade(&wounded);
    let server = LoopServer::builder(wounded)
        .tenant_spec(TenantSpec::new("t").workset_slots(SLOTS))
        .discipline(Discipline::Batch {
            max_requests: 16,
            max_iters: 1 << 20,
        })
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(1))
                .initial_backoff(Duration::from_millis(1))
                .failure_threshold(1),
            |_| Arc::new(Pool::new(P)),
        )
        .manual()
        .build();
    // A clean batch, then a poisoned one: both leave the spare on the
    // wounded pool, and the failure earns a restart.
    for n in [512, 8192] {
        assert!(server.admit(request(0, n, 1)).is_accepted());
        server.pump();
        assert_eq!(server.dispatch_next().len(), 1);
    }
    assert_eq!(server.serve_snapshot().failed, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.supervisor_restarts() == 0 {
        assert!(Instant::now() < deadline, "supervisor never restarted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let replacement = server.pool();
    for _ in 0..4 {
        assert!(server.admit(request(0, 300, 2)).is_accepted());
    }
    server.pump();
    assert_eq!(server.dispatch_next().len(), 4);
    assert_eq!(
        replacement.metrics().snapshot().totals().iters,
        4 * 300 * 2,
        "the batch after the swap ran on the replacement pool"
    );
    assert!(
        retired.upgrade().is_none(),
        "the spare batch still holds the retired pool"
    );
    let ledger = server.shutdown();
    assert_eq!((ledger.completed, ledger.failed), (5, 1));
}
