//! Parallel loop execution: `parallel_for` and multi-phase regions.
//!
//! # Panic safety
//!
//! Every loop body runs under `catch_unwind`: a panicking iteration marks
//! the region failed (first panic wins) but never tears down the pool. The
//! panicking worker itself survives — it resumes grabbing right after the
//! poisoned iteration — and what happens to the *remaining* iterations is
//! the pool's [`crate::fault::PanicPolicy`]: `Drain` (default) executes
//! every non-panicking iteration exactly once; `SkipRemaining` stops
//! grabbing new chunks and skips later phases. Either way every worker
//! still arrives at every barrier generation, so the rendezvous can never
//! deadlock, and the [`crate::fault::PhaseError`] — worker id, phase,
//! payload — comes back from [`try_parallel_for`] / [`try_parallel_phases`]
//! (the non-`try` forms re-raise it via `resume_unwind`).

use crate::adapt::{AdaptController, Tune};
use crate::fault::{FaultPlan, PanicPolicy, PhaseError};
use crate::pool::{BarrierKind, Pool};
use crate::source::{AfsSource, FetchAddSource, LockedSource, StaticSource, WorkSource};
use crate::source_le::{AfsLeSource, LeHistory};
use crate::sync::Mutex;
use afs_core::metrics::LoopMetrics;
use afs_core::policy::{Grab, QueueTopology, Scheduler};
use afs_core::schedulers::affinity::KParam;
use afs_metrics::{MetricsRegistry, WorkerCounters};
use afs_trace::{EventKind, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A scheduling policy usable by the runtime.
///
/// Most policies wrap the corresponding `afs-core` scheduler; AFS and STATIC
/// get dedicated concurrent implementations (per-worker queues and a
/// lock-free partition respectively) because avoiding a shared lock is their
/// defining property.
pub struct RuntimeScheduler {
    kind: Kind,
}

enum Kind {
    /// Drive any core scheduler under its (single) queue lock.
    Locked(Arc<dyn Scheduler>),
    /// A strictly-monotone central counter (SS and fixed-size chunking):
    /// one `fetch_add` per grab, no lock.
    FetchAdd { chunk: u64 },
    /// Distributed AFS; `ahead` local chunks are claimed per CAS (1 =
    /// plain AFS, see `AfsSource::with_grab_ahead`).
    Afs { k: KParam, ahead: usize },
    /// Distributed AFS, "last executed" assignment (§4.3).
    AfsLe {
        k: KParam,
        history: std::sync::Arc<LeHistory>,
    },
    /// Distributed AFS whose subdivision k and grab-ahead b are re-tuned
    /// at every phase boundary by an [`AdaptController`] reading the
    /// pool's counter deltas. The source is built once per (pool, region
    /// stream) and re-armed with the new (k, b) between phases and
    /// regions.
    Adaptive {
        ctl: Arc<AdaptController>,
        cached: Mutex<Option<AdaptiveCache>>,
    },
    /// Lock-free static partition.
    Static,
}

/// The cached adaptive source plus the identity it was built against: a
/// different pool size, sink, or registry forces a rebuild (normal reuse
/// across the phases of one pool's regions only ever re-arms).
struct AdaptiveCache {
    src: Arc<AfsSource>,
    p: usize,
    traced: bool,
    metrics: Arc<MetricsRegistry>,
}

/// The work source of one parallel region: built when the region starts
/// and re-armed in place at every later phase boundary, so a phase turn
/// neither allocates nor moves the queue words to fresh cache lines.
enum RegionSource<'a> {
    Owned(Box<dyn WorkSource>),
    /// The adaptive policy's cached source; each re-arm first asks `ctl`
    /// for the next phase's (k, b).
    Adaptive {
        src: Arc<AfsSource>,
        ctl: &'a AdaptController,
    },
}

impl RegionSource<'_> {
    fn get(&self) -> &dyn WorkSource {
        match self {
            RegionSource::Owned(src) => &**src,
            RegionSource::Adaptive { src, .. } => &**src,
        }
    }

    /// Re-arms the source for the next phase of `n` iterations; see
    /// [`WorkSource::rearm`] for the exclusive window this must run in.
    /// `lane` is the trace lane of the calling thread.
    fn rearm(
        &self,
        n: u64,
        trace: Option<&Arc<TraceSink>>,
        metrics: &MetricsRegistry,
        lane: usize,
    ) {
        match self {
            RegionSource::Owned(src) => src.rearm(n),
            RegionSource::Adaptive { src, ctl } => {
                let tune = retune(ctl, trace, metrics, lane);
                src.rearm_with(n, tune.k, tune.b);
            }
        }
    }
}

/// Phase boundary of the adaptive policy: reads the finished phase's
/// counter deltas, decides the next phase's (k, b), and surfaces the
/// controller state to the metrics layer (and the trace, on a decision).
fn retune(
    ctl: &AdaptController,
    trace: Option<&Arc<TraceSink>>,
    metrics: &MetricsRegistry,
    lane: usize,
) -> Tune {
    let tune = ctl.observe_registry(metrics);
    metrics.record_sched_tune(tune.k, tune.b as u64, ctl.decisions(), ctl.settled());
    if tune.changed {
        if let Some(sink) = trace {
            sink.record(
                lane,
                EventKind::SchedTune {
                    k: tune.k as u32,
                    b: tune.b as u32,
                },
            );
        }
    }
    tune
}

impl RuntimeScheduler {
    /// AFS with `k = P` (the paper's default configuration).
    pub fn afs_k_equals_p() -> Self {
        Self {
            kind: Kind::Afs {
                k: KParam::EqualsP,
                ahead: 1,
            },
        }
    }

    /// AFS with a fixed local-grab divisor `k`.
    pub fn afs_with_k(k: u64) -> Self {
        assert!(k >= 1);
        Self {
            kind: Kind::Afs {
                k: KParam::Fixed(k),
                ahead: 1,
            },
        }
    }

    /// AFS (`k = P`) with grab-ahead: each local CAS claims up to `batch`
    /// consecutive chunks, amortizing the atomic on fine-grained bodies.
    /// Chunk boundaries, `LoopMetrics`, and the sync-count tables are
    /// unchanged on deterministic drives (see
    /// `AfsSource::with_grab_ahead`).
    pub fn afs_grab_ahead(batch: usize) -> Self {
        Self {
            kind: Kind::Afs {
                k: KParam::EqualsP,
                ahead: batch.clamp(1, crate::source::MAX_GRAB_AHEAD),
            },
        }
    }

    /// AFS with both tuning knobs fixed: local-grab divisor `k` and
    /// grab-ahead `batch`. This is one *static* cell of the (k, b) grid
    /// the adaptive policy searches — the bench harness sweeps these to
    /// establish the envelope [`RuntimeScheduler::adaptive`] must land in.
    pub fn afs_tuned(k: u64, batch: usize) -> Self {
        assert!(k >= 1);
        Self {
            kind: Kind::Afs {
                k: KParam::Fixed(k),
                ahead: batch.clamp(1, crate::source::MAX_GRAB_AHEAD),
            },
        }
    }

    /// Distributed AFS with "last executed" assignment across loop
    /// executions (the paper's §4.3 extension): migrations performed in one
    /// phase carry over to the next, so persistent imbalance stops causing
    /// repeated work movement. The policy value owns the cross-phase
    /// history; reuse the same value across the phases of one region.
    pub fn afs_last_exec() -> Self {
        Self {
            kind: Kind::AfsLe {
                k: KParam::EqualsP,
                history: std::sync::Arc::new(LeHistory::new()),
            },
        }
    }

    /// Self-tuning AFS for a pool of `p` workers: a fresh
    /// [`AdaptController`] re-tunes the subdivision k (starting at the
    /// paper's k = P) and the grab-ahead b (starting at 1) at every phase
    /// boundary from the pool's always-on counters.
    pub fn adaptive(p: usize) -> Self {
        Self::adaptive_with(Arc::new(AdaptController::new(p)))
    }

    /// Self-tuning AFS driven by a caller-owned controller, so the (k, b)
    /// trajectory can be inspected, seeded via
    /// [`AdaptController::with_initial`], or pinned via
    /// [`AdaptController::freeze`] — and so a serving frontend can share
    /// one controller across many requests.
    pub fn adaptive_with(ctl: Arc<AdaptController>) -> Self {
        Self {
            kind: Kind::Adaptive {
                ctl,
                cached: Mutex::new(None),
            },
        }
    }

    /// The adaptive controller, when this is an adaptive policy.
    pub fn controller(&self) -> Option<&Arc<AdaptController>> {
        match &self.kind {
            Kind::Adaptive { ctl, .. } => Some(ctl),
            _ => None,
        }
    }

    /// Lock-free static partitioning.
    pub fn static_partition() -> Self {
        Self { kind: Kind::Static }
    }

    /// Self-scheduling (one iteration per central-queue grab). SS is a
    /// strictly-monotone counter, so the runtime implements it with a
    /// lock-free fetch-and-add — the paper's own realization of SS.
    pub fn self_sched() -> Self {
        Self {
            kind: Kind::FetchAdd { chunk: 1 },
        }
    }

    /// Fixed-size chunking (`chunk` iterations per central grab), also
    /// served by a lock-free fetch-and-add counter.
    pub fn chunk_self(chunk: u64) -> Self {
        assert!(chunk >= 1);
        Self {
            kind: Kind::FetchAdd { chunk },
        }
    }

    /// Guided self-scheduling.
    pub fn gss() -> Self {
        Self::from_core(afs_core::schedulers::Gss::new())
    }

    /// Factoring.
    pub fn factoring() -> Self {
        Self::from_core(afs_core::schedulers::Factoring::new())
    }

    /// Trapezoid self-scheduling.
    pub fn trapezoid() -> Self {
        Self::from_core(afs_core::schedulers::Trapezoid::new())
    }

    /// Modified factoring (affinity-aware chunk preference).
    pub fn mod_factoring() -> Self {
        Self::from_core(afs_core::schedulers::ModFactoring::new())
    }

    /// Any `afs-core` scheduler, driven under a single queue lock.
    pub fn from_core(sched: impl Scheduler + 'static) -> Self {
        Self {
            kind: Kind::Locked(Arc::new(sched)),
        }
    }

    /// An OpenMP-style clause: `"static"`, `"static,c"`, `"dynamic"`,
    /// `"dynamic,c"`, `"guided"`, `"guided,c"`, or `"auto"` (→ AFS).
    /// Returns `None` for unrecognized clauses.
    pub fn omp(clause: &str) -> Option<Self> {
        let parsed = afs_core::omp::OmpSchedule::parse(clause)?;
        Some(match parsed {
            afs_core::omp::OmpSchedule::Static => Self::static_partition(),
            afs_core::omp::OmpSchedule::Auto => Self::afs_k_equals_p(),
            afs_core::omp::OmpSchedule::Dynamic => Self::self_sched(),
            afs_core::omp::OmpSchedule::DynamicChunk { chunk } => Self::chunk_self(chunk),
            other => Self::from_core(other.scheduler()),
        })
    }

    /// Policy name for reports.
    pub fn name(&self) -> String {
        match &self.kind {
            Kind::Locked(s) => s.name(),
            Kind::FetchAdd { chunk: 1 } => "SS".into(),
            Kind::FetchAdd { chunk } => format!("CSS({chunk})"),
            Kind::Afs {
                k: KParam::EqualsP,
                ahead: 1,
            } => "AFS".into(),
            Kind::Afs {
                k: KParam::EqualsP,
                ahead,
            } => format!("AFS(ga={ahead})"),
            Kind::Afs {
                k: KParam::Fixed(k),
                ahead: 1,
            } => format!("AFS(k={k})"),
            Kind::Afs {
                k: KParam::Fixed(k),
                ahead,
            } => format!("AFS(k={k},ga={ahead})"),
            Kind::AfsLe { .. } => "AFS-LE".into(),
            Kind::Adaptive { .. } => "ADAPTIVE".into(),
            Kind::Static => "STATIC".into(),
        }
    }

    /// Builds the work source of a region whose first phase has `n`
    /// iterations; later phases re-arm it ([`RegionSource::rearm`]). The
    /// adaptive policy re-tunes and re-arms its cached source instead when
    /// the cache fits this pool. `lane` is the trace lane of the calling
    /// thread — lane 0 at region setup, where worker 0 is provably idle.
    fn region_source(
        &self,
        n: u64,
        p: usize,
        trace: Option<&Arc<TraceSink>>,
        metrics: &Arc<MetricsRegistry>,
        lane: usize,
    ) -> RegionSource<'_> {
        let src: Box<dyn WorkSource> = match &self.kind {
            Kind::Locked(s) => {
                let src = LockedSource::new(Arc::clone(s), n, p);
                Box::new(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                })
            }
            Kind::FetchAdd { chunk } => Box::new(FetchAddSource::new(n, *chunk)),
            Kind::Afs { k, ahead } => {
                // The only source with grab-path-private events (CAS
                // retries, stash hits); grab counts themselves are
                // recorded uniformly by `drain_phase`.
                let src = AfsSource::new(n, p, k.resolve(p))
                    .with_grab_ahead(*ahead)
                    .with_metrics(Arc::clone(metrics));
                Box::new(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                })
            }
            Kind::AfsLe { k, history } => {
                let src = AfsLeSource::new(n, p, k.resolve(p), Arc::clone(history));
                Box::new(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                })
            }
            Kind::Adaptive { ctl, cached } => {
                let tune = retune(ctl, trace, metrics, lane);
                let mut slot = cached.lock();
                let reuse = slot.as_ref().is_some_and(|c| {
                    c.p == p && c.traced == trace.is_some() && Arc::ptr_eq(&c.metrics, metrics)
                });
                let src = if reuse {
                    let src = &slot.as_ref().unwrap().src;
                    src.rearm_with(n, tune.k, tune.b);
                    Arc::clone(src)
                } else {
                    let src = AfsSource::new(n, p, tune.k)
                        .with_grab_ahead(tune.b)
                        .with_metrics(Arc::clone(metrics));
                    let src = Arc::new(match trace {
                        Some(sink) => src.with_trace(Arc::clone(sink)),
                        None => src,
                    });
                    *slot = Some(AdaptiveCache {
                        src: Arc::clone(&src),
                        p,
                        traced: trace.is_some(),
                        metrics: Arc::clone(metrics),
                    });
                    src
                };
                return RegionSource::Adaptive { src, ctl };
            }
            Kind::Static => Box::new(StaticSource::new(n, p)),
        };
        RegionSource::Owned(src)
    }

    fn queues(&self, p: usize) -> usize {
        match &self.kind {
            Kind::Locked(s) => match s.topology() {
                QueueTopology::Central => 1,
                QueueTopology::PerProcessor => p,
            },
            Kind::FetchAdd { .. } => 1,
            Kind::Afs { .. } | Kind::AfsLe { .. } | Kind::Adaptive { .. } | Kind::Static => p,
        }
    }
}

/// Executes `body(i)` for every `i` in `0..n` on the pool's workers,
/// scheduled by `policy`. Blocks until the loop completes; returns the
/// scheduling metrics.
///
/// `body` must tolerate concurrent invocation for *distinct* iteration
/// indices (each index is passed to exactly one invocation).
///
/// A panicking iteration is re-raised here via `resume_unwind` after the
/// loop winds down cleanly; use [`try_parallel_for`] to receive it as a
/// [`PhaseError`] instead.
pub fn parallel_for<F>(pool: &Pool, n: u64, policy: &RuntimeScheduler, body: F) -> LoopMetrics
where
    F: Fn(u64) + Sync,
{
    match try_parallel_for(pool, n, policy, body) {
        Ok(m) => m,
        Err(e) => std::panic::resume_unwind(e.into_payload()),
    }
}

/// Like [`parallel_for`], but a panicking iteration is returned as
/// `Err(PhaseError)` (worker id + payload) instead of propagating. The
/// pool's [`PanicPolicy`] decides what survivors do with the remaining
/// iterations; the pool remains fully usable either way.
pub fn try_parallel_for<F>(
    pool: &Pool,
    n: u64,
    policy: &RuntimeScheduler,
    body: F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(u64) + Sync,
{
    try_parallel_phases(pool, 1, |_| n, policy, |_, i| body(i))
}

/// Executes a sequence of parallel-loop phases with a barrier between
/// phases (the paper's parallel-loop-inside-sequential-loop structure).
///
/// Phase `ph` has `len_of(ph)` iterations; `body(ph, i)` is invoked exactly
/// once per (phase, iteration). The region builds one work source and
/// re-arms it at every phase boundary ([`WorkSource::rearm`]), so each
/// phase starts from the scheduler's initial state — deterministic policies
/// re-create the same assignment each phase, which is what preserves
/// affinity — without a per-phase allocation.
///
/// On a pool with the (default) spin barrier the whole nest is dispatched
/// to the workers **once**: between phases the workers pass a
/// [`crate::barrier::SenseBarrier`], and the last worker to arrive re-arms
/// the work source for the next phase before releasing the others, so the
/// coordinator thread is out of the per-phase loop entirely. On a condvar
/// pool every phase is a full coordinator rendezvous — the pre-rework
/// protocol, kept as the differential/benchmark baseline.
pub fn parallel_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: L,
    policy: &RuntimeScheduler,
    body: F,
) -> LoopMetrics
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    match try_parallel_phases(pool, phases, len_of, policy, body) {
        Ok(m) => m,
        Err(e) => std::panic::resume_unwind(e.into_payload()),
    }
}

/// Like [`parallel_phases`], but a panicking phase is returned as
/// `Err(PhaseError)` — carrying the worker id, phase index and panic
/// payload — instead of propagating. See the module docs for the
/// containment protocol.
pub fn try_parallel_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: L,
    policy: &RuntimeScheduler,
    body: F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    match pool.barrier_kind() {
        // Futex pools take the fused driver too: the SenseBarrier the pool
        // hands out parks on its generation word (`futex_park`), so the
        // whole nest stays one dispatch with kernel-free fast paths.
        BarrierKind::Spin | BarrierKind::Futex => {
            fused_phases(pool, phases, &len_of, policy, &body)
        }
        BarrierKind::Condvar => per_phase_rendezvous(pool, phases, &len_of, policy, &body),
    }
}

/// Shared failure state of one parallel region: the first [`PhaseError`]
/// and whether survivors should stop grabbing (`SkipRemaining`, or a
/// driver-internal failure that makes later phases unrunnable).
struct RegionFailure {
    halt: AtomicBool,
    skip_on_panic: bool,
    slot: Mutex<Option<PhaseError>>,
}

impl RegionFailure {
    fn new(policy: PanicPolicy) -> RegionFailure {
        RegionFailure {
            halt: AtomicBool::new(false),
            skip_on_panic: policy == PanicPolicy::SkipRemaining,
            slot: Mutex::new(None),
        }
    }

    /// Records a body panic (first wins); halts the region only under
    /// [`PanicPolicy::SkipRemaining`].
    fn record(&self, worker: usize, phase: usize, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut slot = self.slot.lock();
            if slot.is_none() {
                *slot = Some(PhaseError::new(worker, phase, payload));
            }
        }
        if self.skip_on_panic {
            self.halt.store(true, Ordering::SeqCst);
        }
    }

    /// Records a driver-internal failure (the source cannot be re-armed for
    /// the next phase); always halts — there is nothing left to schedule.
    fn record_fatal(&self, worker: usize, phase: usize, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut slot = self.slot.lock();
            if slot.is_none() {
                *slot = Some(PhaseError::new(worker, phase, payload));
            }
        }
        self.halt.store(true, Ordering::SeqCst);
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }

    fn take(self) -> Option<PhaseError> {
        self.slot.into_inner()
    }
}

/// Executes one grabbed chunk under `catch_unwind`, returning how many
/// iterations actually ran. On a panic the worker itself survives: the
/// poisoned iteration is recorded into `region` and, under
/// [`PanicPolicy::Drain`], execution resumes at the *next* iteration of the
/// same chunk — so every non-panicking iteration still runs exactly once.
fn run_chunk_guarded<F: Fn(usize, u64) + Sync>(
    worker: usize,
    phase: usize,
    grab: &Grab,
    faults: Option<&FaultPlan>,
    region: &RegionFailure,
    body: &F,
) -> u64 {
    let mut lo = grab.range.start;
    let hi = grab.range.end;
    let mut executed = 0u64;
    while lo < hi {
        let mut done = 0u64;
        let caught = {
            let done = &mut done;
            catch_unwind(AssertUnwindSafe(|| {
                let mut i = lo;
                while i < hi {
                    if let Some(f) = faults {
                        f.maybe_panic(worker, phase, i);
                    }
                    body(phase, i);
                    *done += 1;
                    i += 1;
                }
            }))
        };
        executed += done;
        match caught {
            Ok(()) => break,
            Err(payload) => {
                region.record(worker, phase, payload);
                if region.halted() {
                    // SkipRemaining: the chunk tail is abandoned with the
                    // rest of the region.
                    break;
                }
                // Drain: skip only the iteration that panicked.
                lo = lo + done + 1;
            }
        }
    }
    executed
}

/// Drains `source` on `worker`, recording grabs into `local`, the worker's
/// always-on `counters` (and `sink`, when tracing). One phase of one
/// worker — shared by both drivers. Each grab attempt bumps the worker's
/// heartbeat (the watchdog's liveness signal) and runs the fault hooks when
/// a plan is attached; each chunk executes under [`run_chunk_guarded`], so
/// a body panic is contained here and the worker keeps draining (or stops,
/// per the region's policy) — it always reaches the barrier.
#[inline]
#[allow(clippy::too_many_arguments)] // one call frame per worker-phase; grouping would just rename the list
fn drain_phase<F: Fn(usize, u64) + Sync>(
    worker: usize,
    phase: usize,
    source: &dyn WorkSource,
    local: &mut LoopMetrics,
    counters: &WorkerCounters,
    trace: Option<&Arc<TraceSink>>,
    faults: Option<&FaultPlan>,
    region: &RegionFailure,
    body: &F,
) {
    let mut grabs = 0u64;
    match trace {
        None => {
            // Untraced fast path: no per-grab branches beyond the halt
            // check and the `None` fault plan.
            loop {
                if region.halted() {
                    break;
                }
                counters.record_heartbeat();
                if let Some(f) = faults {
                    f.on_grab(worker, phase, grabs);
                }
                grabs += 1;
                let Some(grab) = source.next(worker) else {
                    break;
                };
                local.record_sync(worker, &grab);
                counters.record_access(grab.access);
                let executed = run_chunk_guarded(worker, phase, &grab, faults, region, body);
                local.record_executed(worker, executed);
                counters.record_iters(executed);
            }
        }
        Some(sink) => loop {
            if region.halted() {
                // The region is over for this worker; it heads straight to
                // the barrier, so mark the arrival for span accounting.
                sink.record(worker, EventKind::BarrierArrive);
                break;
            }
            counters.record_heartbeat();
            if let Some(f) = faults {
                f.on_grab(worker, phase, grabs);
            }
            grabs += 1;
            sink.record(worker, EventKind::GrabBegin);
            let Some(grab) = source.next(worker) else {
                // The failed final grab is not a Grab* event, so event
                // counts stay 1:1 with LoopMetrics; mark the arrival at
                // the end-of-phase barrier (the matching BarrierRelease is
                // recorded when this worker passes it).
                sink.record(worker, EventKind::BarrierArrive);
                break;
            };
            sink.record(worker, EventKind::of_grab(&grab));
            local.record_sync(worker, &grab);
            counters.record_access(grab.access);
            let (q, lo, hi) = (grab.queue as u32, grab.range.start, grab.range.end);
            sink.record(worker, EventKind::ChunkStart { queue: q, lo, hi });
            let executed = run_chunk_guarded(worker, phase, &grab, faults, region, body);
            local.record_executed(worker, executed);
            counters.record_iters(executed);
            sink.record(worker, EventKind::ChunkEnd);
        },
    }
}

/// The pre-rework driver: one coordinator rendezvous (`Pool::run`) per
/// phase, with the region's source re-armed serially in between.
fn per_phase_rendezvous<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: &L,
    policy: &RuntimeScheduler,
    body: &F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    let p = pool.workers();
    let trace = pool.trace();
    let registry = Arc::clone(pool.metrics());
    let faults = pool.fault_plan().cloned();
    let region = RegionFailure::new(pool.panic_policy());
    let deadline = pool.phase_deadline();
    let mut total = LoopMetrics::new(p, policy.queues(p));
    let region_start = Instant::now();
    let mut source: Option<RegionSource> = None;
    for phase in 0..phases {
        if region.halted() {
            break;
        }
        let n = len_of(phase);
        let source = match source.take() {
            Some(src) => {
                src.rearm(n, trace, &registry, 0);
                source.insert(src)
            }
            None => source.insert(policy.region_source(n, p, trace, &registry, 0)),
        }
        .get();
        let phase_metrics = Mutex::new(LoopMetrics::new(p, policy.queues(p)));
        let phase_start = Instant::now();
        let ran = pool.try_run(|worker| {
            if phase == 0 {
                if let Some(f) = &faults {
                    f.on_region_start(worker);
                }
            }
            let mut local = LoopMetrics::new(p, policy.queues(p));
            let counters = registry.worker(worker);
            drain_phase(
                worker,
                phase,
                source,
                &mut local,
                counters,
                trace,
                faults.as_deref(),
                &region,
                body,
            );
            phase_metrics.lock().merge(&local);
        });
        let took = phase_start.elapsed();
        registry.phase_hist().record_duration(took);
        pool.recorder()
            .record_phase(phase as u64, took.as_nanos() as u64, &registry);
        if deadline.is_some_and(|d| took > d) {
            registry.record_deadline_miss();
        }
        total.merge(&phase_metrics.into_inner());
        // Body panics are contained inside drain_phase; an Err here means a
        // panic in the driver itself and leaves nothing sound to continue.
        ran.map_err(|e| flag_phase_error(pool, e))?;
    }
    registry.loop_hist().record_duration(region_start.elapsed());
    match region.take() {
        Some(e) => Err(flag_phase_error(pool, e)),
        None => Ok(total),
    }
}

/// Arms the pool's flight recorder with a contained-panic trigger before
/// the error propagates; the phase that panicked was already recorded, so
/// the dump (written at the next flush point) carries its lead-up.
fn flag_phase_error(pool: &Pool, e: PhaseError) -> PhaseError {
    pool.recorder().trigger(afs_scope::Trigger::PhaseError {
        worker: e.worker(),
        phase: e.phase(),
    });
    e
}

/// The fused driver: one `Pool::run` for the whole nest; workers chain
/// from phase to phase through a decentralized sense-reversing barrier,
/// the last arriver re-arming the region's source (so cross-phase
/// scheduler state such as AFS-LE's history sees every update of the
/// finished phase).
fn fused_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: &L,
    policy: &RuntimeScheduler,
    body: &F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    let p = pool.workers();
    let trace = pool.trace();
    let registry = Arc::clone(pool.metrics());
    let recorder = Arc::clone(pool.recorder());
    let faults = pool.fault_plan().cloned();
    let region = RegionFailure::new(pool.panic_policy());
    let deadline_ns = pool.phase_deadline().map(|d| d.as_nanos() as u64);
    let queues = policy.queues(p);
    let total = Mutex::new(LoopMetrics::new(p, queues));
    if phases == 0 {
        return Ok(total.into_inner());
    }
    let source = policy.region_source(len_of(0), p, trace, &registry, 0);
    // The phase the source is armed for. Re-arming stops once the region
    // halts, so workers skip every later phase — but still take every
    // barrier below, so the party never loses a member. Written only in
    // the barrier turn; the release orders it (and the re-arm) before
    // every read of the next phase.
    let armed = AtomicUsize::new(0);
    let barrier = pool.phase_barrier();
    // Phase boundaries happen inside barrier turn closures (exclusive, all
    // workers arrived), so the turn-taker timestamps them: `prev_ns` holds
    // the region-relative nanosecond of the last boundary, and each phase's
    // duration is the distance between consecutive boundaries. The final
    // phase ends at `pool.run` return, recorded by the coordinator.
    let region_start = Instant::now();
    let prev_ns = AtomicU64::new(0);
    let ran = pool.try_run(|worker| {
        if let Some(f) = &faults {
            f.on_region_start(worker);
        }
        let mut local = LoopMetrics::new(p, queues);
        let counters = registry.worker(worker);
        let src = source.get();
        for phase in 0..phases {
            if armed.load(Ordering::Relaxed) == phase {
                // First-touch worker-owned scheduler state (stash heap
                // blocks, queue words) from this worker's core before the
                // first grab — see `WorkSource::warm`.
                src.warm(worker);
                drain_phase(
                    worker,
                    phase,
                    src,
                    &mut local,
                    counters,
                    trace,
                    faults.as_deref(),
                    &region,
                    body,
                );
            }
            if phase + 1 < phases {
                barrier.arrive_then_as(worker, (phase + 1) as u64, || {
                    let now = region_start.elapsed().as_nanos() as u64;
                    let prev = prev_ns.swap(now, Ordering::Relaxed);
                    registry.phase_hist().record(now - prev);
                    // Turn-exclusive (all arrived, none released): the
                    // canonical once-per-phase point for the black box.
                    recorder.record_phase(phase as u64, now - prev, &registry);
                    if deadline_ns.is_some_and(|d| now - prev > d) {
                        registry.record_deadline_miss();
                    }
                    if !region.halted() {
                        // The turn closure runs on exactly one worker, after
                        // every worker's last grab and before any is
                        // released: the exclusive window `rearm` needs.
                        // Guarded so a panicking scheduler cannot unwind
                        // into the barrier: the error is recorded, the
                        // phase stays unarmed, and the release proceeds.
                        let rearmed = catch_unwind(AssertUnwindSafe(|| {
                            source.rearm(len_of(phase + 1), trace, &registry, worker)
                        }));
                        match rearmed {
                            Ok(()) => armed.store(phase + 1, Ordering::Relaxed),
                            Err(payload) => region.record_fatal(worker, phase + 1, payload),
                        }
                    }
                });
                if let Some(sink) = trace {
                    sink.record(worker, EventKind::BarrierRelease);
                }
            }
        }
        total.lock().merge(&local);
    });
    let end_ns = region_start.elapsed().as_nanos() as u64;
    let last_phase_ns = end_ns - prev_ns.load(Ordering::Relaxed);
    registry.phase_hist().record(last_phase_ns);
    recorder.record_phase((phases - 1) as u64, last_phase_ns, &registry);
    if deadline_ns.is_some_and(|d| last_phase_ns > d) {
        registry.record_deadline_miss();
    }
    registry.loop_hist().record(end_ns);
    // Body panics are contained inside drain_phase; an Err here means a
    // panic in the driver itself.
    ran.map_err(|e| flag_phase_error(pool, e))?;
    match region.take() {
        Some(e) => Err(flag_phase_error(pool, e)),
        None => Ok(total.into_inner()),
    }
}

/// Executes a coalesced loop nest: `body` receives the multi-index of each
/// cell of `nest`, scheduled as one flat loop (the paper's footnote-1
/// transformation, mechanized by [`afs_core::nest::LoopNest`]).
///
/// The index buffer passed to `body` is per-call scratch; copy out what you
/// need.
pub fn parallel_nest<F>(
    pool: &Pool,
    nest: &afs_core::nest::LoopNest,
    policy: &RuntimeScheduler,
    body: F,
) -> LoopMetrics
where
    F: Fn(&[u64]) + Sync,
{
    let dims = nest.dims();
    parallel_for(pool, nest.len(), policy, |flat| {
        let mut idx = [0u64; 8];
        if dims <= 8 {
            nest.unflatten_into(flat, &mut idx[..dims]);
            body(&idx[..dims]);
        } else {
            let mut big = vec![0u64; dims];
            nest.unflatten_into(flat, &mut big);
            body(&big);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

    fn all_policies() -> Vec<RuntimeScheduler> {
        vec![
            RuntimeScheduler::static_partition(),
            RuntimeScheduler::self_sched(),
            RuntimeScheduler::gss(),
            RuntimeScheduler::factoring(),
            RuntimeScheduler::trapezoid(),
            RuntimeScheduler::mod_factoring(),
            RuntimeScheduler::afs_k_equals_p(),
            RuntimeScheduler::afs_with_k(2),
            RuntimeScheduler::afs_last_exec(),
            RuntimeScheduler::adaptive(4),
            RuntimeScheduler::from_core(afs_core::schedulers::ChunkSelf::new(8)),
            RuntimeScheduler::from_core(afs_core::schedulers::AdaptiveGss::new()),
        ]
    }

    #[test]
    fn every_policy_executes_each_iteration_once() {
        let pool = Pool::new(4);
        for policy in all_policies() {
            let n = 2000u64;
            let counts: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let m = parallel_for(&pool, n, &policy, |i| {
                counts[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{}: some iteration not executed exactly once",
                policy.name()
            );
            assert_eq!(m.total_iters(), n, "{}", policy.name());
        }
    }

    #[test]
    fn metrics_match_algorithm_shape() {
        let pool = Pool::new(4);
        // SS does exactly n central grabs.
        let m = parallel_for(&pool, 500, &RuntimeScheduler::self_sched(), |_| {});
        assert_eq!(m.sync.central, 500);
        // STATIC does no synchronized grabs.
        let m = parallel_for(&pool, 500, &RuntimeScheduler::static_partition(), |_| {});
        assert_eq!(m.sync.synchronized(), 0);
        // AFS: local grabs dominate.
        let m = parallel_for(&pool, 5000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
        assert!(m.sync.local > 0);
        assert!(m.sync.central == 0);
    }

    #[test]
    fn phases_run_in_order_with_barriers() {
        let pool = Pool::new(4);
        let log = Mutex::new(Vec::new());
        parallel_phases(
            &pool,
            5,
            |_| 16,
            &RuntimeScheduler::gss(),
            |ph, _i| {
                log.lock().push(ph);
            },
        );
        let log = log.into_inner();
        assert_eq!(log.len(), 80);
        // Phases never interleave: the sequence is non-decreasing.
        assert!(log.windows(2).all(|w| w[0] <= w[1]), "phases interleaved");
    }

    #[test]
    fn varying_phase_lengths() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        let m = parallel_phases(
            &pool,
            4,
            |ph| [10u64, 0, 7, 100][ph],
            &RuntimeScheduler::factoring(),
            |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 117);
        assert_eq!(m.total_iters(), 117);
    }

    #[test]
    fn afs_imbalanced_body_triggers_steals() {
        let pool = Pool::new(4);
        // Iterations 0..250 are slow (worker 0's queue): others must steal.
        let m = parallel_for(&pool, 1000, &RuntimeScheduler::afs_k_equals_p(), |i| {
            if i < 250 {
                std::hint::black_box((0..30_000u64).sum::<u64>());
            }
        });
        assert!(
            m.sync.remote > 0,
            "imbalance should force remote grabs: {:?}",
            m.sync
        );
    }

    #[test]
    fn omp_clauses_map_to_policies() {
        let pool = Pool::new(4);
        for clause in [
            "static",
            "static,16",
            "dynamic",
            "dynamic,8",
            "guided",
            "guided,4",
            "auto",
        ] {
            let policy = RuntimeScheduler::omp(clause)
                .unwrap_or_else(|| panic!("clause {clause} should parse"));
            let counts = AtomicU64::new(0);
            parallel_for(&pool, 777, &policy, |_| {
                counts.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counts.load(Ordering::Relaxed), 777, "{clause}");
        }
        assert!(RuntimeScheduler::omp("runtime").is_none());
        assert_eq!(RuntimeScheduler::omp("auto").unwrap().name(), "AFS");
    }

    #[test]
    fn nest_covers_every_cell_once() {
        let pool = Pool::new(4);
        let nest = afs_core::nest::LoopNest::new(&[9, 7, 5]);
        let counts: Vec<AtomicU8> = (0..nest.len()).map(|_| AtomicU8::new(0)).collect();
        let m = parallel_nest(&pool, &nest, &RuntimeScheduler::afs_k_equals_p(), |idx| {
            assert_eq!(idx.len(), 3);
            let flat = idx[0] * 35 + idx[1] * 5 + idx[2];
            counts[flat as usize].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(m.total_iters(), 9 * 7 * 5);
    }

    #[test]
    fn single_worker_runs_everything() {
        let pool = Pool::new(1);
        let total = AtomicU64::new(0);
        for policy in all_policies() {
            total.store(0, Ordering::SeqCst);
            parallel_for(&pool, 100, &policy, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), 100, "{}", policy.name());
        }
    }

    #[test]
    fn adaptive_ticks_once_per_phase_and_covers_every_iteration() {
        let pool = Pool::new(4);
        let policy = RuntimeScheduler::adaptive(4);
        let ctl = Arc::clone(policy.controller().unwrap());
        let phases = 6usize;
        let n = 512u64;
        let counts: Vec<AtomicU8> = (0..n as usize * phases).map(|_| AtomicU8::new(0)).collect();
        let m = parallel_phases(
            &pool,
            phases,
            |_| n,
            &policy,
            |ph, i| {
                counts[ph * n as usize + i as usize].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(
            counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "adaptive dropped or duplicated iterations"
        );
        assert_eq!(m.total_iters(), n * phases as u64);
        // One controller observation per phase: at region start, then at
        // every re-arm.
        assert_eq!(ctl.phases(), phases as u64);
        // The decision is surfaced through the pool's metrics snapshot.
        let sched = pool
            .metrics()
            .snapshot()
            .controllers
            .expect("adaptive runs must publish controller state")
            .sched
            .expect("sched block present");
        let (k, b) = ctl.current();
        assert_eq!(sched.k, k);
        assert_eq!(sched.b, b as u64);
    }

    #[test]
    fn adaptive_survives_pool_size_changes_and_varying_lengths() {
        // One policy value reused across pools of different widths: the
        // cached source must rebuild (not rearm) when `p` changes, and
        // rearm across phases of different lengths without losing work.
        let policy = RuntimeScheduler::adaptive(4);
        for p in [4usize, 2, 1] {
            let pool = Pool::new(p);
            let total = AtomicU64::new(0);
            let m = parallel_phases(
                &pool,
                4,
                |ph| [97u64, 0, 1024, 3][ph],
                &policy,
                |_, _| {
                    total.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(total.load(Ordering::Relaxed), 1124, "p={p}");
            assert_eq!(m.total_iters(), 1124, "p={p}");
        }
    }

    #[test]
    fn frozen_adaptive_matches_the_equivalent_static_policy() {
        // A frozen controller must behave exactly like the static AFS
        // policy it is pinned to: same per-worker iteration counts, same
        // grab mix — the differential that makes the adaptive path safe to
        // reason about. Single worker keeps the run deterministic.
        let pool = Pool::new(1);
        let ctl = Arc::new(AdaptController::with_initial(1, 1, 2));
        ctl.freeze();
        let adaptive = RuntimeScheduler::adaptive_with(ctl);
        let fixed = RuntimeScheduler {
            kind: Kind::Afs {
                k: KParam::Fixed(1),
                ahead: 2,
            },
        };
        let ma = parallel_phases(&pool, 3, |_| 300, &adaptive, |_, _| {});
        let mf = parallel_phases(&pool, 3, |_| 300, &fixed, |_, _| {});
        assert_eq!(ma.iters_per_worker, mf.iters_per_worker);
        assert_eq!(ma.sync, mf.sync);
    }

    /// One deterministic P = 1 drive of `policy` on a `kind` pool: a nest
    /// whose phase lengths change every phase (empty, single-iteration and
    /// Gauss-style decreasing phases), optionally poisoned by a body panic
    /// at phase 4 under `panic` — the fault tests' halted and drained
    /// regions. Returns `[central, local, remote, free, iters, failed
    /// phase + 1 (0 = none), bodies run, trace events]`, with the grab
    /// counts of a successful region checked against its `LoopMetrics`.
    /// Park events are left out of the count: whether a lone worker parks
    /// between dispatches depends on timing, not on the scheduler.
    fn p1_drive(
        policy: &RuntimeScheduler,
        kind: BarrierKind,
        panic: Option<PanicPolicy>,
    ) -> [u64; 8] {
        const LENS: [u64; 9] = [300, 0, 7, 1, 299, 64, 63, 2, 300];
        let sink = Arc::new(TraceSink::new(1));
        let mut builder = Pool::builder(1).barrier(kind).trace(Arc::clone(&sink));
        if let Some(pp) = panic {
            builder = builder
                .panic_policy(pp)
                .faults(FaultPlan::new(1).with_panic_at(0, 4, 10));
        }
        let pool = builder.build();
        let ran = AtomicU64::new(0);
        let res = try_parallel_phases(
            &pool,
            LENS.len(),
            |ph| LENS[ph],
            policy,
            |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
        );
        let t = pool.metrics().totals();
        let grabs = [
            t.central_grabs,
            t.local_grabs,
            t.remote_grabs,
            t.free_grabs,
            t.iters,
        ];
        if let Ok(m) = &res {
            let s = &m.sync;
            assert_eq!(
                [s.central, s.local, s.remote, s.free, m.total_iters()],
                grabs
            );
        }
        let failed = res.as_ref().err().map_or(0, |e| e.phase() as u64 + 1);
        drop(pool);
        let events = sink
            .events(0)
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::BarrierPark { .. }))
            .count() as u64;
        let [c, l, r, f, i] = grabs;
        [c, l, r, f, i, failed, ran.load(Ordering::Relaxed), events]
    }

    /// The policies of the driver-level re-arm differential: every
    /// `all_policies()` entry plus a frozen adaptive controller.
    fn rearm_policies() -> Vec<RuntimeScheduler> {
        let frozen = Arc::new(AdaptController::with_initial(1, 1, 2));
        frozen.freeze();
        let mut v = all_policies();
        v.push(RuntimeScheduler::adaptive_with(frozen));
        v
    }

    /// One `p1_drive` digest per scenario.
    type Digests = [[u64; 8]; 3];

    /// `p1_drive` digests of `rearm_policies()`, in order, recorded on the
    /// drivers as they were when every phase built a fresh source: per
    /// policy, the fused driver's digests (spin and futex pools agreed),
    /// then the condvar driver's, each for the clean, `SkipRemaining` and
    /// `Drain` scenarios.
    #[rustfmt::skip]
    const REARM_GOLDEN: [(&str, Digests, Digests); 13] = [
        ("STATIC", [[0, 0, 0, 8, 1036, 0, 1036, 59], [0, 0, 0, 4, 318, 5, 318, 34], [0, 0, 0, 8, 1035, 5, 1035, 59]], [[0, 0, 0, 8, 1036, 0, 1036, 59], [0, 0, 0, 4, 318, 5, 318, 30], [0, 0, 0, 8, 1035, 5, 1035, 59]]),
        ("SS", [[1036, 0, 0, 0, 1036, 0, 1036, 4171], [319, 0, 0, 0, 318, 5, 318, 1294], [1036, 0, 0, 0, 1035, 5, 1035, 4171]], [[1036, 0, 0, 0, 1036, 0, 1036, 4171], [319, 0, 0, 0, 318, 5, 318, 1290], [1036, 0, 0, 0, 1035, 5, 1035, 4171]]),
        ("GSS", [[8, 0, 0, 0, 1036, 0, 1036, 59], [4, 0, 0, 0, 318, 5, 318, 34], [8, 0, 0, 0, 1035, 5, 1035, 59]], [[8, 0, 0, 0, 1036, 0, 1036, 59], [4, 0, 0, 0, 318, 5, 318, 30], [8, 0, 0, 0, 1035, 5, 1035, 59]]),
        ("FACTORING", [[46, 0, 0, 0, 1036, 0, 1036, 211], [14, 0, 0, 0, 318, 5, 318, 74], [46, 0, 0, 0, 1035, 5, 1035, 211]], [[46, 0, 0, 0, 1036, 0, 1036, 211], [14, 0, 0, 0, 318, 5, 318, 70], [46, 0, 0, 0, 1035, 5, 1035, 211]]),
        ("TRAPEZOID", [[20, 0, 0, 0, 1036, 0, 1036, 107], [7, 0, 0, 0, 318, 5, 318, 46], [20, 0, 0, 0, 1035, 5, 1035, 107]], [[20, 0, 0, 0, 1036, 0, 1036, 107], [7, 0, 0, 0, 318, 5, 318, 42], [20, 0, 0, 0, 1035, 5, 1035, 107]]),
        ("MOD-FACTORING", [[46, 0, 0, 0, 1036, 0, 1036, 211], [14, 0, 0, 0, 318, 5, 318, 74], [46, 0, 0, 0, 1035, 5, 1035, 211]], [[46, 0, 0, 0, 1036, 0, 1036, 211], [14, 0, 0, 0, 318, 5, 318, 70], [46, 0, 0, 0, 1035, 5, 1035, 211]]),
        ("AFS", [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 34], [0, 8, 0, 0, 1035, 5, 1035, 59]], [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 30], [0, 8, 0, 0, 1035, 5, 1035, 59]]),
        ("AFS(k=2)", [[0, 46, 0, 0, 1036, 0, 1036, 211], [0, 14, 0, 0, 318, 5, 318, 74], [0, 46, 0, 0, 1035, 5, 1035, 211]], [[0, 46, 0, 0, 1036, 0, 1036, 211], [0, 14, 0, 0, 318, 5, 318, 70], [0, 46, 0, 0, 1035, 5, 1035, 211]]),
        ("AFS-LE", [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 34], [0, 8, 0, 0, 1035, 5, 1035, 59]], [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 30], [0, 8, 0, 0, 1035, 5, 1035, 59]]),
        ("ADAPTIVE", [[0, 37, 0, 0, 1036, 0, 1036, 177], [0, 25, 0, 0, 318, 5, 318, 119], [0, 37, 0, 0, 1035, 5, 1035, 177]], [[0, 90, 0, 0, 1036, 0, 1036, 390], [0, 23, 0, 0, 318, 5, 318, 107], [0, 90, 0, 0, 1035, 5, 1035, 390]]),
        ("CSS(8)", [[133, 0, 0, 0, 1036, 0, 1036, 559], [42, 0, 0, 0, 318, 5, 318, 186], [133, 0, 0, 0, 1035, 5, 1035, 559]], [[133, 0, 0, 0, 1036, 0, 1036, 559], [42, 0, 0, 0, 318, 5, 318, 182], [133, 0, 0, 0, 1035, 5, 1035, 559]]),
        ("AGSS(2,2)", [[41, 0, 0, 0, 1036, 0, 1036, 191], [13, 0, 0, 0, 318, 5, 318, 70], [41, 0, 0, 0, 1035, 5, 1035, 191]], [[41, 0, 0, 0, 1036, 0, 1036, 191], [13, 0, 0, 0, 318, 5, 318, 66], [41, 0, 0, 0, 1035, 5, 1035, 191]]),
        ("ADAPTIVE", [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 34], [0, 8, 0, 0, 1035, 5, 1035, 59]], [[0, 8, 0, 0, 1036, 0, 1036, 59], [0, 4, 0, 0, 318, 5, 318, 30], [0, 8, 0, 0, 1035, 5, 1035, 59]]),
    ];

    #[test]
    fn rearm_drive_matches_the_per_phase_build() {
        let scenarios = [
            None,
            Some(PanicPolicy::SkipRemaining),
            Some(PanicPolicy::Drain),
        ];
        for (i, (name, fused, condvar)) in REARM_GOLDEN.iter().enumerate() {
            for (s, &scenario) in scenarios.iter().enumerate() {
                for (kind, want) in [
                    (BarrierKind::Spin, fused[s]),
                    (BarrierKind::Futex, fused[s]),
                    (BarrierKind::Condvar, condvar[s]),
                ] {
                    let policy = &rearm_policies()[i];
                    assert_eq!(policy.name(), *name);
                    let (mut got, mut want) = (p1_drive(policy, kind, scenario), want);
                    if policy.controller().is_some_and(|c| !c.is_frozen()) {
                        // A live controller steers by barrier wait outcomes
                        // (spin or park), whose mix depends on timing: only
                        // coverage and failure are deterministic.
                        for d in [&mut got, &mut want] {
                            d[..4].fill(0);
                            d[7] = 0;
                        }
                    }
                    assert_eq!(got, want, "{name} #{i} on {kind:?}, panic {scenario:?}");
                }
            }
        }
    }
}
