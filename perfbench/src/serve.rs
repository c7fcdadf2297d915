//! The `serve-mix` workload: a closed loop of [`OUTSTANDING`] requests
//! against a manual-mode `LoopServer` under fused batching.
//!
//! The main thread is the only client: it admits requests, pumps the
//! admission ring, runs `dispatch_next`, and stamps every id the call
//! returns as complete — the only public API that exposes per-request
//! completion. Each completion admits one new request. The mix is two
//! tenants: 3/4 `Touch` loops of 16–128 iterations, 1/4 `Spin{2}` loops
//! of 256–512 iterations with 1–2 phases.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use affinity_sched::core::rng::Xoshiro256;
use affinity_sched::metrics::{CounterSnapshot, ServeSnapshot};
use affinity_sched::runtime::Pool;
use afs_serve::{Admit, Discipline, LoopRequest, LoopServer, ServeKernel, ServePolicy, TenantSpec};

use crate::spans::now_ns;
use crate::stats::{median, ratio, Sorted};
use crate::{floors, workers, Measured, SETUP_REPS};

/// Requests outstanding at all times.
const OUTSTANDING: usize = 32;
const DISCIPLINE: Discipline = Discipline::Batch {
    max_requests: 16,
    max_iters: 4096,
};
/// Requests completed by each setup's warm-up.
const WARMUP_REQUESTS: u64 = 12_000;
/// The traced run alternates plain and traced windows of this length.
const WINDOW: Duration = Duration::from_millis(500);
/// Request spans kept for the span file; the layer numbers use them all.
const KEPT_REQUEST_SPANS: usize = 100_000;
/// `dispatch_next` calls that may come back empty while requests are
/// outstanding before the run is declared stuck.
const MAX_EMPTY_DISPATCHES: u32 = 100_000;

/// The seeded request stream.
pub struct RequestGen(Xoshiro256);

impl RequestGen {
    pub fn new(seed: u64) -> RequestGen {
        RequestGen(Xoshiro256::seed_from_u64(seed))
    }

    pub fn next_request(&mut self) -> LoopRequest {
        let r = &mut self.0;
        if r.next_below(4) != 0 {
            LoopRequest {
                tenant: 0,
                kernel: ServeKernel::Touch,
                n: 16 + r.next_below(113),
                phases: 1,
                policy: ServePolicy::Afs,
                deadline: None,
            }
        } else {
            LoopRequest {
                tenant: 1,
                kernel: ServeKernel::Spin { work: 2 },
                n: 256 + r.next_below(257),
                phases: 1 + r.next_below(2) as u32,
                policy: ServePolicy::Afs,
                deadline: None,
            }
        }
    }
}

fn build_server(p: usize) -> LoopServer {
    LoopServer::builder(Arc::new(Pool::new(p)))
        .tenant_spec(
            TenantSpec::new("small")
                .backlog_cap(2048)
                .workset_slots(4096),
        )
        .tenant_spec(TenantSpec::new("bulk").backlog_cap(512).workset_slots(8192))
        .discipline(DISCIPLINE)
        .queue_capacity(4096)
        .manual()
        .build()
}

/// The generator's own count of what happened to the requests it offered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub accepted: u64,
    pub shed: u64,
    /// Ids returned by `dispatch_next`.
    pub returned: u64,
    /// Accepted requests still outstanding after the final drain.
    pub never_completed: u64,
    /// Iterations of the returned requests.
    pub iters: u64,
}

/// The server's and pool's counts over the same interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounts {
    pub admitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub expired: u64,
    pub shed: u64,
    pub dispatches: u64,
    /// Iterations the pool executed.
    pub iters: u64,
}

impl ServerCounts {
    fn between(before: &ServeSnapshot, after: &ServeSnapshot, iters: u64) -> ServerCounts {
        ServerCounts {
            admitted: after.admitted - before.admitted,
            completed: after.completed - before.completed,
            failed: after.failed - before.failed,
            expired: after.expired - before.expired,
            shed: after.shed_total() - before.shed_total(),
            dispatches: after.dispatches - before.dispatches,
            iters,
        }
    }
}

/// Every way the generator's ledger and the server's counts can disagree.
pub fn ledger_mismatches(d: &Ledger, s: &ServerCounts) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    check(
        d.attempted == d.accepted + d.shed,
        format!(
            "attempted {} != accepted {} + shed {}",
            d.attempted, d.accepted, d.shed
        ),
    );
    check(
        d.accepted == d.returned + d.never_completed,
        format!(
            "accepted {} != returned {} + never completed {}",
            d.accepted, d.returned, d.never_completed
        ),
    );
    check(
        s.admitted == d.accepted,
        format!(
            "server admitted {} != generator accepted {}",
            s.admitted, d.accepted
        ),
    );
    check(
        s.shed == d.shed,
        format!("server shed {} != generator shed {}", s.shed, d.shed),
    );
    check(
        s.completed + s.failed == d.returned,
        format!(
            "server completed {} + failed {} != generator returned {}",
            s.completed, s.failed, d.returned
        ),
    );
    check(
        s.failed > 0 || s.iters == d.iters,
        format!(
            "pool ran {} iterations, returned requests hold {}",
            s.iters, d.iters
        ),
    );
    out
}

struct Pending {
    /// Just before `admit`.
    admit_ns: u64,
    /// Just after `admit` returned.
    admitted_ns: u64,
    tenant: usize,
    iters: u64,
}

/// One traced request: admit → admitted → dispatch start → complete.
struct RequestSpan {
    id: u64,
    tenant: usize,
    iters: u64,
    admit_ns: u64,
    admitted_ns: u64,
    dispatch_ns: u64,
    done_ns: u64,
    dispatch_seq: u64,
}

/// Per-call timings of a traced window.
#[derive(Default)]
struct Layers {
    admit_us: Vec<f64>,
    pump_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    queue_us: Vec<f64>,
    /// Requests completed in traced windows.
    completed: u64,
    /// The first [`KEPT_REQUEST_SPANS`] of them.
    requests: Vec<RequestSpan>,
}

/// What one window saw.
#[derive(Default)]
struct Window {
    latency_us: Vec<f64>,
    /// `dispatch_next` wall per call, ms.
    solve_ms: Vec<f64>,
    completed: u64,
    secs: f64,
}

struct ClosedLoop<'a> {
    server: &'a LoopServer,
    gen: RequestGen,
    pending: HashMap<u64, Pending>,
    ledger: Ledger,
    dispatch_seq: u64,
}

impl<'a> ClosedLoop<'a> {
    fn new(server: &'a LoopServer, gen: RequestGen) -> ClosedLoop<'a> {
        ClosedLoop {
            server,
            gen,
            pending: HashMap::new(),
            ledger: Ledger::default(),
            dispatch_seq: 0,
        }
    }

    fn admit(&mut self, layers: Option<&mut Layers>) {
        let req = self.gen.next_request();
        let (tenant, iters) = (req.tenant, req.iters());
        self.ledger.attempted += 1;
        let admit_ns = now_ns();
        let verdict = self.server.admit(req);
        let admitted_ns = now_ns();
        if let Some(l) = layers {
            l.admit_us.push((admitted_ns - admit_ns) as f64 / 1e3);
        }
        match verdict {
            Admit::Accepted { id } => {
                self.ledger.accepted += 1;
                let p = Pending {
                    admit_ns,
                    admitted_ns,
                    tenant,
                    iters,
                };
                self.pending.insert(id, p);
            }
            Admit::Shed(_) => self.ledger.shed += 1,
        }
    }

    /// One pump + dispatch; returns how many requests completed.
    fn step(&mut self, w: &mut Window, mut layers: Option<&mut Layers>) -> Result<usize, String> {
        let t_pump = now_ns();
        self.server.pump();
        let t0 = now_ns();
        let ran = self.server.dispatch_next();
        let t1 = now_ns();
        if ran.is_empty() {
            return Ok(0);
        }
        self.dispatch_seq += 1;
        w.solve_ms.push((t1 - t0) as f64 / 1e6);
        for &(_, id) in &ran {
            let p = self
                .pending
                .remove(&id)
                .ok_or_else(|| format!("dispatch_next returned unknown id {id}"))?;
            self.ledger.returned += 1;
            self.ledger.iters += p.iters;
            w.latency_us.push((t1 - p.admit_ns) as f64 / 1e3);
            if let Some(l) = layers.as_deref_mut() {
                l.queue_us.push((t0 - p.admitted_ns) as f64 / 1e3);
                l.completed += 1;
                if l.requests.len() < KEPT_REQUEST_SPANS {
                    l.requests.push(RequestSpan {
                        id,
                        tenant: p.tenant,
                        iters: p.iters,
                        admit_ns: p.admit_ns,
                        admitted_ns: p.admitted_ns,
                        dispatch_ns: t0,
                        done_ns: t1,
                        dispatch_seq: self.dispatch_seq,
                    });
                }
            }
        }
        if let Some(l) = layers {
            l.pump_us.push((t0 - t_pump) as f64 / 1e3);
            l.dispatch_us.push((now_ns() - t0) as f64 / 1e3);
        }
        w.completed += ran.len() as u64;
        Ok(ran.len())
    }

    /// Runs the closed loop, keeping [`OUTSTANDING`] requests in flight,
    /// until `done` says the window is over.
    fn run(
        &mut self,
        done: impl Fn(&Ledger) -> bool,
        mut layers: Option<&mut Layers>,
    ) -> Result<Window, String> {
        let mut w = Window::default();
        let start = Instant::now();
        let mut empty = 0u32;
        while !done(&self.ledger) {
            while self.pending.len() < OUTSTANDING {
                self.admit(layers.as_deref_mut());
            }
            if self.step(&mut w, layers.as_deref_mut())? == 0 {
                empty += 1;
                if empty > MAX_EMPTY_DISPATCHES {
                    return Err(format!(
                        "{} requests outstanding, none dispatched",
                        self.pending.len()
                    ));
                }
            } else {
                empty = 0;
            }
        }
        w.secs = start.elapsed().as_secs_f64();
        Ok(w)
    }

    /// Stops admitting and dispatches until nothing is outstanding.
    fn drain(&mut self) {
        let mut w = Window::default();
        let mut empty = 0u32;
        while !self.pending.is_empty() && empty <= MAX_EMPTY_DISPATCHES {
            match self.step(&mut w, None) {
                Ok(0) => empty += 1,
                Ok(_) => empty = 0,
                Err(_) => break,
            }
        }
        self.ledger.never_completed += self.pending.len() as u64;
        self.pending.clear();
    }
}

pub fn run((seed, seconds, traced): (u64, f64, bool), m: &mut Measured) {
    let p = workers();
    let name = "serve-mix";

    // Set-up, several times: pool + server, seeded stream, warm-up.
    let mut setup_s = Vec::new();
    let mut kept: Option<(LoopServer, RequestGen)> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let server = build_server(p);
        let mut lp = ClosedLoop::new(&server, RequestGen::new(seed));
        if let Err(e) = lp.run(|l| l.returned >= WARMUP_REQUESTS, None) {
            m.error(format!("{name}: warm-up: {e}"));
        }
        lp.drain();
        let gen = lp.gen;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((server, gen));
    }
    let (server, gen) = kept.expect("SETUP_REPS > 0");
    m.setup(setup_s);

    let pool = server.pool();
    floors::record_dispatch(&pool, m);

    // Measurement in fixed windows; the traced run traces every other one.
    let snap0 = server.serve_snapshot();
    let iters0 = pool.metrics().snapshot().totals().iters;
    let mut lp = ClosedLoop::new(&server, gen);
    let n_windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(2);
    let window = Duration::from_secs_f64(seconds / n_windows as f64);
    let mut plain: Vec<Window> = Vec::new();
    let mut traced_windows: Vec<Window> = Vec::new();
    let mut layers = Layers::default();
    let mut counters = CounterSnapshot::default();
    let mut traced_dispatches = 0u64;
    let mut next = Instant::now();
    for k in 0..n_windows {
        next += window;
        let trace_this = traced && k % 2 == 1;
        let before = trace_this.then(|| (pool.metrics().snapshot().totals(), lp.dispatch_seq));
        let w = match lp.run(
            |_| Instant::now() >= next,
            trace_this.then_some(&mut layers),
        ) {
            Ok(w) => w,
            Err(e) => {
                m.error(format!("{name}: {e}"));
                break;
            }
        };
        if let Some((c0, d0)) = before {
            counters.add(&pool.metrics().snapshot().totals().minus(&c0));
            traced_dispatches += lp.dispatch_seq - d0;
            traced_windows.push(w);
        } else {
            plain.push(w);
        }
    }
    lp.drain();
    let d = lp.ledger;
    let iters = pool.metrics().snapshot().totals().iters - iters0;
    let s = ServerCounts::between(&snap0, &server.serve_snapshot(), iters);
    for e in ledger_mismatches(&d, &s) {
        m.error(format!("{name} ledger: {e}"));
    }
    m.attempted = d.attempted;
    m.failed = d.shed + s.failed + s.expired + d.never_completed + (m.errors.len() as u64);
    println!(
        "{name}: ledger attempted {} = completed {} + shed {} + failed {} + never completed {} \
         (server: admitted {}, completed {}, failed {}, dispatches {}, pool iterations {})",
        d.attempted,
        d.returned.saturating_sub(s.failed),
        d.shed,
        s.failed,
        d.never_completed,
        s.admitted,
        s.completed,
        s.failed,
        s.dispatches,
        s.iters
    );

    let pooled = |ws: &[Window], f: fn(&Window) -> &Vec<f64>| {
        Sorted::new(ws.iter().flat_map(|w| f(w).iter().copied()).collect())
    };
    let latency = pooled(&plain, |w| &w.latency_us);
    println!(
        "{name}: {} plain windows, {} latency samples ({} beyond p99)",
        plain.len(),
        latency.len(),
        latency.beyond(0.99)
    );
    // A solve here is one `dispatch_next` batch.
    let solve = pooled(&plain, |w| &w.solve_ms);
    m.set("solve_ms.p50", solve.q(0.5));
    m.set("solve_ms.p90", solve.q(0.9));
    m.set("latency_us.p50", latency.q(0.5));
    m.set("latency_us.p99", latency.q(0.99));
    let completed: u64 = plain.iter().map(|w| w.completed).sum();
    let secs: f64 = plain.iter().map(|w| w.secs).sum();
    m.set("req_per_s", completed as f64 / secs);
    if !traced {
        return;
    }

    let window_p50 = |ws: &[Window]| {
        median(
            ws.iter()
                .map(|w| Sorted::new(w.latency_us.clone()).q(0.5))
                .collect(),
        )
    };
    m.set(
        "trace.overhead_frac",
        window_p50(&traced_windows) / window_p50(&plain) - 1.0,
    );
    let traced_latency = pooled(&traced_windows, |w| &w.latency_us);
    let queue = Sorted::new(layers.queue_us);
    let dispatch_call = Sorted::new(layers.dispatch_us);
    m.set("serve.admit_us.p50", Sorted::new(layers.admit_us).q(0.5));
    m.set("serve.pump_us.p50", Sorted::new(layers.pump_us).q(0.5));
    m.set("serve.dispatch_us.p50", dispatch_call.q(0.5));
    m.set("serve.dispatch_us.p99", dispatch_call.q(0.99));
    m.set("serve.queue_us.p50", queue.q(0.5));
    m.set(
        "serve.batch_size.mean",
        ratio(layers.completed as f64, traced_dispatches as f64),
    );
    m.set("serve.shed_frac", ratio(d.shed as f64, d.attempted as f64));
    let hit = ratio(
        counters.local_grabs as f64,
        (counters.local_grabs + counters.remote_grabs) as f64,
    );
    m.set("serve.affinity_hit", hit);
    m.set("runtime.affinity_hit", hit);
    let per_dispatch = |x: u64| ratio(x as f64, traced_dispatches as f64);
    m.set("runtime.grabs_local", per_dispatch(counters.local_grabs));
    m.set("runtime.grabs_remote", per_dispatch(counters.remote_grabs));
    m.set("runtime.cas_retries", per_dispatch(counters.cas_retries));
    m.set(
        "runtime.barrier_park_frac",
        ratio(
            counters.barrier_park as f64,
            counters.barrier_arrives as f64,
        ),
    );
    // Layer sum: a request's latency is its queue wait plus the dispatch
    // that ran it; the rest (admit, pump, the generator's own work) is
    // the unexplained remainder.
    let lat = traced_latency.q(0.5);
    let explained = queue.q(0.5) + dispatch_call.q(0.5);
    m.set("ledger.unexplained_frac", (lat - explained) / lat);
    println!(
        "ledger: latency p50 {lat:.1} us (traced) vs queue p50 {:.1} us + dispatch p50 {:.1} us \
         = {explained:.1} us; unexplained {:.1} us",
        queue.q(0.5),
        dispatch_call.q(0.5),
        lat - explained
    );
    let rows: Vec<String> = layers
        .requests
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{},{},{},{}",
                r.id,
                r.tenant,
                r.iters,
                r.admit_ns,
                r.admitted_ns,
                r.dispatch_ns,
                r.done_ns,
                r.dispatch_seq
            )
        })
        .collect();
    let path = crate::span_path(name, "requests");
    let header = "id,tenant,iters,admit_ns,admitted_ns,dispatch_ns,done_ns,dispatch_seq";
    if let Err(e) = crate::spans::write_csv(&path, header, &rows) {
        m.error(format!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_sequence() {
        let (mut a, mut b, mut c) = (RequestGen::new(5), RequestGen::new(5), RequestGen::new(6));
        let xs: Vec<LoopRequest> = (0..1000).map(|_| a.next_request()).collect();
        let ys: Vec<LoopRequest> = (0..1000).map(|_| b.next_request()).collect();
        let zs: Vec<LoopRequest> = (0..1000).map(|_| c.next_request()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let small = xs.iter().filter(|r| r.tenant == 0).count();
        assert!(
            (650..850).contains(&small),
            "3/4 small requests, got {small}/1000"
        );
        for r in &xs {
            match r.kernel {
                ServeKernel::Touch => assert!((16..=128).contains(&r.n) && r.phases == 1),
                ServeKernel::Spin { work } => {
                    assert_eq!(work, 2);
                    assert!((256..=512).contains(&r.n) && (1..=2).contains(&r.phases));
                }
            }
        }
    }

    fn balanced() -> (Ledger, ServerCounts) {
        let d = Ledger {
            attempted: 100,
            accepted: 97,
            shed: 3,
            returned: 97,
            never_completed: 0,
            iters: 5000,
        };
        let s = ServerCounts {
            admitted: 97,
            completed: 97,
            failed: 0,
            expired: 0,
            shed: 3,
            dispatches: 10,
            iters: 5000,
        };
        (d, s)
    }

    #[test]
    fn balanced_ledger_passes() {
        let (d, s) = balanced();
        assert!(ledger_mismatches(&d, &s).is_empty());
    }

    #[test]
    fn ledger_check_fails_on_synthetic_mismatches() {
        let (d, s) = balanced();
        let lost = Ledger { returned: 96, ..d };
        assert_eq!(ledger_mismatches(&lost, &s).len(), 2);
        let server_shed_more = ServerCounts { shed: 4, ..s };
        assert_eq!(ledger_mismatches(&d, &server_shed_more).len(), 1);
        let extra_iters = ServerCounts { iters: 5001, ..s };
        assert_eq!(ledger_mismatches(&d, &extra_iters).len(), 1);
        let failed = ServerCounts {
            completed: 96,
            failed: 1,
            iters: 4990,
            ..s
        };
        assert!(ledger_mismatches(&d, &failed).is_empty());
    }

    #[test]
    fn closed_loop_balances_on_a_real_server() {
        let server = build_server(2);
        let snap0 = server.serve_snapshot();
        let mut lp = ClosedLoop::new(&server, RequestGen::new(1));
        let mut layers = Layers::default();
        let until = Instant::now() + Duration::from_millis(50);
        let w = lp
            .run(|_| Instant::now() >= until, Some(&mut layers))
            .expect("requests dispatch");
        lp.drain();
        let iters = server.pool().metrics().snapshot().totals().iters;
        let s = ServerCounts::between(&snap0, &server.serve_snapshot(), iters);
        assert!(w.completed > 0);
        assert_eq!(ledger_mismatches(&lp.ledger, &s), Vec::<String>::new());
        assert_eq!(layers.completed, w.completed);
        assert_eq!(layers.requests.len() as u64, w.completed);
        assert!(layers.requests.iter().all(|r| r.admit_ns <= r.admitted_ns
            && r.admitted_ns <= r.dispatch_ns
            && r.dispatch_ns <= r.done_ns));
    }
}
