//! The solve workloads.
//!
//! * `sor-phases` — `par_sor`, n = 64, 1000 steps per solve: ~16 µs of
//!   work per phase on an L1/L2-resident grid, so barrier, wake and grab
//!   costs dominate.
//! * `adjoint-imbalance` — `par_adjoint` (forward order), n = 100: one
//!   loop of 10⁴ iterations with linearly decreasing cost, so the loop
//!   body and stealing decide the time, not turnaround.
//!
//! Every solve starts from a clone of the seeded input and is compared bit
//! for bit against the sequential reference.

use std::time::{Duration, Instant};

use affinity_sched::apps::{par_adjoint, par_sor};
use affinity_sched::core::rng::Xoshiro256;
use affinity_sched::kernels::adjoint::AdjointConvolution;
use affinity_sched::kernels::sor::{update_row_into, SorGrid};
use affinity_sched::metrics::CounterSnapshot;
use affinity_sched::runtime::{parallel_phases, Pool, RowMatrix, RuntimeScheduler};

use crate::stats::{median, ms, ratio, Sorted};
use crate::{floors, spans, workers, Measured, SETUP_REPS};

const SOR_N: usize = 64;
const SOR_STEPS: usize = 1000;
const ADJOINT_N: usize = 100;
/// Traced solves whose spans are kept for the span file; the layer
/// numbers use every traced solve.
const KEPT_SPAN_SOLVES: u32 = 64;
/// Fewest solves per run: 100 puts ≥ 10 samples beyond p90.
const MIN_SOLVES: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Sor,
    Adjoint,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Sor => "sor-phases",
            Kernel::Adjoint => "adjoint-imbalance",
        }
    }

    /// Parallel phases per solve.
    fn phases(self) -> usize {
        match self {
            Kernel::Sor => SOR_STEPS,
            Kernel::Adjoint => 1,
        }
    }

    /// Loop iterations per solve, across all phases.
    fn iterations(self) -> u64 {
        match self {
            Kernel::Sor => (SOR_N * SOR_STEPS) as u64,
            Kernel::Adjoint => (ADJOINT_N * ADJOINT_N) as u64,
        }
    }

    /// Warm-up solves per setup: enough to fault in the buffers and let
    /// the pool settle, the same count in every setup.
    fn warmup(self) -> usize {
        match self {
            Kernel::Sor => 8,
            Kernel::Adjoint => 3,
        }
    }
}

/// One solve's state; cloned from the seeded input before every solve.
#[derive(Clone)]
pub enum Input {
    Sor(SorGrid),
    Adjoint(AdjointConvolution),
}

impl Input {
    /// The seeded input of `kernel`.
    pub fn generate(kernel: Kernel, seed: u64) -> Input {
        match kernel {
            Kernel::Sor => {
                let mut grid = SorGrid::new(SOR_N);
                let mut rng = Xoshiro256::seed_from_u64(seed);
                grid.a.iter_mut().for_each(|v| *v = rng.next_f64());
                grid.b = grid.a.clone();
                Input::Sor(grid)
            }
            Kernel::Adjoint => Input::Adjoint(AdjointConvolution::new(ADJOINT_N, seed)),
        }
    }

    fn solve_seq(&mut self) {
        match self {
            Input::Sor(g) => g.run_sequential(SOR_STEPS),
            Input::Adjoint(a) => a.run_sequential(),
        }
    }

    fn solve_par(&mut self, pool: &Pool, policy: &RuntimeScheduler) {
        match self {
            Input::Sor(g) => {
                par_sor(pool, g, SOR_STEPS, policy);
            }
            Input::Adjoint(a) => {
                par_adjoint(pool, a, policy, false);
            }
        }
    }

    /// The same computation as [`Input::solve_par`], through
    /// `parallel_phases` directly so every body call is wrapped in a span.
    fn solve_traced(&mut self, pool: &Pool, policy: &RuntimeScheduler) {
        match self {
            Input::Sor(grid) => {
                let n = grid.n();
                let a = RowMatrix::from_vec(std::mem::take(&mut grid.a), n, n);
                let b = RowMatrix::from_vec(std::mem::take(&mut grid.b), n, n);
                parallel_phases(
                    pool,
                    SOR_STEPS,
                    |_| n as u64,
                    policy,
                    |phase, i| {
                        let (src, dst) = if phase % 2 == 0 { (&a, &b) } else { (&b, &a) };
                        spans::timed(phase, || {
                            // SAFETY: `src` is read-only this phase (buffers
                            // alternate), and row `i` of `dst` is written only
                            // by iteration `i`.
                            unsafe {
                                update_row_into(src.full(), dst.row_mut(i as usize), n, i as usize)
                            }
                        });
                    },
                );
                grid.a = a.into_vec();
                grid.b = b.into_vec();
            }
            Input::Adjoint(adj) => {
                let len = adj.len();
                let out = RowMatrix::from_vec(std::mem::take(&mut adj.a), len as usize, 1);
                let adj_ref: &AdjointConvolution = adj;
                parallel_phases(
                    pool,
                    1,
                    |_| len,
                    policy,
                    |phase, i| {
                        spans::timed(phase, || {
                            // SAFETY: element `i` is written only by this iteration.
                            unsafe { out.row_mut(i as usize)[0] = adj_ref.element(i) }
                        });
                    },
                );
                adj.a = out.into_vec();
            }
        }
    }

    /// Whether every output word equals `other`'s bit for bit.
    pub fn same_bits(&self, other: &Input) -> bool {
        fn eq(x: &[f64], y: &[f64]) -> bool {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        match (self, other) {
            (Input::Sor(x), Input::Sor(y)) => eq(&x.a, &y.a) && eq(&x.b, &y.b),
            (Input::Adjoint(x), Input::Adjoint(y)) => eq(&x.a, &y.a) && eq(&x.b, &y.b),
            _ => false,
        }
    }
}

fn totals(pool: &Pool) -> CounterSnapshot {
    pool.metrics().snapshot().totals()
}

/// Pool counter deltas of the traced solves: per solve, and summed.
#[derive(Default)]
struct Grabs {
    local: Vec<f64>,
    remote: Vec<f64>,
    cas: Vec<f64>,
    sum: CounterSnapshot,
}

pub fn run(kernel: Kernel, (seed, seconds, traced): (u64, f64, bool), m: &mut Measured) {
    let p = workers();
    let policy = RuntimeScheduler::afs_k_equals_p();
    let name = kernel.name();

    // Set-up, several times: pool, seeded input, sequential reference,
    // warm-up solves. The last one's state is kept.
    let mut setup_s = Vec::new();
    let mut seq_ms = Vec::new();
    let mut kept: Option<(Pool, Input, Input)> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let pool = Pool::new(p);
        let input = Input::generate(kernel, seed);
        let mut reference = input.clone();
        let ts = Instant::now();
        reference.solve_seq();
        seq_ms.push(ms(ts.elapsed()));
        for _ in 0..kernel.warmup() {
            let mut s = input.clone();
            s.solve_par(&pool, &policy);
            if !s.same_bits(&reference) {
                m.error(format!(
                    "{name}: warm-up solve differs from the sequential reference"
                ));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((pool, input, reference));
    }
    let (pool, input, reference) = kept.expect("SETUP_REPS > 0");
    m.setup(setup_s);
    m.set("kernels.seq_ms", median(seq_ms));

    floors::record_dispatch(&pool, m);

    // Measurement. The traced run alternates plain and traced solves, so
    // both see the same host state; its plain solves give the baseline
    // for the tracing overhead.
    let mut plain = Vec::new();
    let mut traced_walls = Vec::new();
    let mut gaps = Vec::new();
    let mut skews = Vec::new();
    let mut phase_spans = Vec::new();
    let mut busy_frac = Vec::new();
    let mut imbalance = Vec::new();
    let mut grabs = Grabs::default();
    let mut all_spans = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut solves = 0usize;
    while Instant::now() < deadline || solves < MIN_SOLVES {
        let mut s = input.clone();
        if traced && solves % 2 == 1 {
            let before = totals(&pool);
            let t0 = Instant::now();
            s.solve_traced(&pool, &policy);
            let wall = t0.elapsed();
            let delta = totals(&pool).minus(&before);
            let id = traced_walls.len() as u32;
            let solve_spans = spans::collect(&pool, id);
            let t = spans::reduce(&solve_spans, p);
            if t.calls != kernel.iterations() || delta.iters != kernel.iterations() {
                m.error(format!(
                    "{name}: traced solve {id} ran {} body calls and counted {} iterations, expected {}",
                    t.calls,
                    delta.iters,
                    kernel.iterations()
                ));
            }
            traced_walls.push(ms(wall));
            gaps.extend(t.gaps_ns.iter().map(|&g| g as f64 / 1e3));
            skews.extend(t.skews_ns.iter().map(|&g| g as f64 / 1e3));
            phase_spans.extend(t.phase_span_ns.iter().map(|&g| g as f64 / 1e3));
            busy_frac.push(t.busy_ns() as f64 / (p as f64 * wall.as_nanos() as f64));
            imbalance.push(t.imbalance());
            grabs.local.push(delta.local_grabs as f64);
            grabs.remote.push(delta.remote_grabs as f64);
            grabs.cas.push(delta.cas_retries as f64);
            grabs.sum.add(&delta);
            if id < KEPT_SPAN_SOLVES {
                all_spans.extend(solve_spans);
            }
        } else {
            let t0 = Instant::now();
            s.solve_par(&pool, &policy);
            plain.push(ms(t0.elapsed()));
        }
        solves += 1;
        m.attempted += 1;
        if !s.same_bits(&reference) {
            m.failed += 1;
            m.error(format!(
                "{name}: solve {solves} differs from the sequential reference"
            ));
        }
    }
    let window = started.elapsed();

    let plain = Sorted::new(plain);
    println!(
        "{name}: {} solves in {:.2} s ({} plain, {} beyond p90, {} beyond p99)",
        solves,
        window.as_secs_f64(),
        plain.len(),
        plain.beyond(0.9),
        plain.beyond(0.99)
    );
    // A solve workload is a closed loop of one outstanding request: a
    // request's latency is its solve's wall time.
    m.set("solve_ms.p50", plain.q(0.5));
    m.set("solve_ms.p90", plain.q(0.9));
    m.set("latency_us.p50", plain.q(0.5) * 1e3);
    m.set("latency_us.p99", plain.q(0.99) * 1e3);
    m.set("req_per_s", 1e3 / plain.mean());
    if !traced {
        return;
    }

    let traced_walls = Sorted::new(traced_walls);
    let gap_p50 = Sorted::new(gaps).q(0.5);
    let mean_phase_us = Sorted::new(phase_spans).mean();
    if kernel.phases() > 1 {
        m.set("runtime.phase_gap_us.p50", gap_p50);
    }
    m.set("runtime.wake_skew_us.p50", Sorted::new(skews).q(0.5));
    m.set("runtime.body_busy_frac", median(busy_frac));
    m.set("runtime.imbalance", median(imbalance));
    m.set("runtime.grabs_local", median(grabs.local));
    m.set("runtime.grabs_remote", median(grabs.remote));
    m.set("runtime.cas_retries", median(grabs.cas));
    let s = &grabs.sum;
    m.set(
        "runtime.affinity_hit",
        ratio(
            s.local_grabs as f64,
            (s.local_grabs + s.remote_grabs) as f64,
        ),
    );
    m.set(
        "runtime.barrier_park_frac",
        ratio(s.barrier_park as f64, s.barrier_arrives as f64),
    );
    m.set(
        "trace.overhead_frac",
        traced_walls.q(0.5) / plain.q(0.5) - 1.0,
    );
    // Layer sum: a solve is its phases' body spans plus the gaps between
    // them; whatever else the wall holds (dispatch, final barrier, the
    // caller's wake) is the unexplained remainder.
    let solve_us = traced_walls.q(0.5) * 1e3;
    let explained_us = kernel.phases() as f64 * (gap_p50 + mean_phase_us);
    m.set(
        "ledger.unexplained_frac",
        (solve_us - explained_us) / solve_us,
    );
    println!(
        "ledger: solve p50 {:.1} us (traced) vs {} phases x (gap p50 {:.2} us + mean phase span {:.2} us) \
         = {:.1} us; unexplained {:.1} us; plain solve p50 {:.1} us",
        solve_us,
        kernel.phases(),
        gap_p50,
        mean_phase_us,
        explained_us,
        solve_us - explained_us,
        plain.q(0.5) * 1e3
    );
    let rows: Vec<String> = all_spans.iter().map(spans::Span::csv).collect();
    let path = crate::span_path(name, "spans");
    if let Err(e) = spans::write_csv(&path, spans::Span::CSV_HEADER, &rows) {
        m.error(format!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kernel in [Kernel::Sor, Kernel::Adjoint] {
            let a = Input::generate(kernel, 11);
            assert!(a.same_bits(&Input::generate(kernel, 11)));
            assert!(!a.same_bits(&Input::generate(kernel, 12)));
        }
    }

    #[test]
    fn traced_and_plain_solves_match_the_reference() {
        let pool = Pool::new(2);
        let policy = RuntimeScheduler::afs_k_equals_p();
        let input = Input::generate(Kernel::Sor, 3);
        let mut reference = input.clone();
        reference.solve_seq();
        let mut plain = input.clone();
        plain.solve_par(&pool, &policy);
        let mut traced = input.clone();
        traced.solve_traced(&pool, &policy);
        assert!(plain.same_bits(&reference));
        assert!(traced.same_bits(&reference));
        let t = spans::reduce(&spans::collect(&pool, 0), 2);
        assert_eq!(t.calls, Kernel::Sor.iterations());
        assert_eq!(t.phase_span_ns.len(), SOR_STEPS);
        assert_eq!(t.gaps_ns.len(), SOR_STEPS - 1);
    }
}
