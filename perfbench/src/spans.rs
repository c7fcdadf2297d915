//! Benchmark-side body spans for the traced run.
//!
//! The traced solve wraps every call of the loop body it hands to
//! `parallel_phases`. Each worker folds its per-call spans into one
//! record per phase in a thread-local log (first call start, last call
//! end, summed body time), so recording costs two clock reads and no
//! shared writes. After a solve the benchmark drains every worker's log
//! through `Pool::run`, whose worker index becomes the span's slot, and
//! stamps the solve id. Nothing here runs inside the library.

use std::cell::RefCell;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use affinity_sched::runtime::Pool;

/// One worker's calls within one phase of one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Solve id (0-based, traced solves only).
    pub solve: u32,
    /// Phase index within the solve.
    pub phase: u32,
    /// Worker slot (the pool's worker index).
    pub slot: u32,
    /// Start of the worker's first body call in the phase, ns.
    pub first_ns: u64,
    /// End of the worker's last body call in the phase, ns.
    pub last_ns: u64,
    /// Summed duration of the worker's body calls in the phase, ns.
    pub busy_ns: u64,
    /// Body calls (loop iterations) the worker ran in the phase.
    pub calls: u32,
}

/// Nanoseconds since the first clock read of the process.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Log {
    open: Option<Span>,
    done: Vec<Span>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Runs one body call of `phase` and folds its span into this thread's log.
#[inline]
pub fn timed(phase: usize, body: impl FnOnce()) {
    let start = now_ns();
    body();
    let end = now_ns();
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        let phase = phase as u32;
        match &mut log.open {
            Some(s) if s.phase == phase => {
                s.last_ns = end;
                s.busy_ns += end - start;
                s.calls += 1;
            }
            open => {
                let fresh = Span {
                    solve: 0,
                    phase,
                    slot: 0,
                    first_ns: start,
                    last_ns: end,
                    busy_ns: end - start,
                    calls: 1,
                };
                if let Some(prev) = open.replace(fresh) {
                    log.done.push(prev);
                }
            }
        }
    });
}

/// Drains every worker's log after solve `solve`, tagging each span with
/// the solve id and the worker slot that recorded it.
pub fn collect(pool: &Pool, solve: u32) -> Vec<Span> {
    let out = Mutex::new(Vec::new());
    pool.run(|w| {
        let mut mine = LOG.with(|log| {
            let mut log = log.borrow_mut();
            let open = log.open.take();
            let mut done = std::mem::take(&mut log.done);
            done.extend(open);
            done
        });
        for s in &mut mine {
            s.solve = solve;
            s.slot = w as u32;
        }
        out.lock().expect("span collector poisoned").extend(mine);
    });
    out.into_inner().expect("span collector poisoned")
}

/// What one solve's spans say about its phases.
#[derive(Debug, Default, PartialEq)]
pub struct SolveTrace {
    /// Per consecutive phase pair: first body start of phase k+1 minus
    /// the last body end of phase k, ns.
    pub gaps_ns: Vec<u64>,
    /// Per phase run by ≥ 2 workers: spread of the workers' first body
    /// starts, ns.
    pub skews_ns: Vec<u64>,
    /// Per phase: last body end minus first body start, ns.
    pub phase_span_ns: Vec<u64>,
    /// Summed body time per worker slot, ns.
    pub busy_by_slot: Vec<u64>,
    /// Body calls recorded across all workers.
    pub calls: u64,
}

impl SolveTrace {
    /// Total body time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy_by_slot.iter().sum()
    }

    /// Maximum over mean of per-worker body time (1 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let total = self.busy_ns();
        if total == 0 {
            return 1.0;
        }
        let max = *self.busy_by_slot.iter().max().expect("at least one slot");
        max as f64 * self.busy_by_slot.len() as f64 / total as f64
    }
}

/// Reduces one solve's spans on a `p`-worker pool.
pub fn reduce(spans: &[Span], p: usize) -> SolveTrace {
    let phases = spans
        .iter()
        .map(|s| s.phase as usize + 1)
        .max()
        .unwrap_or(0);
    // Per phase: (earliest first start, latest first start, latest end,
    // workers).
    let mut bounds: Vec<Option<(u64, u64, u64, u32)>> = vec![None; phases];
    let mut busy_by_slot = vec![0u64; p];
    let mut calls = 0u64;
    for s in spans {
        busy_by_slot[s.slot as usize] += s.busy_ns;
        calls += s.calls as u64;
        let b = &mut bounds[s.phase as usize];
        *b = Some(match *b {
            None => (s.first_ns, s.first_ns, s.last_ns, 1),
            Some((lo, hi, end, n)) => (
                lo.min(s.first_ns),
                hi.max(s.first_ns),
                end.max(s.last_ns),
                n + 1,
            ),
        });
    }
    let mut out = SolveTrace {
        busy_by_slot,
        calls,
        ..SolveTrace::default()
    };
    for (k, b) in bounds.iter().enumerate() {
        let Some((lo, hi, end, workers)) = *b else {
            continue;
        };
        out.phase_span_ns.push(end - lo);
        if workers >= 2 {
            out.skews_ns.push(hi - lo);
        }
        if let Some(Some((next_lo, ..))) = bounds.get(k + 1) {
            out.gaps_ns.push(next_lo.saturating_sub(end));
        }
    }
    out
}

/// Writes all spans as CSV to `path`, once, when the run ends.
pub fn write_csv(path: &std::path::Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()
}

impl Span {
    /// Header matching [`Span::csv`].
    pub const CSV_HEADER: &'static str = "solve,phase,slot,first_ns,last_ns,busy_ns,calls";

    /// One CSV row.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.solve,
            self.phase,
            self.slot,
            self.first_ns,
            self.last_ns,
            self.busy_ns,
            self.calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: u32, slot: u32, first_ns: u64, last_ns: u64, busy_ns: u64) -> Span {
        Span {
            solve: 0,
            phase,
            slot,
            first_ns,
            last_ns,
            busy_ns,
            calls: 2,
        }
    }

    #[test]
    fn gaps_and_skews_follow_phase_boundaries() {
        // Phase 0: workers start at 100 and 130, last end 500.
        // Phase 1: starts 540 and 520, last end 900 → gap 20, skew 20.
        // Phase 2: only worker 1 runs, starting 1000 → gap 100, no skew.
        let spans = [
            span(0, 0, 100, 480, 300),
            span(0, 1, 130, 500, 350),
            span(1, 1, 520, 880, 300),
            span(1, 0, 540, 900, 340),
            span(2, 1, 1000, 1100, 100),
        ];
        let t = reduce(&spans, 2);
        assert_eq!(t.gaps_ns, vec![20, 100]);
        assert_eq!(t.skews_ns, vec![30, 20]);
        assert_eq!(t.phase_span_ns, vec![400, 380, 100]);
        assert_eq!(t.busy_by_slot, vec![640, 750]);
        assert_eq!(t.calls, 10);
        assert!((t.imbalance() - 750.0 * 2.0 / 1390.0).abs() < 1e-12);
    }

    #[test]
    fn a_missing_phase_breaks_the_gap_chain() {
        let spans = [span(0, 0, 0, 10, 10), span(2, 0, 50, 60, 10)];
        let t = reduce(&spans, 2);
        assert!(t.gaps_ns.is_empty());
        assert!(t.skews_ns.is_empty());
        // Worker 1 did nothing: all the work sat on one of two workers.
        assert_eq!(t.imbalance(), 2.0);
    }

    #[test]
    fn timed_folds_calls_per_phase_on_this_thread() {
        for phase in [0, 0, 0, 1, 1] {
            timed(phase, || {});
        }
        let (open, done) = LOG.with(|l| {
            let mut l = l.borrow_mut();
            (l.open.take(), std::mem::take(&mut l.done))
        });
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].phase, done[0].calls), (0, 3));
        let open = open.expect("phase 1 still open");
        assert_eq!((open.phase, open.calls), (1, 2));
        assert!(open.first_ns >= done[0].last_ns);
    }
}
