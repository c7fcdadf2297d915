//! Re-arm differential tests at the source level.
//!
//! The parallel drivers build one work source per region and re-arm it at
//! every phase boundary instead of building a fresh one. That is only
//! sound if a re-armed source is indistinguishable from a fresh one: for
//! every source kind, the grab sequence handed out after `rearm(n)` must
//! equal the sequence of a source freshly built for `n` — whether the
//! previous phase was drained or abandoned half-way (a region halted by a
//! body panic under `SkipRemaining`). Phase lengths change every phase and
//! cover empty loops, loops shorter than P, uneven splits and a
//! Gauss-style decreasing run.

use afs_core::policy::{AccessKind, Scheduler};
use afs_core::range::IterRange;
use afs_core::schedulers::{Affinity, AffinityLastExec, Factoring, Gss, SelfSched, Trapezoid};
use afs_runtime::source::{
    AfsSource, FetchAddSource, LockedAfsSource, LockedSource, StaticSource, WorkSource,
};
use afs_runtime::source_le::{AfsLeSource, LeHistory};
use std::sync::Arc;

const P: usize = 4;

/// Phase lengths of one region: uneven splits, a Gauss-style decreasing
/// run down to loops shorter than P and an empty loop, then a reset.
const LENS: [u64; 10] = [1000, 997, 513, 64, 7, 3, 1, 0, 1000, 250];

type Build = Box<dyn Fn(u64) -> Box<dyn WorkSource>>;

/// A named factory of [`Build`]ers.
type Kind = (&'static str, fn() -> Build);

/// Every source kind, as a factory of builders: each call returns a
/// builder with its own cross-loop state (AFS-LE history, a stateful core
/// scheduler), so the re-armed and the freshly built side never share it.
fn kinds() -> Vec<Kind> {
    fn locked(sched: impl Scheduler + 'static) -> Build {
        let sched: Arc<dyn Scheduler> = Arc::new(sched);
        Box::new(move |n| Box::new(LockedSource::new(Arc::clone(&sched), n, P)))
    }
    vec![
        ("AFS", || {
            Box::new(|n| Box::new(AfsSource::new(n, P, P as u64)))
        }),
        ("AFS(k=2,ga=4)", || {
            Box::new(|n| Box::new(AfsSource::new(n, P, 2).with_grab_ahead(4)))
        }),
        ("LockedAFS", || {
            Box::new(|n| Box::new(LockedAfsSource::new(n, P, P as u64)))
        }),
        ("AFS-LE", || {
            let history = Arc::new(LeHistory::new());
            Box::new(move |n| Box::new(AfsLeSource::new(n, P, P as u64, Arc::clone(&history))))
        }),
        ("SS", || Box::new(|n| Box::new(FetchAddSource::new(n, 1)))),
        ("CSS(7)", || {
            Box::new(|n| Box::new(FetchAddSource::new(n, 7)))
        }),
        ("STATIC", || Box::new(|n| Box::new(StaticSource::new(n, P)))),
        ("locked SS", || locked(SelfSched::new())),
        ("locked GSS", || locked(Gss::new())),
        ("locked FACTORING", || locked(Factoring::new())),
        ("locked TRAPEZOID", || locked(Trapezoid::new())),
        ("locked AFS", || locked(Affinity::with_k_equals_p())),
        ("locked AFS-LE", || {
            locked(AffinityLastExec::with_k_equals_p())
        }),
    ]
}

/// One handed-out grab: (worker, range, queue, access).
type Step = (usize, IterRange, usize, AccessKind);

/// Drives `src` single-threaded in a fixed worker order that forces
/// steals, until every worker comes back empty — or, when `half`, until
/// at least half of the `n` iterations are handed out (the region is then
/// abandoned, as a halted region abandons its phase).
fn drive(src: &dyn WorkSource, n: u64, half: bool) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut handed = 0;
    let mut idle = 0;
    for i in 0.. {
        if idle == P || (half && 2 * handed >= n) {
            break;
        }
        let w = (i * 7 + i / 5) % P;
        match src.next(w) {
            Some(g) => {
                handed += g.range.len();
                steps.push((w, g.range, g.queue, g.access));
                idle = 0;
            }
            None => idle += 1,
        }
    }
    steps
}

/// Runs one region of `LENS` phases twice — re-arming one source, and
/// building a fresh source per phase — abandoning phase `j` half-way when
/// `half(j)`, and requires the two grab sequences to agree phase by phase.
fn differential(half: impl Fn(usize) -> bool) {
    for (name, kind) in kinds() {
        let (rearmed_side, fresh_side) = (kind(), kind());
        let rearmed = rearmed_side(LENS[0]);
        for (j, &n) in LENS.iter().enumerate() {
            if j > 0 {
                rearmed.rearm(n);
            }
            let fresh = fresh_side(n);
            let a = drive(&*rearmed, n, half(j));
            let b = drive(&*fresh, n, half(j));
            assert_eq!(a, b, "{name}: phase {j} (n = {n}) diverged after re-arm");
            if !half(j) {
                let covered: u64 = a.iter().map(|s| s.1.len()).sum();
                assert_eq!(covered, n, "{name}: phase {j} did not cover its loop");
            }
        }
    }
}

#[test]
fn rearm_after_drained_phases_matches_fresh_sources() {
    differential(|_| false);
}

#[test]
fn rearm_after_abandoned_phases_matches_fresh_sources() {
    // Alternate abandoned and drained phases both ways round, so every
    // phase is entered once from each kind of predecessor.
    differential(|j| j % 2 == 0);
    differential(|j| j % 2 == 1);
}

/// `FetchAddSource::rearm_with` resets the chunk as well as the length, so
/// SS and CSS(c) loops can share one source: after every re-arm the grabs
/// are exactly those of `FetchAddSource::new(n, chunk)`, whether the
/// previous phase was drained or abandoned half-way, and whatever chunk
/// it ran with.
#[test]
fn fetch_add_rearm_with_a_new_chunk_matches_fresh_sources() {
    const CHUNKS: [u64; 10] = [1, 7, 16, 1, 3, 64, 1, 5, 2, 1000];
    let patterns: [fn(usize) -> bool; 3] = [|_| false, |j| j % 2 == 0, |j| j % 2 == 1];
    for half in patterns {
        let rearmed = FetchAddSource::new(LENS[0], CHUNKS[0]);
        for (j, (&n, &chunk)) in LENS.iter().zip(&CHUNKS).enumerate() {
            if j > 0 {
                rearmed.rearm_with(n, chunk);
            }
            let fresh = FetchAddSource::new(n, chunk);
            let a = drive(&rearmed, n, half(j));
            let b = drive(&fresh, n, half(j));
            assert_eq!(
                a, b,
                "phase {j} (n = {n}, chunk = {chunk}) diverged after re-arm"
            );
            if !half(j) {
                let covered: u64 = a.iter().map(|s| s.1.len()).sum();
                assert_eq!(covered, n, "phase {j} did not cover its loop");
            }
        }
    }
}
