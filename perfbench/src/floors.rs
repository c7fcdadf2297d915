//! Host floors and the empty-dispatch probe, measured in every run so a
//! noisy or drifting host shows up as a floor shift beside the layers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use affinity_sched::runtime::Pool;

use crate::stats::{us, Sorted};
use crate::Measured;

/// Round trips per spin ping-pong batch; the floor is the median batch mean.
const SPIN_BATCH: u64 = 2_000;
const SPIN_BATCHES: usize = 25;
/// Park/unpark round trips, each timed on its own.
const WAKE_ROUND_TRIPS: usize = 2_000;
/// Empty `Pool::run` round trips: 2000 puts 20 samples beyond p99.
const DISPATCH_ROUND_TRIPS: usize = 2_000;

/// Two-thread ping-pong on one atomic word, both sides spinning: the cost
/// of moving a cache line there and back.
fn spin_round_trip_us() -> f64 {
    let word = AtomicU64::new(0);
    let rounds = SPIN_BATCH * SPIN_BATCHES as u64;
    let mut batch_us = Vec::with_capacity(SPIN_BATCHES);
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..rounds {
                while word.load(Ordering::Acquire) != 2 * k + 1 {
                    std::hint::spin_loop();
                }
                word.store(2 * k + 2, Ordering::Release);
            }
        });
        for b in 0..SPIN_BATCHES as u64 {
            let t0 = Instant::now();
            for k in b * SPIN_BATCH..(b + 1) * SPIN_BATCH {
                word.store(2 * k + 1, Ordering::Release);
                while word.load(Ordering::Acquire) != 2 * k + 2 {
                    std::hint::spin_loop();
                }
            }
            batch_us.push(us(t0.elapsed()) / SPIN_BATCH as f64);
        }
    });
    Sorted::new(batch_us).q(0.5)
}

/// Two-thread ping-pong where each side parks until the other unparks it:
/// the cost of a kernel wake-to-run, twice.
fn wake_round_trip_us() -> f64 {
    let ping = AtomicBool::new(false);
    let pong = AtomicBool::new(false);
    let main = std::thread::current();
    let mut samples = Vec::with_capacity(WAKE_ROUND_TRIPS);
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            for _ in 0..WAKE_ROUND_TRIPS {
                while !ping.swap(false, Ordering::AcqRel) {
                    std::thread::park();
                }
                pong.store(true, Ordering::Release);
                main.unpark();
            }
        });
        for _ in 0..WAKE_ROUND_TRIPS {
            let t0 = Instant::now();
            ping.store(true, Ordering::Release);
            peer.thread().unpark();
            while !pong.swap(false, Ordering::AcqRel) {
                std::thread::park();
            }
            samples.push(us(t0.elapsed()));
        }
    });
    Sorted::new(samples).q(0.5)
}

/// Records the two host floors, µs per round trip.
pub fn record_floors(m: &mut Measured) {
    m.set("floor.spin_rt_us", spin_round_trip_us());
    m.set("floor.wake_rt_us", wake_round_trip_us());
}

/// Records `runtime.dispatch_us.p50/.p99`: empty `Pool::run` round trips
/// on the workload's own pool.
pub fn record_dispatch(pool: &Pool, m: &mut Measured) {
    let samples = (0..DISPATCH_ROUND_TRIPS)
        .map(|_| {
            let t0 = Instant::now();
            pool.run(|_| {});
            us(t0.elapsed())
        })
        .collect();
    let samples = Sorted::new(samples);
    m.set("runtime.dispatch_us.p50", samples.q(0.5));
    m.set("runtime.dispatch_us.p99", samples.q(0.99));
}
