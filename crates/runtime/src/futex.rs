//! Raw `futex(2)` wait/wake on the low half of a 64-bit atomic word.
//!
//! The sense-reversing barrier's whole state is one monotone `AtomicU64`
//! generation word. Parking through a `Mutex<()>` + condvar eventcount
//! (the portable path in [`crate::barrier`]) drags two more cache lines
//! and a lock hand-off onto the hottest path in every phase; a futex waits
//! on **the generation word itself** — no mutex, no sleeper registry, and
//! the kernel's atomic compare-against-expected closes the lost-wakeup
//! window without any user-space protocol.
//!
//! `FUTEX_WAIT`/`FUTEX_WAKE` operate on 32-bit words, so waiters watch the
//! *low half* of the 64-bit generation (offset 0 little-endian, 4
//! big-endian). Truncation is harmless here: a waiter of generation `g`
//! blocks further arrivals, so the word can advance at most once (to `g`)
//! while the waiter is deciding to sleep — the classic ABA window is
//! structurally empty (see DESIGN.md §13).
//!
//! The binding is a direct `extern "C"` declaration of the `syscall(2)`
//! entry point with the per-arch `futex` number — no external crates, the
//! same style as `sched_setaffinity` pinning and the `perf_event_open`
//! wrapper. Off Linux (or on arches we have no number for) the module
//! reports `supported() == false` and callers keep the eventcount path.

use std::sync::atomic::AtomicU64;
use std::time::Duration;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: i64 = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: i64 = 98;

    const FUTEX_WAIT: i32 = 0;
    const FUTEX_WAKE: i32 = 1;
    /// Process-private futex: skips the cross-process hash, which is all we
    /// need — every waiter lives in this pool's own address space.
    const FUTEX_PRIVATE_FLAG: i32 = 128;

    extern "C" {
        fn syscall(num: i64, ...) -> i64;
    }

    /// Address of the 32-bit half of `word` that holds the low-order bits.
    #[inline]
    fn low_half(word: &AtomicU64) -> *const u32 {
        let p = word.as_ptr() as *const u32;
        if cfg!(target_endian = "big") {
            // On big-endian the low-order half is the second u32.
            unsafe { p.add(1) }
        } else {
            p
        }
    }

    pub const fn supported() -> bool {
        true
    }

    /// `struct timespec` on the 64-bit Linux targets above.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[inline]
    pub fn wait(word: &AtomicU64, expected: u64, timeout: Option<Duration>) {
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `low_half` points into a live AtomicU64 (4-byte aligned
        // because the u64 is 8-byte aligned); the kernel atomically compares
        // *uaddr against `expected as u32` and sleeps only on equality, so a
        // store that already happened makes this return immediately
        // (EAGAIN). A NULL timeout means wait indefinitely, otherwise `ts`
        // (alive for the call) is a relative timeout (ETIMEDOUT); spurious
        // wakeups are allowed and the caller re-checks in a loop.
        unsafe {
            syscall(
                SYS_FUTEX,
                low_half(word),
                FUTEX_WAIT | FUTEX_PRIVATE_FLAG,
                expected as u32,
                ts_ptr,
            );
        }
    }

    #[inline]
    pub fn wake_all(word: &AtomicU64) {
        // SAFETY: same pointer validity as `wait`; waking is value-blind.
        unsafe {
            syscall(
                SYS_FUTEX,
                low_half(word),
                FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
                i32::MAX, // wake every waiter
            );
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    pub const fn supported() -> bool {
        false
    }

    pub fn wait(_word: &AtomicU64, _expected: u64, _timeout: Option<Duration>) {
        unreachable!("futex path taken on an unsupported target");
    }

    pub fn wake_all(_word: &AtomicU64) {
        unreachable!("futex path taken on an unsupported target");
    }
}

/// Whether this target has a usable `futex(2)`. Callers must take the
/// eventcount fallback when `false`; [`wait`]/[`wake_all`] panic there.
pub const fn supported() -> bool {
    imp::supported()
}

/// Blocks the calling thread while `word`'s low 32 bits still equal
/// `expected`'s low 32 bits. May return spuriously; callers re-check the
/// full 64-bit value in a loop. No-op check is atomic in the kernel, so a
/// concurrent store-then-wake cannot be lost.
#[inline]
pub fn wait(word: &AtomicU64, expected: u64) {
    imp::wait(word, expected, None);
}

/// [`wait`] bounded by `timeout`: also returns once `timeout` has elapsed.
/// Callers re-check both the word and their deadline in a loop.
#[inline]
pub fn wait_timeout(word: &AtomicU64, expected: u64, timeout: Duration) {
    imp::wait(word, expected, Some(timeout));
}

/// Wakes every thread parked in [`wait`] on `word`.
#[inline]
pub fn wake_all(word: &AtomicU64) {
    imp::wake_all(word);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn wait_returns_immediately_when_value_already_changed() {
        if !supported() {
            return;
        }
        let word = AtomicU64::new(7);
        // Expected 3 ≠ current 7: the kernel's compare fails, no sleep.
        wait(&word, 3);
    }

    #[test]
    fn wake_crosses_threads() {
        if !supported() {
            return;
        }
        let word = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while word.load(Ordering::SeqCst) == 0 {
                    wait(&word, 0);
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            word.store(1, Ordering::SeqCst);
            wake_all(&word);
        });
        assert_eq!(word.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wake_with_no_waiters_is_harmless() {
        if !supported() {
            return;
        }
        let word = AtomicU64::new(42);
        wake_all(&word);
        assert_eq!(word.load(Ordering::SeqCst), 42);
    }
}
