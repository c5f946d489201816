//! CPU pinning — the paper binds every processing thread to a single core
//! and overrides the OS scheduler (§4.1).
//!
//! The only `unsafe` in the repository lives here, wrapping the two libc
//! calls that have no safe std equivalent. Failures (no permission,
//! non-Linux platform, fewer cores than requested) degrade to a no-op:
//! the runtime still functions, just without the isolation guarantee —
//! the return value tells the caller which world it is in.

/// Result of a pinning attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinOutcome {
    /// The calling thread is now bound to the requested core.
    Pinned,
    /// Pinning was not possible; the thread floats (soft fallback).
    Unpinned,
}

/// Number of CPUs available to this process.
pub fn num_cpus() -> usize {
    // SAFETY: sysconf with a valid name constant has no preconditions.
    let n = unsafe { libc::sysconf(libc::_SC_NPROCESSORS_ONLN) };
    if n < 1 {
        1
    } else {
        n as usize
    }
}

/// Pins the *calling* thread to `core` (modulo the CPU count).
pub fn pin_current_thread(core: usize) -> PinOutcome {
    let cpu = core % num_cpus();
    // SAFETY: CPU_ZERO/CPU_SET operate on a locally owned cpu_set_t of the
    // correct size; sched_setaffinity reads it for the current thread (0).
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(cpu, &mut set);
        if libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0 {
            PinOutcome::Pinned
        } else {
            PinOutcome::Unpinned
        }
    }
}

/// Attempts to raise the calling thread to SCHED_FIFO (the paper's
/// real-time thread class). Almost always requires privileges; returns
/// `false` on refusal, which callers treat as the soft-real-time mode.
pub fn try_set_fifo_priority(priority: i32) -> bool {
    // SAFETY: sched_setscheduler with a valid param struct; no memory
    // handed over to the kernel beyond the call.
    unsafe {
        let param = libc::sched_param {
            sched_priority: priority,
        };
        libc::sched_setscheduler(0, libc::SCHED_FIFO, &param) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_count_positive() {
        assert!(num_cpus() >= 1);
    }

    #[test]
    fn pinning_does_not_crash_and_work_continues() {
        let outcome = pin_current_thread(0);
        // Either world is acceptable; computation must proceed in both.
        let x: u64 = (0..1000).sum();
        assert_eq!(x, 499_500);
        assert!(matches!(outcome, PinOutcome::Pinned | PinOutcome::Unpinned));
    }

    #[test]
    fn pinning_wraps_core_index() {
        // A core index beyond the CPU count must not fail catastrophically.
        let outcome = pin_current_thread(num_cpus() * 7 + 3);
        assert!(matches!(outcome, PinOutcome::Pinned | PinOutcome::Unpinned));
    }

    #[test]
    fn two_threads_pin_to_different_cores() {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    pin_current_thread(i);
                    (0..10_000u64).sum::<u64>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 49_995_000);
        }
    }

    #[test]
    fn fifo_priority_refusal_is_graceful() {
        // In an unprivileged container this returns false; either way the
        // process must keep running.
        let _ = try_set_fifo_priority(10);
    }
}
