//! Lock-free work-stealing primitives for subtask migration.
//!
//! Algorithm 1 migrates parallelizable subtasks to idle cores. The
//! original runtime implemented the handoff with a `Mutex<VecDeque>` +
//! `Condvar` mailbox per core — correct, but every migrated subtask paid a
//! lock acquisition, a heap-boxed closure, and a futex wake, and the owner
//! had to *predict* which cores would still be idle by the time the work
//! arrived. This module replaces that with a bounded **Chase–Lev deque**:
//!
//! * the **owner** pushes subtask *tickets* onto the bottom of its own
//!   deque and pops them back LIFO as it works through the stage;
//! * **idle cores steal** tickets from the top, FIFO, using a single CAS —
//!   no locks, no allocation, no syscalls;
//! * RT-OPEX's δ admission check moves to **steal time** (see
//!   [`DeltaGuard`]): a thief only takes work whose migrated execution
//!   `tp + δ` fits both its own idle window and the task's remaining
//!   deadline slack. The owner no longer guesses remote capacity — if no
//!   core has real spare cycles, nothing is stolen and the owner simply
//!   pops its own tickets, degrading gracefully to serial execution.
//!
//! A ticket is a bare `u64` (see [`encode_ticket`]) indexing a
//! preallocated slot arena owned by the publishing core, so the steady
//! state performs no heap allocation anywhere on the migration path.
//!
//! The deque is *bounded* (capacity fixed at construction, rounded up to a
//! power of two) and stores plain `u64`s in `AtomicU64` slots, which makes
//! the classic algorithm expressible in entirely safe Rust: a slot can
//! only be overwritten by a push that wrapped the ring, which the capacity
//! check forbids while any stealer still holds an un-CASed claim on it
//! (`bottom − top` never exceeds the capacity, so an overwrite of slot
//! `t mod cap` implies `top > t`, which makes the stale stealer's CAS
//! fail).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::time::Nanos;
use std::sync::Arc;

/// Result of one steal attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may succeed.
    Retry,
    /// A ticket was taken.
    Taken(u64),
}

struct Inner {
    /// Next index to steal (monotonically increasing).
    top: AtomicU64,
    /// Next index to push (owner-written only).
    bottom: AtomicU64,
    /// Ring capacity minus one (capacity is a power of two).
    mask: u64,
    slots: Box<[AtomicU64]>,
}

impl Inner {
    fn slot(&self, index: u64) -> &AtomicU64 {
        &self.slots[(index & self.mask) as usize]
    }
}

/// Creates a bounded work-stealing deque pair with room for at least
/// `capacity` tickets (rounded up to a power of two, minimum 2).
pub fn steal_pair(capacity: usize) -> (Worker, Stealer) {
    let cap = capacity.max(2).next_power_of_two();
    let inner = Arc::new(Inner {
        top: AtomicU64::new(0),
        bottom: AtomicU64::new(0),
        mask: cap as u64 - 1,
        // analyze: allow(alloc): one-time ring construction at node setup
        slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
        },
        Stealer { inner },
    )
}

/// The owning side of a deque: exactly one thread may push and pop.
/// Deliberately neither `Clone` nor `Sync`; `push`/`pop` take `&mut self`
/// so the single-owner discipline is enforced by the borrow checker.
pub struct Worker {
    inner: Arc<Inner>,
}

impl Worker {
    /// Pushes a ticket onto the bottom. Fails (returning the ticket) when
    /// the ring is full — the caller keeps the subtask local in that case.
    pub fn push(&mut self, ticket: u64) -> Result<(), u64> {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) > self.inner.mask {
            return Err(ticket);
        }
        self.inner.slot(b).store(ticket, Ordering::Relaxed);
        // Release publishes the slot write to stealers that acquire-load
        // `bottom`.
        self.inner.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Pops the most recently pushed ticket (LIFO), racing stealers for
    /// the last element with a CAS on `top`.
    pub fn pop(&mut self) -> Option<u64> {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        if t >= b {
            return None;
        }
        let nb = b - 1;
        // ORDERING: SeqCst store + SeqCst load form the StoreLoad barrier
        // the algorithm needs: the reservation of `bottom` must be globally
        // visible before we trust our `top` read, or a concurrent steal and
        // this pop could both take the last ticket (the model checker's
        // `deque_last_element_race` test fails with anything weaker here).
        self.inner.bottom.store(nb, Ordering::SeqCst);
        // ORDERING: SeqCst — the load half of the StoreLoad pair above; it
        // must be ordered after the `bottom` reservation in the single
        // total order that concurrent stealers' SeqCst loads observe.
        let t = self.inner.top.load(Ordering::SeqCst);
        if t < nb {
            // More than one element remained: slot `nb` is exclusively
            // ours (stealers stop at `bottom`).
            return Some(self.inner.slot(nb).load(Ordering::Relaxed));
        }
        if t == nb {
            // Exactly one element: race any stealer for it.
            // ORDERING: SeqCst success keeps the decisive CAS in the same
            // total order as the stealers' SeqCst top/bottom loads, so
            // exactly one contender wins the last ticket. Failure is
            // Relaxed (Lê et al., CPP'13): a losing owner only restores
            // `bottom` and returns None, using nothing it read.
            let won = self
                .inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            // Either way the deque is now empty; restore canonical form.
            // Relaxed suffices: the store only un-reserves the ticket we
            // no longer hold, and the next publication that makes slot
            // contents reachable again is push's Release `bottom` store
            // (verified by the model's deque suites; Lê et al. use a
            // relaxed store here too).
            self.inner.bottom.store(t + 1, Ordering::Relaxed);
            return won.then(|| self.inner.slot(nb).load(Ordering::Relaxed));
        }
        // t > nb: stealers emptied it under us; undo the reservation.
        // Relaxed for the same reason as the empty-case restore above.
        self.inner.bottom.store(t, Ordering::Relaxed);
        None
    }

    /// True when the deque currently holds no tickets.
    pub fn is_empty(&self) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        t >= b
    }

    /// Another handle for thieves.
    pub fn stealer(&self) -> Stealer {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The stealing side: any number of threads may hold clones and steal
/// concurrently.
#[derive(Clone)]
pub struct Stealer {
    inner: Arc<Inner>,
}

impl Stealer {
    /// Attempts to steal the oldest ticket (FIFO end).
    pub fn steal(&self) -> Steal {
        // ORDERING: SeqCst — paired with pop's SeqCst bottom-store /
        // top-load barrier: if this load is ordered before an owner's
        // reservation in the SC total order, the owner's subsequent `top`
        // read sees our claim (or our CAS fails); Acquire alone would let
        // both sides read stale values and hand out the last ticket twice.
        let t = self.inner.top.load(Ordering::SeqCst);
        // ORDERING: SeqCst — the second half of the emptiness check must
        // not be reordered before the `top` load, and must observe any
        // owner reservation SC-ordered earlier. (Also Acquire: pairs with
        // push's Release `bottom` store so the slot write below is
        // visible.)
        let b = self.inner.bottom.load(Ordering::SeqCst);
        if t >= b {
            return Steal::Empty;
        }
        let v = self.inner.slot(t).load(Ordering::Relaxed);
        // The CAS decides ownership; on failure the value may have been
        // taken by the owner's pop or another thief.
        // ORDERING: SeqCst success joins the claim into the same total
        // order as pop's barrier (see above); Relaxed failure is fine —
        // a losing thief discards `v` and reports Retry.
        match self
            .inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        {
            Ok(_) => Steal::Taken(v),
            Err(_) => Steal::Retry,
        }
    }

    /// Approximate number of stealable tickets (racy, advisory only).
    pub fn len_hint(&self) -> usize {
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        b.saturating_sub(t) as usize
    }
}

/// Maximum subtask index representable in a ticket (exclusive).
pub const MAX_TICKET_INDEX: usize = 256;

/// Packs a stage epoch and a subtask index into one ticket.
///
/// The low 8 bits carry the subtask index (an LTE stage has at most 13
/// code blocks or 8 antenna batches); the remaining 56 bits carry the
/// publishing core's stage epoch, which thieves validate against the
/// owner's arena before executing — a ticket from a completed (recovered)
/// stage is dropped harmlessly.
///
/// # Panics
/// Debug-panics if `idx` does not fit in 8 bits.
pub fn encode_ticket(epoch: u64, idx: usize) -> u64 {
    debug_assert!(idx < MAX_TICKET_INDEX, "subtask index {idx} exceeds u8");
    (epoch << 8) | idx as u64
}

/// Unpacks a ticket into `(epoch, subtask index)`.
pub fn decode_ticket(ticket: u64) -> (u64, usize) {
    (ticket >> 8, (ticket & 0xFF) as usize)
}

/// RT-OPEX's requirement R1 — the one place `tp + δ` meets a free
/// window. Algorithm 1 asks it at plan time how many subtasks an idle
/// core's window `fck` absorbs ([`Self::capacity`]); the steal path asks
/// at steal time, and the owner before publishing, whether one fits
/// ([`Self::admit`]).
#[derive(Clone, Copy, Debug)]
pub struct DeltaGuard {
    /// Per-subtask migration cost δ (the paper measures ≈ 20 µs).
    pub delta: Nanos,
}

impl DeltaGuard {
    /// R1: `⌊window / (tp + δ)⌋`, the subtasks of execution time `tp`
    /// that fit in `window` once each pays the migration cost.
    pub fn capacity(&self, tp: Nanos, window: Nanos) -> usize {
        let cost = tp.0.saturating_add(self.delta.0);
        window
            .0
            .checked_div(cost)
            .map_or(usize::MAX, |n| n as usize)
    }

    /// May a helper take one subtask of execution time `tp`? The migrated
    /// cost `tp + δ` must fit both the helper's `idle_window` (time until
    /// its next own release — don't make it late for its own subframe)
    /// and the task's remaining deadline `slack` (migrating must still be
    /// able to help).
    pub fn admit(&self, tp: Nanos, slack: Nanos, idle_window: Nanos) -> bool {
        self.capacity(tp, slack.min(idle_window)) >= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let (mut w, _s) = steal_pair(8);
        for v in 0..5u64 {
            w.push(v).unwrap();
        }
        for v in (0..5u64).rev() {
            assert_eq!(w.pop(), Some(v));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn steal_is_fifo() {
        let (mut w, s) = steal_pair(8);
        for v in 10..14u64 {
            w.push(v).unwrap();
        }
        assert_eq!(s.steal(), Steal::Taken(10));
        assert_eq!(s.steal(), Steal::Taken(11));
        // Owner pops from the opposite end.
        assert_eq!(w.pop(), Some(13));
        assert_eq!(s.steal(), Steal::Taken(12));
        assert_eq!(s.steal(), Steal::Empty);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn bounded_push_rejects_when_full() {
        let (mut w, s) = steal_pair(2);
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(w.push(3), Err(3));
        // Draining one slot frees capacity again.
        assert_eq!(s.steal(), Steal::Taken(1));
        w.push(3).unwrap();
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (mut w, _s) = steal_pair(3);
        for v in 0..4u64 {
            w.push(v).unwrap();
        }
        assert_eq!(w.push(4), Err(4));
    }

    #[test]
    fn interleaved_wraparound_stays_consistent() {
        let (mut w, s) = steal_pair(4);
        let mut taken = Vec::new();
        let mut next = 0u64;
        for round in 0..64 {
            while w.push(next).is_ok() {
                next += 1;
            }
            if round % 2 == 0 {
                if let Steal::Taken(v) = s.steal() {
                    taken.push(v);
                }
            } else if let Some(v) = w.pop() {
                taken.push(v);
            }
        }
        while let Some(v) = w.pop() {
            taken.push(v);
        }
        taken.sort_unstable();
        let expect: Vec<u64> = (0..next).collect();
        assert_eq!(taken, expect, "every pushed ticket exactly once");
    }

    #[test]
    fn ticket_roundtrip() {
        let t = encode_ticket(0xAB_CDEF, 17);
        assert_eq!(decode_ticket(t), (0xAB_CDEF, 17));
        assert_eq!(decode_ticket(encode_ticket(0, 0)), (0, 0));
    }

    #[test]
    fn delta_guard_checks_both_windows() {
        let g = DeltaGuard {
            delta: Nanos::from_us(20),
        };
        let tp = Nanos::from_us(100);
        // Fits both.
        assert!(g.admit(tp, Nanos::from_us(500), Nanos::from_us(500)));
        // Idle window too small (R1).
        assert!(!g.admit(tp, Nanos::from_us(500), Nanos::from_us(119)));
        // Deadline slack too small.
        assert!(!g.admit(tp, Nanos::from_us(119), Nanos::from_us(500)));
        // Exactly fitting is admissible.
        assert!(g.admit(tp, Nanos::from_us(120), Nanos::from_us(120)));
        // The counting form Algorithm 1 uses: 2·120 ≤ 250 < 3·120.
        assert_eq!(g.capacity(tp, Nanos::from_us(250)), 2);
        // A free subtask fits any window, even an empty one.
        let free = DeltaGuard { delta: Nanos::ZERO };
        assert!(free.admit(Nanos::ZERO, Nanos::ZERO, Nanos::ZERO));
    }

    #[test]
    fn two_thieves_share_one_owner() {
        // Minimal in-module concurrency check; the heavy stress test
        // lives in `tests/steal_stress.rs`.
        let (mut w, s) = steal_pair(1024);
        let total = 10_000u64;
        let stolen = std::sync::atomic::AtomicU64::new(0);
        let popped = std::sync::atomic::AtomicU64::new(0);
        let done = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = s.clone();
                let stolen = &stolen;
                let done = &done;
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Taken(v) => {
                            stolen.fetch_add(v + 1, Ordering::Relaxed);
                        }
                        _ if done.load(Ordering::Acquire) == 1 => break,
                        _ => std::hint::spin_loop(),
                    }
                });
            }
            for v in 0..total {
                while w.push(v).is_err() {
                    if let Some(x) = w.pop() {
                        popped.fetch_add(x + 1, Ordering::Relaxed);
                    }
                }
            }
            while let Some(x) = w.pop() {
                popped.fetch_add(x + 1, Ordering::Relaxed);
            }
            // Drain stragglers the thieves may still claim, then stop them.
            while !w.is_empty() {
                std::hint::spin_loop();
            }
            done.store(1, Ordering::Release);
        });
        // Σ(v+1) over 0..total, counted exactly once each.
        let want = total * (total + 1) / 2;
        assert_eq!(
            stolen.load(Ordering::Relaxed) + popped.load(Ordering::Relaxed),
            want
        );
    }
}
