//! Preallocated subframe ring between a fronthaul's producer and its
//! consumer: the one receive ring under every transport, and the one
//! place a fronthaul counts what it delivered and what it dropped.
//!
//! All [`SubframeBuf`]s are allocated up front; afterwards they cycle
//! `free → producer → ready → consumer swap → free` with no allocation.
//! The producer is the UDP/TCP receive session's io thread or, in
//! process, the sender ([`crate::inproc::InProcTx`]). When the consumer
//! falls behind, the **oldest** ready subframe is recycled (drop-oldest
//! backpressure) so a slow worker degrades by shedding stale subframes
//! instead of queueing without bound — exactly the failure mode a
//! deadline scheduler wants, since a subframe past its Eq. 3 budget is
//! worthless anyway.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::iface::{Recv, RxStats, StreamParams, SubframeBuf};

struct QState {
    ready: VecDeque<SubframeBuf>,
    free: Vec<SubframeBuf>,
    closed: bool,
    published: u64,
    drops: u64,
}

/// Outcome of [`SwapQueue::pop_swap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pop {
    /// A subframe was swapped into the caller's buffer.
    Got,
    /// Timed out with the queue open and empty.
    TimedOut,
    /// Queue closed and drained.
    Closed,
}

impl From<Pop> for Recv {
    fn from(p: Pop) -> Recv {
        match p {
            Pop::Got => Recv::Subframe,
            Pop::TimedOut => Recv::TimedOut,
            Pop::Closed => Recv::Closed,
        }
    }
}

/// Bounded swap-queue ring of preallocated subframe buffers.
pub struct SwapQueue {
    state: Mutex<QState>,
    cv: Condvar,
    depth: usize,
}

impl SwapQueue {
    /// A ring holding `pool` preallocated buffers, of which at most
    /// `depth` may sit in the ready queue (the drop-oldest horizon);
    /// the rest cover in-flight assembly slots and the consumer's swap
    /// buffer.
    pub fn new(params: &StreamParams, pool: usize, depth: usize) -> Self {
        // analyze: allow(taint-panic): pool/depth are locally computed
        // sizes (depth + cells·slots + 1), never peer bytes — the
        // assert guards caller bugs, not network input
        assert!(pool >= depth && depth >= 1);
        SwapQueue {
            state: Mutex::new(QState {
                ready: VecDeque::with_capacity(pool),
                free: (0..pool).map(|_| SubframeBuf::for_stream(params)).collect(),
                closed: false,
                published: 0,
                drops: 0,
            }),
            cv: Condvar::new(),
            depth,
        }
    }

    /// The state lock. A holder cannot leave the ring half-updated, so
    /// a poisoned lock is taken as it stands.
    fn state(&self) -> MutexGuard<'_, QState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a buffer for assembly: from the freelist, else by
    /// recycling the oldest ready subframe (counted as a drop). `None`
    /// only when every buffer is held by assembly slots or the
    /// consumer — a sizing bug, not a runtime condition.
    pub fn acquire(&self) -> Option<SubframeBuf> {
        let mut st = self.state();
        if let Some(b) = st.free.pop() {
            return Some(b);
        }
        if let Some(b) = st.ready.pop_front() {
            st.drops += 1;
            return Some(b);
        }
        None
    }

    /// Publishes a completed subframe, recycling the oldest ready one
    /// first if the queue is at depth.
    pub fn publish(&self, buf: SubframeBuf) {
        let mut st = self.state();
        if st.ready.len() >= self.depth {
            if let Some(old) = st.ready.pop_front() {
                st.free.push(old);
                st.drops += 1;
            }
        }
        st.ready.push_back(buf);
        st.published += 1;
        drop(st);
        self.cv.notify_one();
    }

    /// Returns an assembly buffer unused (abandoned reassembly).
    pub fn recycle(&self, buf: SubframeBuf) {
        self.state().free.push(buf);
    }

    /// Swaps the next ready subframe into `buf`, waiting up to
    /// `timeout`. The previous contents of `buf` go back to the
    /// freelist.
    pub fn pop_swap(&self, buf: &mut SubframeBuf, timeout: Duration) -> Pop {
        let deadline = Instant::now() + timeout;
        let mut st = self.state();
        loop {
            if let Some(mut next) = st.ready.pop_front() {
                std::mem::swap(buf, &mut next);
                st.free.push(next);
                return Pop::Got;
            }
            if st.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            let timed_out = now >= deadline || {
                let (guard, wait) = self
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                wait.timed_out()
            };
            if timed_out && st.ready.is_empty() {
                return if st.closed {
                    Pop::Closed
                } else {
                    Pop::TimedOut
                };
            }
        }
    }

    /// Marks end-of-stream; queued subframes remain poppable.
    pub fn close(&self) {
        self.state().closed = true;
        self.cv.notify_all();
    }

    /// Subframes recycled unread because the consumer fell behind.
    pub fn drops(&self) -> u64 {
        self.state().drops
    }

    /// The ring's half of a receiver's books: `delivered` (subframes
    /// published) and `drops` (published subframes recycled unread).
    /// The producer fills in the rest where subframes enter the ring.
    pub fn stats(&self) -> RxStats {
        let st = self.state();
        RxStats {
            delivered: st.published,
            drops: st.drops,
            ..RxStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 16,
            antennas: 1,
            cells: vec![0],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![27],
            subframes: 0,
        }
    }

    #[test]
    fn cycle_and_drop_oldest() {
        let p = params();
        let q = SwapQueue::new(&p, 4, 2);
        for seq in 0..4u32 {
            let mut b = q.acquire().unwrap();
            b.seq = seq;
            q.publish(b);
        }
        // Depth 2: seqs 0 and 1 were recycled.
        assert_eq!(q.drops(), 2);
        let mut buf = SubframeBuf::for_stream(&p);
        assert_eq!(q.pop_swap(&mut buf, Duration::from_millis(50)), Pop::Got);
        assert_eq!(buf.seq, 2);
        assert_eq!(q.pop_swap(&mut buf, Duration::from_millis(50)), Pop::Got);
        assert_eq!(buf.seq, 3);
        assert_eq!(
            q.pop_swap(&mut buf, Duration::from_millis(10)),
            Pop::TimedOut
        );
        q.close();
        assert_eq!(q.pop_swap(&mut buf, Duration::from_millis(10)), Pop::Closed);
    }

    #[test]
    fn acquire_falls_back_to_oldest_ready() {
        let p = params();
        let q = SwapQueue::new(&p, 2, 2);
        let a = q.acquire().unwrap();
        let b = q.acquire().unwrap();
        q.publish(a);
        q.publish(b);
        assert!(q.acquire().is_some(), "steals the oldest ready buffer");
        assert_eq!(q.drops(), 1);
    }
}
