//! Subframe ring between a fronthaul's producer and its consumer: the
//! one receive ring under every transport, and the one place a fronthaul
//! counts what it delivered and what it dropped.
//!
//! A ring of `pool` buffers allocates its working set up front: the
//! buffers beyond the ready queue's `depth` (assembly slots, the
//! consumer's swap buffer) plus [`MARGIN`]. The rest are allocated only
//! when a backlog needs them, up to `pool`, and never freed. Every
//! [`SubframeBuf`] then cycles `free → producer → ready → consumer swap →
//! free` with no allocation, and a stream that keeps pace never grows
//! its ring. Growth changes no count: a buffer not yet allocated stands
//! for one the freelist would have held, so `delivered` and `drops` are
//! those of a ring that allocated all `pool` buffers up front.
//!
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

/// Ready-queue buffers a ring allocates up front, beyond the ones that
/// assembly slots and the consumer hold: one subframe queued while the
/// next is being filled.
pub const MARGIN: usize = 2;

struct QState {
    ready: VecDeque<SubframeBuf>,
    free: Vec<SubframeBuf>,
    /// Buffers of the pool not allocated yet.
    unallocated: usize,
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

/// Bounded swap-queue ring of subframe buffers.
pub struct SwapQueue {
    state: Mutex<QState>,
    cv: Condvar,
    depth: usize,
    pool: usize,
    /// The stream geometry every buffer is allocated with.
    params: StreamParams,
}

impl SwapQueue {
    /// A ring of up to `pool` buffers, of which at most `depth` may sit
    /// in the ready queue (the drop-oldest horizon); the rest cover
    /// in-flight assembly slots and the consumer's swap buffer. Those
    /// `pool − depth` buffers and [`MARGIN`] more are allocated now, the
    /// others when a backlog first needs them.
    pub fn new(params: &StreamParams, pool: usize, depth: usize) -> Self {
        // analyze: allow(taint-panic): pool/depth are locally computed
        // sizes (depth + cells·slots + 1), never peer bytes — the
        // assert guards caller bugs, not network input
        assert!(pool >= depth && depth >= 1);
        let now = pool.min(pool - depth + MARGIN);
        SwapQueue {
            state: Mutex::new(QState {
                ready: VecDeque::with_capacity(pool),
                free: (0..now).map(|_| SubframeBuf::for_stream(params)).collect(),
                unallocated: pool - now,
                closed: false,
                published: 0,
                drops: 0,
            }),
            cv: Condvar::new(),
            depth,
            pool,
            params: params.clone(),
        }
    }

    /// The state lock. A holder cannot leave the ring half-updated, so
    /// a poisoned lock is taken as it stands.
    fn state(&self) -> MutexGuard<'_, QState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a buffer for assembly: from the freelist, else a new one
    /// while the ring is below `pool`, else by recycling the oldest
    /// ready subframe (counted as a drop). `None` only when every buffer
    /// is held by assembly slots or the consumer — a sizing bug, not a
    /// runtime condition.
    pub fn acquire(&self) -> Option<SubframeBuf> {
        let mut st = self.state();
        if let Some(b) = st.free.pop() {
            return Some(b);
        }
        if st.unallocated > 0 {
            st.unallocated -= 1;
            drop(st);
            // analyze: allow(call:for_stream): the ring grows by one
            // buffer only when its freelist is empty, at most `pool`
            // buffers in all, and never frees one: a peer can make it
            // hold no more than the `pool` buffers it once allocated up
            // front, and a stream that keeps pace never reaches here
            return Some(SubframeBuf::for_stream(&self.params));
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

    /// Buffers allocated so far: the working set, plus what backlogs
    /// have grown the ring by. Never more than `pool`.
    pub fn allocated(&self) -> usize {
        self.pool - self.state().unallocated
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

    /// The ring as it was before it grew on demand: all `pool` buffers
    /// allocated up front. The oracle for the books of the lazy ring.
    fn eager(p: &StreamParams, pool: usize, depth: usize) -> SwapQueue {
        let q = SwapQueue::new(p, pool, depth);
        {
            let mut st = q.state();
            while st.unallocated > 0 {
                st.unallocated -= 1;
                st.free.push(SubframeBuf::for_stream(p));
            }
        }
        q
    }

    #[test]
    fn a_stream_that_keeps_pace_allocates_only_its_working_set() {
        let p = params();
        // An in-process ring (pool = depth) and a socket ring (pool =
        // depth + assembly slots + the consumer's swap buffer).
        for (pool, depth) in [(128, 128), (128 + 2 + 1, 128)] {
            let q = SwapQueue::new(&p, pool, depth);
            let working_set = pool - depth + MARGIN;
            assert_eq!(q.allocated(), working_set);
            let mut buf = SubframeBuf::for_stream(&p);
            for seq in 0..1000u32 {
                let mut b = q.acquire().unwrap();
                b.seq = seq;
                q.publish(b);
                assert_eq!(q.pop_swap(&mut buf, Duration::ZERO), Pop::Got);
                assert_eq!(buf.seq, seq);
            }
            assert_eq!(q.allocated(), working_set, "pool {pool}");
            assert_eq!(q.drops(), 0);
        }
    }

    #[test]
    fn a_backlog_grows_the_ring_to_pool_and_never_beyond() {
        let p = params();
        let (pool, depth) = (19, 16);
        let q = SwapQueue::new(&p, pool, depth);
        assert_eq!(q.allocated(), pool - depth + MARGIN);
        // Nobody drains: the ring grows one buffer per subframe until the
        // ready queue is at depth, and by one more for the subframe being
        // filled while the queue is full; from then on it recycles.
        for seq in 0..100u32 {
            let mut b = q.acquire().unwrap();
            b.seq = seq;
            q.publish(b);
            assert!(q.allocated() <= pool);
        }
        assert_eq!(q.allocated(), depth + 1);
        assert_eq!(q.drops(), 100 - depth as u64);
        // Assembly slots and the consumer take the rest of the pool.
        let held: Vec<_> = (0..pool - depth).map(|_| q.acquire().unwrap()).collect();
        assert_eq!(q.allocated(), pool);
        assert!(q.acquire().is_some(), "recycles the oldest ready");
        assert_eq!(q.allocated(), pool);
        drop(held);
    }

    proptest::proptest! {
        /// Any interleaving of producer and consumer operations yields
        /// the same buffers, subframes and books on the lazy ring as on
        /// the eager one.
        #[test]
        fn books_equal_the_eager_ring(
            pool_extra in 0usize..6,
            depth in 1usize..8,
            ops in proptest::collection::vec(0u8..4, 0..200),
        ) {
            let p = params();
            let pool = depth + pool_extra;
            let (lazy, oracle) = (SwapQueue::new(&p, pool, depth), eager(&p, pool, depth));
            let mut held: Vec<(SubframeBuf, SubframeBuf)> = Vec::new();
            let mut bufs = (SubframeBuf::for_stream(&p), SubframeBuf::for_stream(&p));
            let mut seq = 0u32;
            for op in ops {
                match op {
                    0 => match (lazy.acquire(), oracle.acquire()) {
                        (Some(a), Some(b)) => held.push((a, b)),
                        (None, None) => {}
                        (a, b) => proptest::prop_assert!(
                            false,
                            "acquire {} vs {}",
                            a.is_some(),
                            b.is_some()
                        ),
                    },
                    1 => {
                        if let Some((mut a, mut b)) = held.pop() {
                            (a.seq, b.seq) = (seq, seq);
                            seq += 1;
                            lazy.publish(a);
                            oracle.publish(b);
                        }
                    }
                    2 => {
                        if let Some((a, b)) = held.pop() {
                            lazy.recycle(a);
                            oracle.recycle(b);
                        }
                    }
                    _ => {
                        let got = lazy.pop_swap(&mut bufs.0, Duration::ZERO);
                        proptest::prop_assert_eq!(
                            got,
                            oracle.pop_swap(&mut bufs.1, Duration::ZERO)
                        );
                        proptest::prop_assert_eq!(bufs.0.seq, bufs.1.seq);
                    }
                }
                proptest::prop_assert!(lazy.allocated() <= pool);
            }
            let (a, b) = (lazy.stats(), oracle.stats());
            proptest::prop_assert_eq!((a.delivered, a.drops), (b.delivered, b.drops));
        }
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
