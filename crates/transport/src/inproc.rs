//! In-process fronthaul transport behind the [`crate::iface`] trait
//! pair: what `CranCluster::run` feeds its own delivery loop through.
//!
//! Tx and Rx share a bounded ready queue plus a freelist of recycled
//! [`SubframeBuf`]s, so the steady state moves subframes by pointer swap
//! with zero allocation — the same discipline the byte transports use
//! with their rx rings. Payloads pass through the wire's i16
//! quantization ([`SubframeBuf::fill_quantized`]), so a subframe
//! delivered in-process is bit-identical to one delivered over UDP or
//! TCP. Overrun policy matches the network side too: when the consumer
//! falls behind a full queue, the *oldest* queued subframe is dropped —
//! a slow host degrades instead of queueing without bound.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rtopex_phy::Cf32;

use crate::iface::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use crate::packet::{SeqEvent, SeqTracker};

struct ChanState {
    ready: VecDeque<SubframeBuf>,
    free: Vec<SubframeBuf>,
    closed: bool,
    drops: u64,
}

struct Chan {
    state: Mutex<ChanState>,
    cv: Condvar,
}

/// Builds a connected in-process transport pair with a ready queue of
/// `depth` subframes (the rx overrun horizon).
pub fn inproc_pair(params: StreamParams, depth: usize) -> (InProcTx, InProcRx) {
    assert!(depth >= 1, "queue depth must be at least 1");
    let free = (0..depth)
        .map(|_| SubframeBuf::for_stream(&params))
        .collect();
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            ready: VecDeque::with_capacity(depth),
            free,
            closed: false,
            drops: 0,
        }),
        cv: Condvar::new(),
    });
    let trackers = vec![SeqTracker::new(); params.cells.len()];
    (
        InProcTx {
            params: params.clone(),
            chan: Arc::clone(&chan),
        },
        InProcRx {
            params,
            chan,
            trackers,
            stats: RxStats::default(),
        },
    )
}

/// Aggregator half of [`inproc_pair`].
pub struct InProcTx {
    params: StreamParams,
    chan: Arc<Chan>,
}

impl FronthaulTx for InProcTx {
    fn params(&self) -> &StreamParams {
        &self.params
    }

    fn send(
        &mut self,
        cell: u16,
        seq: u32,
        mcs: u8,
        samples: &[Vec<Cf32>],
    ) -> Result<(), TransportError> {
        self.params.check_subframe(samples)?;
        // analyze: allow(panic): std mutex poisoning only follows another
        // holder's panic; propagating it is the correct response
        let mut st = self.chan.state.lock().unwrap();
        if st.closed {
            return Err(TransportError::Closed);
        }
        let mut buf = match st.free.pop() {
            Some(b) => b,
            // Freelist dry with a full queue: recycle the oldest queued
            // subframe (drop-oldest backpressure).
            None => {
                st.drops += 1;
                st.ready
                    .pop_front()
                    .ok_or_else(|| TransportError::Protocol("buffer pool exhausted".into()))?
            }
        };
        buf.fill_quantized(cell, seq, mcs, samples);
        st.ready.push_back(buf);
        drop(st);
        self.chan.cv.notify_one();
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TransportError> {
        // analyze: allow(panic): std mutex poisoning only follows another
        // holder's panic; propagating it is the correct response
        let mut st = self.chan.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.chan.cv.notify_all();
        Ok(())
    }
}

impl Drop for InProcTx {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Worker half of [`inproc_pair`].
pub struct InProcRx {
    params: StreamParams,
    chan: Arc<Chan>,
    trackers: Vec<SeqTracker>,
    stats: RxStats,
}

impl FronthaulRx for InProcRx {
    fn params(&self) -> &StreamParams {
        &self.params
    }

    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if let Some(mut next) = st.ready.pop_front() {
                std::mem::swap(buf, &mut next);
                st.free.push(next);
                self.stats.drops = st.drops;
                drop(st);
                self.stats.delivered += 1;
                match self.params.local_cell(buf.cell) {
                    Some(i) => match self.trackers[i].observe(buf.seq) {
                        SeqEvent::Gap(n) => self.stats.gaps += n as u64,
                        SeqEvent::Stale(_) => self.stats.stale += 1,
                        SeqEvent::First | SeqEvent::InOrder => {}
                    },
                    None => self.stats.bad_frames += 1,
                }
                return Ok(Recv::Subframe);
            }
            if st.closed {
                self.stats.drops = st.drops;
                return Ok(Recv::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                self.stats.drops = st.drops;
                return Ok(Recv::TimedOut);
            }
            let (guard, _) = self
                .chan
                .cv
                .wait_timeout(st, deadline - now)
                .map_err(|_| TransportError::Io("poisoned channel lock".into()))?;
            st = guard;
        }
    }

    fn stats(&self) -> RxStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 64,
            antennas: 1,
            cells: vec![0, 1],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![27],
            subframes: 0,
        }
    }

    fn subframe(v: f32) -> Vec<Vec<Cf32>> {
        vec![vec![Cf32::new(v, -v); 64]]
    }

    #[test]
    fn delivers_in_fifo_order_and_recycles() {
        let (mut tx, mut rx) = inproc_pair(params(), 4);
        for seq in 0..3u32 {
            tx.send(0, seq, 27, &subframe(seq as f32 / 10.0)).unwrap();
        }
        let mut buf = SubframeBuf::for_stream(rx.params());
        for seq in 0..3u32 {
            assert_eq!(
                rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap(),
                Recv::Subframe
            );
            assert_eq!(buf.seq, seq);
        }
        assert_eq!(rx.stats().delivered, 3);
        assert_eq!(rx.stats().drops, 0);
    }

    #[test]
    fn overrun_drops_oldest() {
        let (mut tx, mut rx) = inproc_pair(params(), 2);
        let mut buf = SubframeBuf::for_stream(rx.params());
        // Lock the sequence tracker onto the stream first.
        tx.send(0, 0, 27, &subframe(0.1)).unwrap();
        rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap();
        assert_eq!(buf.seq, 0);
        // Now flood a depth-2 queue: the three oldest are recycled.
        for seq in 1..6u32 {
            tx.send(0, seq, 27, &subframe(0.1)).unwrap();
        }
        rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap();
        assert_eq!(buf.seq, 4);
        rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap();
        assert_eq!(buf.seq, 5);
        assert_eq!(rx.stats().drops, 3);
        assert_eq!(rx.stats().gaps, 3, "dropped subframes surface as gaps");
    }

    #[test]
    fn close_is_observed_after_drain() {
        let (mut tx, mut rx) = inproc_pair(params(), 2);
        tx.send(1, 0, 27, &subframe(0.2)).unwrap();
        tx.finish().unwrap();
        assert!(tx.send(1, 1, 27, &subframe(0.2)).is_err());
        let mut buf = SubframeBuf::for_stream(rx.params());
        assert_eq!(
            rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap(),
            Recv::Subframe
        );
        assert_eq!(
            rx.recv_into(&mut buf, Duration::from_millis(100)).unwrap(),
            Recv::Closed
        );
    }

    #[test]
    fn empty_queue_times_out() {
        let (_tx, mut rx) = inproc_pair(params(), 2);
        let mut buf = SubframeBuf::for_stream(rx.params());
        assert_eq!(
            rx.recv_into(&mut buf, Duration::from_millis(10)).unwrap(),
            Recv::TimedOut
        );
    }
}
