//! In-process fronthaul transport behind the [`crate::iface`] trait
//! pair: what `CranCluster::run` feeds its own delivery loop through.
//!
//! Tx and Rx share one [`SwapQueue`], the ring under the UDP and TCP
//! receivers too, so the steady state moves subframes by pointer swap
//! with zero allocation, the consumer falls behind a full queue by
//! losing the *oldest* queued subframe, and the ring keeps the same
//! `delivered`/`drops` books on every transport. Payloads pass through
//! the wire's i16 quantization ([`SubframeBuf::fill_quantized`]), so a
//! subframe delivered in-process is bit-identical to one delivered
//! over UDP or TCP. The sender is the producer: it runs the per-cell
//! [`SeqTracker`]s where subframes enter the ring, as a socket
//! receiver's session does.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rtopex_phy::Cf32;

use crate::iface::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use crate::packet::SeqTracker;
use crate::ring::SwapQueue;

/// The producer's books: one sequence tracker per stream cell.
type Trackers = Arc<Mutex<Vec<SeqTracker>>>;

/// Builds a connected in-process transport pair with a ready queue of
/// `depth` subframes (the rx overrun horizon).
pub fn inproc_pair(params: StreamParams, depth: usize) -> (InProcTx, InProcRx) {
    let queue = Arc::new(SwapQueue::new(&params, depth, depth));
    let trackers = Arc::new(Mutex::new(vec![SeqTracker::new(); params.cells.len()]));
    (
        InProcTx {
            params: params.clone(),
            queue: Arc::clone(&queue),
            trackers: Arc::clone(&trackers),
            finished: false,
        },
        InProcRx {
            params,
            queue,
            trackers,
        },
    )
}

/// Aggregator half of [`inproc_pair`].
pub struct InProcTx {
    params: StreamParams,
    queue: Arc<SwapQueue>,
    trackers: Trackers,
    finished: bool,
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
        if self.finished {
            return Err(TransportError::Closed);
        }
        let local = self
            .params
            .local_cell(cell)
            .ok_or_else(|| TransportError::Protocol("cell not in stream".into()))?;
        let mut buf = self
            .queue
            .acquire()
            .ok_or_else(|| TransportError::Protocol("buffer pool exhausted".into()))?;
        buf.fill_quantized(cell, seq, mcs, samples);
        let mut trackers = self.trackers.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = trackers.get_mut(local) {
            t.observe(seq);
        }
        drop(trackers);
        self.queue.publish(buf);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TransportError> {
        self.finished = true;
        self.queue.close();
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
    queue: Arc<SwapQueue>,
    trackers: Trackers,
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
        Ok(self.queue.pop_swap(buf, timeout).into())
    }

    fn stats(&self) -> RxStats {
        let ring = self.queue.stats();
        let trackers = self.trackers.lock().unwrap_or_else(PoisonError::into_inner);
        RxStats {
            gaps: trackers.iter().map(|t| t.gaps).sum(),
            stale: trackers.iter().map(|t| t.stale).sum(),
            ..ring
        }
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
        assert_eq!(rx.stats().gaps, 0, "ring drops are not sequence gaps");
        assert_eq!(rx.stats().delivered, 6, "delivered counts publishes");
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
