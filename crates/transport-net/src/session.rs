//! Receive-side reassembly session — the rx hot path — and the one
//! socket receiver type built around it.
//!
//! One session per stream, driven by the transport's I/O thread: every
//! IQ frame lands in [`RxSession::ingest_frame`], which validates it,
//! dequantizes the payload **directly into a preallocated subframe
//! buffer** (no intermediate copy), and publishes completed subframes
//! to the [`SwapQueue`] ring. After construction the path performs no
//! allocation — `tests/alloc_regression.rs` proves it with a counting
//! allocator and the workspace analyzer carries a purity seed for it.
//! [`NetFronthaulRx`] owns the ring, the session and the io thread for
//! both socket transports; only the io loop differs between UDP and TCP.
//!
//! Loss, reordering and duplication are absorbed per cell: a
//! wraparound-safe [`SeqTracker`] rejects stale stragglers and counts
//! gaps, and each cell owns a small set of assembly slots so fragments
//! of consecutive subframes may interleave. When every slot is busy the
//! *oldest* assembly is abandoned in place (its loss surfaces as a gap)
//! — bounded state, never unbounded queueing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rtopex_transport::iface::{
    FronthaulRx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use rtopex_transport::packet::{seq_delta, SeqTracker};
use rtopex_transport::probe;

use crate::ring::SwapQueue;
use crate::wire;

/// In-flight assemblies per cell: fragments of at most this many
/// consecutive subframes may interleave on the wire.
pub const ASM_SLOTS: usize = 2;

struct AsmSlot {
    busy: bool,
    seq: u32,
    mcs: u8,
    /// Fragments still missing (all antennas).
    remaining: u32,
    /// Per-antenna fragment bitmap.
    seen: Vec<u128>,
    buf: Option<SubframeBuf>,
}

/// Stream reassembly state machine shared by the UDP and TCP receivers.
pub struct RxSession {
    params: StreamParams,
    queue: Arc<SwapQueue>,
    slots: Vec<AsmSlot>,
    trackers: Vec<SeqTracker>,
    samples_per_frag: usize,
    frags_per_antenna: u16,
    stale: u64,
    bad_frames: u64,
    resyncs: u64,
}

impl RxSession {
    /// Builds the session and preallocates all assembly state. The
    /// queue's pool must hold at least `cells × ASM_SLOTS` buffers on
    /// top of its ready depth.
    pub fn new(params: StreamParams, queue: Arc<SwapQueue>) -> Self {
        let frags = wire::fragments_for(params.samples_per_subframe as usize);
        // analyze: allow(taint-panic): unreachable from the wire — every
        // negotiated geometry passes wire::validate_geometry (samples
        // capped at 30720 → ≤ 86 fragments) before a session is built;
        // this guards local misconfiguration only
        assert!(frags <= 128, "subframe exceeds the 128-fragment bitmap");
        // analyze: allow(taint-arith): cells.len() ≤ MAX_CELLS_PER_STREAM
        // (64) after validate_geometry and ASM_SLOTS = 2
        let slots = (0..params.cells.len() * ASM_SLOTS)
            .map(|_| AsmSlot {
                busy: false,
                seq: 0,
                mcs: 0,
                remaining: 0,
                seen: vec![0u128; params.antennas as usize],
                buf: None,
            })
            .collect();
        let trackers = vec![SeqTracker::new(); params.cells.len()];
        RxSession {
            samples_per_frag: wire::SAMPLES_PER_FRAG,
            frags_per_antenna: frags as u16,
            slots,
            trackers,
            params,
            queue,
            stale: 0,
            bad_frames: 0,
            resyncs: 0,
        }
    }

    /// Negotiated stream parameters.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Ingests one IQ frame (the hot path — allocation- and
    /// panic-free; malformed input increments a counter and returns).
    pub fn ingest_frame(&mut self, frame: &[u8]) {
        probe::reach(0x20);
        let Some(view) = wire::parse_iq(frame) else {
            self.bad_frames += 1;
            return;
        };
        let h = view.header;
        let Some(local) = self.params.local_cell(h.bs_id) else {
            probe::reach(0x21);
            self.bad_frames += 1;
            return;
        };
        let ant = h.antenna as usize;
        let count = (h.payload_len / 4) as usize;
        // analyze: allow(taint-arith): fragment ≤ 255 and samples_per_frag
        // = 360, so the product is ≤ 91 800 — nowhere near usize overflow
        let off = h.fragment as usize * self.samples_per_frag;
        let full = self.params.samples_per_subframe as usize;
        if ant >= self.params.antennas as usize
            || h.total_fragments != self.frags_per_antenna
            || (h.fragment as u16) >= self.frags_per_antenna
            || off + count > full // analyze: allow(taint-arith): off ≤ 86·360 and count ≤ u16::MAX/4 — cannot overflow
            // analyze: allow(taint-arith): fragment ≤ 255, so +1 fits u16
            || ((h.fragment as u16) + 1 < self.frags_per_antenna && count != self.samples_per_frag)
        {
            probe::reach(0x22);
            self.bad_frames += 1;
            return;
        }
        // One tracker per cell by construction (`local` comes from
        // `local_cell`, a position in `cells`, and `trackers` mirrors
        // `cells`), so the lookups can only fail on internal corruption
        // — which reads as a bad frame, not a panic.
        let Some(tracker) = self.trackers.get(local) else {
            self.bad_frames += 1;
            return;
        };
        if tracker.is_stale(h.subframe) {
            probe::reach(0x23);
            self.stale += 1;
            return;
        }

        // Locate (or claim) the assembly slot for (cell, seq) among this
        // cell's ASM_SLOTS-element window.
        let base = local * ASM_SLOTS;
        let Some(cell_slots) = self.slots.get_mut(base..base + ASM_SLOTS) else {
            self.bad_frames += 1;
            return;
        };
        let mut idx = usize::MAX;
        for (i, s) in cell_slots.iter().enumerate() {
            if s.busy && s.seq == h.subframe {
                idx = i;
                break;
            }
        }
        if idx == usize::MAX {
            for (i, s) in cell_slots.iter().enumerate() {
                if !s.busy {
                    idx = i;
                    break;
                }
            }
            if idx == usize::MAX {
                // Every slot busy: abandon the oldest assembly in place.
                // Its subframe is lost and will surface as a gap.
                probe::reach(0x25);
                idx = 0;
                let mut oldest_seq = 0u32;
                for (i, s) in cell_slots.iter().enumerate() {
                    if i == 0 || seq_delta(oldest_seq, s.seq) < 0 {
                        idx = i;
                        oldest_seq = s.seq;
                    }
                }
            }
            let Some(slot) = cell_slots.get_mut(idx) else {
                self.bad_frames += 1;
                return;
            };
            if slot.buf.is_none() {
                match self.queue.acquire() {
                    Some(b) => slot.buf = Some(b),
                    // Pool exhausted (consumer plus slots hold every
                    // buffer): shed the frame; the ring's drop
                    // accounting already reflects the overrun.
                    None => return,
                }
            }
            probe::reach(0x24);
            slot.busy = true;
            slot.seq = h.subframe;
            slot.mcs = view.mcs;
            // analyze: allow(taint-arith): antennas ≤ 8 and fragments ≤ 86
            // after validate_geometry — the product fits u32 trivially
            slot.remaining = self.params.antennas as u32 * self.frags_per_antenna as u32;
            for w in &mut slot.seen {
                *w = 0;
            }
            // Lock the cursor at the first fragment seen, so even a
            // first subframe that never completes registers as a gap.
            if let Some(t) = self.trackers.get_mut(local) {
                t.prime(h.subframe);
            }
        }

        let Some(slot) = self.slots.get_mut(base + idx) else {
            self.bad_frames += 1;
            return;
        };
        // analyze: allow(taint-arith): fragment < frags_per_antenna ≤ 86
        // (checked above), so the shift is in range for u128
        let bit = 1u128 << h.fragment;
        let Some(seen) = slot.seen.get_mut(ant) else {
            self.bad_frames += 1;
            return;
        };
        if *seen & bit != 0 {
            probe::reach(0x26);
            self.stale += 1; // duplicate fragment
            return;
        }
        probe::reach(0x27);
        *seen |= bit;
        let Some(buf) = slot.buf.as_mut() else {
            self.bad_frames += 1;
            return;
        };
        let dst = buf
            .samples
            .get_mut(ant)
            // analyze: allow(taint-arith): off + count ≤ samples_per_subframe checked above
            .and_then(|s| s.get_mut(off..off + count));
        let Some(dst) = dst else {
            self.bad_frames += 1;
            return;
        };
        wire::dequantize_payload(view.payload, dst);
        // analyze: allow(taint-arith): the seen bitmap admits each
        // (antenna, fragment) pair once, so decrements ≤ antennas×frags
        slot.remaining -= 1;
        if slot.remaining == 0 {
            probe::reach(0x28);
            buf.cell = h.bs_id;
            buf.seq = h.subframe;
            buf.mcs = slot.mcs;
            slot.busy = false;
            if let Some(done) = slot.buf.take() {
                if let Some(t) = self.trackers.get_mut(local) {
                    t.observe(h.subframe);
                }
                self.queue.publish(done);
            }
        }
    }

    /// Absorbs a sender resync (TCP reconnect / replayed UDP hello):
    /// in-flight assemblies are abandoned (their buffers stay parked in
    /// the slots for reuse) and every sequence cursor re-locks on the
    /// next subframe it sees. O(cells) work — bounded by construction.
    pub fn on_resync(&mut self) {
        probe::reach(0x29);
        for s in &mut self.slots {
            s.busy = false;
        }
        for t in &mut self.trackers {
            t.resync();
        }
        self.resyncs += 1;
    }

    /// Marks the stream closed (bye frame / permanent peer loss).
    pub fn close(&self) {
        self.queue.close();
    }

    /// Session counters, aggregated across cells, over the ring's
    /// `delivered` and `drops`.
    pub fn stats(&self) -> RxStats {
        let mut gaps = 0;
        let mut stale = self.stale;
        for t in &self.trackers {
            gaps += t.gaps;
            stale += t.stale;
        }
        RxStats {
            gaps,
            stale,
            bad_frames: self.bad_frames,
            resyncs: self.resyncs,
            ..self.queue.stats()
        }
    }
}

/// Worker side of a negotiated UDP or TCP fronthaul stream: the receive
/// ring, the session that feeds it and the io thread that drives the
/// session. `UdpRxPending::accept` and `TcpRxPending::accept` build it.
pub struct NetFronthaulRx {
    params: StreamParams,
    queue: Arc<SwapQueue>,
    session: Arc<Mutex<RxSession>>,
    stop: Arc<AtomicBool>,
    io: Option<JoinHandle<()>>,
}

impl NetFronthaulRx {
    /// Sizes the ring for `queue_depth` ready subframes plus every
    /// assembly slot and the consumer's swap buffer, then runs `io_loop`
    /// on a thread of its own; the ring closes when the loop returns.
    /// The loop should return soon after its stop flag is set.
    pub(crate) fn spawn<F>(params: StreamParams, queue_depth: usize, io_loop: F) -> Self
    where
        F: FnOnce(&Mutex<RxSession>, &AtomicBool) + Send + 'static,
    {
        // analyze: allow(taint-arith): cells.len() ≤ 64 after
        // validate_geometry and queue_depth is a local config value
        let pool = queue_depth + params.cells.len() * ASM_SLOTS + 1;
        let queue = Arc::new(SwapQueue::new(&params, pool, queue_depth));
        let session = Arc::new(Mutex::new(RxSession::new(
            params.clone(),
            Arc::clone(&queue),
        )));
        let stop = Arc::new(AtomicBool::new(false));
        let io = {
            let session = Arc::clone(&session);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                io_loop(&session, &stop);
                queue.close();
            })
        };
        NetFronthaulRx {
            params,
            queue,
            session,
            stop,
            io: Some(io),
        }
    }
}

impl FronthaulRx for NetFronthaulRx {
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
        self.session.lock().stats()
    }
}

impl Drop for NetFronthaulRx {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_phy::Cf32;
    use rtopex_transport::packet::{dequantize, quantize};

    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 800, // 3 fragments: 360 + 360 + 80
            antennas: 2,
            cells: vec![5, 9],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![27],
            subframes: 0,
        }
    }

    fn session() -> (RxSession, Arc<SwapQueue>) {
        let p = params();
        let q = Arc::new(SwapQueue::new(&p, 8, 4));
        (RxSession::new(p, Arc::clone(&q)), q)
    }

    fn subframe(v: f32, n: usize, ants: usize) -> Vec<Vec<Cf32>> {
        (0..ants)
            .map(|a| {
                (0..n)
                    .map(|i| Cf32::new(v + i as f32 / 10_000.0, -(a as f32) / 7.0))
                    .collect()
            })
            .collect()
    }

    /// All wire frames of one subframe, in order.
    fn frames(cell: u16, seq: u32, mcs: u8, samples: &[Vec<Cf32>]) -> Vec<Vec<u8>> {
        let n = samples[0].len();
        let total = wire::fragments_for(n) as u16;
        let mut out = Vec::new();
        for (ant, s) in samples.iter().enumerate() {
            for (frag, chunk) in s.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let mut f = vec![0u8; wire::MAX_IQ_FRAME];
                let len = wire::write_iq_frame(
                    &mut f, mcs, cell, ant as u8, frag as u8, total, seq, chunk,
                );
                f.truncate(len);
                out.push(f);
            }
        }
        out
    }

    fn expect_exact(got: &SubframeBuf, sent: &[Vec<Cf32>]) {
        for (g, s) in got.samples.iter().zip(sent) {
            for (a, b) in g.iter().zip(s) {
                assert_eq!(a.re, dequantize(quantize(b.re)));
                assert_eq!(a.im, dequantize(quantize(b.im)));
            }
        }
    }

    #[test]
    fn reassembles_in_order() {
        let (mut s, q) = session();
        let sent = subframe(0.3, 800, 2);
        for f in frames(5, 0, 27, &sent) {
            s.ingest_frame(&f);
        }
        let mut buf = SubframeBuf::for_stream(s.params());
        assert_eq!(
            q.pop_swap(&mut buf, std::time::Duration::from_millis(10)),
            crate::ring::Pop::Got
        );
        assert_eq!((buf.cell, buf.seq, buf.mcs), (5, 0, 27));
        expect_exact(&buf, &sent);
        assert_eq!(s.stats().delivered, 1);
    }

    #[test]
    fn reassembles_reversed_and_interleaved() {
        let (mut s, q) = session();
        let a = subframe(0.1, 800, 2);
        let b = subframe(0.5, 800, 2);
        let fa = frames(5, 0, 27, &a);
        let fb = frames(9, 0, 16, &b);
        // Reverse one stream and interleave the two cells.
        for (x, y) in fa.iter().rev().zip(&fb) {
            s.ingest_frame(x);
            s.ingest_frame(y);
        }
        let mut buf = SubframeBuf::for_stream(s.params());
        let d = std::time::Duration::from_millis(10);
        let mut got = Vec::new();
        while q.pop_swap(&mut buf, d) == crate::ring::Pop::Got {
            got.push(buf.clone());
        }
        assert_eq!(got.len(), 2);
        let ga = got.iter().find(|g| g.cell == 5).unwrap();
        let gb = got.iter().find(|g| g.cell == 9).unwrap();
        expect_exact(ga, &a);
        expect_exact(gb, &b);
    }

    #[test]
    fn duplicates_and_stale_fragments_counted_not_delivered() {
        let (mut s, q) = session();
        let sent = subframe(0.2, 800, 2);
        let fs = frames(5, 1, 27, &sent);
        for f in &fs {
            s.ingest_frame(f);
        }
        s.ingest_frame(&fs[0]); // stale: subframe 1 already delivered
        let next = frames(5, 2, 27, &sent);
        s.ingest_frame(&next[0]);
        s.ingest_frame(&next[0]); // duplicate fragment of in-flight subframe
        let st = s.stats();
        assert_eq!(st.delivered, 1);
        assert_eq!(st.stale, 2);
        let mut buf = SubframeBuf::for_stream(s.params());
        assert_eq!(
            q.pop_swap(&mut buf, std::time::Duration::from_millis(10)),
            crate::ring::Pop::Got
        );
        assert_eq!(buf.seq, 1);
    }

    #[test]
    fn lost_fragment_surfaces_as_gap_and_slots_recycle() {
        let (mut s, q) = session();
        let sent = subframe(0.2, 800, 2);
        // Subframe 0 loses one fragment; 1..=3 arrive whole. With two
        // assembly slots, 0's slot is evicted by 2, and 0 is counted as
        // a gap when 1 completes.
        let mut f0 = frames(5, 0, 27, &sent);
        f0.remove(3);
        for f in &f0 {
            s.ingest_frame(f);
        }
        for seq in 1..4u32 {
            for f in frames(5, seq, 27, &sent) {
                s.ingest_frame(&f);
            }
        }
        let st = s.stats();
        assert_eq!(st.delivered, 3);
        assert_eq!(st.gaps, 1, "incomplete subframe 0 reads as one gap");
        let mut buf = SubframeBuf::for_stream(s.params());
        let d = std::time::Duration::from_millis(10);
        for seq in 1..4u32 {
            assert_eq!(q.pop_swap(&mut buf, d), crate::ring::Pop::Got);
            assert_eq!(buf.seq, seq);
            expect_exact(&buf, &sent);
        }
    }

    #[test]
    fn malformed_frames_counted() {
        let (mut s, _q) = session();
        s.ingest_frame(&[wire::FT_IQ]); // truncated
        s.ingest_frame(&[]);
        let sent = subframe(0.2, 800, 2);
        let fs = frames(77, 0, 27, &sent); // unknown cell id
        s.ingest_frame(&fs[0]);
        let mut wrong_geom = frames(5, 0, 27, &subframe(0.2, 800, 2))[0].clone();
        wrong_geom[4..6].copy_from_slice(&9u16.to_be_bytes()); // total_fragments = 9
        s.ingest_frame(&wrong_geom);
        assert_eq!(s.stats().bad_frames, 4);
        assert_eq!(s.stats().delivered, 0);
    }

    #[test]
    fn resync_relocks_and_abandons_assemblies() {
        let (mut s, q) = session();
        let sent = subframe(0.2, 800, 2);
        for f in frames(5, 1000, 27, &sent) {
            s.ingest_frame(&f);
        }
        let partial = frames(5, 1001, 27, &sent);
        s.ingest_frame(&partial[0]);
        s.on_resync();
        // Sender restarted from 0: without resync these would be stale.
        for f in frames(5, 0, 27, &sent) {
            s.ingest_frame(&f);
        }
        let st = s.stats();
        assert_eq!(st.delivered, 2);
        assert_eq!(st.resyncs, 1);
        assert_eq!(st.stale, 0);
        let mut buf = SubframeBuf::for_stream(s.params());
        let d = std::time::Duration::from_millis(10);
        assert_eq!(q.pop_swap(&mut buf, d), crate::ring::Pop::Got);
        assert_eq!(buf.seq, 1000);
        assert_eq!(q.pop_swap(&mut buf, d), crate::ring::Pop::Got);
        assert_eq!(buf.seq, 0);
    }
}
