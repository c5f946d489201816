//! IQ sample packetization — the reproduction's stand-in for the CWARP
//! transport library used by the paper's testbed.
//!
//! A subframe of complex baseband samples is quantized to 16-bit I/Q,
//! split into MTU-sized frames, and prefixed with a small header carrying
//! the basestation id, antenna, subframe counter and fragment sequence so
//! the receive side can reassemble and detect loss. Uses the `bytes` crate
//! for zero-copy-friendly buffer handling.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rtopex_phy::Cf32;

/// The wire's sample format, defined beside its SIMD kernels in
/// `rtopex_phy::iq`.
pub use rtopex_phy::iq::{dequantize, quantize, IQ_SCALE};

/// Maximum payload bytes per packet (Ethernet MTU minus IP/UDP headroom).
pub const MAX_PAYLOAD: usize = 1440;

/// Wire header of an IQ fragment (12 bytes, big-endian).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketHeader {
    /// Basestation identifier.
    pub bs_id: u16,
    /// Antenna index.
    pub antenna: u8,
    /// Fragment index within the subframe.
    pub fragment: u8,
    /// Total fragments in the subframe.
    pub total_fragments: u16,
    /// Subframe counter (wraps).
    pub subframe: u32,
    /// Payload length in bytes.
    pub payload_len: u16,
}

/// Serialized header size in bytes.
pub const HEADER_LEN: usize = 12;

impl PacketHeader {
    /// Writes the header into `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.bs_id);
        buf.put_u8(self.antenna);
        buf.put_u8(self.fragment);
        buf.put_u16(self.total_fragments);
        buf.put_u32(self.subframe);
        buf.put_u16(self.payload_len);
    }

    /// Parses a header from the front of `buf`; returns `None` if `buf` is
    /// shorter than [`HEADER_LEN`].
    pub fn decode(buf: &mut Bytes) -> Option<Self> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        Some(PacketHeader {
            bs_id: buf.get_u16(),
            antenna: buf.get_u8(),
            fragment: buf.get_u8(),
            total_fragments: buf.get_u16(),
            subframe: buf.get_u32(),
            payload_len: buf.get_u16(),
        })
    }

    /// Writes the header into the front of a plain byte slice (the
    /// allocation-free path the network transports use). Panics if `buf`
    /// is shorter than [`HEADER_LEN`].
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.bs_id.to_be_bytes());
        buf[2] = self.antenna;
        buf[3] = self.fragment;
        buf[4..6].copy_from_slice(&self.total_fragments.to_be_bytes());
        buf[6..10].copy_from_slice(&self.subframe.to_be_bytes());
        buf[10..12].copy_from_slice(&self.payload_len.to_be_bytes());
    }

    /// Parses a header from the front of a plain byte slice; `None` if
    /// `buf` is shorter than [`HEADER_LEN`].
    pub fn read_from(buf: &[u8]) -> Option<Self> {
        let &[b0, b1, antenna, fragment, t0, t1, s0, s1, s2, s3, p0, p1] = buf.get(..HEADER_LEN)?
        else {
            return None;
        };
        crate::probe::reach(0x30);
        Some(PacketHeader {
            bs_id: u16::from_be_bytes([b0, b1]),
            antenna,
            fragment,
            total_fragments: u16::from_be_bytes([t0, t1]),
            subframe: u32::from_be_bytes([s0, s1, s2, s3]),
            payload_len: u16::from_be_bytes([p0, p1]),
        })
    }
}

/// Wrap-aware signed distance from sequence `expected` to `got`, in
/// `[-2³¹, 2³¹)`. A counter that wrapped at `u32::MAX` yields the small
/// true delta, not a ±4-billion jump.
pub fn seq_delta(expected: u32, got: u32) -> i64 {
    got.wrapping_sub(expected) as i32 as i64
}

/// What one observed sequence number meant to a [`SeqTracker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqEvent {
    /// First observation; the tracker locked onto the stream here.
    First,
    /// Exactly the expected next sequence number.
    InOrder,
    /// The stream jumped forward; `n` sequence numbers were never seen.
    Gap(u32),
    /// Behind the cursor by `n`: a late duplicate or reordered straggler.
    Stale(u32),
}

/// Per-cell subframe sequence tracker with wraparound-safe gap
/// detection. The receive sessions run one per cell to count losses,
/// duplicates and reordering without unbounded history.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqTracker {
    next: u32,
    started: bool,
    /// Total sequence numbers skipped over (lost subframes).
    pub gaps: u64,
    /// Observations behind the cursor (duplicates / stragglers).
    pub stale: u64,
}

impl SeqTracker {
    /// A tracker that locks onto the first sequence number it sees.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies `seq` against the cursor and advances it past any
    /// forward jump (a gap is counted once, not re-reported per packet).
    pub fn observe(&mut self, seq: u32) -> SeqEvent {
        if !self.started {
            self.started = true;
            self.next = seq.wrapping_add(1);
            crate::probe::reach(0x31);
            return SeqEvent::First;
        }
        let d = seq_delta(self.next, seq);
        match d {
            0 => {
                self.next = self.next.wrapping_add(1);
                crate::probe::reach(0x32);
                SeqEvent::InOrder
            }
            d if d > 0 => {
                self.gaps += d as u64;
                self.next = seq.wrapping_add(1);
                crate::probe::reach(0x33);
                SeqEvent::Gap(d as u32)
            }
            d => {
                self.stale += 1;
                crate::probe::reach(0x34);
                SeqEvent::Stale((-d) as u32)
            }
        }
    }

    /// Locks the cursor at `seq` without consuming it: the next
    /// [`Self::observe`] of `seq` reads as in-order. Receivers prime on
    /// the first *fragment* of a stream so a first subframe that never
    /// completes still registers as a gap.
    pub fn prime(&mut self, seq: u32) {
        if !self.started {
            self.started = true;
            self.next = seq;
            crate::probe::reach(0x35);
        }
    }

    /// True when `seq` is behind the cursor — a fragment of a subframe
    /// that was already delivered or given up on. Receivers use this to
    /// reject stragglers before touching assembly state.
    pub fn is_stale(&self, seq: u32) -> bool {
        self.started && seq_delta(self.next, seq) < 0
    }

    /// Forgets the cursor (sender resync after a reconnect): the next
    /// observation is treated as [`SeqEvent::First`] again.
    pub fn resync(&mut self) {
        self.started = false;
    }
}

/// Packetizes/reassembles IQ subframes.
#[derive(Clone, Copy, Debug, Default)]
pub struct IqPacketizer;

impl IqPacketizer {
    /// Splits one antenna's subframe samples into wire packets. No send
    /// path calls it, so it keeps the scalar [`quantize`] reference.
    pub fn packetize(
        &self,
        bs_id: u16,
        antenna: u8,
        subframe: u32,
        samples: &[Cf32],
    ) -> Vec<Bytes> {
        let total_bytes = samples.len() * 4;
        let samples_per_pkt = MAX_PAYLOAD / 4;
        let total_fragments = total_bytes.div_ceil(samples_per_pkt * 4).max(1) as u16;
        samples
            .chunks(samples_per_pkt)
            .enumerate()
            .map(|(i, chunk)| {
                let mut buf = BytesMut::with_capacity(HEADER_LEN + chunk.len() * 4);
                PacketHeader {
                    bs_id,
                    antenna,
                    fragment: i as u8,
                    total_fragments,
                    subframe,
                    payload_len: (chunk.len() * 4) as u16,
                }
                .encode(&mut buf);
                for s in chunk {
                    buf.put_i16(quantize(s.re));
                    buf.put_i16(quantize(s.im));
                }
                buf.freeze()
            })
            .collect()
    }

    /// Reassembles packets (any order) into the subframe's samples.
    ///
    /// Returns `None` on a missing/duplicate fragment, truncated packet, or
    /// inconsistent metadata — the caller drops the subframe, as the
    /// testbed transport does.
    pub fn reassemble(&self, packets: &[Bytes]) -> Option<Vec<Cf32>> {
        if packets.is_empty() {
            return None;
        }
        let mut parsed: Vec<(PacketHeader, Bytes)> = Vec::with_capacity(packets.len());
        for p in packets {
            let mut b = p.clone();
            let h = PacketHeader::decode(&mut b)?;
            if b.len() != h.payload_len as usize || h.payload_len % 4 != 0 {
                return None;
            }
            parsed.push((h, b));
        }
        let first = parsed.first()?.0;
        if parsed.len() != first.total_fragments as usize {
            return None;
        }
        let mut seen = vec![false; parsed.len()];
        for (h, _) in &parsed {
            if h.bs_id != first.bs_id
                || h.antenna != first.antenna
                || h.subframe != first.subframe
                || h.total_fragments != first.total_fragments
            {
                return None;
            }
            let slot = seen.get_mut(h.fragment as usize)?;
            if *slot {
                return None;
            }
            *slot = true;
        }
        parsed.sort_by_key(|(h, _)| h.fragment);
        let mut out = Vec::new();
        for (_, mut b) in parsed {
            // analyze: allow(taint-loop): consumes 4 payload bytes per
            // iteration, bounded by the packet's own length
            while b.remaining() >= 4 {
                let re = b.get_i16();
                let im = b.get_i16();
                out.push(Cf32::new(dequantize(re), dequantize(im)));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples(n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| {
                Cf32::new(
                    ((i % 101) as f32 - 50.0) / 60.0,
                    ((i % 37) as f32 - 18.0) / 25.0,
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_full_subframe() {
        let pk = IqPacketizer;
        let s = samples(15_360); // one 10 MHz subframe
        let pkts = pk.packetize(3, 1, 42, &s);
        assert_eq!(pkts.len(), 15_360usize.div_ceil(MAX_PAYLOAD / 4));
        let back = pk.reassemble(&pkts).unwrap();
        assert_eq!(back.len(), s.len());
        for (a, b) in s.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1.0 / IQ_SCALE);
            assert!((a.im - b.im).abs() < 1.0 / IQ_SCALE);
        }
    }

    #[test]
    fn out_of_order_reassembly() {
        let pk = IqPacketizer;
        let s = samples(2000);
        let mut pkts = pk.packetize(1, 0, 7, &s);
        pkts.reverse();
        let back = pk.reassemble(&pkts).unwrap();
        assert_eq!(back.len(), s.len());
    }

    #[test]
    fn missing_fragment_detected() {
        let pk = IqPacketizer;
        let s = samples(2000);
        let mut pkts = pk.packetize(1, 0, 7, &s);
        pkts.remove(1);
        assert!(pk.reassemble(&pkts).is_none());
    }

    #[test]
    fn duplicate_fragment_detected() {
        let pk = IqPacketizer;
        let s = samples(1000);
        let mut pkts = pk.packetize(1, 0, 7, &s);
        let dup = pkts[0].clone();
        pkts[1] = dup;
        assert!(pk.reassemble(&pkts).is_none());
    }

    #[test]
    fn mixed_subframes_rejected() {
        let pk = IqPacketizer;
        let a = pk.packetize(1, 0, 7, &samples(720));
        let b = pk.packetize(1, 0, 8, &samples(720));
        let mixed = vec![a[0].clone(), b[1].clone()];
        assert!(pk.reassemble(&mixed).is_none());
    }

    #[test]
    fn truncated_packet_rejected() {
        let pk = IqPacketizer;
        let pkts = pk.packetize(1, 0, 7, &samples(720));
        let cut = pkts[0].slice(0..pkts[0].len() - 2);
        assert!(pk.reassemble(&[cut]).is_none());
    }

    #[test]
    fn header_roundtrip() {
        let h = PacketHeader {
            bs_id: 0xBEEF,
            antenna: 3,
            fragment: 9,
            total_fragments: 43,
            subframe: 0xDEADBEEF,
            payload_len: 1440,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut b = buf.freeze();
        assert_eq!(PacketHeader::decode(&mut b), Some(h));
    }

    #[test]
    fn clipping_is_bounded() {
        let pk = IqPacketizer;
        let hot = vec![Cf32::new(100.0, -100.0); 10]; // way out of range
        let pkts = pk.packetize(0, 0, 0, &hot);
        let back = pk.reassemble(&pkts).unwrap();
        for s in back {
            assert!(s.re.abs() <= (i16::MAX as f32) / IQ_SCALE + 1e-3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_roundtrip(n in 1usize..4000, bs in 0u16..100, ant in 0u8..8) {
            let pk = IqPacketizer;
            let s = samples(n);
            let pkts = pk.packetize(bs, ant, 5, &s);
            let back = pk.reassemble(&pkts).unwrap();
            prop_assert_eq!(back.len(), n);
        }
    }

    #[test]
    fn slice_header_roundtrip_matches_bytes_codec() {
        let h = PacketHeader {
            bs_id: 0xBEEF,
            antenna: 3,
            fragment: 9,
            total_fragments: 43,
            subframe: 0xDEADBEEF,
            payload_len: 1440,
        };
        let mut slice = [0u8; HEADER_LEN];
        h.write_to(&mut slice);
        let mut bytes_buf = BytesMut::new();
        h.encode(&mut bytes_buf);
        assert_eq!(
            &slice[..],
            bytes_buf.freeze().as_slice(),
            "two codecs, one wire format"
        );
        assert_eq!(PacketHeader::read_from(&slice), Some(h));
        assert_eq!(PacketHeader::read_from(&slice[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn seq_tracker_in_order_stream() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(100), SeqEvent::First);
        for s in 101..110 {
            assert_eq!(t.observe(s), SeqEvent::InOrder);
        }
        assert_eq!((t.gaps, t.stale), (0, 0));
    }

    #[test]
    fn seq_tracker_counts_gaps_once() {
        let mut t = SeqTracker::new();
        t.observe(0);
        assert_eq!(t.observe(4), SeqEvent::Gap(3)); // 1,2,3 lost
        assert_eq!(t.observe(5), SeqEvent::InOrder); // gap not re-reported
        assert_eq!(t.gaps, 3);
    }

    #[test]
    fn seq_tracker_wraparound_is_not_a_billion_packet_gap() {
        // The exact failure mode the satellite task names: a counter
        // wrapping at the u32 boundary must read as consecutive delivery,
        // and a small loss across the boundary as a small gap.
        let mut t = SeqTracker::new();
        t.observe(u32::MAX - 2);
        assert_eq!(t.observe(u32::MAX - 1), SeqEvent::InOrder);
        assert_eq!(t.observe(u32::MAX), SeqEvent::InOrder);
        assert_eq!(t.observe(0), SeqEvent::InOrder);
        assert_eq!(t.observe(1), SeqEvent::InOrder);
        assert_eq!(t.gaps, 0);

        let mut t = SeqTracker::new();
        t.observe(u32::MAX - 1);
        // MAX and 0 lost in flight; 1 arrives next.
        assert_eq!(t.observe(1), SeqEvent::Gap(2));
        assert_eq!(t.gaps, 2);
    }

    #[test]
    fn seq_tracker_duplicates_and_reordering_are_stale() {
        let mut t = SeqTracker::new();
        t.observe(7);
        t.observe(8);
        assert_eq!(t.observe(8), SeqEvent::Stale(1)); // duplicate
        assert_eq!(t.observe(3), SeqEvent::Stale(6)); // old straggler
        assert_eq!(t.observe(9), SeqEvent::InOrder); // cursor undisturbed
        assert_eq!((t.gaps, t.stale), (0, 2));

        // Stale across the wrap boundary: 0 delivered, then MAX again.
        let mut t = SeqTracker::new();
        t.observe(u32::MAX);
        t.observe(0);
        assert_eq!(t.observe(u32::MAX), SeqEvent::Stale(2));
    }

    #[test]
    fn seq_tracker_resync_relocks() {
        let mut t = SeqTracker::new();
        t.observe(1000);
        t.resync();
        // After a sender restart the stream begins at 0 — without the
        // resync this would count as a huge stale/stale event.
        assert_eq!(t.observe(0), SeqEvent::First);
        assert_eq!(t.observe(1), SeqEvent::InOrder);
        assert_eq!(t.gaps, 0);
    }

    #[test]
    fn seq_tracker_prime_then_observe_reads_in_order() {
        // Receivers prime on the first fragment and observe on subframe
        // completion — the primed seq itself must read as in-order, not
        // as a duplicate of the cursor.
        let mut t = SeqTracker::new();
        t.prime(500);
        assert!(!t.is_stale(500), "primed seq must still be acceptable");
        assert!(t.is_stale(499), "pre-prime stragglers are stale");
        assert_eq!(t.observe(500), SeqEvent::InOrder);
        assert_eq!((t.gaps, t.stale), (0, 0));

        // A primed subframe that never completes surfaces as a gap when
        // the next one does.
        let mut t = SeqTracker::new();
        t.prime(500);
        assert_eq!(t.observe(501), SeqEvent::Gap(1));
        assert_eq!(t.gaps, 1);

        // Once locked, prime is a no-op: it must never move the cursor
        // backwards (a stale fragment cannot re-open a delivered seq).
        let mut t = SeqTracker::new();
        t.observe(500);
        t.prime(200);
        assert!(t.is_stale(200));
        assert_eq!(t.observe(501), SeqEvent::InOrder);
    }

    #[test]
    fn seq_tracker_prime_at_wrap_boundary() {
        let mut t = SeqTracker::new();
        t.prime(u32::MAX);
        assert_eq!(t.observe(u32::MAX), SeqEvent::InOrder);
        assert_eq!(t.observe(0), SeqEvent::InOrder);
        assert_eq!((t.gaps, t.stale), (0, 0));
    }

    #[test]
    fn seq_tracker_resync_to_older_sequence() {
        // A restarted sender resumes *behind* the old cursor; after
        // resync that must be a fresh lock, not a million stale events.
        let mut t = SeqTracker::new();
        t.observe(1_000_000);
        assert!(t.is_stale(7));
        t.resync();
        assert!(!t.is_stale(7), "resync must unlock the cursor");
        assert_eq!(t.observe(7), SeqEvent::First);
        assert_eq!(t.observe(8), SeqEvent::InOrder);
        assert_eq!((t.gaps, t.stale), (0, 0));
    }

    #[test]
    fn seq_tracker_duplicate_after_resync_is_a_fresh_first() {
        // The wire carries no epoch: a duplicate of an already-delivered
        // seq arriving after a resync is indistinguishable from a new
        // era starting there, and the tracker must re-lock on it.
        let mut t = SeqTracker::new();
        t.observe(42);
        assert_eq!(t.observe(42), SeqEvent::Stale(1));
        t.resync();
        assert_eq!(t.observe(42), SeqEvent::First);
        assert_eq!(t.observe(42), SeqEvent::Stale(1)); // dup within the new era
        assert_eq!(t.stale, 2);
    }

    #[test]
    fn seq_delta_is_wrap_aware() {
        assert_eq!(seq_delta(5, 5), 0);
        assert_eq!(seq_delta(5, 9), 4);
        assert_eq!(seq_delta(9, 5), -4);
        assert_eq!(seq_delta(u32::MAX, 0), 1);
        assert_eq!(seq_delta(0, u32::MAX), -1);
        assert_eq!(seq_delta(u32::MAX - 10, 10), 21);
    }
}
