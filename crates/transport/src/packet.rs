//! The IQ wire format's pieces — the reproduction's stand-in for the
//! CWARP transport library used by the paper's testbed.
//!
//! A subframe of complex baseband samples is quantized to 16-bit I/Q
//! ([`quantize`]), split into MTU-sized fragments of at most
//! [`MAX_PAYLOAD`] bytes, and each fragment is prefixed with a
//! [`PacketHeader`] carrying the basestation id, antenna, fragment index
//! and subframe counter, so the receive side can reassemble and detect
//! loss. `rtopex-transport-net`'s wire codec writes and parses these
//! frames; [`SeqTracker`] is the per-cell loss/reorder detector its
//! receive session (and the in-process sender) runs.

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
    /// Writes the header into the front of `buf`. Panics if `buf` is
    /// shorter than [`HEADER_LEN`].
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.bs_id.to_be_bytes());
        buf[2] = self.antenna;
        buf[3] = self.fragment;
        buf[4..6].copy_from_slice(&self.total_fragments.to_be_bytes());
        buf[6..10].copy_from_slice(&self.subframe.to_be_bytes());
        buf[10..12].copy_from_slice(&self.payload_len.to_be_bytes());
    }

    /// Parses a header from the front of `buf`; `None` if `buf` is
    /// shorter than [`HEADER_LEN`].
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

#[cfg(test)]
mod tests {
    use super::*;

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
