//! Pluggable fronthaul transport interface.
//!
//! ROADMAP item 1: the fronthaul is no longer only an in-process latency
//! *model* — IQ subframes can now travel over a real byte transport
//! between an aggregator process and worker hosts. This module defines
//! the contract every transport implements:
//!
//! * [`FronthaulTx`] — the aggregator side: streams quantized IQ
//!   subframes for a set of cells to one worker.
//! * [`FronthaulRx`] — the worker side: reassembles subframes and hands
//!   them to the cluster runtime by **swapping** preallocated buffers
//!   ([`SubframeBuf`]), so the steady-state receive path performs no
//!   allocation.
//!
//! Three implementations ship: the in-process emulation
//! ([`crate::inproc`]), and the UDP / length-framed TCP transports in
//! `rtopex-transport-net` (a separate crate so the core runtime keeps
//! zero network-transport dependencies, mirroring the exemplar's
//! transport-layer decoupling). All transports carry the same payload
//! encoding — 16-bit I/Q via [`crate::packet`] — so a delivered subframe
//! is byte-identical across transports for the same input.

use std::fmt;
use std::time::Duration;

use rtopex_phy::iq::quantize_roundtrip_into;
use rtopex_phy::Cf32;

/// Wire protocol version carried in the hello frame. Mismatched peers
/// refuse the session instead of mis-parsing each other's frames.
pub const PROTOCOL_VERSION: u16 = 1;

/// Stream-level parameters negotiated at session setup (the hello
/// frame): enough for the worker to build its cluster configuration
/// without any out-of-band coordination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamParams {
    /// Samples per subframe per antenna — identifies the LTE bandwidth.
    pub samples_per_subframe: u32,
    /// Receive antennas per cell.
    pub antennas: u8,
    /// Global cell ids this stream carries; wire order defines the
    /// worker-local cell index.
    pub cells: Vec<u16>,
    /// Subframe period in µs (possibly dilated).
    pub period_us: u32,
    /// Eq. 3 deadline budget in µs (`2·period − rtt_half`).
    pub budget_us: u32,
    /// MCS values the per-cell traces draw from (the worker warms one
    /// decoder configuration per entry).
    pub mcs_pool: Vec<u8>,
    /// Expected subframes per cell; `0` means open-ended.
    pub subframes: u32,
}

impl StreamParams {
    /// Local index of global cell id `cell`, if this stream carries it.
    pub fn local_cell(&self, cell: u16) -> Option<usize> {
        self.cells.iter().position(|&c| c == cell)
    }

    /// Checks one subframe against the stream geometry: `antennas` rows
    /// of `samples_per_subframe` samples. Every [`FronthaulTx::send`]
    /// calls it before writing, queueing or recycling anything, so a
    /// refused subframe leaves no trace on the stream.
    pub fn check_subframe(&self, samples: &[Vec<Cf32>]) -> Result<(), TransportError> {
        let n = self.samples_per_subframe as usize;
        if samples.len() != self.antennas as usize || samples.iter().any(|s| s.len() != n) {
            return Err(TransportError::Protocol(
                "subframe geometry mismatch".into(),
            ));
        }
        Ok(())
    }
}

/// One reassembled IQ subframe, owned by the consumer and recycled
/// through [`FronthaulRx::recv_into`] swaps.
#[derive(Clone, Debug)]
pub struct SubframeBuf {
    /// Global cell id (wire `bs_id`).
    pub cell: u16,
    /// Subframe sequence counter (wraps at `u32::MAX`).
    pub seq: u32,
    /// MCS the aggregator encoded this subframe with.
    pub mcs: u8,
    /// Per-antenna sample buffers, each `samples_per_subframe` long.
    pub samples: Vec<Vec<Cf32>>,
}

impl SubframeBuf {
    /// A zeroed buffer with the stream's per-subframe geometry.
    pub fn for_stream(p: &StreamParams) -> Self {
        SubframeBuf {
            cell: 0,
            seq: 0,
            mcs: 0,
            samples: vec![
                vec![Cf32::new(0.0, 0.0); p.samples_per_subframe as usize];
                p.antennas as usize
            ],
        }
    }

    /// Copies `samples` in through the wire's i16 quantization, so the
    /// stored payload is bit-identical to what a byte transport would
    /// deliver. Panics if the geometry disagrees (caller bug; senders
    /// refuse it first with [`StreamParams::check_subframe`]).
    pub fn fill_quantized(&mut self, cell: u16, seq: u32, mcs: u8, samples: &[Vec<Cf32>]) {
        // analyze: allow(panic): caller-bug guard — the stream geometry is
        // fixed at session setup, so a mismatch here is a programming error
        assert_eq!(samples.len(), self.samples.len(), "antenna count mismatch");
        self.cell = cell;
        self.seq = seq;
        self.mcs = mcs;
        for (dst, src) in self.samples.iter_mut().zip(samples) {
            quantize_roundtrip_into(src, dst);
        }
    }
}

/// Outcome of one [`FronthaulRx::recv_into`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recv {
    /// A subframe was swapped into the caller's buffer.
    Subframe,
    /// Nothing arrived within the timeout; the session is still open.
    TimedOut,
    /// Clean end of stream (bye received, or the peer is gone for good).
    Closed,
}

/// Transport failure. Timeouts are *not* errors — they surface as
/// [`Recv::TimedOut`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Peer speaks a different protocol version.
    Version {
        /// Version the peer announced.
        got: u16,
        /// Version this side implements.
        want: u16,
    },
    /// Session-level violation (bad hello, geometry mismatch, …).
    Protocol(String),
    /// Underlying socket/channel failure.
    Io(String),
    /// The peer closed and the operation cannot complete.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Version { got, want } => {
                write!(f, "protocol version mismatch: peer {got}, ours {want}")
            }
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
            TransportError::Io(m) => write!(f, "transport I/O error: {m}"),
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Receive-side session counters, exposed for reports and gating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxStats {
    /// Subframes handed to the consumer.
    pub delivered: u64,
    /// Sum of sequence-gap lengths (subframes the wire lost).
    pub gaps: u64,
    /// Frames that arrived behind the per-cell sequence cursor
    /// (late duplicates / reordered stragglers).
    pub stale: u64,
    /// Subframes dropped oldest-first because the consumer fell behind
    /// (rx overrun backpressure).
    pub drops: u64,
    /// Frames rejected as unparsable or geometry-violating.
    pub bad_frames: u64,
    /// Sender reconnects absorbed (TCP) / hello replays (UDP).
    pub resyncs: u64,
}

/// Aggregator side of a fronthaul stream.
pub trait FronthaulTx: Send {
    /// Negotiated stream parameters.
    fn params(&self) -> &StreamParams;

    /// Queues one cell-subframe of IQ samples for transmission.
    /// `samples` is `[antenna][samples_per_subframe]` and must match the
    /// stream geometry.
    fn send(
        &mut self,
        cell: u16,
        seq: u32,
        mcs: u8,
        samples: &[Vec<Cf32>],
    ) -> Result<(), TransportError>;

    /// Pushes any coalesced frames onto the wire (one syscall per
    /// cell-batch for the byte transports; no-op in-process).
    fn flush(&mut self) -> Result<(), TransportError>;

    /// Flushes and sends the end-of-stream marker.
    fn finish(&mut self) -> Result<(), TransportError>;
}

/// Worker side of a fronthaul stream.
pub trait FronthaulRx: Send {
    /// Negotiated stream parameters.
    fn params(&self) -> &StreamParams;

    /// Waits up to `timeout` for the next reassembled subframe and swaps
    /// it into `buf` (the previous contents of `buf` are recycled into
    /// the receive pool — pass a [`SubframeBuf::for_stream`] buffer).
    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError>;

    /// Session counters so far.
    fn stats(&self) -> RxStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 128,
            antennas: 2,
            cells: vec![4, 9],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![5, 27],
            subframes: 10,
        }
    }

    #[test]
    fn buf_matches_stream_geometry() {
        let b = SubframeBuf::for_stream(&params());
        assert_eq!(b.samples.len(), 2);
        assert_eq!(b.samples[0].len(), 128);
    }

    #[test]
    fn local_cell_maps_wire_ids() {
        let p = params();
        assert_eq!(p.local_cell(9), Some(1));
        assert_eq!(p.local_cell(5), None);
    }

    #[test]
    fn fill_quantized_is_wire_exact() {
        let p = params();
        let mut b = SubframeBuf::for_stream(&p);
        let src = vec![vec![Cf32::new(0.1234567, -0.7654321); 128]; 2];
        b.fill_quantized(4, 7, 27, &src);
        let q = crate::packet::dequantize(crate::packet::quantize(0.1234567));
        assert_eq!(b.samples[1][100].re, q);
        assert_ne!(b.samples[1][100].re, 0.1234567);
    }
}
