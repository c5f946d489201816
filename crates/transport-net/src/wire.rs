//! Wire framing shared by the UDP and TCP transports.
//!
//! Every frame starts with a one-byte type tag. IQ frames reuse the
//! 12-byte [`PacketHeader`] fragment format from `rtopex-transport`'s
//! packetizer (bs_id / antenna / fragment / subframe sequence), prefixed
//! with the MCS the subframe was encoded at:
//!
//! ```text
//! [FT_IQ][mcs:u8][PacketHeader:12][payload: payload_len bytes of BE i16 I/Q]
//! ```
//!
//! Hello/ack frames carry the [`StreamParams`] negotiation. Over UDP a
//! frame is one datagram; over TCP each frame is preceded by a
//! big-endian `u32` length.

use rtopex_phy::iq::quantize_be_into;
use rtopex_phy::Cf32;
use rtopex_transport::iface::{StreamParams, TransportError, PROTOCOL_VERSION};
use rtopex_transport::packet::{dequantize, PacketHeader, HEADER_LEN, MAX_PAYLOAD};
use rtopex_transport::probe;

/// Session negotiation: version + stream geometry.
pub const FT_HELLO: u8 = 1;
/// Hello acknowledgement carrying the receiver's version.
pub const FT_HELLO_ACK: u8 = 2;
/// One IQ fragment.
pub const FT_IQ: u8 = 3;
/// Clean end of stream.
pub const FT_BYE: u8 = 4;

/// IQ samples per full fragment payload.
pub const SAMPLES_PER_FRAG: usize = MAX_PAYLOAD / 4;

/// Byte offset of the IQ payload inside an IQ frame.
pub const IQ_PAYLOAD_OFF: usize = 2 + HEADER_LEN;

/// Largest IQ frame (type + mcs + header + full payload).
pub const MAX_IQ_FRAME: usize = IQ_PAYLOAD_OFF + MAX_PAYLOAD;

/// Upper bound on any frame this protocol emits (hello grows with the
/// cell list; 4 KiB accommodates >1500 cells per stream).
pub const MAX_FRAME: usize = 4096;

/// Most receive antennas per cell a stream may negotiate.
pub const MAX_ANTENNAS: u8 = 8;
/// Most cells one stream may carry.
pub const MAX_CELLS_PER_STREAM: usize = 64;
/// Largest per-antenna subframe a stream may negotiate (20 MHz LTE:
/// 30.72 Msps × 1 ms). Keeps `fragments_for` ≤ 86, comfortably inside
/// the session's 128-fragment assembly bitmap.
pub const MAX_SAMPLES_PER_SUBFRAME: u32 = 30_720;
/// Largest MCS pool a hello may announce.
pub const MAX_MCS_POOL: usize = 32;

/// Fragments needed per antenna for `samples` IQ samples.
pub fn fragments_for(samples: usize) -> usize {
    // analyze: allow(taint-arith): samples ≤ MAX_SAMPLES_PER_SUBFRAME
    // (validate_geometry), so samples * 4 fits usize with room to spare
    (samples * 4).div_ceil(MAX_PAYLOAD).max(1)
}

/// Validates negotiated stream geometry against the protocol's hard
/// caps. Every session constructor goes through this before sizing
/// buffers, so a hostile hello can neither panic the receiver (the
/// 128-fragment assembly bitmap in `RxSession::new`) nor make it
/// allocate unbounded memory (`SubframeBuf::for_stream` is
/// `cells × antennas × samples_per_subframe` — attacker-sized before
/// this check existed).
pub fn validate_geometry(p: &StreamParams) -> Result<(), TransportError> {
    let bad = |m: String| TransportError::Protocol(m);
    if p.antennas == 0 || p.samples_per_subframe == 0 || p.cells.is_empty() {
        probe::reach(0x1A);
        return Err(bad("degenerate geometry".into()));
    }
    if p.antennas > MAX_ANTENNAS {
        return Err(bad(format!(
            "antennas {} exceeds cap {MAX_ANTENNAS}",
            p.antennas
        )));
    }
    if p.samples_per_subframe > MAX_SAMPLES_PER_SUBFRAME {
        return Err(bad(format!(
            "samples_per_subframe {} exceeds cap {MAX_SAMPLES_PER_SUBFRAME}",
            p.samples_per_subframe
        )));
    }
    if p.cells.len() > MAX_CELLS_PER_STREAM {
        return Err(bad(format!(
            "{} cells exceeds cap {MAX_CELLS_PER_STREAM}",
            p.cells.len()
        )));
    }
    if p.mcs_pool.len() > MAX_MCS_POOL {
        return Err(bad(format!(
            "mcs pool of {} exceeds cap {MAX_MCS_POOL}",
            p.mcs_pool.len()
        )));
    }
    for (i, c) in p.cells.iter().enumerate() {
        if p.cells.iter().take(i).any(|o| o == c) {
            probe::reach(0x1B);
            return Err(bad(format!("duplicate cell id {c}")));
        }
    }
    probe::reach(0x1C);
    Ok(())
}

/// Checked byte cursor over an untrusted frame. Every read is bounds-
/// checked exactly once, so the parsers below contain no indexing or
/// slicing that could panic — the taint pass of `rtopex-analyze`
/// verifies this transitively.
struct Rd<'a> {
    b: &'a [u8],
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b }
    }

    fn u8(&mut self) -> Option<u8> {
        let (&v, rest) = self.b.split_first()?;
        self.b = rest;
        Some(v)
    }

    fn chunk<const N: usize>(&mut self) -> Option<&'a [u8; N]> {
        let (head, rest) = self.b.split_first_chunk::<N>()?;
        self.b = rest;
        Some(head)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(*self.chunk::<2>()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(*self.chunk::<4>()?))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.b.len() {
            return None;
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Some(head)
    }

    fn rest(self) -> &'a [u8] {
        self.b
    }
}

/// Encodes a hello frame for `p` into `out` (cleared first).
pub fn encode_hello(out: &mut Vec<u8>, p: &StreamParams, version: u16) {
    out.clear();
    out.push(FT_HELLO);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&p.samples_per_subframe.to_be_bytes());
    out.push(p.antennas);
    out.extend_from_slice(&p.period_us.to_be_bytes());
    out.extend_from_slice(&p.budget_us.to_be_bytes());
    out.extend_from_slice(&p.subframes.to_be_bytes());
    out.extend_from_slice(&(p.cells.len() as u16).to_be_bytes());
    for c in &p.cells {
        out.extend_from_slice(&c.to_be_bytes());
    }
    out.push(p.mcs_pool.len() as u8);
    out.extend_from_slice(&p.mcs_pool);
}

/// Decodes a hello frame (including the type byte). Returns the peer's
/// version alongside the params so the caller can refuse a mismatch
/// with a precise error.
pub fn decode_hello(frame: &[u8]) -> Result<(u16, StreamParams), TransportError> {
    let bad = |m: &str| TransportError::Protocol(format!("malformed hello: {m}"));
    probe::reach(0x10);
    let mut rd = Rd::new(frame);
    if rd.u8() != Some(FT_HELLO) {
        return Err(bad("wrong frame type"));
    }
    probe::reach(0x11);
    let version = rd.u16().ok_or_else(|| bad("truncated fixed part"))?;
    let samples_per_subframe = rd.u32().ok_or_else(|| bad("truncated fixed part"))?;
    let antennas = rd.u8().ok_or_else(|| bad("truncated fixed part"))?;
    let period_us = rd.u32().ok_or_else(|| bad("truncated fixed part"))?;
    let budget_us = rd.u32().ok_or_else(|| bad("truncated fixed part"))?;
    let subframes = rd.u32().ok_or_else(|| bad("truncated fixed part"))?;
    let n_cells = rd.u16().ok_or_else(|| bad("truncated fixed part"))? as usize;
    // Cap before allocating: the count is attacker bytes until here.
    if n_cells > MAX_CELLS_PER_STREAM {
        probe::reach(0x12);
        return Err(bad("cell list exceeds MAX_CELLS_PER_STREAM"));
    }
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        cells.push(rd.u16().ok_or_else(|| bad("truncated cell list"))?);
    }
    probe::reach(0x13);
    let n_mcs = rd.u8().ok_or_else(|| bad("truncated mcs pool"))? as usize;
    if n_mcs > MAX_MCS_POOL {
        probe::reach(0x14);
        return Err(bad("mcs pool exceeds MAX_MCS_POOL"));
    }
    let mcs_pool = rd
        .take(n_mcs)
        .ok_or_else(|| bad("truncated mcs pool"))?
        .to_vec();
    let p = StreamParams {
        samples_per_subframe,
        antennas,
        cells,
        period_us,
        budget_us,
        mcs_pool,
        subframes,
    };
    validate_geometry(&p)?;
    probe::reach(0x15);
    Ok((version, p))
}

/// Encodes a hello-ack carrying `version` into `out` (cleared first).
pub fn encode_hello_ack(out: &mut Vec<u8>, version: u16) {
    out.clear();
    out.push(FT_HELLO_ACK);
    out.extend_from_slice(&version.to_be_bytes());
}

/// Decodes a hello-ack; `None` if malformed.
pub fn decode_hello_ack(frame: &[u8]) -> Option<u16> {
    match frame {
        &[t, hi, lo] if t == FT_HELLO_ACK => Some(u16::from_be_bytes([hi, lo])),
        _ => None,
    }
}

/// Checks a peer's announced version against ours.
pub fn check_version(got: u16) -> Result<(), TransportError> {
    if got == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(TransportError::Version {
            got,
            want: PROTOCOL_VERSION,
        })
    }
}

/// Serialized length of an IQ frame carrying `n` samples.
pub fn iq_frame_len(n: usize) -> usize {
    IQ_PAYLOAD_OFF + n * 4
}

/// Writes one IQ fragment frame into the front of `out`, quantizing
/// `samples` to the wire's 16-bit fixed point with one
/// `rtopex_phy::iq::quantize_be_into` call. Returns the frame length.
/// `out` must hold at least [`iq_frame_len`]`(samples.len())` bytes and
/// `samples.len()` must fit one fragment.
// The argument list IS the wire header, field for field; a builder
// struct would just restate `PacketHeader` with extra copies.
#[allow(clippy::too_many_arguments)]
pub fn write_iq_frame(
    out: &mut [u8],
    mcs: u8,
    bs_id: u16,
    antenna: u8,
    fragment: u8,
    total_fragments: u16,
    seq: u32,
    samples: &[Cf32],
) -> usize {
    let n = samples.len();
    debug_assert!(n <= SAMPLES_PER_FRAG);
    let frame_len = iq_frame_len(n);
    // Sender side: `out` is sized by the caller per the documented
    // contract, so the splits and the payload slice below panic only on a
    // caller bug (like `fill_quantized`); no peer controls these lengths.
    let (head, tail) = out.split_at_mut(2);
    if let [t, m] = head {
        *t = FT_IQ;
        *m = mcs;
    }
    let (hdr, payload_all) = tail.split_at_mut(HEADER_LEN);
    let plen = (n * 4) as u16;
    PacketHeader {
        bs_id,
        antenna,
        fragment,
        total_fragments,
        subframe: seq,
        payload_len: plen,
    }
    .write_to(hdr);
    quantize_be_into(samples, &mut payload_all[..plen as usize]);
    frame_len
}

/// A parsed IQ frame borrowing the receive buffer (the allocation-free
/// hot-path view).
#[derive(Clone, Copy, Debug)]
pub struct IqView<'a> {
    /// MCS the subframe was encoded at.
    pub mcs: u8,
    /// Fragment header (cell id, antenna, fragment index, sequence).
    pub header: PacketHeader,
    /// Raw BE i16 I/Q payload.
    pub payload: &'a [u8],
}

/// Parses an IQ frame in place; `None` if malformed or truncated.
pub fn parse_iq(frame: &[u8]) -> Option<IqView<'_>> {
    probe::reach(0x16);
    let mut rd = Rd::new(frame);
    if rd.u8()? != FT_IQ {
        return None;
    }
    let mcs = rd.u8()?;
    let header = PacketHeader::read_from(rd.take(HEADER_LEN)?)?;
    probe::reach(0x17);
    let payload = rd.rest();
    if payload.len() != header.payload_len as usize || header.payload_len % 4 != 0 {
        return None;
    }
    probe::reach(0x18);
    Some(IqView {
        mcs,
        header,
        payload,
    })
}

/// Dequantizes an IQ payload into `dst` (exactly `payload.len()/4`
/// samples). Returns `false` on length mismatch.
pub fn dequantize_payload(payload: &[u8], dst: &mut [Cf32]) -> bool {
    if !payload.len().is_multiple_of(4) || payload.len() / 4 != dst.len() {
        return false;
    }
    probe::reach(0x19);
    for (b, d) in payload.chunks_exact(4).zip(dst.iter_mut()) {
        let &[r0, r1, i0, i1] = b else {
            return false;
        };
        *d = Cf32::new(
            dequantize(i16::from_be_bytes([r0, r1])),
            dequantize(i16::from_be_bytes([i0, i1])),
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_transport::packet::quantize;

    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 7680,
            antennas: 2,
            cells: vec![3, 1, 4],
            period_us: 6000,
            budget_us: 5000,
            mcs_pool: vec![5, 10, 16, 22, 27],
            subframes: 300,
        }
    }

    #[test]
    fn hello_roundtrip() {
        let p = params();
        let mut buf = Vec::new();
        encode_hello(&mut buf, &p, PROTOCOL_VERSION);
        let (v, back) = decode_hello(&buf).unwrap();
        assert_eq!(v, PROTOCOL_VERSION);
        assert_eq!(back, p);
        assert!(buf.len() < MAX_FRAME);
    }

    #[test]
    fn hello_truncation_rejected() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, &params(), PROTOCOL_VERSION);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(decode_hello(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn ack_roundtrip_and_version_gate() {
        let mut buf = Vec::new();
        encode_hello_ack(&mut buf, 7);
        assert_eq!(decode_hello_ack(&buf), Some(7));
        assert!(matches!(
            check_version(7),
            Err(TransportError::Version { got: 7, .. })
        ));
        assert!(check_version(PROTOCOL_VERSION).is_ok());
    }

    #[test]
    fn iq_frame_roundtrip_is_quantize_exact() {
        let samples: Vec<Cf32> = (0..360)
            .map(|i| Cf32::new(i as f32 / 400.0 - 0.45, -(i as f32) / 800.0))
            .collect();
        let mut frame = vec![0u8; MAX_IQ_FRAME];
        let len = write_iq_frame(&mut frame, 27, 42, 1, 3, 22, 0xFFFF_FFFE, &samples);
        assert_eq!(len, iq_frame_len(360));
        let view = parse_iq(&frame[..len]).unwrap();
        assert_eq!(view.mcs, 27);
        assert_eq!(view.header.bs_id, 42);
        assert_eq!(view.header.subframe, 0xFFFF_FFFE);
        let mut out = vec![Cf32::new(0.0, 0.0); 360];
        assert!(dequantize_payload(view.payload, &mut out));
        for (s, o) in samples.iter().zip(&out) {
            assert_eq!(o.re, dequantize(quantize(s.re)));
            assert_eq!(o.im, dequantize(quantize(s.im)));
        }
    }

    #[test]
    fn malformed_iq_rejected() {
        let samples = vec![Cf32::new(0.1, 0.2); 8];
        let mut frame = vec![0u8; MAX_IQ_FRAME];
        let len = write_iq_frame(&mut frame, 5, 1, 0, 0, 1, 9, &samples);
        assert!(parse_iq(&frame[..len]).is_some());
        assert!(parse_iq(&frame[..len - 1]).is_none(), "truncated payload");
        let mut wrong = frame.clone();
        wrong[0] = FT_BYE;
        assert!(parse_iq(&wrong[..len]).is_none(), "wrong type");
    }

    #[test]
    fn fragment_geometry_matches_packetizer() {
        // 5 MHz subframe: 7680 samples = 30720 bytes → 22 fragments.
        assert_eq!(fragments_for(7680), 22);
        assert_eq!(fragments_for(SAMPLES_PER_FRAG), 1);
        assert_eq!(fragments_for(SAMPLES_PER_FRAG + 1), 2);
        assert_eq!(fragments_for(1), 1);
    }
}
