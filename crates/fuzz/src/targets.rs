//! Fuzz targets — the attacker-facing entry points of the fronthaul.
//!
//! Each target consumes one byte string and must return without
//! panicking for *any* input; where a cheap semantic oracle exists
//! (hello re-encode/re-decode) the target asserts it, so the fuzzer
//! hunts logic divergence as well as crashes. Structured targets
//! (`session`, `seq`) interpret the input as a bounded op script, which
//! reaches reassembly states that raw byte mutation alone almost never
//! hits (matching seq numbers across fragments, resync interleavings).

use std::io::Read;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rtopex_phy::Cf32;
use rtopex_transport::iface::StreamParams;
use rtopex_transport::packet::SeqTracker;
use rtopex_transport_net::framing::{self, FrameReader, Walk};
use rtopex_transport_net::ring::SwapQueue;
use rtopex_transport_net::session::RxSession;
use rtopex_transport_net::wire;

/// One fuzzable entry point.
pub struct Target {
    /// Corpus/CLI name.
    pub name: &'static str,
    /// Inputs are clamped to this length by the mutator.
    pub max_len: usize,
    /// The harness: must tolerate arbitrary bytes.
    pub run: fn(&[u8]),
}

/// Every shipped target, in replay order.
pub const TARGETS: &[Target] = &[
    Target {
        name: "hello",
        max_len: 256,
        run: hello_target,
    },
    Target {
        name: "iq",
        max_len: wire::MAX_IQ_FRAME,
        run: iq_target,
    },
    Target {
        name: "tcp",
        max_len: 2048,
        run: tcp_target,
    },
    Target {
        name: "session",
        max_len: 640,
        run: session_target,
    },
    Target {
        name: "seq",
        max_len: 1280,
        run: seq_target,
    },
];

/// Looks a target up by name.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Hello negotiation parser, with a re-encode oracle: any hello that
/// decodes must survive encode → decode unchanged.
fn hello_target(data: &[u8]) {
    if let Ok((v, p)) = wire::decode_hello(data) {
        let mut out = Vec::new();
        wire::encode_hello(&mut out, &p, v);
        let (v2, p2) = wire::decode_hello(&out).expect("re-encoded hello failed to decode");
        assert!(v2 == v && p2 == p, "hello roundtrip diverged");
    }
}

/// IQ frame parser plus dequantization into right- and wrong-sized
/// destinations (the latter must be refused, never panic).
fn iq_target(data: &[u8]) {
    if let Some(view) = wire::parse_iq(data) {
        let n = view.payload.len() / 4;
        let mut dst = vec![Cf32::new(0.0, 0.0); n];
        assert!(wire::dequantize_payload(view.payload, &mut dst));
        let mut short = vec![Cf32::new(0.0, 0.0); n.saturating_sub(1)];
        assert!(!wire::dequantize_payload(view.payload, &mut short) || n == 0);
    }
}

/// An in-memory stream whose chunk sizes come from the input: each
/// `read` returns `1 + b` bytes, where `b` is the first byte it returns.
/// Zero-padded length words arrive a byte at a time, and an IQ frame's
/// body straddles reads, so the reader's partial-record compaction runs.
struct Chunked<'a>(&'a [u8]);

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.0.first().map_or(0, |&b| usize::from(b) + 1);
        let n = want.min(buf.len()).min(self.0.len());
        let (head, rest) = self.0.split_at(n);
        buf[..n].copy_from_slice(head);
        self.0 = rest;
        Ok(n)
    }
}

/// TCP length-framed reassembly over an in-memory stream: the exact
/// walk-then-read loop the socket thread runs on a [`FrameReader`],
/// dispatching each frame to the matching parser.
fn tcp_target(data: &[u8]) {
    let stop = AtomicBool::new(false);
    let mut src = Chunked(data);
    let mut reader = FrameReader::new();
    // Every read takes at least one byte, so this bounds the loop.
    for _ in 0..=data.len() {
        let walk = reader.walk(|frame| match frame.first() {
            Some(&wire::FT_HELLO) => {
                let _ = wire::decode_hello(frame);
            }
            Some(&wire::FT_HELLO_ACK) => {
                let _ = wire::decode_hello_ack(frame);
            }
            _ => {
                let _ = wire::parse_iq(frame);
            }
        });
        if walk != Walk::Drained || reader.read_more(&mut src, &stop).is_err() {
            break;
        }
    }
}

/// The session target's fixed two-cell geometry (800 samples → 3
/// fragments per antenna, the smallest shape with a partial tail
/// fragment).
fn session_params() -> StreamParams {
    StreamParams {
        samples_per_subframe: 800,
        antennas: 2,
        cells: vec![5, 9],
        period_us: 1000,
        budget_us: 1000,
        mcs_pool: vec![27],
        subframes: 0,
    }
}

/// Reassembly session driven by an op script: each 10-byte chunk emits
/// a well-formed, half-lied, or geometry-lying IQ frame (or a resync),
/// and trailing bytes are ingested raw. Op scripts let mutation search
/// the *state machine* — slot eviction, duplicate bitmaps, stale
/// cursors — instead of merely re-discovering the header parser.
fn session_target(data: &[u8]) {
    let params = session_params();
    let queue = Arc::new(SwapQueue::new(&params, 8, 4));
    let mut session = RxSession::new(params, queue);
    let mut chunks = data.chunks_exact(10);
    for c in chunks.by_ref().take(64) {
        let &[op, cell, ant, frag, s0, s1, s2, s3, t0, t1] = c else {
            break;
        };
        if op % 4 == 3 {
            session.on_resync();
            continue;
        }
        let frag = frag % 4;
        let lie16 = u16::from_be_bytes([t0, t1]);
        // Mode 0 emits a valid frame; mode 1 lies about the payload
        // length; mode 2 lies about total_fragments.
        let count = match op % 4 {
            1 => lie16 as usize % 400,
            _ if frag == 2 => 80,
            _ => 360,
        };
        let total = if op % 4 == 2 { lie16 } else { 3 };
        let bs_id = [5u16, 9, 77][(cell % 3) as usize];
        let mut f = Vec::with_capacity(wire::IQ_PAYLOAD_OFF + count * 4);
        f.push(wire::FT_IQ);
        f.push(27);
        f.extend_from_slice(&bs_id.to_be_bytes());
        f.push(ant % 3);
        f.push(frag);
        f.extend_from_slice(&total.to_be_bytes());
        f.extend_from_slice(&[s0, s1, s2, s3]);
        f.extend_from_slice(&((count * 4) as u16).to_be_bytes());
        f.resize(f.len() + count * 4, t0 ^ frag);
        session.ingest_frame(&f);
    }
    session.ingest_frame(chunks.remainder());
}

/// Sequence tracker driven by an op script over attacker-chosen
/// 32-bit sequence numbers (observe/prime/is_stale/resync).
fn seq_target(data: &[u8]) {
    let mut t = SeqTracker::new();
    for c in data.chunks_exact(5).take(256) {
        let &[op, a, b, c2, d] = c else {
            break;
        };
        let v = u32::from_be_bytes([a, b, c2, d]);
        match op % 4 {
            0 => {
                t.observe(v);
            }
            1 => t.prime(v),
            2 => {
                t.is_stale(v);
            }
            _ => t.resync(),
        }
    }
}

/// Canonical valid inputs per target — the committed corpus starts
/// from these, so the mutator begins at the deep end of each parser.
pub fn seeds(name: &str) -> Vec<Vec<u8>> {
    match name {
        "hello" => {
            let mut hello = Vec::new();
            wire::encode_hello(
                &mut hello,
                &session_params(),
                rtopex_transport::iface::PROTOCOL_VERSION,
            );
            vec![hello, vec![wire::FT_HELLO], Vec::new()]
        }
        "iq" => {
            let samples = [Cf32::new(0.25, -0.5); 80];
            let mut frame = vec![0u8; wire::MAX_IQ_FRAME];
            let len = wire::write_iq_frame(&mut frame, 27, 5, 0, 2, 3, 7, &samples);
            frame.truncate(len);
            let full = [Cf32::new(-0.125, 0.0625); wire::SAMPLES_PER_FRAG];
            let mut f2 = vec![0u8; wire::MAX_IQ_FRAME];
            let l2 = wire::write_iq_frame(&mut f2, 16, 9, 1, 0, 3, 0, &full);
            f2.truncate(l2);
            vec![frame, f2, vec![wire::FT_IQ]]
        }
        "tcp" => {
            let mut hello = Vec::new();
            wire::encode_hello(
                &mut hello,
                &session_params(),
                rtopex_transport::iface::PROTOCOL_VERSION,
            );
            let mut stream = Vec::new();
            let _ = framing::write_framed(&mut stream, &hello);
            let samples = [Cf32::new(0.25, -0.5); 80];
            let mut frame = vec![0u8; wire::MAX_IQ_FRAME];
            let len = wire::write_iq_frame(&mut frame, 27, 5, 0, 2, 3, 7, &samples);
            frame.truncate(len);
            let _ = framing::write_framed(&mut stream, &frame);
            // Under `Chunked`, the IQ record's length word (336 = 0x150)
            // asks for an 81-byte read, so its body straddles reads; the
            // zero length after the BYE must never be read.
            let mut straddle = stream.clone();
            straddle.extend_from_slice(&[0, 0, 0, 1, wire::FT_BYE, 0, 0, 0, 0]);
            vec![stream, vec![0, 0, 0, 1, wire::FT_BYE], straddle]
        }
        "session" => {
            // Two full subframes in order, a resync, then one more.
            let mut script = Vec::new();
            for seq in 0u32..2 {
                for ant in 0u8..2 {
                    for frag in 0u8..3 {
                        script.push(0);
                        script.push(0); // cell 5
                        script.push(ant);
                        script.push(frag);
                        script.extend_from_slice(&seq.to_be_bytes());
                        script.extend_from_slice(&[0, 0]);
                    }
                }
            }
            script.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
            vec![script, vec![0; 10]]
        }
        "seq" => {
            let mut script = Vec::new();
            for (op, v) in [
                (1u8, 10u32),
                (0, 10),
                (0, 11),
                (0, 9),
                (2, 5),
                (3, 0),
                (0, u32::MAX),
                (0, 0),
            ] {
                script.push(op);
                script.extend_from_slice(&v.to_be_bytes());
            }
            vec![script, Vec::new()]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_has_seeds_and_survives_them() {
        for t in TARGETS {
            let seeds = seeds(t.name);
            assert!(!seeds.is_empty(), "{} has no seeds", t.name);
            for s in &seeds {
                assert!(s.len() <= t.max_len, "{} seed exceeds max_len", t.name);
                (t.run)(s);
            }
        }
    }

    #[test]
    fn find_resolves_shipped_names_only() {
        assert!(find("hello").is_some());
        assert!(find("nope").is_none());
    }
}
