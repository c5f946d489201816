//! Length-framed stream I/O shared by the TCP transport and the
//! fuzzer.
//!
//! Frames are `[len: u32 BE][frame]`. A [`FrameReader`] owns one fixed
//! [`READ_BUF`]-byte buffer per connection: each [`FrameReader::read_more`]
//! is one `read` of whatever the stream holds, and
//! [`FrameReader::walk`] hands every complete record of the buffered
//! bytes to its sink in place, so a coalesced cell-batch costs one or a
//! few `read` calls instead of two per frame, and the TCP io loop
//! ingests them all under one session lock. A partial record at the
//! tail is moved to the front of the buffer before the next read.
//!
//! The reader is generic over [`std::io::Read`] so `rtopex-fuzz`
//! drives the exact reassembly code the socket path runs, from
//! in-memory byte streams. The length prefix is attacker bytes, which
//! is why a zero or oversized length is a connection-fatal framing
//! violation instead of being trusted.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rtopex_transport::iface::TransportError;
use rtopex_transport::probe;

use crate::wire;

pub(crate) fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Bytes a [`FrameReader`] buffers. A `read` of a paced stream returns
/// one coalesced write: 62,232 bytes for a 5 MHz, 2-antenna subframe
/// (14,999 of 15,002 reads in three `fh_tcp_paced` runs), so 64 KiB
/// takes it whole. It must hold at least one record of the largest
/// legal frame.
pub const READ_BUF: usize = 64 * 1024;
const _: () = assert!(READ_BUF >= 4 + wire::MAX_FRAME);

/// Why an interruptible read stopped short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEnd {
    /// Clean end of stream.
    Eof,
    /// The stop flag was raised between reads.
    Stopped,
    /// No whole frame arrived before the deadline.
    TimedOut,
    /// I/O error or framing violation; drop the connection.
    Failed,
}

/// How [`FrameReader::walk`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Every complete record went to the sink; at most a partial one is
    /// left for the next [`FrameReader::read_more`].
    Drained,
    /// A BYE frame ended the stream. Bytes after it are never read.
    Bye,
    /// A zero or oversized length word: drop the connection.
    Violation,
}

/// The buffered `[len][frame]` reader of one connection. Built once;
/// nothing is allocated after that.
pub struct FrameReader {
    buf: Box<[u8]>,
    /// First byte not yet handed out.
    start: usize,
    /// One past the last buffered byte.
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader with its [`READ_BUF`]-byte buffer.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0u8; READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// Forgets every buffered byte, for a new connection.
    pub(crate) fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` of whatever `s` holds into the free tail of the
    /// buffer, after moving a partial record to the front. Read timeouts
    /// and interrupts are retried, with the stop flag checked before
    /// every read. Returns the byte count (never 0).
    ///
    /// Call it only once [`Self::walk`] has drained every complete
    /// record; a full buffer fails.
    pub fn read_more<R: Read>(&mut self, s: &mut R, stop: &AtomicBool) -> Result<usize, ReadEnd> {
        self.read_until(s, stop, None)
    }

    /// [`Self::read_more`], but a read timeout once `deadline` has
    /// passed ends it with [`ReadEnd::TimedOut`].
    fn read_until<R: Read>(
        &mut self,
        s: &mut R,
        stop: &AtomicBool,
        deadline: Option<Instant>,
    ) -> Result<usize, ReadEnd> {
        self.compact();
        // analyze: allow(taint-loop): every iteration either consumes stream
        // bytes into the buffer and returns, returns on error/EOF, or retries
        // a timeout under the stop flag — the peer cannot make it spin
        // unobservably
        loop {
            if stop.load(Ordering::Relaxed) {
                return Err(ReadEnd::Stopped);
            }
            let Some(dst) = self.buf.get_mut(self.end..).filter(|d| !d.is_empty()) else {
                return Err(ReadEnd::Failed);
            };
            match s.read(dst) {
                Ok(0) => return Err(ReadEnd::Eof),
                Ok(n) => {
                    // n ≤ dst.len(), so end stays inside the buffer.
                    self.end = self.end.saturating_add(n);
                    return Ok(n);
                }
                Err(e) if is_timeout(&e) && deadline.is_some_and(|d| Instant::now() >= d) => {
                    return Err(ReadEnd::TimedOut)
                }
                Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(ReadEnd::Failed),
            }
        }
    }

    /// Hands every complete buffered record to `sink`, in stream order,
    /// and stops at a BYE or a framing violation. A violation is sticky:
    /// the offending length word stays at the front until the reader is
    /// cleared for a new connection.
    pub fn walk(&mut self, mut sink: impl FnMut(&[u8])) -> Walk {
        // analyze: allow(taint-loop): every iteration consumes one whole
        // buffered record of at least 5 bytes or returns, so the trip count
        // is bounded by READ_BUF / 5 — the peer cannot make it spin
        loop {
            match self.next_record() {
                Ok(Some(r)) => {
                    // next_record guarantees r lies inside the buffer.
                    let frame = self.buf.get(r).unwrap_or(&[]);
                    if frame.first() == Some(&wire::FT_BYE) {
                        return Walk::Bye;
                    }
                    sink(frame);
                }
                Ok(None) => return Walk::Drained,
                Err(()) => return Walk::Violation,
            }
        }
    }

    /// Blocks until one whole frame is buffered and returns it: the
    /// hello and its ack, read before the stream's io loop starts.
    /// Whatever arrived behind the frame stays buffered for
    /// [`Self::walk`]. A peer that has not sent the whole frame by
    /// `deadline` gets [`ReadEnd::TimedOut`] after its next read or read
    /// timeout, so trickling bytes cannot hold the reader past it.
    pub(crate) fn read_frame<R: Read>(
        &mut self,
        s: &mut R,
        stop: &AtomicBool,
        deadline: Instant,
    ) -> Result<&[u8], ReadEnd> {
        // analyze: allow(taint-loop): every iteration returns a frame, fails,
        // or blocks in read_until, which consumes stream bytes or returns — the
        // same bound as walk and read_more
        let r = loop {
            match self.next_record() {
                Ok(Some(r)) => break r,
                Ok(None) if Instant::now() >= deadline => return Err(ReadEnd::TimedOut),
                Ok(None) => {
                    self.read_until(s, stop, Some(deadline))?;
                }
                Err(()) => return Err(ReadEnd::Failed),
            }
        };
        Ok(self.buf.get(r).unwrap_or(&[]))
    }

    /// The body range of the next complete record, consumed; `None`
    /// when only a partial record is buffered. A zero or `> MAX_FRAME`
    /// length is a framing violation — the length word is untrusted, so
    /// it bounds nothing but this check.
    fn next_record(&mut self) -> Result<Option<Range<usize>>, ()> {
        let head = self.buf.get(self.start..self.end).unwrap_or(&[]);
        let Some(&len4) = head.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(len4) as usize;
        if len == 0 {
            probe::reach(0x41);
            return Err(());
        }
        if len > wire::MAX_FRAME {
            probe::reach(0x42);
            return Err(());
        }
        // start + 4 + len ≤ end + 4 + MAX_FRAME: far from overflow.
        let body = self.start.saturating_add(4);
        let next = body.saturating_add(len);
        if next > self.end {
            return Ok(None);
        }
        self.start = next;
        probe::reach(0x40);
        Ok(Some(body..next))
    }

    /// Moves the unconsumed bytes (at most one partial record once the
    /// buffer has been walked) to the front.
    fn compact(&mut self) {
        if self.start == self.end {
            self.clear();
        } else if self.start > 0 {
            // start < end ≤ buf.len(), so the range is in bounds.
            self.buf.copy_within(self.start..self.end, 0);
            self.end = self.end.saturating_sub(self.start);
            self.start = 0;
        }
    }
}

/// Writes one `[len][frame]`.
pub fn write_framed<W: Write>(s: &mut W, frame: &[u8]) -> Result<(), TransportError> {
    s.write_all(&(frame.len() as u32).to_be_bytes())
        .and_then(|_| s.write_all(frame))
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtopex_phy::Cf32;
    use std::io::Cursor;

    fn no_stop() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// A deadline no test reaches.
    fn far() -> Instant {
        Instant::now() + std::time::Duration::from_secs(60)
    }

    /// The unbuffered reader the TCP path used before [`FrameReader`]:
    /// two `read_exact`-style reads per frame. Kept as the oracle.
    fn read_full<R: Read>(s: &mut R, buf: &mut [u8], stop: &AtomicBool) -> Result<(), ReadEnd> {
        let mut got = 0;
        while got < buf.len() {
            if stop.load(Ordering::Relaxed) {
                return Err(ReadEnd::Stopped);
            }
            match s.read(&mut buf[got..]) {
                Ok(0) => return Err(ReadEnd::Eof),
                Ok(n) => got += n,
                Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(ReadEnd::Failed),
            }
        }
        Ok(())
    }

    fn read_frame<R: Read>(
        s: &mut R,
        scratch: &mut [u8],
        stop: &AtomicBool,
    ) -> Result<usize, ReadEnd> {
        let mut len4 = [0u8; 4];
        read_full(s, &mut len4, stop)?;
        let len = u32::from_be_bytes(len4) as usize;
        if len == 0 || len > scratch.len() {
            return Err(ReadEnd::Failed);
        }
        read_full(s, &mut scratch[..len], stop)?;
        Ok(len)
    }

    /// How a whole stream read ended: at a BYE, or with a read error.
    #[derive(Debug, PartialEq)]
    enum End {
        Bye,
        Read(ReadEnd),
    }

    /// Every frame before the end, through the oracle.
    fn oracle_frames(stream: &[u8]) -> (Vec<Vec<u8>>, End) {
        let mut cur = Cursor::new(stream);
        let mut scratch = vec![0u8; wire::MAX_FRAME];
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut cur, &mut scratch, &no_stop()) {
                Ok(_) if scratch[0] == wire::FT_BYE => return (frames, End::Bye),
                Ok(n) => frames.push(scratch[..n].to_vec()),
                Err(e) => return (frames, End::Read(e)),
            }
        }
    }

    /// Every frame before the end, walked out of a `FrameReader` as the
    /// TCP io loop does: walk what is buffered, then one read.
    fn reader_frames<R: Read>(r: &mut FrameReader, s: &mut R) -> (Vec<Vec<u8>>, End) {
        let mut frames = Vec::new();
        loop {
            match r.walk(|f| frames.push(f.to_vec())) {
                Walk::Drained => {}
                Walk::Bye => return (frames, End::Bye),
                Walk::Violation => return (frames, End::Read(ReadEnd::Failed)),
            }
            if let Err(e) = r.read_more(s, &no_stop()) {
                return (frames, End::Read(e));
            }
        }
    }

    /// A `Read` that returns at most the next of `sizes` bytes per call
    /// (cycling), and counts its calls.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let cap = self.sizes.get(self.reads % self.sizes.len().max(1));
            let n = cap
                .copied()
                .unwrap_or(usize::MAX)
                .min(buf.len())
                .min(self.data.len());
            self.reads += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for f in frames {
            write_framed(&mut wire, f).unwrap();
        }
        wire
    }

    #[test]
    fn roundtrip_in_memory() {
        let wire = framed(&[b"hello".to_vec(), b"x".to_vec()]);
        let mut r = FrameReader::new();
        let mut cur = Cursor::new(wire);
        assert_eq!(r.read_frame(&mut cur, &no_stop(), far()).unwrap(), b"hello");
        assert_eq!(r.read_frame(&mut cur, &no_stop(), far()).unwrap(), b"x");
        assert_eq!(r.read_frame(&mut cur, &no_stop(), far()), Err(ReadEnd::Eof));
    }

    #[test]
    fn zero_and_oversized_lengths_are_framing_violations() {
        let mut r = FrameReader::new();
        let mut cur = Cursor::new(vec![0, 0, 0, 0]);
        assert_eq!(
            r.read_frame(&mut cur, &no_stop(), far()),
            Err(ReadEnd::Failed)
        );
        r.clear();
        let mut big = Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3]);
        assert_eq!(
            r.read_frame(&mut big, &no_stop(), far()),
            Err(ReadEnd::Failed)
        );
        // MAX_FRAME itself is legal; one more is not.
        for (len, want) in [
            (wire::MAX_FRAME, Walk::Drained),
            (wire::MAX_FRAME + 1, Walk::Violation),
        ] {
            let mut r = FrameReader::new();
            let mut s = (len as u32).to_be_bytes().to_vec();
            s.resize(4 + len, 7);
            let mut seen = 0;
            r.read_more(&mut Cursor::new(s), &no_stop()).unwrap();
            assert_eq!(r.walk(|f| seen += f.len()), want);
            assert_eq!(seen, if want == Walk::Drained { len } else { 0 });
        }
    }

    #[test]
    fn truncated_stream_is_eof() {
        // Length says 8, only 3 payload bytes follow.
        let mut r = FrameReader::new();
        let mut cur = Cursor::new(vec![0, 0, 0, 8, 1, 2, 3]);
        assert_eq!(r.read_frame(&mut cur, &no_stop(), far()), Err(ReadEnd::Eof));
    }

    #[test]
    fn stop_flag_interrupts() {
        let stop = AtomicBool::new(true);
        let mut r = FrameReader::new();
        let mut cur = Cursor::new(vec![0, 0, 0, 4, 1, 2, 3, 4]);
        assert_eq!(r.read_frame(&mut cur, &stop, far()), Err(ReadEnd::Stopped));
    }

    /// A peer that stays silent: every read times out.
    struct Silent;

    impl Read for Silent {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn a_silent_peer_times_out_at_the_deadline() {
        let mut r = FrameReader::new();
        let past = Instant::now();
        assert_eq!(
            r.read_frame(&mut Silent, &no_stop(), past),
            Err(ReadEnd::TimedOut)
        );
    }

    #[test]
    fn a_trickling_peer_times_out_at_the_deadline() {
        // A hello that declares the largest frame, then one byte per read
        // and never a read timeout.
        let mut s = (wire::MAX_FRAME as u32).to_be_bytes().to_vec();
        s.resize(4 + wire::MAX_FRAME, 0);
        let mut src = Chunked {
            data: &s,
            sizes: &[1],
            reads: 0,
        };
        let mut r = FrameReader::new();
        let past = Instant::now();
        assert_eq!(
            r.read_frame(&mut src, &no_stop(), past),
            Err(ReadEnd::TimedOut)
        );
        assert!(src.reads < 4, "{} reads past the deadline", src.reads);
    }

    #[test]
    fn bye_ends_the_walk_even_with_bytes_after_it() {
        let mut s = framed(&[vec![wire::FT_IQ, 1], vec![wire::FT_BYE]]);
        s.extend(framed(&[vec![wire::FT_IQ, 2]]));
        let mut r = FrameReader::new();
        let (frames, end) = reader_frames(&mut r, &mut Cursor::new(s));
        assert_eq!(frames, vec![vec![wire::FT_IQ, 1]]);
        assert_eq!(end, End::Bye);
    }

    #[test]
    fn a_record_straddling_reads_is_compacted_and_completed() {
        let frames = vec![vec![9u8; 10], vec![8u8; 300], vec![7u8; 3]];
        let s = framed(&frames);
        // 5-byte reads split every length word and every body.
        let mut src = Chunked {
            data: &s,
            sizes: &[5, 1, 7],
            reads: 0,
        };
        let mut r = FrameReader::new();
        let (got, end) = reader_frames(&mut r, &mut src);
        assert_eq!(got, frames);
        assert_eq!(end, End::Read(ReadEnd::Eof));
    }

    /// Three 5 MHz, 2-antenna subframes (132 frames) written at once
    /// arrive in at most three reads; two reads a frame took 264.
    #[test]
    fn three_coalesced_subframes_take_at_most_three_reads() {
        let samples = 7680;
        let total = wire::fragments_for(samples) as u16;
        let mut s = Vec::new();
        let iq = vec![Cf32::new(0.25, -0.5); samples];
        for seq in 0..3u32 {
            for ant in 0..2u8 {
                for (frag, chunk) in iq.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                    let mut f = vec![0u8; wire::MAX_IQ_FRAME];
                    let len =
                        wire::write_iq_frame(&mut f, 5, 1, ant, frag as u8, total, seq, chunk);
                    write_framed(&mut s, &f[..len]).unwrap();
                }
            }
        }
        let want = 3 * 2 * usize::from(total);
        let mut src = Chunked {
            data: &s,
            sizes: &[],
            reads: 0,
        };
        let mut r = FrameReader::new();
        let mut got = 0;
        while got < want {
            r.read_more(&mut src, &no_stop()).unwrap();
            assert_eq!(r.walk(|_| got += 1), Walk::Drained);
        }
        assert_eq!(got, want);
        assert!(src.reads <= 3, "{} reads for 3 subframes", src.reads);
    }

    /// A generated stream: one record per `kinds` entry, drawn with a
    /// xorshift seeded by `seed`, then `truncate` bytes cut off the end.
    /// Records are IQ frames, hellos, random bodies, a zero or oversized
    /// length word with junk behind it, or a BYE with bytes after it.
    fn record_stream(kinds: &[u8], seed: u64, truncate: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut s = Vec::new();
        for &k in kinds {
            match k {
                0..=5 => {
                    let n = 1 + next() as usize % wire::SAMPLES_PER_FRAG;
                    let iq: Vec<Cf32> = (0..n).map(|i| Cf32::from_phase(i as f32 * 0.1)).collect();
                    let mut f = vec![0u8; wire::iq_frame_len(n)];
                    wire::write_iq_frame(&mut f, 27, 5, next() as u8, 0, 3, next() as u32, &iq);
                    write_framed(&mut s, &f).unwrap();
                }
                6 => {
                    let p = rtopex_transport::iface::StreamParams {
                        samples_per_subframe: 800,
                        antennas: 2,
                        cells: vec![5, 9],
                        period_us: 1000,
                        budget_us: 1000,
                        mcs_pool: vec![27],
                        subframes: 0,
                    };
                    let mut hello = Vec::new();
                    wire::encode_hello(&mut hello, &p, rtopex_transport::iface::PROTOCOL_VERSION);
                    write_framed(&mut s, &hello).unwrap();
                }
                7 => {
                    let n = 1 + next() as usize % wire::MAX_FRAME;
                    let body: Vec<u8> = (0..n).map(|_| next() as u8).collect();
                    write_framed(&mut s, &body).unwrap();
                }
                8 => {
                    let len = match next() % 3 {
                        0 => 0,
                        1 => wire::MAX_FRAME as u32 + 1,
                        _ => (next() as u32).max(wire::MAX_FRAME as u32 + 1),
                    };
                    s.extend_from_slice(&len.to_be_bytes());
                    s.extend((0..next() % 64).map(|_| next() as u8));
                }
                _ => {
                    write_framed(&mut s, &[wire::FT_BYE]).unwrap();
                    s.extend((0..next() % 64).map(|_| next() as u8));
                }
            }
        }
        s.truncate(s.len().saturating_sub(truncate));
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over random record streams read back in random chunk sizes,
        /// the reader yields exactly the oracle's frames and ends the
        /// same way (EOF, violation or BYE).
        #[test]
        fn reader_matches_the_per_frame_oracle(
            kinds in prop::collection::vec(0u8..10, 0..24),
            seed in any::<u64>(),
            truncate in 0usize..8,
            sizes in prop::collection::vec(1usize..=9000, 1..8),
        ) {
            let stream = record_stream(&kinds, seed, truncate);
            let want = oracle_frames(&stream);
            let mut src = Chunked { data: &stream, sizes: &sizes, reads: 0 };
            let mut r = FrameReader::new();
            let got = reader_frames(&mut r, &mut src);
            prop_assert_eq!(got.0.len(), want.0.len());
            prop_assert!(got.0 == want.0, "frames differ");
            prop_assert_eq!(got.1, want.1);
        }
    }
}
