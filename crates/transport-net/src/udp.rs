//! UDP datagram fronthaul: one wire frame per datagram, sent in trains.
//!
//! The natural transport for fronthaul IQ — loss shows up as sequence
//! gaps instead of head-of-line blocking, matching how the paper's
//! testbed treated late samples (drop, don't wait). The receiver runs
//! one dedicated I/O thread that feeds the shared [`RxSession`]; the
//! sender packetizes into one reusable train buffer, so neither side
//! allocates per packet in steady state.
//!
//! **Trains.** The kernel's per-datagram trip through the stack, not
//! the syscall entry, is what a datagram costs. So the sender hands the
//! kernel each antenna's fragments back to back in one `send` with
//! `UDP_SEGMENT` set to [`wire::MAX_IQ_FRAME`] (segmentation offload),
//! and the receiver turns on `UDP_GRO` and walks each coalesced receive
//! one segment at a time. The datagrams on the wire, their boundaries
//! and the per-datagram [`RxSession::ingest_frame`] are the same as
//! without offload: a peer without GRO receives the same datagrams one
//! by one, and a kernel or device that refuses segmentation gets them
//! one `send` each.
//!
//! Session setup is a hello/ack exchange with version negotiation: the
//! sender retries its hello until acked; a receiver that speaks a
//! different protocol version acks with *its* version, which the
//! sender surfaces as [`TransportError::Version`].

use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rtopex_phy::Cf32;
use rtopex_transport::iface::{FronthaulTx, StreamParams, TransportError, PROTOCOL_VERSION};

use crate::framing::{io_err, is_timeout};
use crate::session::{NetFronthaulRx, RxSession};
use crate::wire;

/// Largest UDP payload over IPv4 (65535 − 20 − 8).
const MAX_UDP_PAYLOAD: usize = 65_507;

/// Frames per train with segmentation offload: 45 full frames fill one
/// UDP payload.
const TRAIN_FRAMES: usize = MAX_UDP_PAYLOAD / wire::MAX_IQ_FRAME;
// The kernel caps a segmented send at 64 segments.
const _: () = assert!(TRAIN_FRAMES <= 64);

/// Receive buffer: one coalesced train, whatever its segment count.
const RX_TRAIN_BYTES: usize = 64 * 1024;

/// Aggregator side of a UDP fronthaul stream.
pub struct UdpFronthaulTx {
    params: StreamParams,
    sock: UdpSocket,
    /// One train of frames back to back: [`TRAIN_FRAMES`] frames with
    /// segmentation offload, one without.
    scratch: Vec<u8>,
    bye: [u8; 1],
}

impl UdpFronthaulTx {
    /// Connects to a worker's listen address and negotiates the
    /// session (hello retried until acked, 5 s overall).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        params: StreamParams,
    ) -> Result<Self, TransportError> {
        Self::connect_with_version(addr, params, PROTOCOL_VERSION)
    }

    /// [`Self::connect`] announcing an explicit protocol version — the
    /// conformance suite's hook for exercising version refusal.
    pub fn connect_with_version<A: ToSocketAddrs>(
        addr: A,
        params: StreamParams,
        version: u16,
    ) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind("0.0.0.0:0").map_err(io_err)?;
        sock.connect(addr).map_err(io_err)?;
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(io_err)?;
        let mut hello = Vec::new();
        wire::encode_hello(&mut hello, &params, version);
        let mut ack = [0u8; 16];
        let mut negotiated = false;
        for _ in 0..25 {
            sock.send(&hello).map_err(io_err)?;
            match sock.recv(&mut ack) {
                Ok(n) => {
                    if let Some(v) = wire::decode_hello_ack(&ack[..n]) {
                        if v != version {
                            return Err(TransportError::Version {
                                got: v,
                                want: version,
                            });
                        }
                        negotiated = true;
                        break;
                    }
                }
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
        if !negotiated {
            return Err(TransportError::Io("no hello ack from receiver".into()));
        }
        let batch = match sys::set_segment(&sock, wire::MAX_IQ_FRAME) {
            Ok(()) => TRAIN_FRAMES,
            Err(_) => 1,
        };
        Ok(UdpFronthaulTx {
            params,
            sock,
            scratch: vec![0u8; batch * wire::MAX_IQ_FRAME],
            bye: [wire::FT_BYE],
        })
    }

    /// Sends `scratch[..len]` as one train. A kernel or egress device
    /// that refuses segmentation (`EIO`/`EINVAL`, e.g. no checksum
    /// offload) turns it off for the rest of the session, and the
    /// train goes out again one frame per `send`.
    fn send_train(&mut self, len: usize) -> Result<(), TransportError> {
        match self.sock.send(&self.scratch[..len]) {
            Ok(_) => return Ok(()),
            Err(e) if self.scratch.len() > wire::MAX_IQ_FRAME && sys::gso_refused(&e) => {}
            Err(e) => return Err(io_err(e)),
        }
        self.segment_off(len)
    }

    /// Clears `UDP_SEGMENT`, resends the train in `scratch[..len]` one
    /// frame per datagram, and leaves the session at one frame per
    /// train.
    fn segment_off(&mut self, len: usize) -> Result<(), TransportError> {
        // With one frame per train no send exceeds the segment size, so
        // the option is moot if the kernel refuses to clear it too.
        let _ = sys::set_segment(&self.sock, 0);
        let resent = self.scratch[..len]
            .chunks(wire::MAX_IQ_FRAME)
            .try_for_each(|frame| self.sock.send(frame).map(drop));
        self.scratch.truncate(wire::MAX_IQ_FRAME);
        resent.map_err(io_err)
    }
}

impl FronthaulTx for UdpFronthaulTx {
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
        let total = wire::fragments_for(self.params.samples_per_subframe as usize) as u16;
        for (ant, s) in samples.iter().enumerate() {
            let mut off = 0;
            for (frag, chunk) in s.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let len = wire::write_iq_frame(
                    &mut self.scratch[off..],
                    mcs,
                    cell,
                    ant as u8,
                    frag as u8,
                    total,
                    seq,
                    chunk,
                );
                off += len;
                // Every segment but a train's last is exactly
                // MAX_IQ_FRAME: a train ends when full or at a short
                // frame, and only an antenna's last fragment is short.
                if off == self.scratch.len() || len < wire::MAX_IQ_FRAME {
                    self.send_train(off)?;
                    off = 0;
                }
            }
            if off > 0 {
                self.send_train(off)?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(()) // every train leaves on send(); nothing is held back
    }

    fn finish(&mut self) -> Result<(), TransportError> {
        // Best-effort bye, replicated against loss; the receiver also
        // ends on idle timeout.
        for _ in 0..3 {
            // analyze: allow(call:send): UdpSocket::send of the 1-byte
            // bye — the conservative graph collides this with
            // FronthaulTx::send impls
            let _ = self.sock.send(&self.bye);
        }
        Ok(())
    }
}

/// A bound-but-unnegotiated UDP receiver; lets the caller learn the
/// listen port (for `bind(":0")`) before the aggregator connects.
pub struct UdpRxPending {
    sock: UdpSocket,
}

impl UdpRxPending {
    /// Binds the listen socket.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind(addr).map_err(io_err)?;
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(io_err)?;
        Ok(UdpRxPending { sock })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.sock.local_addr().map_err(io_err)
    }

    /// Waits up to `timeout` for a valid hello, acks it, and returns
    /// the negotiated receiver. Hellos with a foreign protocol version
    /// are acked with *our* version (so the sender errors precisely)
    /// and refused. `queue_depth` bounds the ready queue before
    /// drop-oldest engages.
    pub fn accept(
        self,
        timeout: Duration,
        queue_depth: usize,
    ) -> Result<NetFronthaulRx, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut buf = vec![0u8; wire::MAX_FRAME];
        let mut ack = Vec::new();
        loop {
            if Instant::now() >= deadline {
                return Err(TransportError::Io("no hello within timeout".into()));
            }
            let (n, src) = match self.sock.recv_from(&mut buf) {
                Ok(x) => x,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(io_err(e)),
            };
            if buf.first() != Some(&wire::FT_HELLO) {
                continue;
            }
            // recv_from guarantees n ≤ buf.len(), so the lookup never fails.
            let dgram = buf.get(..n).unwrap_or(&[]);
            let (version, params) = match wire::decode_hello(dgram) {
                Ok(x) => x,
                Err(_) => continue,
            };
            wire::encode_hello_ack(&mut ack, PROTOCOL_VERSION);
            self.sock.send_to(&ack, src).map_err(io_err)?;
            if version != PROTOCOL_VERSION {
                continue; // refused; keep listening for a compatible peer
            }
            self.sock.connect(src).map_err(io_err)?;
            let sock = self.sock;
            return Ok(NetFronthaulRx::spawn(
                params,
                queue_depth,
                |session, stop| udp_io_loop(sock, session, stop),
            ));
        }
    }
}

/// Whether the io loop goes on after a train.
#[derive(Debug, PartialEq, Eq)]
enum Flow {
    Go,
    Stop,
}

/// Runs one received train through the per-datagram dispatch, `seg`
/// bytes at a time (the `UDP_GRO` segment size; `0` or more than the
/// train means the train is one datagram). IQ is ingested; a hello is
/// re-acked on `sock`, and resyncs the session only if IQ flowed since
/// the last one — a pure retry is not a session restart; a bye closes
/// the stream and drops what follows it; anything else is ingested and
/// counted bad.
fn dispatch_train(
    train: &[u8],
    seg: usize,
    session: &mut RxSession,
    sock: &UdpSocket,
    ack: &[u8],
    saw_iq_since_hello: &mut bool,
) -> Flow {
    if train.is_empty() {
        session.ingest_frame(train); // an empty datagram is junk too
        return Flow::Go;
    }
    let step = match seg {
        0 => train.len(),
        s => s,
    };
    for dgram in train.chunks(step) {
        match dgram.first() {
            Some(&wire::FT_IQ) => {
                *saw_iq_since_hello = true;
                session.ingest_frame(dgram);
            }
            Some(&wire::FT_HELLO) => {
                // analyze: allow(call:send): UdpSocket::send on the
                // io thread's own socket — the conservative graph
                // collides this with FronthaulTx::send impls
                let _ = sock.send(ack);
                if *saw_iq_since_hello {
                    session.on_resync();
                    *saw_iq_since_hello = false;
                }
            }
            Some(&wire::FT_BYE) => {
                session.close();
                return Flow::Stop;
            }
            _ => session.ingest_frame(dgram),
        }
    }
    Flow::Go
}

/// The UDP receiver's io loop: receives datagrams and GRO-coalesced
/// trains on `sock` and walks each through [`dispatch_train`] into the
/// session, until a bye or `stop`.
fn udp_io_loop(sock: UdpSocket, session: &Mutex<RxSession>, stop: &AtomicBool) {
    // Without GRO every receive is one datagram, which the walker takes
    // as a one-segment train.
    let _ = sys::set_gro(&sock);
    let mut buf = vec![0u8; RX_TRAIN_BYTES];
    let mut control = sys::Control::default();
    let mut ack = Vec::new();
    wire::encode_hello_ack(&mut ack, PROTOCOL_VERSION);
    let mut saw_iq_since_hello = false;
    while !stop.load(Ordering::Relaxed) {
        let (n, seg) = match sys::recv_train(&sock, &mut buf, &mut control) {
            Ok(x) => x,
            Err(e) if is_timeout(&e) => continue,
            Err(_) => {
                // Transient (e.g. ECONNREFUSED bounce from a departed
                // peer); back off and keep serving.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        // recv_train guarantees n ≤ buf.len().
        let train = buf.get(..n).unwrap_or(&[]);
        let flow = dispatch_train(
            train,
            seg,
            &mut session.lock(),
            &sock,
            &ack,
            &mut saw_iq_since_hello,
        );
        if flow == Flow::Stop {
            break;
        }
    }
}

/// The Linux socket calls `std::net` has no API for: the `UDP_SEGMENT`
/// and `UDP_GRO` options and a `recvmsg` that returns the GRO segment
/// size. The crate does not link `libc`, so the calls and the C layouts
/// are declared here, as glibc lays them out on x86-64 and aarch64
/// Linux (every `size_t` field is a `usize`).
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::mem::{offset_of, size_of};
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::ptr;

    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        name_len: u32,
        iov: *mut IoVec,
        iov_len: usize,
        control: *mut Control,
        control_len: usize,
        flags: i32,
    }

    /// Receive ancillary buffer, 8 words: room for the one message the
    /// socket asks for, a `cmsghdr` followed by the `UDP_GRO` segment
    /// size as a C `int`. Read by field, never by index.
    #[repr(C)]
    #[derive(Default)]
    pub(super) struct Control {
        len: usize,
        level: i32,
        kind: i32,
        seg: i32,
        _rest: [i32; 11],
    }

    /// `CMSG_LEN(sizeof(int))`: the length of a `UDP_GRO` message.
    const GRO_CMSG_LEN: usize = offset_of!(Control, seg) + size_of::<i32>();

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    }

    fn set_udp_option(sock: &UdpSocket, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: the fd is open for `sock`'s lifetime, `value` is a live
        // int and the length passed is its size; the kernel reads those
        // four bytes and nothing else.
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_UDP,
                name,
                &value,
                size_of::<i32>() as u32,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Sets the sender's segment size (`0` turns segmentation off).
    pub(super) fn set_segment(sock: &UdpSocket, size: usize) -> io::Result<()> {
        let size = i32::try_from(size).map_err(|_| io::Error::from_raw_os_error(EINVAL))?;
        set_udp_option(sock, UDP_SEGMENT, size)
    }

    /// Asks the kernel to deliver coalesced trains with their segment
    /// size.
    pub(super) fn set_gro(sock: &UdpSocket) -> io::Result<()> {
        set_udp_option(sock, UDP_GRO, 1)
    }

    /// Whether a send failed because segmentation is refused on this
    /// path rather than for a reason that would fail any datagram.
    pub(super) fn gso_refused(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(EIO | EINVAL))
    }

    /// Receives one datagram or coalesced train into `buf`. Returns its
    /// length (≤ `buf.len()`) and its segment size: the `UDP_GRO` value,
    /// or the length itself when the kernel reports none.
    pub(super) fn recv_train(
        sock: &UdpSocket,
        buf: &mut [u8],
        control: &mut Control,
    ) -> io::Result<(usize, usize)> {
        let mut iov = IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        };
        let mut msg = MsgHdr {
            name: ptr::null_mut(),
            name_len: 0,
            iov: &mut iov,
            iov_len: 1,
            control,
            control_len: size_of::<Control>(),
            flags: 0,
        };
        // SAFETY: `msg` points at one iovec covering exactly `buf` and at
        // `control` with its exact size, all live and exclusively
        // borrowed for the call; the kernel writes at most those lengths
        // and updates `msg`'s lengths and flags in place.
        let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
        let n = usize::try_from(n).map_err(|_| io::Error::last_os_error())?;
        let control = &*control;
        let gro = msg.control_len >= GRO_CMSG_LEN
            && control.len >= GRO_CMSG_LEN
            && control.level == SOL_UDP
            && control.kind == UDP_GRO;
        let seg = match usize::try_from(control.seg) {
            Ok(seg) if gro => seg,
            _ => n,
        };
        Ok((n.min(buf.len()), seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SwapQueue;
    use rtopex_transport::iface::{FronthaulRx, Recv, SubframeBuf};
    use rtopex_transport::packet::{dequantize, quantize};
    use std::sync::Arc;

    /// One cell, one antenna, four full fragments per subframe.
    fn params() -> StreamParams {
        StreamParams {
            samples_per_subframe: 4 * wire::SAMPLES_PER_FRAG as u32,
            antennas: 1,
            cells: vec![7],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![27],
            subframes: 0,
        }
    }

    fn session(p: &StreamParams) -> RxSession {
        let q = Arc::new(SwapQueue::new(p, 4, 2));
        RxSession::new(p.clone(), q)
    }

    fn samples(p: &StreamParams, seq: u32) -> Vec<Vec<Cf32>> {
        (0..p.antennas as usize)
            .map(|a| {
                (0..p.samples_per_subframe as usize)
                    .map(|i| {
                        Cf32::new(
                            (i as f32 / 311.0).sin() * 0.3,
                            (seq + a as u32) as f32 / 50.0,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Fragment `frag` of antenna 0 of subframe `seq`, as it goes on the wire.
    fn iq_frame(p: &StreamParams, seq: u32, frag: usize) -> Vec<u8> {
        let s = samples(p, seq);
        let total = wire::fragments_for(p.samples_per_subframe as usize) as u16;
        let chunk = s[0].chunks(wire::SAMPLES_PER_FRAG).nth(frag).unwrap();
        let mut f = vec![0u8; wire::MAX_IQ_FRAME];
        let len = wire::write_iq_frame(&mut f, 27, p.cells[0], 0, frag as u8, total, seq, chunk);
        f.truncate(len);
        f
    }

    /// A segment of exactly one full frame's size that starts with `tag`.
    fn padded(tag: u8) -> Vec<u8> {
        let mut f = vec![0u8; wire::MAX_IQ_FRAME];
        f[0] = tag;
        f
    }

    /// A connected socket pair: `(io side, peer)`.
    fn sockets() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        (a, b)
    }

    #[test]
    fn walker_ingests_up_to_bye_and_counts_junk() {
        let p = params();
        let mut s = session(&p);
        let (io, _peer) = sockets();
        let mut train = Vec::new();
        for frag in 0..3 {
            train.extend(iq_frame(&p, 0, frag));
        }
        train.extend(padded(0xEE));
        train.extend(padded(wire::FT_BYE));
        train.extend(iq_frame(&p, 0, 3));
        let mut saw = false;
        let flow = dispatch_train(&train, wire::MAX_IQ_FRAME, &mut s, &io, &[], &mut saw);
        assert_eq!(flow, Flow::Stop);
        let st = s.stats();
        assert_eq!((st.delivered, st.bad_frames), (0, 1), "{st:?}");
        // The last fragment alone completes the subframe, so the three
        // before the bye were ingested and the one after it was not.
        let last = iq_frame(&p, 0, 3);
        let flow = dispatch_train(&last, 0, &mut s, &io, &[], &mut saw);
        assert_eq!(flow, Flow::Go);
        assert_eq!(s.stats().delivered, 1);
        assert!(saw);
    }

    #[test]
    fn walker_takes_zero_or_oversized_segment_as_one_datagram() {
        let p = params();
        let (io, _peer) = sockets();
        let frame = iq_frame(&p, 0, 0);
        for seg in [0, frame.len() + 1, usize::MAX] {
            let mut s = session(&p);
            let mut saw = false;
            assert_eq!(
                dispatch_train(&frame, seg, &mut s, &io, &[], &mut saw),
                Flow::Go
            );
            assert_eq!(s.stats().bad_frames, 0, "seg {seg}");
            assert!(saw);
            // A junk train with a bogus segment size is one bad datagram.
            let junk = [0xEEu8; 100];
            assert_eq!(
                dispatch_train(&junk, seg, &mut s, &io, &[], &mut saw),
                Flow::Go
            );
            assert_eq!(s.stats().bad_frames, 1, "seg {seg}");
        }
        let mut s = session(&p);
        assert_eq!(
            dispatch_train(&[], 0, &mut s, &io, &[], &mut false),
            Flow::Go
        );
        assert_eq!(s.stats().bad_frames, 1, "an empty datagram is junk");
    }

    #[test]
    fn walker_reacks_a_hello_inside_a_train() {
        let p = params();
        let mut s = session(&p);
        let (io, peer) = sockets();
        let mut ack = Vec::new();
        wire::encode_hello_ack(&mut ack, PROTOCOL_VERSION);
        let mut train = iq_frame(&p, 0, 0);
        train.extend(padded(wire::FT_HELLO));
        train.extend(iq_frame(&p, 0, 1));
        let mut saw = false;
        let flow = dispatch_train(&train, wire::MAX_IQ_FRAME, &mut s, &io, &ack, &mut saw);
        assert_eq!(flow, Flow::Go);
        let mut got = [0u8; 16];
        let n = peer.recv(&mut got).unwrap();
        assert_eq!(wire::decode_hello_ack(&got[..n]), Some(PROTOCOL_VERSION));
        assert_eq!(s.stats().resyncs, 1, "IQ flowed before the hello");
        assert!(saw, "IQ after the hello");
    }

    /// The one-frame-per-train loop (what a session falls back to when
    /// the kernel refuses segmentation) delivers byte-identical
    /// subframes, and its trains are single full-size frames.
    #[test]
    fn one_frame_trains_deliver_byte_identical() {
        let p = StreamParams {
            samples_per_subframe: 7_680, // 5 MHz: 22 fragments, last short
            antennas: 2,
            cells: vec![4],
            period_us: 1000,
            budget_us: 1000,
            mcs_pool: vec![27],
            subframes: 0,
        };
        let pending = UdpRxPending::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let h = std::thread::spawn(move || pending.accept(Duration::from_secs(5), 8).unwrap());
        let mut tx = UdpFronthaulTx::connect(addr, p.clone()).unwrap();
        let mut rx = h.join().unwrap();
        tx.segment_off(0).unwrap();
        assert_eq!(tx.scratch.len(), wire::MAX_IQ_FRAME);
        let mut buf = SubframeBuf::for_stream(&p);
        for seq in 0..4 {
            let sent = samples(&p, seq);
            tx.send(4, seq, 27, &sent).unwrap();
            let got = rx.recv_into(&mut buf, Duration::from_secs(2)).unwrap();
            assert!(matches!(got, Recv::Subframe));
            assert_eq!((buf.cell, buf.seq), (4, seq));
            for (g, s) in buf.samples.iter().zip(&sent) {
                for (a, b) in g.iter().zip(s) {
                    assert_eq!(a.re.to_bits(), dequantize(quantize(b.re)).to_bits());
                    assert_eq!(a.im.to_bits(), dequantize(quantize(b.im)).to_bits());
                }
            }
        }
        tx.finish().unwrap();
        let st = rx.stats();
        assert_eq!((st.delivered, st.gaps, st.bad_frames), (4, 0, 0), "{st:?}");
    }
}
