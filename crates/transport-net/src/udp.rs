//! UDP datagram fronthaul: one wire frame per datagram.
//!
//! The natural transport for fronthaul IQ — loss shows up as sequence
//! gaps instead of head-of-line blocking, matching how the paper's
//! testbed treated late samples (drop, don't wait). The receiver runs
//! one dedicated I/O thread that feeds the shared [`RxSession`]; the
//! sender packetizes into a single reusable scratch buffer, so neither
//! side allocates per packet in steady state.
//!
//! Session setup is a hello/ack exchange with version negotiation: the
//! sender retries its hello until acked; a receiver that speaks a
//! different protocol version acks with *its* version, which the
//! sender surfaces as [`TransportError::Version`].

use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rtopex_phy::Cf32;
use rtopex_transport::iface::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
    PROTOCOL_VERSION,
};

use crate::framing::{io_err, is_timeout};
use crate::ring::{Pop, SwapQueue};
use crate::session::{RxSession, ASM_SLOTS};
use crate::wire;

/// Aggregator side of a UDP fronthaul stream.
pub struct UdpFronthaulTx {
    params: StreamParams,
    sock: UdpSocket,
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
        Ok(UdpFronthaulTx {
            params,
            sock,
            scratch: vec![0u8; wire::MAX_IQ_FRAME],
            bye: [wire::FT_BYE],
        })
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
            for (frag, chunk) in s.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let len = wire::write_iq_frame(
                    &mut self.scratch,
                    mcs,
                    cell,
                    ant as u8,
                    frag as u8,
                    total,
                    seq,
                    chunk,
                );
                self.sock.send(&self.scratch[..len]).map_err(io_err)?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(()) // datagrams leave on send(); nothing to coalesce
    }

    fn finish(&mut self) -> Result<(), TransportError> {
        // Best-effort bye, replicated against loss; the receiver also
        // ends on idle timeout.
        for _ in 0..3 {
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
    ) -> Result<UdpFronthaulRx, TransportError> {
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
            return Ok(UdpFronthaulRx::start(self.sock, params, queue_depth));
        }
    }
}

/// Worker side of a UDP fronthaul stream (negotiated).
pub struct UdpFronthaulRx {
    params: StreamParams,
    queue: Arc<SwapQueue>,
    session: Arc<Mutex<RxSession>>,
    stop: Arc<AtomicBool>,
    io: Option<JoinHandle<()>>,
}

impl UdpFronthaulRx {
    fn start(sock: UdpSocket, params: StreamParams, queue_depth: usize) -> Self {
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
                let mut buf = vec![0u8; wire::MAX_FRAME];
                let mut ack = Vec::new();
                wire::encode_hello_ack(&mut ack, PROTOCOL_VERSION);
                let mut saw_iq_since_hello = false;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let n = match sock.recv(&mut buf) {
                        Ok(n) => n,
                        Err(e) if is_timeout(&e) => continue,
                        Err(_) => {
                            // Transient (e.g. ECONNREFUSED bounce from a
                            // departed peer); back off and keep serving.
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        }
                    };
                    match buf.first() {
                        Some(&wire::FT_IQ) => {
                            saw_iq_since_hello = true;
                            // recv guarantees n ≤ buf.len().
                            session.lock().ingest_frame(buf.get(..n).unwrap_or(&[]));
                        }
                        Some(&wire::FT_HELLO) => {
                            // Retransmitted hello (lost ack) or a sender
                            // restart: re-ack, and resync only if traffic
                            // already flowed — a pure retry is not a
                            // session restart.
                            // analyze: allow(call:send): UdpSocket::send on the
                            // io thread's own socket — the conservative graph
                            // collides this with FronthaulTx::send impls
                            let _ = sock.send(&ack);
                            if saw_iq_since_hello {
                                session.lock().on_resync();
                                saw_iq_since_hello = false;
                            }
                        }
                        Some(&wire::FT_BYE) => {
                            queue.close();
                            break;
                        }
                        // recv guarantees n ≤ buf.len(); junk is counted bad.
                        _ => session.lock().ingest_frame(buf.get(..n).unwrap_or(&[])),
                    }
                }
                queue.close();
            })
        };
        UdpFronthaulRx {
            params,
            queue,
            session,
            stop,
            io: Some(io),
        }
    }
}

impl FronthaulRx for UdpFronthaulRx {
    fn params(&self) -> &StreamParams {
        &self.params
    }

    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError> {
        Ok(match self.queue.pop_swap(buf, timeout) {
            Pop::Got => Recv::Subframe,
            Pop::TimedOut => Recv::TimedOut,
            Pop::Closed => Recv::Closed,
        })
    }

    fn stats(&self) -> RxStats {
        self.session.lock().stats()
    }
}

impl Drop for UdpFronthaulRx {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}
