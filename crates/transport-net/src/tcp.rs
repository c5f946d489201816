//! Length-framed TCP fronthaul with coalesced writes and reconnect.
//!
//! Frames are `[len: u32 BE][frame]` on a nodelay stream. The sender
//! appends frames to one write buffer and pushes a whole cell-batch
//! with a single `write_all` syscall on [`FronthaulTx::flush`] — the
//! "batched socket I/O" arm of the transport (UDP batches per antenna
//! instead, as segmentation-offload trains; see [`crate::udp`]).
//!
//! The receiver's I/O thread keeps the listener after the first
//! session: when a sender dies mid-stream it re-accepts, validates the
//! replayed hello against the negotiated parameters, and resyncs the
//! session (bounded O(cells) work) — subframes lost across the outage
//! surface as sequence gaps, not as a stuck stream.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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

use crate::framing::{io_err, is_timeout, read_frame, write_framed, ReadEnd};
use crate::ring::{Pop, SwapQueue};
use crate::session::{RxSession, ASM_SLOTS};
use crate::wire;

/// Auto-flush watermark for the sender's coalescing buffer.
const FLUSH_WATERMARK: usize = 512 * 1024;

/// Aggregator side of a TCP fronthaul stream.
pub struct TcpFronthaulTx {
    params: StreamParams,
    stream: TcpStream,
    wbuf: Vec<u8>,
}

impl TcpFronthaulTx {
    /// Connects and negotiates the session.
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
        let mut stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(io_err)?;
        let mut hello = Vec::new();
        wire::encode_hello(&mut hello, &params, version);
        write_framed(&mut stream, &hello)?;
        let mut scratch = vec![0u8; wire::MAX_FRAME];
        let never = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            match read_frame(&mut stream, &mut scratch, &never) {
                Ok(n) => break n,
                Err(ReadEnd::Eof) => {
                    return Err(TransportError::Io("receiver closed during hello".into()))
                }
                Err(_) if Instant::now() < deadline => continue,
                Err(_) => return Err(TransportError::Io("no hello ack".into())),
            }
        };
        match wire::decode_hello_ack(&scratch[..n]) {
            Some(v) if v == version => {}
            Some(v) => {
                return Err(TransportError::Version {
                    got: v,
                    want: version,
                })
            }
            None => return Err(TransportError::Protocol("bad hello ack".into())),
        }
        Ok(TcpFronthaulTx {
            params,
            stream,
            wbuf: Vec::with_capacity(FLUSH_WATERMARK + wire::MAX_IQ_FRAME + 4),
        })
    }
}

impl FronthaulTx for TcpFronthaulTx {
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
                // Length prefix and frame written in place at the tail.
                let len = wire::iq_frame_len(chunk.len());
                let at = self.wbuf.len();
                self.wbuf.resize(at + 4 + len, 0);
                let (prefix, frame) = self.wbuf[at..].split_at_mut(4);
                prefix.copy_from_slice(&(len as u32).to_be_bytes());
                wire::write_iq_frame(frame, mcs, cell, ant as u8, frag as u8, total, seq, chunk);
            }
        }
        if self.wbuf.len() >= FLUSH_WATERMARK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        if !self.wbuf.is_empty() {
            // The whole coalesced cell-batch in one syscall.
            self.stream.write_all(&self.wbuf).map_err(io_err)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TransportError> {
        self.wbuf.extend_from_slice(&1u32.to_be_bytes());
        self.wbuf.push(wire::FT_BYE);
        self.flush()?;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        Ok(())
    }
}

/// A bound-but-unnegotiated TCP receiver.
pub struct TcpRxPending {
    listener: TcpListener,
}

impl TcpRxPending {
    /// Binds the listener (non-blocking accept loop under the hood).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        Ok(TcpRxPending { listener })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener.local_addr().map_err(io_err)
    }

    /// Waits up to `timeout` for a connection with a valid hello, acks
    /// it, and returns the negotiated receiver. Version-mismatched
    /// peers are acked with our version and dropped.
    pub fn accept(
        self,
        timeout: Duration,
        queue_depth: usize,
    ) -> Result<TcpFronthaulRx, TransportError> {
        let deadline = Instant::now() + timeout;
        let never = AtomicBool::new(false);
        loop {
            if Instant::now() >= deadline {
                return Err(TransportError::Io("no connection within timeout".into()));
            }
            let (mut stream, _) = match self.listener.accept() {
                Ok(x) => x,
                Err(e) if is_timeout(&e) => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(io_err(e)),
            };
            match negotiate(&mut stream, None, &never) {
                Ok(params) => {
                    return Ok(TcpFronthaulRx::start(
                        self.listener,
                        stream,
                        params,
                        queue_depth,
                    ))
                }
                Err(_) => continue, // refused or malformed; keep listening
            }
        }
    }
}

/// Reads and validates a hello on a fresh connection, acks it, and
/// returns the stream params. When `expect` is set (re-accept after a
/// sender reconnect), the replayed hello must carry identical params.
fn negotiate(
    stream: &mut TcpStream,
    expect: Option<&StreamParams>,
    stop: &AtomicBool,
) -> Result<StreamParams, TransportError> {
    stream.set_nodelay(true).map_err(io_err)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(io_err)?;
    let mut scratch = vec![0u8; wire::MAX_FRAME];
    let n = match read_frame(stream, &mut scratch, stop) {
        Ok(n) => n,
        Err(_) => return Err(TransportError::Protocol("no hello on connection".into())),
    };
    // read_frame guarantees n ≤ scratch.len(), so the lookup never fails.
    let frame = scratch.get(..n).unwrap_or(&[]);
    let (version, params) = wire::decode_hello(frame)?;
    let mut ack = Vec::new();
    wire::encode_hello_ack(&mut ack, PROTOCOL_VERSION);
    write_framed(stream, &ack)?;
    wire::check_version(version)?;
    if let Some(e) = expect {
        if *e != params {
            return Err(TransportError::Protocol(
                "reconnect hello changed stream params".into(),
            ));
        }
    }
    Ok(params)
}

/// Worker side of a TCP fronthaul stream (negotiated).
pub struct TcpFronthaulRx {
    params: StreamParams,
    queue: Arc<SwapQueue>,
    session: Arc<Mutex<RxSession>>,
    stop: Arc<AtomicBool>,
    io: Option<JoinHandle<()>>,
}

impl TcpFronthaulRx {
    fn start(
        listener: TcpListener,
        first: TcpStream,
        params: StreamParams,
        queue_depth: usize,
    ) -> Self {
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
            let params = params.clone();
            std::thread::spawn(move || {
                let mut scratch = vec![0u8; wire::MAX_FRAME];
                let mut conn = Some(first);
                'io: while !stop.load(Ordering::Relaxed) {
                    let Some(stream) = conn.as_mut() else {
                        // Sender gone: wait for a reconnect and resync.
                        match listener.accept() {
                            Ok((mut s, _)) => {
                                if negotiate(&mut s, Some(&params), &stop).is_ok() {
                                    session.lock().on_resync();
                                    conn = Some(s);
                                }
                            }
                            Err(e) if is_timeout(&e) => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break 'io,
                        }
                        continue;
                    };
                    match read_frame(stream, &mut scratch, &stop) {
                        Ok(n) => match scratch.first() {
                            Some(&wire::FT_BYE) => {
                                queue.close();
                                break 'io;
                            }
                            // read_frame guarantees n ≤ scratch.len().
                            _ => session.lock().ingest_frame(scratch.get(..n).unwrap_or(&[])),
                        },
                        Err(ReadEnd::Stopped) => break 'io,
                        Err(_) => conn = None, // EOF or framing violation
                    }
                }
                queue.close();
            })
        };
        TcpFronthaulRx {
            params,
            queue,
            session,
            stop,
            io: Some(io),
        }
    }
}

impl FronthaulRx for TcpFronthaulRx {
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

impl Drop for TcpFronthaulRx {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}
