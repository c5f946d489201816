//! Length-framed TCP fronthaul with coalesced writes, batched reads
//! and reconnect.
//!
//! Frames are `[len: u32 BE][frame]` on a nodelay stream. Socket I/O is
//! batched both ways. The sender appends frames to one write buffer and
//! pushes a whole cell-batch with a single `write_all` syscall on
//! [`FronthaulTx::flush`]. The receiver's io thread reads through one
//! [`FrameReader`] per connection: each `read` takes whatever the socket
//! holds, and every complete frame in it is ingested under one session
//! lock. UDP batches per antenna instead, as segmentation-offload
//! trains; see [`crate::udp`].
//!
//! The receiver's I/O thread keeps the listener after the first
//! session: when a sender dies mid-stream it re-accepts, validates the
//! replayed hello against the negotiated parameters, and resyncs the
//! session (bounded O(cells) work) — subframes lost across the outage
//! surface as sequence gaps, not as a stuck stream.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rtopex_phy::Cf32;
use rtopex_transport::iface::{FronthaulTx, StreamParams, TransportError, PROTOCOL_VERSION};

use crate::framing::{io_err, is_timeout, write_framed, FrameReader, ReadEnd, Walk};
use crate::session::{NetFronthaulRx, RxSession};
use crate::wire;

/// Auto-flush watermark for the sender's coalescing buffer.
const FLUSH_WATERMARK: usize = 512 * 1024;

/// How long the receiver waits for a new connection's hello. A sender
/// writes it right after connecting, so a peer silent this long is
/// dropped, and the next connection in the backlog gets its turn.
const HELLO_WAIT: Duration = Duration::from_secs(1);

/// How long a sender waits for the receiver's hello ack. The receiver
/// may first spend [`HELLO_WAIT`] on a silent peer queued ahead.
const ACK_WAIT: Duration = Duration::from_secs(5);

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
        let mut reader = FrameReader::new();
        let never = AtomicBool::new(false);
        let ack = match reader.read_frame(&mut stream, &never, Instant::now() + ACK_WAIT) {
            Ok(frame) => wire::decode_hello_ack(frame),
            Err(ReadEnd::Eof) => {
                return Err(TransportError::Io("receiver closed during hello".into()))
            }
            Err(ReadEnd::TimedOut) => {
                return Err(TransportError::Io("no hello ack within 5 s".into()))
            }
            Err(_) => return Err(TransportError::Io("no hello ack".into())),
        };
        match ack {
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
    /// peers are acked with our version and dropped, and so is a peer
    /// that sends no hello within a second or by the deadline.
    pub fn accept(
        self,
        timeout: Duration,
        queue_depth: usize,
    ) -> Result<NetFronthaulRx, TransportError> {
        let deadline = Instant::now() + timeout;
        let never = AtomicBool::new(false);
        let mut reader = FrameReader::new();
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
            let hello_by = deadline.min(Instant::now() + HELLO_WAIT);
            match negotiate(&mut stream, &mut reader, None, &never, hello_by) {
                Ok(params) => {
                    let listener = self.listener;
                    let expect = params.clone();
                    return Ok(NetFronthaulRx::spawn(
                        params,
                        queue_depth,
                        move |session, stop| {
                            tcp_io_loop(listener, stream, reader, &expect, session, stop)
                        },
                    ));
                }
                Err(_) => continue, // refused or malformed; keep listening
            }
        }
    }
}

/// Reads and validates a hello on a fresh connection through `reader`
/// (cleared first), acks it, and returns the stream params. Frames sent
/// behind the hello stay buffered in `reader` for the io loop. When
/// `expect` is set (re-accept after a sender reconnect), the replayed
/// hello must carry identical params. A hello not read by `hello_by`
/// (give or take one 100 ms read timeout) refuses the connection.
fn negotiate(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    expect: Option<&StreamParams>,
    stop: &AtomicBool,
    hello_by: Instant,
) -> Result<StreamParams, TransportError> {
    stream.set_nodelay(true).map_err(io_err)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(io_err)?;
    reader.clear();
    let (version, params) = match reader.read_frame(stream, stop, hello_by) {
        Ok(frame) => wire::decode_hello(frame)?,
        Err(_) => return Err(TransportError::Protocol("no hello on connection".into())),
    };
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

/// The TCP receiver's io loop: walks every complete frame `reader`
/// holds into the session under one lock, then reads once more from
/// `first`; when the sender goes away, re-accepts on `listener`, checks
/// the replayed hello against `params` and resyncs the session. Runs
/// until a bye or `stop`.
fn tcp_io_loop(
    listener: TcpListener,
    first: TcpStream,
    mut reader: FrameReader,
    params: &StreamParams,
    session: &Mutex<RxSession>,
    stop: &AtomicBool,
) {
    let mut conn = Some(first);
    while !stop.load(Ordering::Relaxed) {
        let Some(stream) = conn.as_mut() else {
            // Sender gone: wait for a reconnect and resync.
            match listener.accept() {
                Ok((mut s, _)) => {
                    let hello_by = Instant::now() + HELLO_WAIT;
                    if negotiate(&mut s, &mut reader, Some(params), stop, hello_by).is_ok() {
                        session.lock().on_resync();
                        conn = Some(s);
                    }
                }
                Err(e) if is_timeout(&e) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
            continue;
        };
        let mut s = session.lock();
        let walk = reader.walk(|frame| s.ingest_frame(frame));
        drop(s);
        match walk {
            Walk::Drained => {}
            Walk::Bye => return,
            Walk::Violation => {
                conn = None;
                continue;
            }
        }
        match reader.read_more(stream, stop) {
            Ok(_) => {}
            Err(ReadEnd::Stopped) => return,
            Err(_) => conn = None, // EOF or I/O error
        }
    }
}
