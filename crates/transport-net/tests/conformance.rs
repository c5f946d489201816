//! Transport trait conformance: one shared suite run against all three
//! implementations (in-process, UDP loopback, TCP loopback).
//!
//! The invariant under test: every subframe the receiver delivers is
//! **byte-identical** (f32 bit equality) to the sent subframe after the
//! wire's i16 quantization — under plain delivery, for the quantizer's
//! edge values at every SIMD tier, under fragment reordering (UDP),
//! across a sender reconnect (TCP) and with subframes written in the
//! same `write` as the hello (TCP). A TCP peer that connects and stays
//! silent holds neither `accept` nor a sender's reconnect. UDP's segmentation-offload trains
//! reach a plain socket as one wire frame per datagram, byte for byte.
//! A subframe of the wrong geometry is refused whole by every transport.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rtopex_phy::Cf32;
use rtopex_transport::iface::{
    FronthaulRx, FronthaulTx, Recv, StreamParams, SubframeBuf, TransportError,
};
use rtopex_transport::inproc::inproc_pair;
use rtopex_transport::packet::{dequantize, quantize};
use rtopex_transport_net::{framing, wire};
use rtopex_transport_net::{TcpFronthaulTx, TcpRxPending, UdpFronthaulTx, UdpRxPending};

const ACCEPT_TIMEOUT: Duration = Duration::from_secs(5);
const RECV_TIMEOUT: Duration = Duration::from_secs(2);
const QUEUE_DEPTH: usize = 64;

fn params() -> StreamParams {
    StreamParams {
        samples_per_subframe: 800, // 3 fragments per antenna
        antennas: 2,
        cells: vec![3, 8],
        period_us: 1000,
        budget_us: 1000,
        mcs_pool: vec![5, 27],
        subframes: 6,
    }
}

/// Deterministic per-(cell, seq) subframe payload.
fn subframe(p: &StreamParams, cell: u16, seq: u32) -> Vec<Vec<Cf32>> {
    (0..p.antennas as usize)
        .map(|a| {
            (0..p.samples_per_subframe as usize)
                .map(|i| {
                    let x = (cell as f32 + 1.0) * 0.11 + (seq as f32) * 0.013 + (a as f32) * 0.7;
                    Cf32::new(
                        (x + i as f32 / 997.0).sin() * 0.4,
                        (x - i as f32 / 499.0).cos() * 0.4,
                    )
                })
                .collect()
        })
        .collect()
}

fn assert_wire_exact(got: &SubframeBuf, p: &StreamParams) {
    let sent = subframe(p, got.cell, got.seq);
    for (g, s) in got.samples.iter().zip(&sent) {
        for (a, b) in g.iter().zip(s) {
            assert_eq!(a.re.to_bits(), dequantize(quantize(b.re)).to_bits());
            assert_eq!(a.im.to_bits(), dequantize(quantize(b.im)).to_bits());
        }
    }
}

/// Sends `(cell, seq)` pairs through `tx` and collects everything `rx`
/// delivers until close, asserting byte-identity on each subframe.
fn stream_and_verify(
    mut tx: Box<dyn FronthaulTx>,
    rx: &mut dyn FronthaulRx,
    sched: &[(u16, u32)],
) -> Vec<(u16, u32)> {
    let p = rx.params().clone();
    for &(cell, seq) in sched {
        let s = subframe(&p, cell, seq);
        tx.send(cell, seq, 27, &s).unwrap();
        tx.flush().unwrap();
    }
    tx.finish().unwrap();
    drop(tx);
    let mut got = Vec::new();
    let mut buf = SubframeBuf::for_stream(&p);
    loop {
        match rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap() {
            Recv::Subframe => {
                assert_wire_exact(&buf, &p);
                got.push((buf.cell, buf.seq));
            }
            Recv::Closed => break,
            Recv::TimedOut => panic!("stream stalled with {} delivered", got.len()),
        }
    }
    got
}

fn full_schedule(p: &StreamParams) -> Vec<(u16, u32)> {
    let mut sched = Vec::new();
    for seq in 0..p.subframes {
        for &cell in &p.cells {
            sched.push((cell, seq));
        }
    }
    sched
}

// --- transport constructors -------------------------------------------------

type Pair = (Box<dyn FronthaulTx>, Box<dyn FronthaulRx>);

fn udp_pair(p: &StreamParams) -> Pair {
    let pending = UdpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });
    let tx = UdpFronthaulTx::connect(addr, p.clone()).unwrap();
    h.join().unwrap();
    (Box::new(tx), Box::new(rrx.recv().unwrap().unwrap()))
}

fn tcp_pair(p: &StreamParams) -> Pair {
    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });
    let tx = TcpFronthaulTx::connect(addr, p.clone()).unwrap();
    h.join().unwrap();
    (Box::new(tx), Box::new(rrx.recv().unwrap().unwrap()))
}

fn inproc_boxed(p: &StreamParams) -> Pair {
    let (tx, rx) = inproc_pair(p.clone(), QUEUE_DEPTH);
    (Box::new(tx), Box::new(rx))
}

// --- the shared suite -------------------------------------------------------

fn conformance_plain(make: fn(&StreamParams) -> Pair) {
    let p = params();
    let (tx, mut rx) = make(&p);
    let sched = full_schedule(&p);
    let got = stream_and_verify(tx, rx.as_mut(), &sched);
    assert_eq!(got, sched, "all subframes delivered in order");
    let st = rx.stats();
    assert_eq!(st.delivered, sched.len() as u64);
    assert_eq!((st.gaps, st.stale, st.bad_frames), (0, 0, 0), "{st:?}");
}

#[test]
fn inproc_delivers_byte_identical() {
    conformance_plain(inproc_boxed);
}

#[test]
fn udp_delivers_byte_identical() {
    conformance_plain(udp_pair);
}

#[test]
fn tcp_delivers_byte_identical() {
    conformance_plain(tcp_pair);
}

/// A subframe that does not match the stream geometry is refused whole:
/// `send` returns `Err(Protocol)` before anything reaches the wire, the
/// coalescing buffer, the queue or the freelist, so the next good
/// subframe arrives as if the bad ones had never been offered.
fn conformance_refuses_bad_geometry(make: fn(&StreamParams) -> Pair) {
    let p = params();
    let (mut tx, mut rx) = make(&p);
    let mut short = subframe(&p, 3, 0);
    short[1].pop(); // antenna 1 one sample short
    let mut one = subframe(&p, 3, 1);
    one.truncate(1); // antenna 1 missing
    for (seq, bad) in [short, one].iter().enumerate() {
        let r = tx.send(3, seq as u32, 27, bad);
        assert!(matches!(r, Err(TransportError::Protocol(_))), "{r:?}");
    }
    let got = stream_and_verify(tx, rx.as_mut(), &[(3, 2)]);
    assert_eq!(got, [(3, 2)]);
    let st = rx.stats();
    assert_eq!((st.delivered, st.gaps, st.bad_frames), (1, 0, 0), "{st:?}");
}

#[test]
fn inproc_refuses_bad_geometry_whole() {
    conformance_refuses_bad_geometry(inproc_boxed);
}

#[test]
fn udp_refuses_bad_geometry_whole() {
    conformance_refuses_bad_geometry(udp_pair);
}

#[test]
fn tcp_refuses_bad_geometry_whole() {
    conformance_refuses_bad_geometry(tcp_pair);
}

/// One subframe of the quantizer's edge values: NaNs, ±inf, ±0,
/// subnormals, the extremes, both clamp edges and every exact .5-LSB tie
/// (with its neighbouring bit patterns) in a band around zero.
fn edge_subframe(p: &StreamParams) -> Vec<Vec<Cf32>> {
    let lsb = |k: f32| k / 4096.0;
    let mut v = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0xFFC1_2345),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x807F_FFFF),
        f32::MAX,
        f32::MIN,
        lsb(32767.5),
        lsb(-32768.5),
        lsb(32766.5),
        lsb(-32767.5),
    ];
    let mut k = 0i32;
    while v.len() < 2 * p.antennas as usize * p.samples_per_subframe as usize {
        let x = lsb(k as f32 / 2.0);
        let b = x.to_bits();
        v.extend([b, b.wrapping_add(1), b.wrapping_sub(1)].map(f32::from_bits));
        k = if k > 0 { -k } else { 1 - k };
    }
    v.chunks_exact(2 * p.samples_per_subframe as usize)
        .map(|a| a.chunks_exact(2).map(|c| Cf32::new(c[0], c[1])).collect())
        .collect()
}

/// The edge-value subframe through every transport at every SIMD tier
/// the CPU has: each delivery is bit-identical to `dequantize(quantize(x))`.
#[test]
fn edge_values_delivered_bit_identical_at_every_tier() {
    use rtopex_phy::simd::{force_tier, supported_tiers};
    let p = params();
    let sent = edge_subframe(&p);
    for tier in supported_tiers() {
        force_tier(Some(tier));
        for make in [inproc_boxed, udp_pair, tcp_pair] {
            let (mut tx, mut rx) = make(&p);
            tx.send(8, 5, 27, &sent).unwrap();
            tx.finish().unwrap();
            let mut buf = SubframeBuf::for_stream(&p);
            assert_eq!(
                rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap(),
                Recv::Subframe
            );
            for (g, s) in buf.samples.iter().zip(&sent) {
                for (a, b) in g.iter().zip(s) {
                    let want = [b.re, b.im].map(|x| dequantize(quantize(x)).to_bits());
                    assert_eq!([a.re.to_bits(), a.im.to_bits()], want, "{tier:?}: {b:?}");
                }
            }
        }
    }
    force_tier(None);
}

/// UDP under reordering: fragments of each subframe sent in reversed
/// order, plus a duplicated datagram — delivery must stay byte-exact.
/// Loopback never reorders on its own, so the test crafts the datagram
/// stream by hand through a raw socket speaking the same wire format.
#[test]
fn udp_reordered_fragments_delivered_byte_identical() {
    let p = params();
    let pending = UdpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });

    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello, &p, rtopex_transport::PROTOCOL_VERSION);
    let mut ack = [0u8; 16];
    loop {
        sock.send(&hello).unwrap();
        if let Ok(n) = sock.recv(&mut ack) {
            if wire::decode_hello_ack(&ack[..n]).is_some() {
                break;
            }
        }
    }
    h.join().unwrap();
    let mut rx = rrx.recv().unwrap().unwrap();

    let total = wire::fragments_for(p.samples_per_subframe as usize) as u16;
    let sched = full_schedule(&p);
    for &(cell, seq) in &sched {
        let s = subframe(&p, cell, seq);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for (ant, samples) in s.iter().enumerate() {
            for (frag, chunk) in samples.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let mut f = vec![0u8; wire::MAX_IQ_FRAME];
                let len = wire::write_iq_frame(
                    &mut f, 27, cell, ant as u8, frag as u8, total, seq, chunk,
                );
                f.truncate(len);
                frames.push(f);
            }
        }
        frames.reverse(); // worst-case reordering within the subframe
        frames.push(frames[0].clone()); // and a duplicated datagram
        for f in &frames {
            sock.send(f).unwrap();
        }
    }
    sock.send(&[wire::FT_BYE]).unwrap();

    let mut got = Vec::new();
    let mut buf = SubframeBuf::for_stream(&p);
    loop {
        match rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap() {
            Recv::Subframe => {
                assert_wire_exact(&buf, &p);
                got.push((buf.cell, buf.seq));
            }
            Recv::Closed => break,
            Recv::TimedOut => panic!("stalled after {} subframes", got.len()),
        }
    }
    let mut want = sched.clone();
    let mut sorted = got.clone();
    want.sort_unstable();
    sorted.sort_unstable();
    assert_eq!(
        sorted, want,
        "every subframe reassembled despite reordering"
    );
    let st = rx.stats();
    assert_eq!(st.delivered, sched.len() as u64);
    assert_eq!(st.gaps, 0);
    assert_eq!(st.stale, sched.len() as u64, "one duplicate per subframe");
}

/// UDP on the wire: the sender's segmentation-offload trains reach a
/// plain socket without GRO as the datagrams one `send` per frame would
/// make — `antennas × fragments_for(samples)` per subframe, in order,
/// each byte-identical to `write_iq_frame`'s frame — at 1.4, 5 and
/// 20 MHz. At 20 MHz an antenna's 86 fragments leave as two trains,
/// 45 + 41; that case runs one antenna, because a plain socket's default
/// 208 KiB receive buffer holds ≈ 140 datagrams of one burst and std
/// cannot raise it.
#[test]
fn udp_trains_arrive_as_one_datagram_per_frame() {
    for (samples, antennas) in [(1_920u32, 2u8), (7_680, 2), (30_720, 1)] {
        let p = StreamParams {
            samples_per_subframe: samples,
            antennas,
            subframes: 3,
            ..params()
        };
        let per_sf = p.antennas as usize * wire::fragments_for(samples as usize);
        let sched = full_schedule(&p);

        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
        let addr = sock.local_addr().unwrap();
        let (dtx, drx) = mpsc::channel::<Vec<Vec<u8>>>();
        let subframes = sched.len();
        let reader = thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let (n, src) = sock.recv_from(&mut buf).unwrap();
            wire::decode_hello(&buf[..n]).unwrap();
            let mut ack = Vec::new();
            wire::encode_hello_ack(&mut ack, rtopex_transport::PROTOCOL_VERSION);
            sock.send_to(&ack, src).unwrap();
            sock.connect(src).unwrap();
            for _ in 0..subframes {
                let mut got = Vec::with_capacity(per_sf);
                while got.len() < per_sf {
                    let n = sock.recv(&mut buf).unwrap_or_else(|e| {
                        panic!("{} of {per_sf} datagrams, then {e}", got.len())
                    });
                    if buf[0] != wire::FT_HELLO {
                        got.push(buf[..n].to_vec());
                    }
                }
                dtx.send(got).unwrap();
            }
        });

        let mut tx = UdpFronthaulTx::connect(addr, p.clone()).unwrap();
        let total = wire::fragments_for(samples as usize) as u16;
        for &(cell, seq) in &sched {
            let s = subframe(&p, cell, seq);
            tx.send(cell, seq, 27, &s).unwrap();
            let got = drx.recv().unwrap();
            let mut want = Vec::new();
            for (ant, a) in s.iter().enumerate() {
                for (frag, chunk) in a.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                    let mut f = vec![0u8; wire::MAX_IQ_FRAME];
                    let len = wire::write_iq_frame(
                        &mut f, 27, cell, ant as u8, frag as u8, total, seq, chunk,
                    );
                    f.truncate(len);
                    want.push(f);
                }
            }
            assert_eq!(got.len(), want.len(), "{samples} samples: datagram count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g == w,
                    "{samples} samples, cell {cell} seq {seq}: datagram {i} differs"
                );
            }
        }
        reader.join().unwrap();
    }
}

/// TCP across a sender reconnect: the first sender dies mid-stream, a
/// second one reconnects and continues the sequence. Everything
/// delivered stays byte-identical and the resync is counted.
#[test]
fn tcp_reconnect_resyncs_and_stays_byte_identical() {
    let p = params();
    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });
    let mut tx = TcpFronthaulTx::connect(addr, p.clone()).unwrap();
    h.join().unwrap();
    let mut rx = rrx.recv().unwrap().unwrap();

    let first: Vec<(u16, u32)> = full_schedule(&p).into_iter().take(6).collect();
    for &(cell, seq) in &first {
        tx.send(cell, seq, 27, &subframe(&p, cell, seq)).unwrap();
    }
    tx.flush().unwrap();
    drop(tx); // sender dies without a bye

    // Drain what the first connection delivered.
    let mut got = Vec::new();
    let mut buf = SubframeBuf::for_stream(&p);
    while got.len() < first.len() {
        match rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap() {
            Recv::Subframe => {
                assert_wire_exact(&buf, &p);
                got.push((buf.cell, buf.seq));
            }
            other => panic!("unexpected {other:?} after {} subframes", got.len()),
        }
    }

    // Second sender reconnects and continues the stream.
    let mut tx2 = TcpFronthaulTx::connect(addr, p.clone()).unwrap();
    let second: Vec<(u16, u32)> = full_schedule(&p).into_iter().skip(6).collect();
    for &(cell, seq) in &second {
        tx2.send(cell, seq, 27, &subframe(&p, cell, seq)).unwrap();
    }
    tx2.finish().unwrap();
    loop {
        match rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap() {
            Recv::Subframe => {
                assert_wire_exact(&buf, &p);
                got.push((buf.cell, buf.seq));
            }
            Recv::Closed => break,
            Recv::TimedOut => panic!("stalled after reconnect at {} subframes", got.len()),
        }
    }
    assert_eq!(got, full_schedule(&p));
    let st = rx.stats();
    assert_eq!(st.resyncs, 1, "{st:?}");
    assert_eq!(st.delivered, got.len() as u64);
}

/// TCP with nothing between the hello and the data: a peer that writes
/// its hello, three subframes and a BYE in one `write` before reading
/// the ack gets all three delivered byte-identical. The receiver's
/// hello read takes the subframes into its buffer, and the io loop
/// must ingest them from there.
#[test]
fn tcp_hello_and_subframes_in_one_write_all_deliver() {
    let p = params();
    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let h = thread::spawn(move || pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH));

    let sched = [(3u16, 0u32), (8, 0), (3, 1)];
    let mut bytes = Vec::new();
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello, &p, rtopex_transport::PROTOCOL_VERSION);
    framing::write_framed(&mut bytes, &hello).unwrap();
    let total = wire::fragments_for(p.samples_per_subframe as usize) as u16;
    for &(cell, seq) in &sched {
        for (ant, a) in subframe(&p, cell, seq).iter().enumerate() {
            for (frag, chunk) in a.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let mut f = vec![0u8; wire::MAX_IQ_FRAME];
                let len = wire::write_iq_frame(
                    &mut f, 27, cell, ant as u8, frag as u8, total, seq, chunk,
                );
                framing::write_framed(&mut bytes, &f[..len]).unwrap();
            }
        }
    }
    framing::write_framed(&mut bytes, &[wire::FT_BYE]).unwrap();
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&bytes).unwrap();

    let mut rx = h.join().unwrap().unwrap();
    let mut buf = SubframeBuf::for_stream(&p);
    let mut got = Vec::new();
    loop {
        match rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap() {
            Recv::Subframe => {
                assert_wire_exact(&buf, &p);
                got.push((buf.cell, buf.seq));
            }
            Recv::Closed => break,
            Recv::TimedOut => panic!("stalled after {} subframes", got.len()),
        }
    }
    assert_eq!(got, sched);
    drop(peer);
}

/// A TCP peer that connects and never writes: `accept` still returns
/// at its deadline, a sender that connects behind the silent peer is
/// accepted and streams, and after a sender dies a silent peer does not
/// keep the next sender from reconnecting.
#[test]
fn tcp_silent_peer_holds_neither_accept_nor_reconnect() {
    let p = params();

    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let silent = TcpStream::connect(pending.local_addr().unwrap()).unwrap();
    let t0 = Instant::now();
    assert!(pending
        .accept(Duration::from_millis(300), QUEUE_DEPTH)
        .is_err());
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    drop(silent);

    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let silent = TcpStream::connect(addr).unwrap();
    let h = thread::spawn(move || pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH));
    let tx = TcpFronthaulTx::connect(addr, p.clone()).unwrap();
    let mut rx = h.join().unwrap().unwrap();
    let first: Vec<(u16, u32)> = full_schedule(&p).into_iter().take(6).collect();
    let mut tx: Box<dyn FronthaulTx> = Box::new(tx);
    for &(cell, seq) in &first {
        tx.send(cell, seq, 27, &subframe(&p, cell, seq)).unwrap();
    }
    tx.flush().unwrap();
    drop(tx); // sender dies without a bye
    let mut buf = SubframeBuf::for_stream(&p);
    for _ in &first {
        assert_eq!(
            rx.recv_into(&mut buf, RECV_TIMEOUT).unwrap(),
            Recv::Subframe
        );
    }
    drop(silent);

    // A silent peer reaches the listener before the reconnecting sender.
    let silent = TcpStream::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(50));
    let tx2 = TcpFronthaulTx::connect(addr, p.clone()).unwrap();
    let second: Vec<(u16, u32)> = full_schedule(&p).into_iter().skip(6).collect();
    assert_eq!(stream_and_verify(Box::new(tx2), &mut rx, &second), second);
    drop(silent);
}

/// Version negotiation: a peer announcing a foreign protocol version is
/// refused with a precise error, and the receiver keeps listening for a
/// compatible sender.
#[test]
fn version_mismatch_refused_then_good_peer_accepted() {
    let p = params();

    // UDP
    let pending = UdpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });
    let bad = UdpFronthaulTx::connect_with_version(addr, p.clone(), 0x7777);
    assert!(
        matches!(&bad, Err(TransportError::Version { got, .. }) if *got == rtopex_transport::PROTOCOL_VERSION),
        "{:?}",
        bad.err()
    );
    let good = UdpFronthaulTx::connect(addr, p.clone());
    assert!(good.is_ok(), "{:?}", good.err());
    h.join().unwrap();
    drop(rrx);

    // TCP
    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let (rtx, rrx) = mpsc::channel();
    let h = thread::spawn(move || {
        rtx.send(pending.accept(ACCEPT_TIMEOUT, QUEUE_DEPTH))
            .unwrap()
    });
    let bad = TcpFronthaulTx::connect_with_version(addr, p.clone(), 0x7777);
    assert!(
        matches!(&bad, Err(TransportError::Version { got, .. }) if *got == rtopex_transport::PROTOCOL_VERSION),
        "{:?}",
        bad.err()
    );
    let good = TcpFronthaulTx::connect(addr, p.clone());
    assert!(good.is_ok(), "{:?}", good.err());
    h.join().unwrap();
    drop(rrx);
}
