//! One set of receive counts on every transport: the ring counts what it
//! published (`delivered`) and what it recycled unread (`drops`), and
//! the producer counts sequence gaps where subframes enter the ring. An
//! overrun is therefore a drop and never a gap, whether the producer is
//! the in-process sender or a socket receiver's session.

use std::sync::Arc;
use std::time::Duration;

use rtopex_phy::Cf32;
use rtopex_transport::iface::{FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf};
use rtopex_transport::inproc::inproc_pair;
use rtopex_transport_net::ring::{Pop, SwapQueue};
use rtopex_transport_net::session::ASM_SLOTS;
use rtopex_transport_net::{wire, RxSession};

const DEPTH: usize = 2;
const SENT: u32 = 5;

fn params() -> StreamParams {
    StreamParams {
        samples_per_subframe: 800, // 3 fragments
        antennas: 1,
        cells: vec![5],
        period_us: 1000,
        budget_us: 1000,
        mcs_pool: vec![27],
        subframes: SENT,
    }
}

fn subframe(p: &StreamParams, seq: u32) -> Vec<Vec<Cf32>> {
    let n = p.samples_per_subframe as usize;
    vec![(0..n)
        .map(|i| Cf32::new((i as f32 + seq as f32).sin() * 0.3, -0.1))
        .collect()]
}

/// Sends `SENT` subframes into a depth-`DEPTH` ring nobody drains, then
/// drains it; returns the books and the sequence numbers drained.
fn overrun_inproc(p: &StreamParams) -> (RxStats, Vec<u32>) {
    let (mut tx, mut rx) = inproc_pair(p.clone(), DEPTH);
    for seq in 0..SENT {
        tx.send(5, seq, 27, &subframe(p, seq)).unwrap();
    }
    tx.finish().unwrap();
    let mut buf = SubframeBuf::for_stream(p);
    let mut got = Vec::new();
    while rx.recv_into(&mut buf, Duration::from_millis(50)).unwrap() == Recv::Subframe {
        got.push(buf.seq);
    }
    (rx.stats(), got)
}

/// The same stream as wire frames through a socket receiver's session
/// and a ring of the same depth.
fn overrun_session(p: &StreamParams) -> (RxStats, Vec<u32>) {
    let pool = DEPTH + p.cells.len() * ASM_SLOTS + 1;
    let queue = Arc::new(SwapQueue::new(p, pool, DEPTH));
    let mut session = RxSession::new(p.clone(), Arc::clone(&queue));
    let total = wire::fragments_for(p.samples_per_subframe as usize) as u16;
    for seq in 0..SENT {
        for (frag, chunk) in subframe(p, seq)[0]
            .chunks(wire::SAMPLES_PER_FRAG)
            .enumerate()
        {
            let mut f = vec![0u8; wire::MAX_IQ_FRAME];
            let len = wire::write_iq_frame(&mut f, 27, 5, 0, frag as u8, total, seq, chunk);
            session.ingest_frame(&f[..len]);
        }
    }
    session.close();
    let mut buf = SubframeBuf::for_stream(p);
    let mut got = Vec::new();
    while queue.pop_swap(&mut buf, Duration::from_millis(50)) == Pop::Got {
        got.push(buf.seq);
    }
    (session.stats(), got)
}

#[test]
fn an_overrun_is_a_drop_not_a_gap_on_every_transport() {
    let p = params();
    let (inproc, inproc_got) = overrun_inproc(&p);
    let (session, session_got) = overrun_session(&p);
    assert_eq!(inproc, session, "one set of books");
    assert_eq!(
        (inproc.delivered, inproc.drops, inproc.gaps),
        (5, 3, 0),
        "{inproc:?}"
    );
    // The consumer received delivered − drops: the two newest.
    assert_eq!(inproc_got, [3, 4]);
    assert_eq!(session_got, [3, 4]);
}
