//! Hot-path allocation guarantees, measured by a per-thread counting
//! global allocator. Rx: after session setup and warm-up, ingesting IQ
//! frames and swapping completed subframes to the consumer performs
//! **zero** heap allocation — the dynamic twin of the analyzer's
//! `ingest_frame` purity seed; the in-process receiver's `recv_into`
//! swaps out of the same ring with zero too. Tx: after warm-up, `send`
//! (and TCP's `flush`) performs zero on every transport.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rtopex_phy::Cf32;
use rtopex_transport::iface::{FronthaulRx, FronthaulTx, Recv, StreamParams, SubframeBuf};
use rtopex_transport::inproc::inproc_pair;
use rtopex_transport_net::ring::{Pop, SwapQueue};
use rtopex_transport_net::session::ASM_SLOTS;
use rtopex_transport_net::{wire, RxSession};
use rtopex_transport_net::{TcpFronthaulTx, TcpRxPending, UdpFronthaulTx, UdpRxPending};

struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    let _ = ALLOC_COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOC_COUNT.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOC_COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (r, n)
}

fn params() -> StreamParams {
    StreamParams {
        samples_per_subframe: 800, // 3 fragments per antenna
        antennas: 2,
        cells: vec![1, 2],
        period_us: 1000,
        budget_us: 1000,
        mcs_pool: vec![27],
        subframes: 0,
    }
}

/// Pre-encoded wire frames for one subframe.
fn frames(p: &StreamParams, cell: u16, seq: u32) -> Vec<Vec<u8>> {
    let n = p.samples_per_subframe as usize;
    let total = wire::fragments_for(n) as u16;
    let mut out = Vec::new();
    for ant in 0..p.antennas {
        let samples: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new((i as f32 + seq as f32).sin() * 0.3, (ant as f32) / 9.0))
            .collect();
        for (frag, chunk) in samples.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
            let mut f = vec![0u8; wire::MAX_IQ_FRAME];
            let len = wire::write_iq_frame(&mut f, 27, cell, ant, frag as u8, total, seq, chunk);
            f.truncate(len);
            out.push(f);
        }
    }
    out
}

#[test]
fn rx_hot_path_makes_zero_allocations_after_warmup() {
    let p = params();
    let depth = 8;
    let queue = Arc::new(SwapQueue::new(
        &p,
        depth + p.cells.len() * ASM_SLOTS + 1,
        depth,
    ));
    let mut session = RxSession::new(p.clone(), Arc::clone(&queue));
    let mut buf = SubframeBuf::for_stream(&p);

    // Everything the steady state touches, pre-encoded outside the
    // measured region — the I/O thread likewise reuses one recv buffer.
    let mut wire_stream: Vec<Vec<u8>> = Vec::new();
    for seq in 0..12u32 {
        for &cell in &p.cells {
            wire_stream.extend(frames(&p, cell, seq));
        }
    }
    // Include an out-of-order tail, a duplicate, and a stale straggler
    // so the non-trivial branches are exercised under the counter too.
    let mut reordered = frames(&p, 1, 12);
    reordered.reverse();
    wire_stream.extend(reordered);
    wire_stream.push(frames(&p, 2, 3)[0].clone()); // stale
    let warm_count = frames(&p, 1, 100).len() * 2;

    // Warm-up: two subframes per cell through ingest + swap.
    for seq in 100..102u32 {
        for &cell in &p.cells {
            for f in frames(&p, cell, seq) {
                session.ingest_frame(&f);
            }
            assert_eq!(
                queue.pop_swap(&mut buf, Duration::from_millis(10)),
                Pop::Got
            );
        }
    }
    session.on_resync(); // also warms the resync path and relocks at seq 0
    let _ = warm_count;

    let (delivered, allocs) = count_allocs(|| {
        let mut delivered = 0u64;
        for f in &wire_stream {
            session.ingest_frame(f);
            // Drain as the cluster's delivery thread would.
            while queue.pop_swap(&mut buf, Duration::ZERO) == Pop::Got {
                delivered += 1;
            }
        }
        delivered
    });
    assert_eq!(
        delivered, 25,
        "12 seqs x 2 cells + reordered tail + nothing stale"
    );
    assert_eq!(
        allocs, 0,
        "rx hot path (ingest + ring swap) must not touch the heap after warm-up"
    );
    let st = session.stats();
    assert_eq!(st.gaps, 0);
    assert!(st.stale >= 1);
}

/// Sends 20 warm-up subframes, then counts the allocations of 20 more
/// `send` + `flush` calls on this thread (the receiver's io thread is not
/// counted). `_rx` stays alive so the stream stays open.
fn steady_send_allocs(mut tx: Box<dyn FronthaulTx>, _rx: Box<dyn FronthaulRx>) -> u64 {
    let p = tx.params().clone();
    let n = p.samples_per_subframe as usize;
    let samples: Vec<Vec<Cf32>> = (0..p.antennas)
        .map(|a| {
            (0..n)
                .map(|i| Cf32::new((i as f32).sin() * 0.3, a as f32 / 9.0))
                .collect()
        })
        .collect();
    let mut send = |seq: u32| {
        tx.send(1, seq, 27, &samples).unwrap();
        tx.flush().unwrap();
    };
    (0..20).for_each(&mut send);
    let ((), allocs) = count_allocs(|| (20..40).for_each(&mut send));
    allocs
}

#[test]
fn tx_send_makes_zero_allocations_after_warmup() {
    let p = params();
    let (tx, rx) = inproc_pair(p.clone(), 4);
    assert_eq!(
        steady_send_allocs(Box::new(tx), Box::new(rx)),
        0,
        "InProcTx::send"
    );

    let pending = UdpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let h = thread::spawn(move || pending.accept(Duration::from_secs(5), 8).unwrap());
    let tx = UdpFronthaulTx::connect(addr, p.clone()).unwrap();
    let rx = h.join().unwrap();
    assert_eq!(
        steady_send_allocs(Box::new(tx), Box::new(rx)),
        0,
        "UdpFronthaulTx::send"
    );

    let pending = TcpRxPending::bind("127.0.0.1:0").unwrap();
    let addr = pending.local_addr().unwrap();
    let h = thread::spawn(move || pending.accept(Duration::from_secs(5), 8).unwrap());
    let tx = TcpFronthaulTx::connect(addr, p).unwrap();
    let rx = h.join().unwrap();
    assert_eq!(
        steady_send_allocs(Box::new(tx), Box::new(rx)),
        0,
        "TcpFronthaulTx::send + flush"
    );
}

#[test]
fn inproc_recv_makes_zero_allocations_after_warmup() {
    let p = params();
    let (mut tx, mut rx) = inproc_pair(p.clone(), 4);
    let n = p.samples_per_subframe as usize;
    let samples: Vec<Vec<Cf32>> = (0..p.antennas)
        .map(|a| {
            (0..n)
                .map(|i| Cf32::new((i as f32).cos() * 0.3, a as f32 / 9.0))
                .collect()
        })
        .collect();
    let mut buf = SubframeBuf::for_stream(&p);
    let mut allocs = 0;
    for seq in 0..40u32 {
        tx.send(1, seq, 27, &samples).unwrap();
        // Count the swap out of the ring only, after 20 warm-up ones.
        let (got, n) = count_allocs(|| rx.recv_into(&mut buf, Duration::from_millis(100)));
        assert_eq!(got, Ok(Recv::Subframe));
        assert_eq!(buf.seq, seq);
        if seq >= 20 {
            allocs += n;
        }
    }
    assert_eq!(allocs, 0, "InProcRx::recv_into");
}
