//! The benchmark's measuring points: a receive decorator that stamps every
//! delivery, a paced sender that stamps every send and keeps one subframe in
//! flight, and the process CPU clock. Untraced, each takes one `Instant` per
//! subframe; traced, they also record spans around the calls. Everything goes into
//! vectors sized before the first send, so measuring never allocates on
//! the path it measures.

use rtopex_phy::Cf32;
use rtopex_transport::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A span taken on the live path; linked into the tracer after the trial.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpan {
    pub name: &'static str,
    /// Index into the send plan.
    pub index: usize,
    pub start: Instant,
    pub end: Instant,
}

/// One delivered subframe as the consumer saw it.
#[derive(Clone, Copy, Debug)]
pub struct RecvStamp {
    pub cell: u16,
    pub seq: u32,
    /// When `recv_into` returned this subframe.
    pub returned: Instant,
}

/// `(mcs, samples)` per pool entry.
pub type Pool<'a> = &'a [(u8, &'a [Vec<Cf32>])];

/// `FronthaulRx` decorator: forwards to the transport, stamps each
/// delivery, and checks the delivered samples against the quantized
/// reference for their MCS. Announces its first call, which is where a
/// node's set-up (pool encode, calibration, worker warm-up) ends.
pub struct StampRx<'a> {
    inner: Box<dyn FronthaulRx>,
    reference: Pool<'a>,
    first_call: Option<Sender<Instant>>,
    /// How far into the send plan deliveries have come: one past the
    /// highest plan index delivered. The sender reads it.
    pub delivered: Arc<AtomicUsize>,
    pub stamps: Vec<RecvStamp>,
    /// `rx.recv_wait` spans, one per delivery, when tracing.
    pub spans: Option<Vec<LiveSpan>>,
    /// Deliveries whose samples were not bit-equal to the reference.
    pub corrupt: u64,
}

impl<'a> StampRx<'a> {
    /// `reference` holds what each MCS's buffer must contain on delivery;
    /// `expect` sizes the stamp vectors.
    pub fn new(
        inner: Box<dyn FronthaulRx>,
        reference: Pool<'a>,
        expect: usize,
        trace: bool,
    ) -> (Self, Receiver<Instant>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            StampRx {
                inner,
                reference,
                first_call: Some(tx),
                delivered: Arc::default(),
                stamps: Vec::with_capacity(expect),
                spans: trace.then(|| Vec::with_capacity(expect)),
                corrupt: 0,
            },
            rx,
        )
    }
}

fn bit_equal(a: &[Vec<Cf32>], b: &[Vec<Cf32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                })
        })
}

impl FronthaulRx for StampRx<'_> {
    fn params(&self) -> &StreamParams {
        self.inner.params()
    }

    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError> {
        let called = (self.first_call.is_some() || self.spans.is_some()).then(Instant::now);
        if let (Some(first), Some(at)) = (self.first_call.take(), called) {
            // The sender may already be gone if set-up failed elsewhere.
            let _ = first.send(at);
        }
        let got = self.inner.recv_into(buf, timeout)?;
        if got == Recv::Subframe {
            let returned = Instant::now();
            let cells = self.inner.params().cells.len();
            let index = buf.seq as usize * cells + buf.cell as usize;
            self.stamps.push(RecvStamp {
                cell: buf.cell,
                seq: buf.seq,
                returned,
            });
            self.delivered.fetch_max(index + 1, Ordering::Release);
            if let (Some(spans), Some(called)) = (&mut self.spans, called) {
                spans.push(LiveSpan {
                    name: "rx.recv_wait",
                    index,
                    start: called,
                    end: returned,
                });
            }
            let expected = self.reference.iter().find(|(m, _)| *m == buf.mcs);
            if !expected.is_some_and(|(_, want)| bit_equal(&buf.samples, want)) {
                self.corrupt += 1;
            }
        }
        Ok(got)
    }

    fn stats(&self) -> RxStats {
        self.inner.stats()
    }
}

/// One subframe as the sender handled it.
#[derive(Clone, Copy, Debug)]
pub struct SendStamp {
    /// When the schedule said to send (latency is counted from here).
    pub due: Instant,
    /// When the sender actually began (`start − due` is its lateness).
    pub start: Instant,
}

/// One entry of the send schedule. Cells are `0..cells`, interleaved, so
/// entry `i` is `(cell i % cells, seq i / cells)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    pub cell: u16,
    pub seq: u32,
    /// Index into the pool.
    pub pool: usize,
}

/// How long the sender holds a subframe back for the one before it. Longer
/// than any stall of the host seen here, so only a subframe that is really
/// lost ends the wait.
pub const HOLD_LIMIT: Duration = Duration::from_millis(200);

/// Sends `plan` on a schedule, one subframe every `cadence` starting at
/// `first_due`, then closes the stream. A subframe that is due goes out
/// once the one before it has been delivered (`delivered` is
/// [`StampRx::delivered`]) or [`HOLD_LIMIT`] has passed: at the cadence a
/// delivery takes a fraction of the period and the wait is never entered,
/// but when the host stalls the receiving side for longer than a period the
/// stall shows as lateness, which every latency here includes, and not as
/// datagrams dropped from a socket buffer that holds two subframes.
/// Returns one stamp per subframe and, when tracing, a `gen.wait` and a
/// `tx.send` span for each.
pub fn paced_send(
    tx: &mut dyn FronthaulTx,
    plan: &[Planned],
    pool: Pool<'_>,
    first_due: Instant,
    cadence: Duration,
    delivered: &AtomicUsize,
    trace: bool,
) -> Result<(Vec<SendStamp>, Vec<LiveSpan>), TransportError> {
    let mut stamps = Vec::with_capacity(plan.len());
    let mut spans = Vec::with_capacity(if trace { 2 * plan.len() } else { 0 });
    for (index, p) in plan.iter().enumerate() {
        let due = first_due + cadence * index as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let woke = Instant::now();
        let mut start = woke;
        while delivered.load(Ordering::Acquire) < index && start - woke < HOLD_LIMIT {
            std::thread::yield_now();
            start = Instant::now();
        }
        let (mcs, samples) = pool[p.pool];
        tx.send(p.cell, p.seq, mcs, samples)?;
        tx.flush()?;
        stamps.push(SendStamp { due, start });
        if trace {
            let end = Instant::now();
            spans.push(LiveSpan {
                name: "gen.wait",
                index,
                start: due,
                end: start,
            });
            spans.push(LiveSpan {
                name: "tx.send",
                index,
                start,
                end,
            });
        }
    }
    tx.finish()?;
    Ok((stamps, spans))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Tells the allocator to keep what it is given back, in one arena: no
/// trimming, no separate mappings below 32 MiB, no per-thread arenas. A
/// trial's sample buffers are 16 MiB, allocated by a thread that lives for
/// that trial only. Left alone, glibc hands the next trial's thread
/// sometimes the same arena and sometimes a fresh one, and set-up time
/// flips between 4 and 12 ms on the page faults alone. With this only a
/// run's first trial pays them, and the median over trials never sees
/// that one. Nothing on a measured path allocates, so nothing else moves.
pub fn keep_freed_memory() {
    let keep = [
        (M_TRIM_THRESHOLD, i32::MAX),
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_ARENA_MAX, 1),
    ];
    for (param, value) in keep {
        // SAFETY: mallopt only changes allocator tuning; both parameters
        // are documented glibc constants and the values are in range.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "mallopt({param}, {value}) refused");
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;
const THREAD_CPUTIME: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid out timespec
    // (x86-64/aarch64 Linux: two 64-bit fields) and the clock id is one
    // of the two constants above, which the kernel defines; the call
    // writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time this process (all threads) has consumed so far.
pub fn process_cpu() -> Duration {
    cpu_clock(PROCESS_CPUTIME)
}

/// CPU time the calling thread has consumed so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(THREAD_CPUTIME)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_transport::inproc_pair;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() - a >= Duration::from_millis(10));
    }

    #[test]
    fn schedule_is_kept_and_stamped_end_to_end() {
        let params = crate::inputs::stream_params(1, &[5], Duration::from_millis(1));
        let n = params.samples_per_subframe as usize;
        let sent = vec![vec![Cf32::new(0.25, -0.5); n]; 2];
        let garbled = vec![vec![Cf32::new(0.25, 0.5); n]; 2];
        let image = crate::inputs::wire_image(&sent);
        let reference = [(5u8, image.as_slice())];
        let pool = [(5u8, sent.as_slice()), (5u8, garbled.as_slice())];
        let plan: Vec<Planned> = (0..4)
            .map(|i| Planned {
                cell: 0,
                seq: i,
                pool: usize::from(i == 3),
            })
            .collect();
        let (mut tx, rx) = inproc_pair(params, 8);
        let (mut rx, first_call) = StampRx::new(Box::new(rx), &reference, plan.len(), true);
        let delivered = rx.delivered.clone();
        let cadence = Duration::from_millis(2);
        let first_due = Instant::now() + cadence;
        // The receiver starts ten periods late: the sender must hold the
        // second subframe until the first has been delivered.
        let (sends, spans) = std::thread::scope(|s| {
            let rx = &mut rx;
            s.spawn(move || {
                std::thread::sleep(cadence * 10);
                let mut buf = SubframeBuf::for_stream(rx.params());
                while rx.recv_into(&mut buf, Duration::from_millis(50)).unwrap() == Recv::Subframe {
                }
            });
            paced_send(&mut tx, &plan, &pool, first_due, cadence, &delivered, true).unwrap()
        });
        assert!(first_call.try_recv().is_ok());
        assert_eq!((sends.len(), spans.len()), (4, 8));
        for (i, s) in sends.iter().enumerate() {
            assert_eq!(s.due, first_due + cadence * i as u32);
            assert!(s.due <= s.start);
        }
        assert!(sends[1].start >= rx.stamps[0].returned);
        assert!(sends[1].start - sends[1].due >= cadence * 8);
        let seqs: Vec<u32> = rx.stamps.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        let waits: Vec<usize> = rx.spans.as_ref().unwrap().iter().map(|s| s.index).collect();
        assert_eq!(waits, [0, 1, 2, 3]);
        assert_eq!(rx.corrupt, 1, "only the garbled subframe differs");
    }
}
