//! The four live workloads: one paced sender thread, one fronthaul
//! connection, and either a `CranCluster::run_fed` node or the benchmark's
//! own receive loop on the other end. A trial builds everything afresh
//! (pool, connection, cluster), so set-up is measured once per trial.

use crate::inputs::{self, PoolEntry, CADENCE};
use crate::probe::{
    paced_send, process_cpu, thread_cpu, us, LiveSpan, Planned, RecvStamp, SendStamp, StampRx,
};
use crate::trace::Tracer;
use rtopex_phy::Cf32;
use rtopex_runtime::affinity::{num_cpus, pin_current_thread};
use rtopex_runtime::{CranCluster, FedReport, SchedulerMode};
use rtopex_transport::{
    inproc_pair, FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use rtopex_transport_net::{TcpFronthaulTx, TcpRxPending, UdpFronthaulTx, UdpRxPending};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    Inproc,
    Udp,
    Tcp,
}

/// What distinguishes the live workloads from one another.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    pub transport: Transport,
    /// `Some`: a one-cell node in this mode consumes the stream.
    /// `None`: two cells alternate into the benchmark's own receive loop.
    pub node: Option<SchedulerMode>,
    pub mcs_pool: &'static [u8],
}

pub fn spec(workload: &str) -> Option<LiveSpec> {
    let (transport, node, mcs_pool) = match workload {
        "node_udp_steal_mix" => (
            Transport::Udp,
            Some(SchedulerMode::RtOpexSteal),
            inputs::MIX_POOL,
        ),
        "node_inproc_part_qpsk" => (
            Transport::Inproc,
            Some(SchedulerMode::Partitioned),
            inputs::QPSK_POOL,
        ),
        "fh_udp_paced" => (Transport::Udp, None, inputs::QPSK_POOL),
        "fh_tcp_paced" => (Transport::Tcp, None, inputs::QPSK_POOL),
        _ => return None,
    };
    Some(LiveSpec {
        transport,
        node,
        mcs_pool,
    })
}

impl LiveSpec {
    pub fn cells(&self) -> usize {
        if self.node.is_some() {
            1
        } else {
            2
        }
    }

    /// Whether the workload's threads block between subframes and so let
    /// their CPUs go idle (steal-mode workers yield-spin instead).
    fn parks(&self) -> bool {
        self.node != Some(SchedulerMode::RtOpexSteal)
    }
}

/// Where the benchmark's own threads run. Left to float, they change CPU
/// between trials, and on a shared host the CPUs are not equally fast: the
/// placement would decide the numbers. The receiver's I/O thread inherits
/// its CPU from the thread that accepts the connection. (A node's workers
/// pin themselves, one per core from 0.)
pub const SENDER_CPU: usize = 1;
pub const RECEIVER_CPU: usize = 0;

/// Ready-queue depth of every transport: far above what a consumer that
/// keeps the cadence ever holds, so a ring drop means it fell behind.
const QUEUE_DEPTH: usize = 128;

type Link = (Box<dyn FronthaulTx>, Box<dyn FronthaulRx>);

/// Runs `accept` on a thread pinned to the receiver's CPU while this
/// thread connects to it.
fn handshake<T, R>(
    accept: impl FnOnce() -> Result<R, TransportError> + Send,
    connect: impl FnOnce() -> Result<T, TransportError>,
) -> Result<Link, String>
where
    T: FronthaulTx + 'static,
    R: FronthaulRx + Send + 'static,
{
    std::thread::scope(|s| {
        let rx = s.spawn(move || {
            pin_current_thread(RECEIVER_CPU);
            accept()
        });
        let tx = connect();
        let rx = rx.join().expect("accept thread does not panic");
        let link: Link = (
            Box::new(tx.map_err(|e| e.to_string())?),
            Box::new(rx.map_err(|e| e.to_string())?),
        );
        Ok(link)
    })
}

fn connect(transport: Transport, params: StreamParams) -> Result<Link, String> {
    let accept_for = Duration::from_secs(10);
    let err = |e: TransportError| e.to_string();
    match transport {
        Transport::Inproc => {
            let (tx, rx) = inproc_pair(params, QUEUE_DEPTH);
            Ok((Box::new(tx), Box::new(rx)))
        }
        Transport::Udp => {
            let pending = UdpRxPending::bind("127.0.0.1:0").map_err(err)?;
            let addr = pending.local_addr().map_err(err)?;
            handshake(
                move || pending.accept(accept_for, QUEUE_DEPTH),
                || UdpFronthaulTx::connect(addr, params),
            )
        }
        Transport::Tcp => {
            let pending = TcpRxPending::bind("127.0.0.1:0").map_err(err)?;
            let addr = pending.local_addr().map_err(err)?;
            handshake(
                move || pending.accept(accept_for, QUEUE_DEPTH),
                || TcpFronthaulTx::connect(addr, params),
            )
        }
    }
}

/// The benchmark's own consumer for the fronthaul-only workloads. Returns
/// the CPU time it used, which is the benchmark's and not the fronthaul's.
fn drain(rx: &mut dyn FronthaulRx) -> Duration {
    let cpu0 = thread_cpu();
    let mut buf = SubframeBuf::for_stream(rx.params());
    let mut quiet = 0;
    // A lost UDP bye leaves the stream open; two silent seconds end it.
    while quiet < 20 {
        match rx.recv_into(&mut buf, Duration::from_millis(100)) {
            Ok(Recv::Subframe) => quiet = 0,
            Ok(Recv::TimedOut) => quiet += 1,
            Ok(Recv::Closed) | Err(_) => break,
        }
    }
    thread_cpu() - cpu0
}

/// What the keep-awake threads are to do.
const WARM_UP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// Yields in a loop on `cpu` until told to stop, so that the CPU never
/// goes idle, and adds the CPU time this took while measuring to `burnt`.
///
/// A guest CPU that halts between subframes is woken through the
/// hypervisor, at a cost that is several times the work being timed and
/// switches between two levels for seconds at a time. With every CPU
/// always runnable — which steal-mode workers do by themselves — a wake-up
/// is one pass through the guest's scheduler. A real-time host gets the
/// same from `idle=poll`; the benchmark cannot set that, so it does this.
fn keep_awake(cpu: usize, phase: &AtomicU8, burnt: &AtomicU64) {
    pin_current_thread(cpu);
    while phase.load(Ordering::Relaxed) == WARM_UP {
        std::thread::yield_now();
    }
    let cpu0 = thread_cpu();
    while phase.load(Ordering::Relaxed) == MEASURE {
        std::thread::yield_now();
    }
    burnt.fetch_add((thread_cpu() - cpu0).as_nanos() as u64, Ordering::Relaxed);
}

/// Ends the keep-awake threads on every way out of a trial, a panic
/// included: a scope that waits for them would otherwise never return.
struct StopOnDrop<'a>(&'a AtomicU8);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(STOP, Ordering::Relaxed);
    }
}

/// What the sender transmits in one trial: cells interleaved, a node's
/// MCS per subframe from its tower trace, the fronthaul-only workloads'
/// from the single pool entry.
pub fn schedule(spec: &LiveSpec, seed: u64, subframes: usize) -> Vec<Planned> {
    let pool_of = match spec.node {
        Some(mode) => inputs::mcs_plan(&inputs::node_config(seed, mode, spec.mcs_pool, subframes)),
        None => vec![0; subframes],
    };
    let cells = spec.cells();
    pool_of
        .iter()
        .enumerate()
        .map(|(i, &pool)| Planned {
            cell: (i % cells) as u16,
            seq: (i / cells) as u32,
            pool,
        })
        .collect()
}

/// Everything one trial observed, still as raw stamps.
pub struct LiveTrial {
    pub traced: bool,
    pub started: Instant,
    /// Trial start → the consumer's first `recv_into` call.
    pub setup_s: f64,
    /// `run_fed` call → its first `recv_into` call (node workloads).
    pub calibrate_s: f64,
    pub plan: Vec<Planned>,
    pub pool: Vec<PoolEntry>,
    pub sends: Vec<SendStamp>,
    pub recvs: Vec<RecvStamp>,
    pub spans: Vec<LiveSpan>,
    pub consumer: (Instant, Instant),
    pub cpu_us_per_sf: f64,
    pub corrupt: u64,
    pub rx: RxStats,
    pub fed: Option<FedReport>,
}

pub fn trial(
    spec: &LiveSpec,
    seed: u64,
    subframes: usize,
    traced: bool,
) -> Result<LiveTrial, String> {
    pin_current_thread(SENDER_CPU);
    let started = Instant::now();
    let pool = inputs::build_pool(seed, spec.mcs_pool);
    let cluster = spec
        .node
        .map(|mode| CranCluster::new(inputs::node_config(seed, mode, spec.mcs_pool, subframes)));
    let plan = schedule(spec, seed, subframes);
    let cells = spec.cells();
    let budget = cluster.as_ref().map_or(CADENCE, |c| c.config().budget());
    let params = inputs::stream_params(cells, spec.mcs_pool, budget);
    let (mut tx, rx) = connect(spec.transport, params)?;

    let reference: Vec<(u8, &[Vec<Cf32>])> = pool
        .iter()
        .map(|p| (p.mcs, p.delivered.as_slice()))
        .collect();
    let to_send: Vec<(u8, &[Vec<Cf32>])> =
        pool.iter().map(|p| (p.mcs, p.samples.as_slice())).collect();
    let (mut rx, first_call) = StampRx::new(rx, &reference, plan.len(), traced);
    let delivered = rx.delivered.clone();

    let phase = AtomicU8::new(WARM_UP);
    // CPU time that is the benchmark's own: keep-awake threads, consumer.
    let own_cpu = AtomicU64::new(0);
    let (consumer, ready_at, cpu, sent) = std::thread::scope(|s| {
        let _stop = StopOnDrop(&phase);
        if spec.parks() {
            for cpu in 0..num_cpus() {
                let (phase, own_cpu) = (&phase, &own_cpu);
                s.spawn(move || keep_awake(cpu, phase, own_cpu));
            }
        }
        let rx = &mut rx;
        let (cluster, own_cpu) = (&cluster, &own_cpu);
        let consumer = s.spawn(move || {
            pin_current_thread(RECEIVER_CPU);
            let called = Instant::now();
            let fed = match cluster {
                Some(c) => Some(c.run_fed(rx)),
                None => {
                    own_cpu.fetch_add(drain(rx).as_nanos() as u64, Ordering::Relaxed);
                    None
                }
            };
            (called, Instant::now(), fed)
        });
        let ready_at = first_call.recv_timeout(Duration::from_secs(60));
        phase.store(MEASURE, Ordering::Relaxed);
        let cpu0 = process_cpu();
        let sent = match ready_at {
            Ok(_) => paced_send(
                tx.as_mut(),
                &plan,
                &to_send,
                Instant::now() + CADENCE,
                CADENCE,
                &delivered,
                traced,
            )
            .map_err(|e| e.to_string()),
            Err(_) => Err("consumer never called recv_into".to_string()),
        };
        // Dropping the sender closes the stream even after a failed send,
        // so the consumer always ends.
        drop(tx);
        let consumer = consumer.join().expect("consumer thread does not panic");
        (consumer, ready_at, process_cpu() - cpu0, sent)
    });
    let cpu = cpu.saturating_sub(Duration::from_nanos(own_cpu.into_inner()));
    let (sends, mut spans) = sent?;
    let ready_at = ready_at.expect("a successful send implies a ready consumer");
    let (called, returned, fed) = consumer;
    let stats = rx.stats();
    let StampRx {
        stamps,
        spans: rx_spans,
        corrupt,
        ..
    } = rx;
    spans.extend(rx_spans.unwrap_or_default());
    drop((reference, to_send));
    Ok(LiveTrial {
        traced,
        started,
        setup_s: (ready_at - started).as_secs_f64(),
        calibrate_s: (ready_at - called).as_secs_f64(),
        cpu_us_per_sf: us(cpu) / plan.len() as f64,
        plan,
        sends,
        recvs: stamps,
        spans,
        consumer: (called, returned),
        corrupt,
        rx: stats,
        fed,
        pool,
    })
}

impl LiveTrial {
    fn index_of(&self, r: &RecvStamp, cells: usize) -> usize {
        r.seq as usize * cells + r.cell as usize
    }

    /// Due time → `recv_into` returned, µs, per delivered subframe.
    pub fn handoff_us(&self, cells: usize) -> Vec<f64> {
        self.recvs
            .iter()
            .filter_map(|r| {
                let sent = self.sends.get(self.index_of(r, cells))?;
                Some(us(r.returned.saturating_duration_since(sent.due)))
            })
            .collect()
    }

    /// How late the generator began each send, µs.
    pub fn late_us(&self) -> Vec<f64> {
        self.sends.iter().map(|s| us(s.start - s.due)).collect()
    }

    /// Durations, µs, of the live spans called `name`.
    pub fn span_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end.saturating_duration_since(s.start)))
            .collect()
    }

    /// Operations that did not end well with what became of them, and
    /// conservation violations. A lost datagram fails an operation; books
    /// that do not balance mean the run is wrong.
    pub fn account(&self, spec: &LiveSpec) -> (u64, String, Vec<String>) {
        let sent = self.sends.len() as u64;
        let received = self.recvs.len() as u64;
        let mut wrong = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                wrong.push(what);
            }
        };
        let rx = self.rx;
        check(
            self.corrupt == 0,
            format!(
                "{} delivered buffers differ from the quantized reference",
                self.corrupt
            ),
        );
        check(
            rx.bad_frames == 0 && rx.stale == 0,
            format!(
                "receiver saw {} bad and {} stale frames",
                rx.bad_frames, rx.stale
            ),
        );
        // sent = delivered + gaps + drops; losses after the last delivery
        // leave no gap behind, so the books may run short by that tail.
        let lost = sent.saturating_sub(received);
        let accounted = match spec.transport {
            // In process a ring drop is also seen as a sequence gap.
            Transport::Inproc => rx.drops,
            Transport::Udp | Transport::Tcp => rx.gaps + rx.drops,
        };
        check(
            received <= sent && accounted <= lost,
            format!(
                "sent {sent} != received {received} + gaps {} + drops {}",
                rx.gaps, rx.drops
            ),
        );
        check(
            spec.transport == Transport::Udp || lost == 0,
            format!("a lossless transport lost {lost} subframes"),
        );
        let mut failed = lost + self.corrupt;
        let mut became = format!("{lost} not delivered, {} corrupt", self.corrupt);
        if let Some(fed) = &self.fed {
            let c = &fed.cluster;
            // delivered = verdicts + shed (shed and slack drops are both
            // in `dropped`), and every delivery got a deadline outcome.
            check(
                received == c.proc_us.len() as u64 + c.dropped
                    && received == c.deadline.total_subframes(),
                format!(
                    "delivered {received} != verdicts {} + dropped {} (outcomes {})",
                    c.proc_us.len(),
                    c.dropped,
                    c.deadline.total_subframes()
                ),
            );
            let missed = c.deadline.overall().missed;
            failed += missed + c.crc_failures;
            became += &format!(
                ", {missed} missed the deadline ({} of them shed, {} dropped for slack), \
                 {} failed the CRC",
                fed.shed,
                c.dropped.saturating_sub(fed.shed),
                c.crc_failures
            );
        }
        (failed, became, wrong)
    }

    /// Links this trial's live spans into `tracer`: a `fronthaul.handoff`
    /// span per delivered subframe (due → delivered) with the generator's
    /// wait and the send call as children, the consumer's waits beside it.
    pub fn link_spans(&self, tracer: &mut Tracer, cells: usize, first_subframe: u32) {
        let consumer = if self.fed.is_some() {
            "node.run_fed"
        } else {
            "rx.loop"
        };
        let root = tracer.record("trial", None, None, self.started, self.consumer.1);
        tracer.record(
            "trial.setup",
            Some(root),
            None,
            self.started,
            self.started + Duration::from_secs_f64(self.setup_s),
        );
        let run = tracer.record(consumer, Some(root), None, self.consumer.0, self.consumer.1);
        let mut handoff = vec![None; self.sends.len()];
        for r in &self.recvs {
            let i = self.index_of(r, cells);
            if let Some(sent) = self.sends.get(i) {
                handoff[i] = Some(tracer.record(
                    "fronthaul.handoff",
                    Some(root),
                    Some(first_subframe + i as u32),
                    sent.due,
                    r.returned,
                ));
            }
        }
        for s in &self.spans {
            let sf = Some(first_subframe + s.index as u32);
            let parent = match s.name {
                "rx.recv_wait" => Some(run),
                _ => handoff.get(s.index).copied().flatten(),
            };
            tracer.record(s.name, parent, sf, s.start, s.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_follows_the_seed_and_interleaves_cells() {
        let mix = spec("node_udp_steal_mix").unwrap();
        assert_eq!(schedule(&mix, 9, 300), schedule(&mix, 9, 300));
        assert_ne!(schedule(&mix, 9, 300), schedule(&mix, 10, 300));
        let seqs: Vec<u32> = schedule(&mix, 9, 300).iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..300).collect::<Vec<u32>>());

        let fh = spec("fh_udp_paced").unwrap();
        let plan = schedule(&fh, 9, 6);
        let order: Vec<(u16, u32)> = plan.iter().map(|p| (p.cell, p.seq)).collect();
        assert_eq!(order, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        assert!(spec("sim_rtopex").is_none());
    }
}
