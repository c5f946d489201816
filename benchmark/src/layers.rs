//! Per-layer measurements of a traced run, layer = crate: the workload's
//! own subframes replayed single-threaded through each layer's public
//! functions, one span per call, plus timing loops for the calls too short
//! to span (deque, sequence tracker, wheel). Runs after the live trials.

use crate::inputs::{PoolEntry, ANTENNAS, BANDWIDTH, SIM_CELLS};
use crate::probe::Planned;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtopex_core::migration::plan_migration_into;
use rtopex_core::steal::{steal_pair, Steal};
use rtopex_core::time::Nanos;
use rtopex_model::tasks::TaskTimeModel;
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::uplink::{DecodeBatchScratch, JobSlab};
use rtopex_runtime::{measure_migration_overhead, measure_steal_overhead};
use rtopex_sim::event::EventKind;
use rtopex_sim::gen::TaskStream;
use rtopex_sim::wheel::TimingWheel;
use rtopex_sim::SimConfig;
use rtopex_transport::packet::SeqTracker;
use rtopex_transport::{StreamParams, SubframeBuf};
use rtopex_transport_net::ring::Pop;
use rtopex_transport_net::{wire, RxSession, SwapQueue};
use rtopex_workload::{load_to_mcs, LoadTrace, TraceParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Subframes replayed per layer: enough for a stable median, short
/// enough that the traced run stays near the untraced one's length.
pub const REPLAY_SUBFRAMES: usize = 400;

/// Exact counts from the PHY replay.
#[derive(Default, Debug)]
pub struct PhyCounts {
    pub subframes: u64,
    pub code_blocks: u64,
    pub turbo_iters: u64,
    pub crc_fail: u64,
    /// Decodes whose payload was not the one that was encoded.
    pub wrong_payload: u64,
}

/// Replays `plan` through the staged PHY the way a worker runs it, one
/// span per public call and one child per code block, then once more with
/// the batched decode drain. Span `i` carries subframe id `i`: the replay
/// is of trial 0, whose live spans count from 0 too.
pub fn replay_phy(tracer: &mut Tracer, pool: &[PoolEntry], plan: &[Planned]) -> PhyCounts {
    let mut slab = JobSlab::new();
    let mut scratch = DecodeBatchScratch::new();
    for p in pool {
        slab.warm(p.rx.config());
        scratch.warm(p.rx.config());
    }
    let mut counts = PhyCounts::default();
    for (i, planned) in plan.iter().take(REPLAY_SUBFRAMES).enumerate() {
        let sf = Some(i as u32);
        let entry = &pool[planned.pool];
        // The node decodes what the wire delivered, not what was sent.
        let samples = &entry.delivered;

        let root = tracer.open("phy.subframe", None, sf);
        let slab_ref = &mut slab;
        let mut job = tracer.call("phy.start_job", Some(root), sf, move || {
            entry
                .rx
                .start_job_in(samples, slab_ref)
                .expect("pool geometry")
        });
        tracer.call("phy.fft", Some(root), sf, || {
            for antenna in 0..samples.len() {
                job.run_fft_batch_local(antenna);
            }
            job.finish_fft();
        });
        tracer.call("phy.demod", Some(root), sf, || {
            for s in 0..job.demod_subtask_count() {
                job.run_demod_subtask_local(s);
            }
        });
        let decode = tracer.open("phy.decode", Some(root), sf);
        let blocks = job.decode_subtask_count();
        for r in 0..blocks {
            tracer.call("phy.decode.block", Some(decode), sf, || {
                job.run_decode_subtask_local(r)
            });
        }
        tracer.close(decode);
        let verdict = tracer.call("phy.finish", Some(root), sf, || job.finish());
        tracer.close(root);

        counts.subframes += 1;
        counts.code_blocks += blocks as u64;
        counts.turbo_iters += slab.block_iterations().iter().sum::<usize>() as u64;
        let ok = verdict.is_ok_and(|v| v.crc_ok) && slab.block_crc_ok().iter().all(|&c| c);
        counts.crc_fail += u64::from(!ok);
        counts.wrong_payload += u64::from(slab.payload() != entry.payload.as_slice());

        // Same subframe, decode stage through the batched same-K kernel.
        let mut job = entry
            .rx
            .start_job_in(samples, &mut slab)
            .expect("pool geometry");
        for antenna in 0..samples.len() {
            job.run_fft_batch_local(antenna);
        }
        job.finish_fft();
        for s in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(s);
        }
        tracer.call("phy.decode_batch", None, sf, || {
            job.run_decode_batch_local(u64::MAX >> (64 - blocks), &mut scratch)
        });
        let batched = job.finish();
        counts.crc_fail += u64::from(!batched.is_ok_and(|v| v.crc_ok));
        counts.wrong_payload += u64::from(slab.payload() != entry.payload.as_slice());
    }
    counts
}

/// Exact counts from the wire replay.
#[derive(Default, Debug)]
pub struct WireCounts {
    pub subframes: u64,
    pub frames: u64,
    pub bytes: u64,
    /// Subframes that did not come out of the ring bit-equal to the
    /// quantized reference.
    pub wrong: u64,
    pub bad_frames: u64,
}

/// Replays `plan` through the byte transports' shared layers: frame
/// writing, parsing, session reassembly and the ring hand-off.
pub fn replay_wire(
    tracer: &mut Tracer,
    params: &StreamParams,
    pool: &[PoolEntry],
    plan: &[Planned],
) -> WireCounts {
    let fragments = wire::fragments_for(params.samples_per_subframe as usize);
    let queue = Arc::new(SwapQueue::new(params, 8, 4));
    let mut session = RxSession::new(params.clone(), Arc::clone(&queue));
    let mut frames = vec![vec![0u8; wire::MAX_IQ_FRAME]; fragments * ANTENNAS];
    let mut lens = vec![0usize; frames.len()];
    let mut buf = SubframeBuf::for_stream(params);
    let mut counts = WireCounts::default();
    for (i, planned) in plan.iter().take(REPLAY_SUBFRAMES).enumerate() {
        let sf = Some(i as u32);
        let entry = &pool[planned.pool];
        tracer.call("wire.write", None, sf, || {
            let mut f = 0;
            for (antenna, samples) in entry.samples.iter().enumerate() {
                for (fragment, chunk) in samples.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                    lens[f] = wire::write_iq_frame(
                        &mut frames[f],
                        entry.mcs,
                        planned.cell,
                        antenna as u8,
                        fragment as u8,
                        fragments as u16,
                        planned.seq,
                        chunk,
                    );
                    f += 1;
                }
            }
        });
        tracer.call("wire.parse", None, sf, || {
            for (frame, &len) in frames.iter().zip(&lens) {
                black_box(wire::parse_iq(&frame[..len]));
            }
        });
        tracer.call("session.ingest", None, sf, || {
            for (frame, &len) in frames.iter().zip(&lens) {
                session.ingest_frame(&frame[..len]);
            }
        });
        let popped = tracer.call("ring.pop", None, sf, || {
            queue.pop_swap(&mut buf, Duration::ZERO)
        });
        counts.subframes += 1;
        counts.frames += frames.len() as u64;
        counts.bytes += lens.iter().sum::<usize>() as u64;
        let intact = popped == Pop::Got
            && (buf.cell, buf.seq, buf.mcs) == (planned.cell, planned.seq, entry.mcs)
            && buf.samples == entry.delivered;
        counts.wrong += u64::from(!intact);
    }
    counts.bad_frames = session.stats().bad_frames;
    counts
}

/// `SubframeBuf::fill_quantized`, the in-process transport's copy.
pub fn replay_quantize(
    tracer: &mut Tracer,
    params: &StreamParams,
    pool: &[PoolEntry],
    plan: &[Planned],
) {
    let mut buf = SubframeBuf::for_stream(params);
    for (i, planned) in plan.iter().take(REPLAY_SUBFRAMES).enumerate() {
        let entry = &pool[planned.pool];
        tracer.call("transport.quantize", None, Some(i as u32), || {
            buf.fill_quantized(planned.cell, planned.seq, entry.mcs, &entry.samples)
        });
        black_box(&buf);
    }
}

/// Mean ns per call of `f` over `iters` calls, median of five rounds.
fn ns_per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    crate::stats::median(&rounds)
}

pub fn seq_observe_ns() -> f64 {
    let mut tracker = SeqTracker::new();
    ns_per_call(1_000_000, |i| {
        black_box(tracker.observe(black_box(i)));
    })
}

/// ns per `(push + pop, push + steal)` round on one Chase–Lev deque.
pub fn steal_ns() -> (f64, f64) {
    let (mut worker, stealer) = steal_pair(64);
    let push_pop = ns_per_call(1_000_000, |i| {
        worker.push(u64::from(i)).expect("deque has room");
        black_box(worker.pop());
    });
    let push_steal = ns_per_call(1_000_000, |i| {
        worker.push(u64::from(i)).expect("deque has room");
        assert!(matches!(stealer.steal(), Steal::Taken(_)));
    });
    (push_pop, push_steal)
}

/// Algorithm 1 on a 6-block decode stage with one idle core.
pub fn plan_migration_ns() -> f64 {
    let mut assignments = Vec::with_capacity(8);
    let free = [(1usize, Nanos::from_us(400))];
    ns_per_call(1_000_000, |i| {
        black_box(plan_migration_into(
            black_box(6),
            Nanos::from_us(80 + u64::from(i & 7)),
            Nanos::from_us(20),
            &free,
            &mut assignments,
        ));
    })
}

/// Steal-path and mailbox-path δ (µs) at 5 MHz, MCS 16:
/// `(steal fft, steal decode, mailbox decode)`. The measuring functions
/// pin their caller, so they run on a thread of their own.
pub fn migration_deltas_us() -> (f64, f64, f64) {
    const TRIALS: usize = 40;
    const MCS: u8 = 16;
    std::thread::scope(|s| {
        s.spawn(|| {
            let steal = |task| measure_steal_overhead(BANDWIDTH, ANTENNAS, MCS, task, TRIALS);
            (
                steal(TaskKind::Fft).delta_us,
                steal(TaskKind::Decode).delta_us,
                measure_migration_overhead(BANDWIDTH, ANTENNAS, MCS, TaskKind::Decode, TRIALS)
                    .delta_us,
            )
        })
        .join()
        .expect("measurement thread does not panic")
    })
}

/// ns to draw one subframe's load from the tower trace and map it to an MCS.
pub fn trace_ns_per_sf(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = LoadTrace::new(TraceParams::tower(0));
    ns_per_call(1_000_000, |_| {
        black_box(load_to_mcs(trace.next_load(&mut rng)));
    })
}

pub fn task_time_ns() -> f64 {
    let model = TaskTimeModel::paper_gpp();
    ns_per_call(1_000_000, |i| {
        black_box(model.subframe_total(ANTENNAS, 2 + 2 * (i as usize % 3), 0.5, 2.0));
    })
}

/// ns per push + pop on the timing wheel with a subframe's worth of
/// pending events per cell.
pub fn wheel_push_pop_ns() -> f64 {
    let mut wheel = TimingWheel::new();
    let mut now = 0u64;
    for bs in 0..SIM_CELLS {
        wheel.push(
            Nanos(now + bs as u64 * 1_000),
            EventKind::Release { bs, index: 0 },
        );
    }
    ns_per_call(1_000_000, |i| {
        let (at, _) = wheel.pop().expect("wheel stays primed");
        now = at.0;
        wheel.push(
            Nanos(now + 1_000_000),
            EventKind::Release {
                bs: i as usize % SIM_CELLS,
                index: u64::from(i),
            },
        );
    })
}

/// ns per generated subframe task of the streaming workload generator.
pub fn gen_task_ns(cfg: &SimConfig) -> f64 {
    let mut cfg = cfg.clone();
    cfg.subframes = usize::MAX;
    let mut stream = TaskStream::new(&cfg, 0);
    ns_per_call(200_000, |_| {
        black_box(stream.next_task());
    })
}
