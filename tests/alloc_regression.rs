//! Guards the staged decode's two hot-path guarantees:
//!
//! 1. **Zero steady-state allocations** — after one warm-up subframe (or
//!    an explicit [`JobSlab::warm`] and `PhyWorkspace::warm`), a
//!    `SlabJob` on a reused slab performs no heap allocation at all,
//!    whether its subtasks all run locally (`SlabJob::run_local`) or some
//!    are migrated and absorbed, and also when consecutive subframes use
//!    different configurations; `UplinkRx::decode_subframe` allocates
//!    only its owned `RxOutput`. Measured by a counting global allocator.
//! 2. **No stale state** — one slab reused across random consecutive
//!    configurations decodes exactly as a fresh slab per subframe does:
//!    same payload, CRCs and per-block iteration counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::uplink::{BlockBuf, JobSlab, UplinkConfig, UplinkRx, UplinkTx};
use rtopex::phy::workspace::with_thread_workspace;
use rtopex::phy::Cf32;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting allocations made by the *current
/// thread* while that thread's counter is armed. Per-thread counting keeps
/// the measurement immune to the test harness's other threads.
struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with` so allocations during TLS teardown never panic.
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

/// Runs `f` with this thread's allocation counter armed; returns
/// (result, allocations made by `f`).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOC_COUNT.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOC_COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (r, n)
}

/// Builds an encoded, channel-impaired subframe for the configuration.
fn make_subframe(cfg: &UplinkConfig, snr_db: f64, seed: u64) -> (Vec<u8>, Vec<Vec<Cf32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tx = UplinkTx::new(cfg.clone());
    let payload: Vec<u8> = (0..cfg.transport_block_bytes())
        .map(|_| rng.gen())
        .collect();
    let sf = tx.encode_subframe(&payload).expect("encode");
    let mut chan = AwgnChannel::new(snr_db);
    let samples = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
    (payload, samples)
}

/// The owned allocations of one `decode_subframe` call: its `RxOutput`'s
/// payload, per-block CRCs and per-block iteration counts.
const RX_OUTPUT_ALLOCS: u64 = 3;

/// One subframe on one thread, every subtask local. Returns the
/// transport-block CRC verdict.
fn local_round(rx: &UplinkRx, samples: &[Vec<Cf32>], slab: &mut JobSlab) -> bool {
    let job = rx.start_job_in(samples, slab).expect("job");
    job.run_local().expect("decode").crc_ok
}

#[test]
fn steady_state_decode_makes_zero_allocations() {
    // Multi-block configuration: 5 MHz, 2 antennas, MCS 20 exercises every
    // stage buffer including per-block reuse of the turbo workspace.
    let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
    assert!(cfg.segmentation().num_blocks >= 2, "want multi-block");
    let (_, samples) = make_subframe(&cfg, 28.0, 0xA110C);

    let rx = UplinkRx::new(cfg.clone());
    with_thread_workspace(|ws| ws.warm(&cfg));
    let mut slab = JobSlab::new();
    slab.warm(&cfg);
    // One warm-up decode settles anything `warm` cannot size exactly.
    assert!(
        local_round(&rx, &samples, &mut slab),
        "test vector must decode cleanly"
    );
    rx.decode_subframe(&samples).expect("decode");

    let (crc_ok, allocs) = count_allocs(|| {
        let mut all_ok = true;
        for _ in 0..5 {
            all_ok &= local_round(&rx, &samples, &mut slab);
        }
        all_ok
    });
    assert!(crc_ok);
    assert_eq!(allocs, 0, "steady-state run_local must not touch the heap");

    let (out, allocs) = count_allocs(|| rx.decode_subframe(&samples).expect("decode"));
    assert!(out.crc_ok);
    assert_eq!(
        allocs, RX_OUTPUT_ALLOCS,
        "steady-state decode_subframe may allocate only its RxOutput"
    );
}

#[test]
fn warm_start_decode_makes_zero_allocations_across_configs() {
    // A slab warmed for the largest configuration must stay
    // allocation-free when subframes alternate between configurations.
    let big = UplinkConfig::new(Bandwidth::Mhz5, 2, 24).unwrap();
    let small = UplinkConfig::new(Bandwidth::Mhz5, 2, 7).unwrap();
    let (_, big_samples) = make_subframe(&big, 30.0, 1);
    let (_, small_samples) = make_subframe(&small, 30.0, 2);
    let big_rx = UplinkRx::new(big.clone());
    let small_rx = UplinkRx::new(small.clone());

    let mut slab = JobSlab::new();
    for cfg in [&big, &small] {
        with_thread_workspace(|ws| ws.warm(cfg));
        slab.warm(cfg);
    }
    // Warm-up pass per configuration, for the caller's slab and for the
    // thread's own one behind `decode_subframe`.
    for (rx, samples) in [(&big_rx, &big_samples), (&small_rx, &small_samples)] {
        local_round(rx, samples, &mut slab);
        rx.decode_subframe(samples).unwrap();
    }

    let (_, allocs) = count_allocs(|| {
        for _ in 0..3 {
            local_round(&big_rx, &big_samples, &mut slab);
            local_round(&small_rx, &small_samples, &mut slab);
        }
    });
    assert_eq!(allocs, 0, "alternating configs must reuse warmed buffers");

    let (_, allocs) = count_allocs(|| {
        for _ in 0..3 {
            big_rx.decode_subframe(&big_samples).unwrap();
            small_rx.decode_subframe(&small_samples).unwrap();
        }
    });
    assert_eq!(
        allocs,
        6 * RX_OUTPUT_ALLOCS,
        "alternating configs must reuse the thread's slab"
    );
}

/// One subframe through the cluster's staged slab path, with antenna 0
/// and code block 0 taking the "migrated" route: kernels execute into
/// preallocated slot buffers (as a thief would) and the owner absorbs
/// them. Returns the transport-block CRC verdict.
fn slab_round(
    rx: &UplinkRx,
    samples: &[Vec<Cf32>],
    slab: &mut JobSlab,
    fft_slot: &mut Vec<Cf32>,
    dec_slot: &mut BlockBuf,
) -> bool {
    let mut job = rx.start_job_in(samples, slab).expect("job");
    rx.run_fft_batch_into(samples, 0, fft_slot);
    job.absorb_fft_batch(0, fft_slot);
    for b in 1..samples.len() {
        job.run_fft_batch_local(b);
    }
    job.finish_fft();
    for i in 0..job.demod_subtask_count() {
        job.run_demod_subtask_local(i);
    }
    let blocks = job.decode_subtask_count();
    let (iterations, crc_ok) = rx.run_decode_subtask_into(job.coded_llrs(), 0, &mut dec_slot.bits);
    dec_slot.iterations = iterations;
    dec_slot.crc_ok = crc_ok;
    job.absorb_decode_buf(0, dec_slot);
    for r in 1..blocks {
        job.run_decode_subtask_local(r);
    }
    job.finish().expect("finish").crc_ok
}

#[test]
fn staged_slab_path_makes_zero_allocations() {
    // The cluster node's per-subframe path: slab job + arena-style slot
    // buffers. After warming (and one settling round) the whole staged
    // pipeline — including the migrated-and-absorbed subtasks — must not
    // touch the heap.
    let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
    assert!(cfg.segmentation().num_blocks >= 2, "want multi-block");
    let (_, samples) = make_subframe(&cfg, 28.0, 0x51AB);
    let rx = UplinkRx::new(cfg.clone());

    with_thread_workspace(|ws| ws.warm(&cfg));
    let mut slab = JobSlab::new();
    slab.warm(&cfg);
    let mut fft_slot: Vec<Cf32> = Vec::with_capacity(14 * cfg.bandwidth.num_subcarriers());
    let mut dec_slot = BlockBuf::new();
    dec_slot.warm(&cfg);
    let warm = slab_round(&rx, &samples, &mut slab, &mut fft_slot, &mut dec_slot);
    assert!(warm, "test vector must decode cleanly");

    let (crc_ok, allocs) = count_allocs(|| {
        let mut all_ok = true;
        for _ in 0..5 {
            all_ok &= slab_round(&rx, &samples, &mut slab, &mut fft_slot, &mut dec_slot);
        }
        all_ok
    });
    assert!(crc_ok);
    assert_eq!(
        allocs, 0,
        "steady-state staged slab path must not touch the heap"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One slab reused across three random consecutive configurations
    /// (bandwidth, antennas, MCS), with antenna 0 and code block 0
    /// migrated and absorbed, decodes every subframe exactly as a fresh
    /// slab running the whole job locally does: same payload, CRCs and
    /// per-block iteration counts. A buffer that kept a previous
    /// configuration's contents would show here.
    #[test]
    fn reused_slab_equals_a_fresh_slab(
        bws in prop::collection::vec(
            prop::sample::select(vec![Bandwidth::Mhz1_4, Bandwidth::Mhz3]),
            3,
        ),
        ants in prop::collection::vec(1usize..3, 3),
        mcss in prop::collection::vec(0u8..29, 3),
        snr_tenths in 120i64..300,
        seed in 0u64..1_000,
    ) {
        let snr_db = snr_tenths as f64 / 10.0;
        let mut slab = JobSlab::new();
        let (mut fft_slot, mut dec_slot) = (Vec::new(), BlockBuf::new());
        for round in 0..3 {
            let cfg = UplinkConfig::new(bws[round], ants[round], mcss[round]).unwrap();
            let (_, samples) = make_subframe(&cfg, snr_db, seed ^ round as u64);
            let rx = UplinkRx::new(cfg);
            let crc_ok = slab_round(&rx, &samples, &mut slab, &mut fft_slot, &mut dec_slot);
            let mut fresh = JobSlab::new();
            let verdict = rx.start_job_in(&samples, &mut fresh).unwrap().run_local().unwrap();
            prop_assert_eq!(fresh.payload(), slab.payload());
            prop_assert_eq!(verdict.crc_ok, crc_ok);
            prop_assert_eq!(fresh.block_crc_ok(), slab.block_crc_ok());
            prop_assert_eq!(fresh.block_iterations(), slab.block_iterations());
        }
    }
}
