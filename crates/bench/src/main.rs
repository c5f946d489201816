//! `rtopex-bench` — emits `BENCH_kernels.json`, the one tracked baseline
//! `cargo xtask analyze` certifies from.
//!
//! Times the four vectorized PHY kernels (turbo max-log-MAP, soft demapper,
//! MRC equalizer, FFT), whole FFT batches, demod and decode subtasks and
//! the end-to-end MCS 27 subframe decode with a plain `Instant` loop,
//! re-times them at every supported SIMD tier, times the batched turbo
//! drain against per-call dispatch, and measures the two-thread migration
//! hand-off (steal ticket vs. mailbox) per migratable stage. Writes one JSON object with those
//! rows, a machine fingerprint and the git revision. Commit the output at
//! the repository root to refresh the baseline — on a machine with at
//! least two cores, since the analyzer refuses a `"cores": 1` file (the
//! hand-off needs a second core):
//!
//! ```text
//! cargo run --release -p rtopex-bench [OUTPUT.json]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::equalizer::{mrc_combine_into, ChannelEstimate};
use rtopex_phy::fft::FftPlan;
use rtopex_phy::modulation::Modulation;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::simd::{self, SimdTier};
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::turbo::{decode_batch, TurboBatchJob, TurboDecoder, TurboEncoder, TurboWorkspace};
use rtopex_phy::uplink::{JobSlab, UplinkConfig, UplinkRx, UplinkTx};
use rtopex_phy::Cf32;
use rtopex_runtime::measure::{measure_migration_overhead, measure_steal_overhead};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Measured mean for one kernel.
struct Entry {
    name: &'static str,
    size: usize,
    mean_ns: u64,
    iters: u32,
}

/// Runs `f` until roughly `target_ms` of wall clock is spent (after a short
/// warmup) and returns the mean iteration time in nanoseconds.
fn time_kernel<R>(target_ms: u64, mut f: impl FnMut() -> R) -> (u64, u32) {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    // Pilot run to size the batch.
    let t = Instant::now();
    std::hint::black_box(f());
    let pilot_ns = t.elapsed().as_nanos().max(1) as u64;
    let iters = ((target_ms * 1_000_000) / pilot_ns).clamp(5, 10_000) as u32;
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    ((t.elapsed().as_nanos() as u64) / iters as u64, iters)
}

fn bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

fn turbo_entries(out: &mut Vec<Entry>) {
    for k in [512usize, 2048, 6144] {
        let data = bits(k, 1);
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&data);
        let llr =
            |v: &[u8]| -> Vec<f32> { v.iter().map(|&x| 4.0 * (1.0 - 2.0 * x as f32)).collect() };
        let (d0, d1, d2) = (llr(&cw.d0), llr(&cw.d1), llr(&cw.d2));
        let dec = TurboDecoder::with_qpp(enc.qpp().clone());
        let mut ws = TurboWorkspace::new();
        dec.decode_with(&d0, &d1, &d2, 1, |_| false, &mut ws);
        let (mean_ns, iters) = time_kernel(300, || {
            dec.decode_with(&d0, &d1, &d2, 1, |_| false, &mut ws)
        });
        out.push(Entry {
            name: "turbo_decode_1iter",
            size: k,
            mean_ns,
            iters,
        });
    }
}

fn demap_entries(out: &mut Vec<Entry>) {
    for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
        let qm = m.bits_per_symbol();
        let data = bits(600 * qm, 2);
        let syms = m.map(&data);
        let mut llrs = vec![0.0f32; 600 * qm];
        let (mean_ns, iters) = time_kernel(200, || {
            m.demap_maxlog(&syms, 0.05, &mut llrs);
            llrs[0]
        });
        out.push(Entry {
            name: "demap_600sym_qm",
            size: qm,
            mean_ns,
            iters,
        });
    }
}

fn mrc_entries(out: &mut Vec<Entry>) {
    let m = 600usize;
    let nant = 2usize;
    let mut rng = StdRng::seed_from_u64(3);
    let cplx = |rng: &mut StdRng| Cf32::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5);
    let h: Vec<Vec<Cf32>> = (0..nant)
        .map(|_| (0..m).map(|_| cplx(&mut rng)).collect())
        .collect();
    let data: Vec<Vec<Cf32>> = (0..nant)
        .map(|_| (0..m).map(|_| cplx(&mut rng)).collect())
        .collect();
    let est = ChannelEstimate { h, noise_var: 0.05 };
    let rows: Vec<&[Cf32]> = data.iter().map(Vec::as_slice).collect();
    let (mut combined, mut post_var) = (vec![Cf32::ZERO; m], vec![0.0; m]);
    let (mean_ns, iters) = time_kernel(200, || {
        mrc_combine_into(&rows, &est, &mut combined, &mut post_var)
    });
    out.push(Entry {
        name: "mrc_600sc_2ant",
        size: m,
        mean_ns,
        iters,
    });
}

fn fft_entries(out: &mut Vec<Entry>) {
    for n in [128usize, 300, 512, 600, 1024, 1536] {
        let plan = FftPlan::new(n);
        let data: Vec<Cf32> = (0..n).map(|i| Cf32::from_phase(i as f32 * 0.1)).collect();
        let mut buf = data.clone();
        let mut scratch = vec![Cf32::ZERO; n];
        let (mean_ns, iters) = time_kernel(200, || {
            buf.copy_from_slice(&data);
            plan.forward_scratch(&mut buf, &mut scratch);
            buf[0]
        });
        out.push(Entry {
            name: "fft_forward",
            size: n,
            mean_ns,
            iters,
        });
    }
}

/// A random payload of `cfg` encoded and received through AWGN at 30 dB.
fn received_subframe(cfg: &UplinkConfig, seed: u64) -> Vec<Vec<Cf32>> {
    let tx = UplinkTx::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..cfg.transport_block_bytes())
        .map(|_| rng.gen())
        .collect();
    let sf = tx.encode_subframe(&payload).expect("encode");
    let mut chan = AwgnChannel::new(30.0);
    chan.apply(&sf.samples, cfg.num_antennas, &mut rng)
}

/// The FFT and demod stages at 5 MHz, 2 antennas, 30 dB: one antenna's
/// 14-symbol `UplinkRx::run_fft_batch_into`, and one
/// `SlabJob::run_demod_subtask_local` (MRC, de-precoding IDFT, demap into
/// the LLR row) per data symbol, mean over the subframe's symbols. A job
/// runs each subtask once, so every demod pass starts a fresh one and
/// times only its demod stage.
fn front_entries(out: &mut Vec<Entry>) {
    for mcs in [5u8, 15] {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, mcs).expect("config");
        let samples = received_subframe(&cfg, 5);
        let rx = UplinkRx::new(cfg);
        if mcs == 5 {
            let mut batch = Vec::new();
            let (mean_ns, iters) =
                time_kernel(200, || rx.run_fft_batch_into(&samples, 0, &mut batch));
            out.push(Entry {
                name: "fft_batch_5mhz",
                size: rx.config().bandwidth.fft_size(),
                mean_ns,
                iters,
            });
        }
        let mut slab = JobSlab::new();
        let mut pass = || {
            let mut job = rx.start_job_in(&samples, &mut slab).expect("job");
            for a in 0..samples.len() {
                job.run_fft_batch_local(a);
            }
            job.finish_fft();
            let t = Instant::now();
            for i in 0..job.demod_subtask_count() {
                job.run_demod_subtask_local(i);
            }
            t.elapsed()
        };
        for _ in 0..3 {
            pass();
        }
        let (start, mut demod, mut iters) = (Instant::now(), Duration::ZERO, 0u32);
        while start.elapsed() < Duration::from_millis(300) {
            demod += pass();
            iters += 1;
        }
        let symbols = rx.config().data_symbols().len() as u128;
        out.push(Entry {
            name: "demod_subtask_5mhz_mcs",
            size: mcs as usize,
            mean_ns: (demod.as_nanos() / (iters as u128 * symbols)) as u64,
            iters,
        });
    }
}

/// The decode stage per code block at 5 MHz, 2 antennas, 30 dB: one whole
/// `UplinkRx::run_decode_subtask_into` (descramble, de-rate-match, turbo
/// with CRC early stop) per block, mean over the subframe's blocks.
fn decode_entries(out: &mut Vec<Entry>) {
    for mcs in [5u8, 15] {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, mcs).expect("config");
        let samples = received_subframe(&cfg, 5);
        let rx = UplinkRx::new(cfg);
        let mut slab = JobSlab::new();
        let mut job = rx.start_job_in(&samples, &mut slab).expect("job");
        for a in 0..samples.len() {
            job.run_fft_batch_local(a);
        }
        job.finish_fft();
        for i in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(i);
        }
        let (llrs, blocks) = (job.coded_llrs().to_vec(), job.decode_subtask_count());
        let mut bits = Vec::new();
        let (mean_ns, iters) = time_kernel(300, || {
            for r in 0..blocks {
                rx.run_decode_subtask_into(&llrs, r, &mut bits);
            }
        });
        out.push(Entry {
            name: "decode_subtask_5mhz_mcs",
            size: mcs as usize,
            mean_ns: mean_ns / blocks as u64,
            iters,
        });
    }
}

fn subframe_entry(out: &mut Vec<Entry>) {
    // The γ-calibration anchor pass 3 reads (1.4 MHz, 2 antennas, MCS 27).
    let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, 27).expect("config");
    let samples = received_subframe(&cfg, 4);
    let rx = UplinkRx::new(cfg);
    let (mean_ns, iters) = time_kernel(500, || rx.decode_subframe(&samples).expect("decode"));
    out.push(Entry {
        name: "subframe_decode_mhz1_4_mcs",
        size: 27,
        mean_ns,
        iters,
    });
}

/// Per-tier rows: every kernel generator re-run with each supported tier
/// forced, so the committed baseline records what each instruction-set
/// tier buys on this machine (and the scalar reference cost the
/// equivalence tests compare against).
fn tier_entries() -> Vec<(&'static str, Vec<Entry>)> {
    let mut out = Vec::new();
    for tier in simd::supported_tiers() {
        eprintln!("timing kernels at forced tier {}…", tier.name());
        simd::force_tier(Some(tier));
        let mut entries = Vec::new();
        turbo_entries(&mut entries);
        demap_entries(&mut entries);
        fft_entries(&mut entries);
        front_entries(&mut entries);
        decode_entries(&mut entries);
        subframe_entry(&mut entries);
        out.push((tier.name(), entries));
    }
    simd::force_tier(None);
    out
}

/// One batched-vs-per-call turbo measurement.
struct BatchedEntry {
    k: usize,
    batch: usize,
    per_call_ns: u64,
    batched_ns: u64,
    speedup: f64,
}

/// Cross-cell batched dispatch headline: `decode_batch` at the widest
/// detected tier (paired trellises sharing AVX-512 lanes) vs. the same
/// jobs decoded one `decode_with` call at a time on the per-call AVX2
/// path — the best pre-batching configuration. Both sides decode the
/// same four distinct codewords per invocation.
fn batched_entries() -> Vec<BatchedEntry> {
    const BATCH: usize = 4;
    let per_call_tier = if simd::supports(SimdTier::Avx2) {
        SimdTier::Avx2
    } else {
        simd::hardware_tier()
    };
    let mut out = Vec::new();
    for k in [2048usize, 6144] {
        let enc = TurboEncoder::new(k);
        let llr =
            |v: &[u8]| -> Vec<f32> { v.iter().map(|&x| 4.0 * (1.0 - 2.0 * x as f32)).collect() };
        let streams: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..BATCH)
            .map(|i| {
                let cw = enc.encode(&bits(k, 10 + i as u64));
                (llr(&cw.d0), llr(&cw.d1), llr(&cw.d2))
            })
            .collect();
        let dec = TurboDecoder::with_qpp(enc.qpp().clone());
        let mut wss: Vec<TurboWorkspace> = (0..BATCH).map(|_| TurboWorkspace::new()).collect();
        let mut results = vec![(0usize, false); BATCH];

        simd::force_tier(Some(per_call_tier));
        let (per_call_ns, _) = time_kernel(300, || {
            for (s, ws) in streams.iter().zip(wss.iter_mut()) {
                dec.decode_with(&s.0, &s.1, &s.2, 1, |_| false, ws);
            }
        });

        simd::force_tier(None);
        let jobs: Vec<TurboBatchJob> = streams
            .iter()
            .map(|s| TurboBatchJob {
                decoder: &dec,
                d0: &s.0,
                d1: &s.1,
                d2: &s.2,
                max_iters: 1,
            })
            .collect();
        let (batched_ns, _) = time_kernel(300, || {
            decode_batch(&jobs, |_, _| false, &mut wss, &mut results)
        });
        out.push(BatchedEntry {
            k,
            batch: BATCH,
            per_call_ns,
            batched_ns,
            speedup: per_call_ns as f64 / batched_ns as f64,
        });
    }
    out
}

/// Steal-ticket vs. mailbox hand-off for one migratable stage (µs): the
/// per-subtask cost of moving work to a second core on each migration
/// path, which pass 3 holds every migrating config's δ above.
struct Handoff {
    task: TaskKind,
    local_p50_us: f64,
    stolen_p50_us: f64,
    steal_delta_us: f64,
    mailbox_p50_us: f64,
    mailbox_delta_us: f64,
}

fn handoff_entries() -> Vec<Handoff> {
    const TRIALS: usize = 40;
    [TaskKind::Fft, TaskKind::Decode]
        .into_iter()
        .map(|task| {
            let mut steal = measure_steal_overhead(Bandwidth::Mhz5, 2, 16, task, TRIALS);
            let mut mbox = measure_migration_overhead(Bandwidth::Mhz5, 2, 16, task, TRIALS);
            Handoff {
                task,
                local_p50_us: steal.local_us.median(),
                stolen_p50_us: steal.stolen_us.median(),
                steal_delta_us: steal.delta_us,
                mailbox_p50_us: mbox.migrated_us.median(),
                mailbox_delta_us: mbox.delta_us,
            }
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Cache sizes in KiB from cpu0's sysfs cache directory: (L1d, L2, L3);
/// 0 for a level the kernel does not expose.
fn cache_topology_kb() -> (u64, u64, u64) {
    let mut caches = (0u64, 0u64, 0u64);
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).ok();
        let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let kb = size
            .trim()
            .trim_end_matches(['K', 'k'])
            .parse::<u64>()
            .unwrap_or(0);
        match (level.trim(), ty.trim()) {
            ("1", "Data") => caches.0 = kb,
            ("2", "Unified") => caches.1 = kb,
            ("3", "Unified") => caches.2 = kb,
            _ => {}
        }
    }
    caches
}

/// The machine fingerprint: CPU model, core count, cache topology and the
/// widest SIMD tier. The analyzer refuses a baseline recorded on fewer
/// than two cores.
fn machine_json() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (l1d, l2, l3) = cache_topology_kb();
    format!(
        "{{ \"cpu\": \"{}\", \"cores\": {cores}, \"l1d_kb\": {l1d}, \"l2_kb\": {l2}, \
         \"l3_kb\": {l3}, \"simd_tier\": \"{}\" }}",
        json_escape(&cpu_model()),
        simd::hardware_tier().name()
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(a) if a.starts_with('-') => {
            eprintln!("usage: rtopex-bench [OUTPUT.json]");
            std::process::exit(2);
        }
        Some(a) => a,
        None => "BENCH_kernels.json".to_string(),
    };
    let tier = simd::detected_tier().name();
    let mut entries = Vec::new();
    eprintln!("timing kernels (tier: {tier})…");
    turbo_entries(&mut entries);
    demap_entries(&mut entries);
    mrc_entries(&mut entries);
    fft_entries(&mut entries);
    front_entries(&mut entries);
    decode_entries(&mut entries);
    subframe_entry(&mut entries);
    let tiers = tier_entries();
    eprintln!("timing batched turbo dispatch…");
    let batched = batched_entries();
    eprintln!("timing the steal and mailbox hand-off…");
    let handoff = handoff_entries();

    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"schema\": 1,").unwrap();
    writeln!(body, "  \"git_rev\": \"{}\",", json_escape(&git_rev())).unwrap();
    writeln!(body, "  \"machine\": {},", machine_json()).unwrap();
    writeln!(body, "  \"simd_tier\": \"{tier}\",").unwrap();
    writeln!(body, "  \"kernels\": {{").unwrap();
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(
            body,
            "    \"{}_{}\": {{ \"mean_ns\": {}, \"iters\": {} }}{}",
            e.name, e.size, e.mean_ns, e.iters, comma
        )
        .unwrap();
        eprintln!(
            "  {:>28}_{:<5} {:>12} ns  ({} iters)",
            e.name, e.size, e.mean_ns, e.iters
        );
    }
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"tiers\": {{").unwrap();
    for (ti, (name, entries)) in tiers.iter().enumerate() {
        let tcomma = if ti + 1 < tiers.len() { "," } else { "" };
        writeln!(body, "    \"{name}\": {{").unwrap();
        for (i, e) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            writeln!(
                body,
                "      \"{}_{}\": {{ \"mean_ns\": {}, \"iters\": {} }}{}",
                e.name, e.size, e.mean_ns, e.iters, comma
            )
            .unwrap();
        }
        writeln!(body, "    }}{tcomma}").unwrap();
    }
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"batched\": {{").unwrap();
    for (i, b) in batched.iter().enumerate() {
        let comma = if i + 1 < batched.len() { "," } else { "" };
        writeln!(
            body,
            "    \"turbo_k{}_b{}\": {{ \"per_call_avx2_ns\": {}, \"batched_ns\": {}, \
             \"speedup\": {:.3} }}{}",
            b.k, b.batch, b.per_call_ns, b.batched_ns, b.speedup, comma
        )
        .unwrap();
        eprintln!(
            "  turbo k={} batch {}: per-call {} ns, batched {} ns ({:.2}x)",
            b.k, b.batch, b.per_call_ns, b.batched_ns, b.speedup
        );
    }
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"handoff\": {{").unwrap();
    for (i, h) in handoff.iter().enumerate() {
        let comma = if i + 1 < handoff.len() { "," } else { "" };
        writeln!(
            body,
            "    \"{}\": {{ \"local_p50_us\": {:.3}, \"stolen_p50_us\": {:.3}, \
             \"steal_delta_us\": {:.3}, \"mailbox_p50_us\": {:.3}, \"mailbox_delta_us\": {:.3} }}{}",
            h.task.label(),
            h.local_p50_us,
            h.stolen_p50_us,
            h.steal_delta_us,
            h.mailbox_p50_us,
            h.mailbox_delta_us,
            comma
        )
        .unwrap();
        eprintln!(
            "  {} hand-off: steal δ {:.1} µs, mailbox δ {:.1} µs",
            h.task.label(),
            h.steal_delta_us,
            h.mailbox_delta_us
        );
    }
    writeln!(body, "  }}").unwrap();
    writeln!(body, "}}").unwrap();
    std::fs::write(&path, body).expect("write baseline");
    eprintln!("wrote {path}");
}
