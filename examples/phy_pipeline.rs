//! A guided walk through the uplink PHY pipeline, stage by stage, with a
//! mini BLER-vs-SNR sweep at the end — the substrate everything else in
//! this repository is built on.
//!
//! Run with: `cargo run --release --example phy_pipeline`

use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::uplink::{JobSlab, UplinkConfig, UplinkRx, UplinkTx};

fn main() {
    let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).expect("valid config");
    let seg = cfg.segmentation();
    println!("— TX side —");
    println!(
        "{} / MCS {} ({:?}): TBS = {} bits, D = {:.2} bits/RE",
        cfg.bandwidth.label(),
        cfg.mcs.index(),
        cfg.modulation(),
        cfg.tbs_bits(),
        cfg.mcs.subcarrier_load(cfg.bandwidth)
    );
    println!(
        "segmentation: {} code blocks (K⁺ = {}, K⁻ = {}, filler = {})",
        seg.num_blocks, seg.k_plus, seg.k_minus, seg.filler
    );
    println!(
        "rate matching: G = {} coded bits over {} data REs × Qm {}",
        cfg.coded_bits(),
        cfg.bandwidth.data_res(),
        cfg.mcs.modulation_order()
    );

    let tx = UplinkTx::new(cfg.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let payload: Vec<u8> = (0..cfg.transport_block_bytes())
        .map(|_| rng.gen())
        .collect();
    let subframe = tx.encode_subframe(&payload).expect("encode");
    println!(
        "waveform: {} IQ samples at {} samples/s",
        subframe.samples.len(),
        cfg.bandwidth.sample_rate_hz()
    );

    println!("\n— RX side (staged, as the runtime runs it) —");
    let mut channel = AwgnChannel::new(18.0);
    let rx_samples = channel.apply(&subframe.samples, cfg.num_antennas, &mut rng);
    let rx = UplinkRx::new(cfg.clone());
    let mut slab = JobSlab::new();
    let mut job = rx.start_job_in(&rx_samples, &mut slab).expect("job");
    println!(
        "FFT task: {} antenna subtasks of 14 symbols each",
        cfg.num_antennas
    );
    for a in 0..cfg.num_antennas {
        job.run_fft_batch_local(a);
    }
    job.finish_fft();
    println!("demod task: {} symbol subtasks", job.demod_subtask_count());
    for i in 0..job.demod_subtask_count() {
        job.run_demod_subtask_local(i);
    }
    println!(
        "decode task: {} code-block subtasks",
        job.decode_subtask_count()
    );
    for r in 0..job.decode_subtask_count() {
        job.run_decode_subtask_local(r);
    }
    let verdict = job.finish().expect("complete");
    for (r, (iters, ok)) in slab
        .block_iterations()
        .iter()
        .zip(slab.block_crc_ok())
        .enumerate()
    {
        println!(
            "  block {r}: {iters} turbo iteration(s), crc {}",
            if *ok { "ok" } else { "FAIL" }
        );
    }
    println!(
        "transport block: crc_ok = {}, payload intact = {}",
        verdict.crc_ok,
        slab.payload() == &payload[..]
    );

    println!("\n— mini BLER sweep (MCS 20 needs ≈ 14 dB) —");
    println!("{:>7} {:>8} {:>10}", "SNR", "BLER", "mean L");
    for snr in [10.0, 12.0, 14.0, 16.0, 20.0] {
        let trials = 10;
        let mut fails = 0;
        let mut iters = 0usize;
        for t in 0..trials {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t);
            let p: Vec<u8> = (0..cfg.transport_block_bytes())
                .map(|_| rng.gen())
                .collect();
            let sf = tx.encode_subframe(&p).expect("encode");
            let mut ch = AwgnChannel::new(snr);
            let rxs = ch.apply(&sf.samples, cfg.num_antennas, &mut rng);
            let o = rx.decode_subframe(&rxs).expect("decode");
            if !o.crc_ok {
                fails += 1;
            }
            iters += o.max_iterations();
        }
        println!(
            "{:>5}dB {:>8.2} {:>10.1}",
            snr,
            fails as f64 / trials as f64,
            iters as f64 / trials as f64
        );
    }
}
