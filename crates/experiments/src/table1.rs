//! Table 1 — linear processing-time model estimates.
//!
//! The paper fits `T = w0 + w1·N + w2·K + w3·D·L` on 4×10⁶ testbed
//! measurements and reports (31.4, 169.1, 49.7, 93.0) µs with r² = 0.992.
//! We regenerate the table two ways:
//!
//! 1. **synthetic** — samples drawn from the calibrated task model plus
//!    the platform-error term, then refit (validates the OLS pipeline and
//!    shows the r² the error tail allows);
//! 2. **real PHY** — wall-clock measurements of the actual Rust decoder
//!    across MCS/SNR/antennas, then fit (absolute coefficients differ
//!    from the paper's OAI/Xeon numbers, but the *linear structure* — the
//!    claim of §2.1 — must hold, i.e. r² close to 1).

use crate::common::{header, Opts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_model::fit::{fit_proc_model, FitResult, ModelSample};
use rtopex_model::iters::IterationModel;
use rtopex_model::platform::PlatformJitter;
use rtopex_model::tasks::TaskTimeModel;
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::mcs::Mcs;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::uplink::{UplinkConfig, UplinkRx, UplinkTx};
use std::time::Instant;

fn print_fit(label: &str, fit: &FitResult) {
    println!(
        "{label:<12} w0={:>8.1}  w1={:>8.1}  w2={:>8.1}  w3={:>8.1}  r²={:.4}  (n={})",
        fit.model.w0, fit.model.w1, fit.model.w2, fit.model.w3, fit.r2, fit.n_samples
    );
}

/// Synthetic regeneration: model + platform error, then refit.
pub fn synthetic_fit(opts: &Opts) -> FitResult {
    let n = if opts.quick { 50_000 } else { 400_000 };
    let ttm = TaskTimeModel::paper_gpp();
    let iters = IterationModel::paper_gpp();
    let jitter = PlatformJitter::paper_gpp();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let bw = Bandwidth::Mhz10;
    let samples: Vec<ModelSample> = (0..n)
        .map(|_| {
            let mcs = Mcs::new(rng.gen_range(0..=27)).expect("valid");
            let ants = [1usize, 2, 4][rng.gen_range(0..3)];
            let snr: f64 = rng.gen_range(0.0..30.0);
            let d = mcs.subcarrier_load(bw);
            let o = iters.sample(mcs.index(), d, snr, &mut rng);
            let t = ttm.subframe_total(ants, mcs.modulation_order(), d, o.iterations as f64)
                + jitter.sample(&mut rng);
            ModelSample {
                n_antennas: ants,
                qm: mcs.modulation_order(),
                d_load: d,
                iters: o.iterations as f64,
                time_us: t,
            }
        })
        .collect();
    fit_proc_model(&samples).expect("rich design matrix")
}

/// Real-PHY regeneration: time the actual decoder and fit.
pub fn real_phy_fit(opts: &Opts) -> FitResult {
    // 1.4 MHz keeps per-decode cost low enough for hundreds of samples.
    let bw = Bandwidth::Mhz1_4;
    let reps = if opts.quick { 1 } else { 3 };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7AB1E);
    let mut samples = Vec::new();
    for &ants in &[1usize, 2, 4] {
        for mcs_idx in (0..=27).step_by(3) {
            let cfg = UplinkConfig::new(bw, ants, mcs_idx).expect("config");
            let tx = UplinkTx::new(cfg.clone());
            let payload: Vec<u8> = (0..cfg.transport_block_bytes())
                .map(|_| rng.gen())
                .collect();
            let sf = tx.encode_subframe(&payload).expect("encode");
            let rx = UplinkRx::new(cfg.clone());
            for &snr in &[10.0f64, 20.0, 30.0] {
                for _ in 0..reps {
                    let mut chan = AwgnChannel::new(snr);
                    let rx_samples = chan.apply(&sf.samples, ants, &mut rng);
                    let t0 = Instant::now();
                    let out = rx.decode_subframe(&rx_samples).expect("decode");
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    samples.push(ModelSample {
                        n_antennas: ants,
                        qm: cfg.mcs.modulation_order(),
                        d_load: cfg.mcs.subcarrier_load(bw),
                        iters: out.max_iterations() as f64,
                        time_us: us,
                    });
                }
            }
        }
    }
    fit_proc_model(&samples).expect("rich design matrix")
}

/// Runs the experiment.
pub fn run(opts: &Opts) {
    header("Table 1 — model parameter estimates (µs)", "Table 1 (§2.1)");
    println!(
        "{:<12} w0={:>8.1}  w1={:>8.1}  w2={:>8.1}  w3={:>8.1}  r²={:.4}",
        "paper (GPP)", 31.4, 169.1, 49.7, 93.0, 0.992
    );
    let synth = synthetic_fit(opts);
    print_fit("synthetic", &synth);
    let real = real_phy_fit(opts);
    print_fit("real PHY", &real);
    println!(
        "note: real-PHY coefficients reflect this machine and the clarity-first\n\
         Rust kernels; the reproduced claim is the linear structure (r² ≈ 1)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fit_recovers_paper_model() {
        let fit = synthetic_fit(&Opts {
            quick: true,
            ..Opts::default()
        });
        assert!((fit.model.w0 - 31.4).abs() < 15.0, "w0 {}", fit.model.w0);
        assert!((fit.model.w1 - 169.1).abs() < 5.0, "w1 {}", fit.model.w1);
        assert!((fit.model.w2 - 49.7).abs() < 5.0, "w2 {}", fit.model.w2);
        assert!((fit.model.w3 - 93.0).abs() < 3.0, "w3 {}", fit.model.w3);
        assert!(fit.r2 > 0.97, "r² {}", fit.r2);
    }
}
