//! Fig. 4 — task execution times on multiple cores (real threads).
//!
//! The paper halves the FFT task by running 7 OFDM symbols per core and
//! cuts the MCS-27 decode from 980 µs to 670 µs by splitting code blocks.
//! We measure the same splits with the real Rust PHY on pinned threads,
//! and print the model's view next to it (the model is what the simulator
//! uses at scale). The FFT subtask is the runtime's migration unit, one
//! antenna's 14 symbols, so at N = 2 the two-core split runs one antenna
//! per core — the same halving.

use crate::common::{header, Opts};
use rtopex_model::tasks::TaskTimeModel;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_runtime::affinity::num_cpus;
use rtopex_runtime::measure_stage_parallelism;

/// Runs the experiment.
pub fn run(opts: &Opts) {
    header("Fig. 4 — task execution on 1 vs 2 cores", "Fig. 4 (§2.2)");
    let trials = if opts.quick { 3 } else { 10 };
    println!("machine CPUs: {}", num_cpus());
    if num_cpus() < 2 {
        println!("WARNING: single-CPU machine — two-core timings time-share and will not show the speedup; see the model view below and the simulator results.");
    }
    for (task, bw, mcs) in [
        (TaskKind::Fft, Bandwidth::Mhz10, 27u8),
        (TaskKind::Decode, Bandwidth::Mhz5, 20u8),
    ] {
        let mut m = measure_stage_parallelism(bw, 2, mcs, task, trials);
        println!(
            "real {:<7} ({} @ MCS {}): serial median {:>9.0} µs, two-core median {:>9.0} µs",
            task.label(),
            bw.label(),
            mcs,
            m.serial_us.median(),
            m.two_core_us.median(),
        );
    }
    // Model view at the paper's configuration.
    let ttm = TaskTimeModel::paper_gpp();
    let fft_serial = ttm.fft_total(2);
    let (fc, ftp) = ttm.fft_subtasks(2);
    println!(
        "model fft    (10MHz, N=2): serial {:.0} µs, two-core {:.0} µs",
        fft_serial,
        ftp * (fc as f64 / 2.0).ceil()
    );
    let dec_serial = ttm.decode_total(3.774, 2.0);
    let (dc, dtp) = ttm.decode_subtasks(3.774, 2.0, 6);
    println!(
        "model decode (10MHz, MCS27, L=2): serial {:.0} µs, two-core {:.0} µs",
        dec_serial,
        dtp * (dc as f64 / 2.0).ceil()
    );
    println!("paper: FFT nearly halves (≤ 6 µs overhead); decode 980 → 670 µs");
}
