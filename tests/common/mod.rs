//! Helpers shared by the PHY test binaries that compare decodes across
//! SIMD tiers (`simd_equivalence.rs`, `decode_digest.rs`).

use rtopex::phy::uplink::{JobSlab, RxOutput, UplinkRx};
use rtopex::phy::Cf32;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of one binary: `force_tier` is process-global,
/// so concurrent test threads must not interleave tier changes.
/// Poisoning is ignored — the override is valid in any state.
pub fn tier_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Decodes `samples` through the staged job on `slab` under the active
/// tier, every subtask local and in order: the coded LLRs after the
/// demod stage, then the job's outcome.
pub fn staged_decode(
    rx: &UplinkRx,
    samples: &[Vec<Cf32>],
    slab: &mut JobSlab,
) -> (Vec<f32>, RxOutput) {
    let mut job = rx.start_job_in(samples, slab).expect("staged job");
    for a in 0..samples.len() {
        job.run_fft_batch_local(a);
    }
    job.finish_fft();
    for i in 0..job.demod_subtask_count() {
        job.run_demod_subtask_local(i);
    }
    let llrs = job.coded_llrs().to_vec();
    for r in 0..job.decode_subtask_count() {
        job.run_decode_subtask_local(r);
    }
    let verdict = job.finish().expect("finish");
    let out = RxOutput {
        payload: slab.payload().to_vec(),
        crc_ok: verdict.crc_ok,
        block_crc_ok: slab.block_crc_ok().to_vec(),
        block_iterations: slab.block_iterations().to_vec(),
    };
    (llrs, out)
}
