//! The per-thread kernel scratch of the uplink decode's stage kernels.
//!
//! A [`PhyWorkspace`] holds what one subtask kernel needs while it runs
//! and nothing that outlives it: one OFDM symbol's FFT and MRC buffers,
//! one code block's de-rate-matched turbo streams and the turbo trellis.
//! The subframe's own buffers (grids, channel estimate, coded LLRs,
//! per-block results, transport block, payload) live in the job's
//! [`crate::uplink::JobSlab`].
//!
//! [`with_thread_workspace`] provides a thread-local instance: the FFT,
//! demod and decode kernels of [`crate::uplink::SlabJob`] and their
//! migratable `run_*_into` forms borrow it, so they are allocation-free
//! in steady state on any thread, the owner's or a thief's. All buffers
//! are grow-only (`clear()` + `resize()`/`extend` against retained
//! capacity).

use crate::complex::Cf32;
use crate::turbo::TurboWorkspace;
use crate::uplink::UplinkConfig;
use std::cell::RefCell;

/// The stage kernels' scratch, reusable across calls.
#[derive(Clone, Debug, Default)]
pub struct PhyWorkspace {
    /// The FFT and demod kernels' per-symbol buffers.
    pub(crate) sym: SymbolScratch,
    /// One code block's descrambled, de-rate-matched turbo streams, flat
    /// `[d0|d1|d2]` (systematic, parity 1, parity 2).
    pub(crate) streams: Vec<f32>,
    /// Turbo-decoder trellis and exchange buffers.
    pub(crate) turbo: TurboWorkspace,
}

impl PhyWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows every buffer for the subtasks of `cfg`, so later kernel
    /// calls with this configuration (or any smaller one) perform no heap
    /// allocation.
    pub fn warm(&mut self, cfg: &UplinkConfig) {
        let n = cfg.bandwidth.fft_size();
        let m = cfg.alloc_subcarriers();
        reserve_to(&mut self.sym.time, n);
        reserve_to(&mut self.sym.fft, n);
        reserve_to(&mut self.sym.combined, m);
        reserve_to(&mut self.sym.post_var, m);
        let max_k = cfg.segmentation().k_plus;
        reserve_to(&mut self.streams, 3 * (max_k + 4));
        self.turbo.warm(max_k);
    }
}

/// One OFDM symbol's buffers for the FFT batch and demod kernels.
#[derive(Clone, Debug, Default)]
pub(crate) struct SymbolScratch {
    /// CP-stripped time-domain samples of one OFDM symbol.
    pub(crate) time: Vec<Cf32>,
    /// FFT/IDFT ping-pong scratch.
    pub(crate) fft: Vec<Cf32>,
    /// MRC-combined subcarriers of one data symbol.
    pub(crate) combined: Vec<Cf32>,
    /// Per-subcarrier post-combining noise variance.
    pub(crate) post_var: Vec<f32>,
}

fn reserve_to<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

thread_local! {
    static WORKSPACE: RefCell<PhyWorkspace> = RefCell::new(PhyWorkspace::new());
}

/// Runs `f` with this thread's persistent [`PhyWorkspace`].
///
/// The workspace lives for the thread's lifetime, so buffers warmed by one
/// subtask are reused by every later subtask run on the same thread.
///
/// # Panics
/// Panics if called re-entrantly from within `f` (the workspace is a
/// single exclusive borrow).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut PhyWorkspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Bandwidth;

    #[test]
    fn warm_reserves_for_the_config() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
        let mut ws = PhyWorkspace::new();
        ws.warm(&cfg);
        assert!(ws.sym.fft.capacity() >= cfg.bandwidth.fft_size());
        assert!(ws.streams.capacity() >= 3 * cfg.segmentation().k_plus);
    }

    #[test]
    fn thread_workspace_is_reused() {
        let first = with_thread_workspace(|ws| {
            ws.streams.reserve(1024);
            ws.streams.as_ptr() as usize
        });
        let second = with_thread_workspace(|ws| ws.streams.as_ptr() as usize);
        assert_eq!(first, second);
    }
}
