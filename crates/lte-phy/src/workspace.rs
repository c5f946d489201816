//! Reusable per-thread workspace for the uplink decode hot path.
//!
//! A [`PhyWorkspace`] owns every buffer a full subframe decode needs —
//! per-antenna grids, FFT scratch, MRC/demapper staging, de-rate-matched
//! streams, the turbo trellis, and transport-block reassembly. All buffers
//! follow a grow-only discipline (`clear()` + `resize()`/`extend` against
//! retained capacity), so after one warm-up subframe a steady-state
//! [`crate::uplink::UplinkRx::decode_subframe_with`] call performs **zero
//! heap allocations** — even when consecutive subframes use different
//! configurations, as long as none exceeds the largest already seen.
//!
//! [`with_thread_workspace`] provides a thread-local instance, which is how
//! runtime worker threads (and the serial
//! [`crate::uplink::UplinkRx::decode_subframe`] wrapper) get reuse without
//! threading a workspace through every call site.

use crate::complex::Cf32;
use crate::equalizer::ChannelEstimate;
use crate::resource_grid::Grid;
use crate::turbo::TurboWorkspace;
use crate::uplink::UplinkConfig;
use std::cell::RefCell;

/// All scratch state for decoding subframes, reusable across calls.
#[derive(Clone, Debug)]
pub struct PhyWorkspace {
    /// Per-antenna demodulated grids.
    pub(crate) grids: Vec<Grid>,
    /// Channel estimate (per-antenna gain vectors reused).
    pub(crate) est: ChannelEstimate,
    /// Full coded-LLR stream for the subframe (`G` entries).
    pub(crate) llrs: Vec<f32>,
    /// CP-stripped time-domain samples of one OFDM symbol.
    pub(crate) time: Vec<Cf32>,
    /// FFT/IDFT ping-pong scratch.
    pub(crate) fft_scratch: Vec<Cf32>,
    /// MRC-combined subcarriers of one data symbol.
    pub(crate) combined: Vec<Cf32>,
    /// Per-subcarrier post-combining noise variance.
    pub(crate) post_var: Vec<f32>,
    /// Flat noise-variance vector handed to the demapper.
    pub(crate) nv: Vec<f32>,
    /// LLRs of one data symbol (`M × Qm`).
    pub(crate) sym_llrs: Vec<f32>,
    /// One code block's descrambled, de-rate-matched turbo streams, flat
    /// `[d0|d1|d2]` (systematic, parity 1, parity 2).
    pub(crate) streams: Vec<f32>,
    /// Turbo-decoder trellis and exchange buffers.
    pub(crate) turbo: TurboWorkspace,
    /// Hard-decision bits per code block (inner vectors reused).
    pub(crate) block_bits: Vec<Vec<u8>>,
    /// Per-block CRC outcomes.
    pub(crate) block_crc_ok: Vec<bool>,
    /// Per-block turbo iteration counts.
    pub(crate) block_iters: Vec<usize>,
    /// Reassembled transport-block bits (incl. CRC24A).
    pub(crate) tb: Vec<u8>,
    /// Per-block CRC results from desegmentation (unused duplicate).
    pub(crate) tb_oks: Vec<bool>,
    /// Recovered payload bytes.
    pub(crate) payload: Vec<u8>,
}

impl Default for PhyWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl PhyWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        PhyWorkspace {
            grids: Vec::new(),
            est: ChannelEstimate {
                h: Vec::new(),
                noise_var: 0.0,
            },
            llrs: Vec::new(),
            time: Vec::new(),
            fft_scratch: Vec::new(),
            combined: Vec::new(),
            post_var: Vec::new(),
            nv: Vec::new(),
            sym_llrs: Vec::new(),
            streams: Vec::new(),
            turbo: TurboWorkspace::new(),
            block_bits: Vec::new(),
            block_crc_ok: Vec::new(),
            block_iters: Vec::new(),
            tb: Vec::new(),
            tb_oks: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Ensures the grid arena matches the configuration (rebuilt only on a
    /// bandwidth or antenna-count change). Called at the start of every
    /// workspace-based decode.
    pub(crate) fn prepare(&mut self, cfg: &UplinkConfig) {
        let rebuild = self.grids.len() != cfg.num_antennas
            || self
                .grids
                .first()
                .is_some_and(|g| g.bandwidth() != cfg.bandwidth);
        if rebuild {
            self.grids = vec![Grid::new(cfg.bandwidth); cfg.num_antennas];
        }
        // Grow-only: never shrink the per-block vectors, only add slots.
        while self.block_bits.len() < cfg.segmentation().num_blocks {
            self.block_bits.push(Vec::new());
        }
    }

    /// Pre-grows every buffer to the steady-state size of `cfg`, so the
    /// next [`crate::uplink::UplinkRx::decode_subframe_with`] call with this
    /// configuration (or any smaller one) performs no heap allocation.
    pub fn warm(&mut self, cfg: &UplinkConfig) {
        self.prepare(cfg);
        let n = cfg.bandwidth.fft_size();
        let m = cfg.alloc_subcarriers();
        let qm = cfg.mcs.modulation_order();
        let seg = cfg.segmentation();
        let c = seg.num_blocks;
        reserve_to(&mut self.llrs, cfg.coded_bits());
        reserve_to(&mut self.time, n);
        reserve_to(&mut self.fft_scratch, n);
        reserve_to(&mut self.combined, m);
        reserve_to(&mut self.post_var, m);
        reserve_to(&mut self.nv, m);
        reserve_to(&mut self.sym_llrs, m * qm);
        let max_k = seg.k_plus;
        reserve_to(&mut self.streams, 3 * (max_k + 4));
        self.turbo.warm(max_k);
        for (r, bits) in self.block_bits.iter_mut().enumerate().take(c) {
            reserve_to(bits, seg.block_size(r));
        }
        reserve_to(&mut self.block_crc_ok, c);
        reserve_to(&mut self.block_iters, c);
        reserve_to(&mut self.tb, seg.input_bits);
        reserve_to(&mut self.tb_oks, c);
        reserve_to(&mut self.payload, cfg.transport_block_bytes());
        // The channel estimator grows est.h itself; pre-grow it here too.
        while self.est.h.len() < cfg.num_antennas {
            self.est.h.push(Vec::new());
        }
        for ha in self.est.h.iter_mut().take(cfg.num_antennas) {
            reserve_to(ha, m);
        }
    }
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
/// subframe are reused by every later subframe decoded on the same thread —
/// this is what makes the plain [`crate::uplink::UplinkRx::decode_subframe`]
/// and the staged subtask kernels of [`crate::uplink::SlabJob`] (and their
/// migratable `run_*_into` forms) allocation-free in steady state without
/// threading a workspace through every call.
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
    fn prepare_rebuilds_grids_only_on_config_change() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, 5).unwrap();
        let mut ws = PhyWorkspace::new();
        ws.prepare(&cfg);
        assert_eq!(ws.grids.len(), 2);
        let ptr = ws.grids.as_ptr();
        ws.prepare(&cfg);
        assert_eq!(ws.grids.as_ptr(), ptr, "same config must not rebuild");
        let cfg4 = UplinkConfig::new(Bandwidth::Mhz1_4, 4, 5).unwrap();
        ws.prepare(&cfg4);
        assert_eq!(ws.grids.len(), 4);
    }

    #[test]
    fn warm_reserves_for_the_config() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
        let mut ws = PhyWorkspace::new();
        ws.warm(&cfg);
        assert!(ws.llrs.capacity() >= cfg.coded_bits());
        assert!(ws.fft_scratch.capacity() >= cfg.bandwidth.fft_size());
        assert_eq!(ws.block_bits.len(), cfg.segmentation().num_blocks);
    }

    #[test]
    fn thread_workspace_is_reused() {
        let first = with_thread_workspace(|ws| {
            ws.llrs.reserve(1024);
            ws.llrs.as_ptr() as usize
        });
        let second = with_thread_workspace(|ws| ws.llrs.as_ptr() as usize);
        assert_eq!(first, second);
    }
}
