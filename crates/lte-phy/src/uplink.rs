//! End-to-end PUSCH uplink chain: transmit-side test-vector generation and
//! the receive-side processing whose execution time the schedulers manage.
//!
//! The receiver is exposed two ways:
//!
//! * [`UplinkRx::decode_subframe_with`] — the serial reference chain, one
//!   call per subframe ([`UplinkRx::decode_subframe`] wraps it with the
//!   thread's workspace);
//! * [`SlabJob`] — the staged form matching the paper's Fig. 5, the one
//!   the runtime runs: the owner executes individual **subtasks** into a
//!   caller-owned [`JobSlab`], and the two migratable units — one
//!   antenna's 14-symbol FFT batch and one code block's decode — also run
//!   on another thread through `&self` kernels
//!   ([`UplinkRx::run_fft_batch_into`], [`UplinkRx::run_decode_subtask_into`])
//!   whose results the owner absorbs with the `absorb_*` methods.

use crate::complex::Cf32;
use crate::crc::{CRC24A, CRC24B};
use crate::equalizer::{estimate_channel_band_into, mrc_combine_into, ChannelEstimate};
use crate::error::PhyError;
use crate::fft::{self, FftPlan};
use crate::mcs::Mcs;
use crate::modulation::Modulation;
use crate::params::{is_dmrs_symbol, Bandwidth, SYMBOLS_PER_SUBFRAME};
use crate::ratematch::RateMatcher;
use crate::resource_grid::{Grid, OfdmProcessor};
use crate::scramble::{pusch_c_init, Scrambler};
use crate::segmentation::Segmentation;
use crate::tasks::TaskBreakdown;
use crate::turbo::{decode_batch, TurboBatchJob, TurboDecoder, TurboEncoder, TurboWorkspace};
use crate::workspace::{self, PhyWorkspace, SymbolScratch};
use crate::zadoff_chu::dmrs_sequence;
use std::sync::Arc;

/// Strong "known zero" LLR clamped onto filler-bit positions.
const FILLER_LLR: f32 = 100.0;

/// The flat `[d0|d1|d2]` turbo streams as the decoder's three slices.
fn split_streams(streams: &[f32]) -> (&[f32], &[f32], &[f32]) {
    let d = streams.len() / 3;
    (&streams[..d], &streams[d..2 * d], &streams[2 * d..])
}

/// Converts bytes to bits, MSB first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect()
}

/// Converts bits (MSB first) to bytes in a caller-owned vector (cleared
/// and refilled; no allocation once `out` has capacity).
///
/// # Panics
/// Panics if `bits.len() % 8 != 0`.
pub fn bits_to_bytes_into(bits: &[u8], out: &mut Vec<u8>) {
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert_eq!(bits.len() % 8, 0, "bit count must be a multiple of 8");
    out.clear();
    out.extend(
        bits.chunks_exact(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b)),
    );
}

/// Full configuration of one basestation's uplink processing.
#[derive(Clone, Debug)]
pub struct UplinkConfig {
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Number of receive antennas `N` (1–8).
    pub num_antennas: usize,
    /// Modulation and coding scheme.
    pub mcs: Mcs,
    /// Turbo-iteration cap `Lm` (paper default: 4).
    pub max_turbo_iters: usize,
    /// UE identity for scrambling.
    pub n_rnti: u16,
    /// Cell identity for scrambling/DMRS.
    pub cell_id: u16,
    /// Allocated PRBs (contiguous from PRB 0). The paper's experiments use
    /// 100 % utilization; partial allocations model the multi-user /
    /// varying-utilization scenario its §4.2 footnote discusses.
    pub alloc_prbs: usize,
    seg: Segmentation,
    /// The constellation, resolved from the MCS once at construction so
    /// the per-subframe paths never re-derive (and never re-validate) it.
    modu: Modulation,
    /// Per-block rate-matching sizes `E_r`, precomputed at construction.
    e_splits: Vec<usize>,
    /// Prefix sums of `e_splits` (length `C + 1`).
    e_offsets: Vec<usize>,
    /// Indices of the data (non-DMRS) OFDM symbols.
    data_syms: Vec<usize>,
}

impl UplinkConfig {
    /// Builds a configuration: full-band allocation (the paper's 100 % PRB
    /// utilization), single user, `Lm = 4`.
    pub fn new(bandwidth: Bandwidth, num_antennas: usize, mcs_index: u8) -> Result<Self, PhyError> {
        Self::with_iters(
            bandwidth,
            num_antennas,
            mcs_index,
            crate::mcs::DEFAULT_MAX_TURBO_ITERS,
        )
    }

    /// Like [`UplinkConfig::new`] with an explicit turbo-iteration cap.
    pub fn with_iters(
        bandwidth: Bandwidth,
        num_antennas: usize,
        mcs_index: u8,
        max_turbo_iters: usize,
    ) -> Result<Self, PhyError> {
        Self::with_allocation(
            bandwidth,
            num_antennas,
            mcs_index,
            max_turbo_iters,
            bandwidth.num_prbs(),
        )
    }

    /// Builds a configuration with a partial allocation of `alloc_prbs`
    /// contiguous PRBs (SC-FDMA requires contiguity). The transport block
    /// size, coded bits, and DMRS band all scale with the allocation.
    pub fn with_allocation(
        bandwidth: Bandwidth,
        num_antennas: usize,
        mcs_index: u8,
        max_turbo_iters: usize,
        alloc_prbs: usize,
    ) -> Result<Self, PhyError> {
        if alloc_prbs == 0 || alloc_prbs > bandwidth.num_prbs() {
            return Err(PhyError::InvalidConfig {
                what: "alloc_prbs",
                detail: format!("{alloc_prbs} not in 1..={}", bandwidth.num_prbs()),
            });
        }
        if !(1..=8).contains(&num_antennas) {
            return Err(PhyError::InvalidConfig {
                what: "num_antennas",
                detail: format!("{num_antennas} not in 1..=8"),
            });
        }
        if max_turbo_iters == 0 || max_turbo_iters > 16 {
            return Err(PhyError::InvalidConfig {
                what: "max_turbo_iters",
                detail: format!("{max_turbo_iters} not in 1..=16"),
            });
        }
        let mcs = Mcs::new(mcs_index).ok_or_else(|| PhyError::InvalidConfig {
            what: "mcs",
            detail: format!("index {mcs_index} above 28"),
        })?;
        let tbs = mcs.transport_block_bits(alloc_prbs);
        let seg = Segmentation::compute(tbs + 24)?;

        // Precompute the hot-path lookup tables once (36.212 §5.1.4.1.2).
        let data_syms: Vec<usize> = (0..SYMBOLS_PER_SUBFRAME)
            .filter(|&l| !is_dmrs_symbol(l))
            .collect();
        let qm = mcs.modulation_order();
        let modu = Modulation::from_order(qm).ok_or_else(|| PhyError::InvalidConfig {
            what: "modulation",
            detail: format!("unsupported Qm {qm}"),
        })?;
        let alloc_sc = alloc_prbs * crate::params::SUBCARRIERS_PER_PRB;
        let g_sym = alloc_sc * data_syms.len(); // G' with one layer
        let c = seg.num_blocks;
        let gamma = g_sym % c;
        let e_splits: Vec<usize> = (0..c)
            .map(|r| {
                if r < c - gamma {
                    qm * (g_sym / c)
                } else {
                    qm * g_sym.div_ceil(c)
                }
            })
            .collect();
        let mut e_offsets = Vec::with_capacity(c + 1);
        let mut acc = 0usize;
        e_offsets.push(0);
        for &e in &e_splits {
            acc += e;
            e_offsets.push(acc);
        }

        Ok(UplinkConfig {
            bandwidth,
            num_antennas,
            mcs,
            max_turbo_iters,
            n_rnti: 0x1234,
            cell_id: 42,
            alloc_prbs,
            seg,
            modu,
            e_splits,
            e_offsets,
            data_syms,
        })
    }

    /// Allocated subcarriers (12 per allocated PRB).
    pub fn alloc_subcarriers(&self) -> usize {
        self.alloc_prbs * crate::params::SUBCARRIERS_PER_PRB
    }

    /// Data resource elements in the allocation (12 data symbols).
    pub fn data_res(&self) -> usize {
        self.alloc_subcarriers() * (SYMBOLS_PER_SUBFRAME - 2)
    }

    /// Transport block size in bits (scales with the allocation).
    pub fn tbs_bits(&self) -> usize {
        self.mcs.transport_block_bits(self.alloc_prbs)
    }

    /// Transport block size in bytes.
    pub fn transport_block_bytes(&self) -> usize {
        self.tbs_bits() / 8
    }

    /// Total coded bits per subframe: `G = allocated data REs × Qm`.
    pub fn coded_bits(&self) -> usize {
        self.data_res() * self.mcs.modulation_order()
    }

    /// The code-block segmentation in force.
    pub fn segmentation(&self) -> &Segmentation {
        &self.seg
    }

    /// The modulation scheme.
    pub fn modulation(&self) -> Modulation {
        self.modu
    }

    /// Per-code-block rate-matching output sizes `E_r` (36.212 §5.1.4.1.2),
    /// precomputed at construction.
    pub fn e_splits(&self) -> &[usize] {
        &self.e_splits
    }

    /// Bit offset of block `r` within the coded stream (precomputed).
    pub fn e_offset(&self, r: usize) -> usize {
        self.e_offsets[r]
    }

    /// Indices of the 12 data (non-DMRS) OFDM symbols (precomputed).
    pub fn data_symbols(&self) -> &[usize] {
        &self.data_syms
    }

    /// The Fig. 5 subtask breakdown for this configuration.
    pub fn breakdown(&self) -> TaskBreakdown {
        TaskBreakdown {
            fft: self.num_antennas * SYMBOLS_PER_SUBFRAME,
            demod: self.data_symbols().len(),
            decode: self.seg.num_blocks,
        }
    }
}

/// Per-code-block codec state (shared between identical block sizes).
#[derive(Clone, Debug)]
struct BlockCodec {
    k: usize,
    matcher: RateMatcher,
    decoder: TurboDecoder,
    encoder: TurboEncoder,
}

fn build_codecs(seg: &Segmentation) -> (Vec<BlockCodec>, Vec<usize>) {
    let sizes = seg.block_sizes();
    let mut codecs: Vec<BlockCodec> = Vec::new();
    let mut index = Vec::with_capacity(sizes.len());
    for k in sizes {
        if let Some(pos) = codecs.iter().position(|c| c.k == k) {
            index.push(pos);
        } else {
            let encoder = TurboEncoder::new(k);
            let decoder = TurboDecoder::with_qpp(encoder.qpp().clone());
            codecs.push(BlockCodec {
                k,
                matcher: RateMatcher::new(k),
                decoder,
                encoder,
            });
            index.push(codecs.len() - 1);
        }
    }
    (codecs, index)
}

/// A transmitted subframe: the time-domain IQ samples (single Tx antenna).
#[derive(Clone, Debug)]
pub struct TxSubframe {
    /// Baseband samples, `samples_per_subframe` long.
    pub samples: Vec<Cf32>,
}

/// PUSCH transmitter (test-vector generator).
#[derive(Clone, Debug)]
pub struct UplinkTx {
    cfg: UplinkConfig,
    ofdm: OfdmProcessor,
    dft: Arc<FftPlan>,
    scrambler: Scrambler,
    dmrs: Vec<Cf32>,
    codecs: Vec<BlockCodec>,
    codec_index: Vec<usize>,
}

impl UplinkTx {
    /// Creates a transmitter for the configuration.
    pub fn new(cfg: UplinkConfig) -> Self {
        let m = cfg.alloc_subcarriers();
        let (codecs, codec_index) = build_codecs(&cfg.seg);
        UplinkTx {
            ofdm: OfdmProcessor::new(cfg.bandwidth),
            dft: fft::plan(m),
            scrambler: Scrambler::new(pusch_c_init(cfg.n_rnti, 0, cfg.cell_id), cfg.coded_bits()),
            dmrs: dmrs_sequence(cfg.cell_id as usize, m),
            codecs,
            codec_index,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &UplinkConfig {
        &self.cfg
    }

    /// Encodes one transport block into a subframe of IQ samples
    /// (redundancy version 0).
    ///
    /// `payload` must be exactly [`UplinkConfig::transport_block_bytes`] long.
    pub fn encode_subframe(&self, payload: &[u8]) -> Result<TxSubframe, PhyError> {
        let cfg = &self.cfg;
        if payload.len() != cfg.transport_block_bytes() {
            return Err(PhyError::LengthMismatch {
                what: "payload bytes",
                expected: cfg.transport_block_bytes(),
                actual: payload.len(),
            });
        }
        // Transport block: payload bits + CRC24A.
        let mut tb = bytes_to_bits(payload);
        CRC24A.attach(&mut tb);
        let blocks = cfg.seg.segment(&tb)?;

        // Per block: turbo encode + rate match, then concatenate.
        let mut coded = Vec::with_capacity(cfg.coded_bits());
        for (r, (block, &e)) in blocks.iter().zip(cfg.e_splits()).enumerate() {
            let codec = &self.codecs[self.codec_index[r]];
            let cw = codec.encoder.encode(block);
            coded.extend(codec.matcher.rate_match(&cw, e));
        }
        debug_assert_eq!(coded.len(), cfg.coded_bits());

        // Scramble and map to constellation symbols.
        self.scrambler.scramble_bits(&mut coded);
        let symbols = cfg.modulation().map(&coded);

        // DFT-precode each data symbol and place on the grid's allocated
        // band (contiguous from subcarrier 0); DMRS on symbols 3/10.
        let m = cfg.alloc_subcarriers();
        let mut grid = Grid::new(cfg.bandwidth);
        for (si, &l) in cfg.data_symbols().iter().enumerate() {
            let mut chunk: Vec<Cf32> = symbols[si * m..(si + 1) * m].to_vec();
            self.dft.forward(&mut chunk);
            let scale = 1.0 / (m as f32).sqrt(); // unitary DFT precoding
            for (dst, src) in grid.symbol_mut(l)[..m].iter_mut().zip(&chunk) {
                *dst = src.scale(scale);
            }
        }
        for l in crate::params::dmrs_symbols() {
            grid.symbol_mut(l)[..m].copy_from_slice(&self.dmrs);
        }
        Ok(TxSubframe {
            samples: self.ofdm.modulate(&grid),
        })
    }
}

/// Outcome of decoding one subframe.
#[derive(Clone, Debug)]
pub struct RxOutput {
    /// Recovered transport-block payload bytes (best effort on CRC failure).
    pub payload: Vec<u8>,
    /// Transport-block CRC24A result — the ACK/NACK decision.
    pub crc_ok: bool,
    /// Per-code-block CRC results.
    pub block_crc_ok: Vec<bool>,
    /// Per-code-block turbo iteration counts (`L` of Eq. 1).
    pub block_iterations: Vec<usize>,
}

impl RxOutput {
    /// Largest per-block iteration count (the critical-path `L`).
    pub fn max_iterations(&self) -> usize {
        self.block_iterations.iter().copied().max().unwrap_or(0)
    }
}

/// Borrowed outcome of a workspace-based decode
/// ([`UplinkRx::decode_subframe_with`]): the same information as
/// [`RxOutput`], but viewing the workspace's buffers instead of owning
/// fresh allocations.
#[derive(Debug)]
pub struct RxView<'w> {
    /// Recovered transport-block payload bytes (best effort on CRC failure).
    pub payload: &'w [u8],
    /// Transport-block CRC24A result — the ACK/NACK decision.
    pub crc_ok: bool,
    /// Per-code-block CRC results.
    pub block_crc_ok: &'w [bool],
    /// Per-code-block turbo iteration counts (`L` of Eq. 1).
    pub block_iterations: &'w [usize],
}

impl RxView<'_> {
    /// Copies the view into an owned [`RxOutput`].
    pub fn to_output(&self) -> RxOutput {
        RxOutput {
            payload: self.payload.to_vec(),
            crc_ok: self.crc_ok,
            block_crc_ok: self.block_crc_ok.to_vec(),
            block_iterations: self.block_iterations.to_vec(),
        }
    }
}

/// PUSCH receiver.
#[derive(Clone, Debug)]
pub struct UplinkRx {
    cfg: UplinkConfig,
    ofdm: OfdmProcessor,
    dft: Arc<FftPlan>,
    scrambler: Scrambler,
    dmrs: Vec<Cf32>,
    codecs: Vec<BlockCodec>,
    codec_index: Vec<usize>,
}

impl UplinkRx {
    /// Creates a receiver for the configuration.
    pub fn new(cfg: UplinkConfig) -> Self {
        let m = cfg.alloc_subcarriers();
        let (codecs, codec_index) = build_codecs(&cfg.seg);
        UplinkRx {
            ofdm: OfdmProcessor::new(cfg.bandwidth),
            dft: fft::plan(m),
            scrambler: Scrambler::new(pusch_c_init(cfg.n_rnti, 0, cfg.cell_id), cfg.coded_bits()),
            dmrs: dmrs_sequence(cfg.cell_id as usize, m),
            codecs,
            codec_index,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &UplinkConfig {
        &self.cfg
    }

    /// Runs one antenna's full 14-symbol FFT batch — the node's FFT
    /// migration unit — into `out` as 14 back-to-back subcarrier rows
    /// (`out.len() == 14 × num_subcarriers`). Allocation-free once `out`
    /// has grown; this is what a thief executes into a slot arena.
    ///
    /// # Panics
    /// Panics if `antenna` is out of range.
    pub fn run_fft_batch_into(
        &self,
        rx_samples: &[Vec<Cf32>],
        antenna: usize,
        out: &mut Vec<Cf32>,
    ) {
        // Every entry is overwritten, so only a first use pays the fill.
        out.resize(
            SYMBOLS_PER_SUBFRAME * self.cfg.bandwidth.num_subcarriers(),
            Cf32::ZERO,
        );
        workspace::with_thread_workspace(|ws| {
            self.fft_batch(rx_samples, antenna, out, &mut ws.sym)
        });
    }

    /// Runs decode subtask `r` — descramble the block's slice of the
    /// complete coded-LLR stream, de-rate-match, clamp filler bits, turbo
    /// decode with CRC early termination — into a caller-owned bit buffer,
    /// returning `(iterations, crc_ok)`; no allocation once `bits` has
    /// capacity. This is the migratable decode unit: thieves in the
    /// work-stealing runtime decode into a preallocated [`BlockBuf`] slot
    /// in the owner's arena, and [`SlabJob::run_decode_subtask_local`]
    /// runs the same kernel into the slab.
    ///
    /// # Panics
    /// Panics if `r` is out of range or `llrs` has the wrong length.
    pub fn run_decode_subtask_into(
        &self,
        llrs: &[f32],
        r: usize,
        bits: &mut Vec<u8>,
    ) -> (usize, bool) {
        let cfg = &self.cfg;
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(r < cfg.seg.num_blocks, "decode subtask {r} out of range");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(llrs.len(), cfg.coded_bits(), "coded LLR stream length");
        let multi = cfg.seg.num_blocks > 1;
        let codec = &self.codecs[self.codec_index[r]];

        workspace::with_thread_workspace(|ws| {
            let filler = self.prep_block(llrs, r, &mut ws.streams);
            let (d0, d1, d2) = split_streams(&ws.streams);
            let (iterations, crc_ok) = codec.decoder.decode_with(
                d0,
                d1,
                d2,
                cfg.max_turbo_iters,
                |bits| {
                    if multi {
                        CRC24B.check(bits)
                    } else {
                        CRC24A.check(&bits[filler..])
                    }
                },
                &mut ws.turbo,
            );
            bits.clear();
            bits.extend_from_slice(&ws.turbo.bits);
            (iterations, crc_ok)
        })
    }

    /// Stages decode subtask `r` into the next free slot of `scratch`:
    /// descrambles and de-rate-matches the block's LLR segment into the
    /// slot's turbo streams and clamps filler positions — everything
    /// [`UplinkRx::run_decode_subtask_into`] does *before* the turbo
    /// decoder runs. A later [`run_staged_decode_batch`] call then
    /// decodes all staged slots together, pairing same-`K` blocks through
    /// the wide turbo kernel. Returns the slot index.
    ///
    /// # Panics
    /// Panics if `r` is out of range, `llrs` has the wrong length, or
    /// `scratch` is full.
    pub fn stage_decode_subtask(
        &self,
        llrs: &[f32],
        r: usize,
        scratch: &mut DecodeBatchScratch,
    ) -> usize {
        let cfg = &self.cfg;
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(r < cfg.seg.num_blocks, "decode subtask {r} out of range");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(llrs.len(), cfg.coded_bits(), "coded LLR stream length");
        // analyze: allow(panic): buffer-shape contract; callers size their drains to `capacity()`
        assert!(!scratch.is_full(), "decode batch scratch full");
        let i = scratch.len;
        let slot = &mut scratch.slots[i];
        slot.filler = self.prep_block(llrs, r, &mut slot.streams);
        slot.multi = cfg.seg.num_blocks > 1;
        slot.max_iters = cfg.max_turbo_iters;
        slot.codec_idx = self.codec_index[r];
        scratch.len = i + 1;
        i
    }

    /// Decodes one subframe serially, using `ws` for every intermediate
    /// buffer and returning views into the workspace instead of fresh
    /// allocations. After one warm-up call (or an explicit
    /// [`PhyWorkspace::warm`]) further calls with the same — or any
    /// smaller — configuration perform **zero heap allocations**.
    ///
    /// This is the serial reference the staged [`SlabJob`] is held to:
    /// both run the same kernels in the same order and produce
    /// bit-identical payloads, CRC verdicts and iteration counts.
    ///
    /// # Errors
    /// Returns [`PhyError::LengthMismatch`] if the antenna-stream count or
    /// per-stream sample count does not match the configuration.
    pub fn decode_subframe_with<'w>(
        &self,
        rx_samples: &[Vec<Cf32>],
        ws: &'w mut PhyWorkspace,
    ) -> Result<RxView<'w>, PhyError> {
        self.check_samples(rx_samples)?;
        let cfg = &self.cfg;
        ws.prepare(cfg);
        let PhyWorkspace {
            grids,
            est,
            llrs,
            sym,
            streams,
            turbo,
            block_bits,
            block_crc_ok,
            block_iters,
            tb,
            tb_oks,
            payload,
        } = ws;

        // FFT task: one 14-symbol batch per antenna.
        for (a, grid) in grids.iter_mut().enumerate() {
            self.fft_batch(rx_samples, a, grid.rows_mut(), sym);
        }
        estimate_channel_band_into(grids, &self.dmrs, 0..cfg.alloc_subcarriers(), est);

        // Demod task: one LLR row per data symbol.
        llrs.clear();
        llrs.resize(cfg.coded_bits(), 0.0);
        for i in 0..cfg.data_syms.len() {
            self.demod_symbol(grids, est, i, llrs, sym);
        }

        // Decode task: descramble + de-rate-match + turbo per code block.
        block_crc_ok.clear();
        block_iters.clear();
        let multi = cfg.seg.num_blocks > 1;
        for r in 0..cfg.seg.num_blocks {
            let filler = self.prep_block(llrs, r, streams);
            let (d0, d1, d2) = split_streams(streams);
            let codec = &self.codecs[self.codec_index[r]];
            let (iterations, crc_ok) = codec.decoder.decode_with(
                d0,
                d1,
                d2,
                cfg.max_turbo_iters,
                |bits| {
                    if multi {
                        CRC24B.check(bits)
                    } else {
                        CRC24A.check(&bits[filler..])
                    }
                },
                turbo,
            );
            block_crc_ok.push(crc_ok);
            block_iters.push(iterations);
            block_bits[r].clear();
            block_bits[r].extend_from_slice(&turbo.bits);
        }

        // Finish: transport-block reassembly + CRC24A.
        cfg.seg
            .desegment_into(&block_bits[..cfg.seg.num_blocks], tb, tb_oks)?;
        let crc_ok = CRC24A.check(tb) && block_crc_ok.iter().all(|&b| b);
        bits_to_bytes_into(&tb[..cfg.tbs_bits()], payload);
        Ok(RxView {
            payload: &payload[..],
            crc_ok,
            block_crc_ok: &block_crc_ok[..],
            block_iterations: &block_iters[..],
        })
    }

    /// Serial convenience wrapper: decodes on the calling thread using its
    /// thread-local [`PhyWorkspace`], so repeated calls on one thread are
    /// allocation-free in steady state.
    ///
    /// # Errors
    /// See [`UplinkRx::decode_subframe_with`].
    pub fn decode_subframe(&self, rx_samples: &[Vec<Cf32>]) -> Result<RxOutput, PhyError> {
        workspace::with_thread_workspace(|ws| {
            let view = self.decode_subframe_with(rx_samples, ws)?;
            Ok(view.to_output())
        })
    }

    /// The FFT subtask kernel: antenna `antenna`'s 14 symbols (CP removal,
    /// forward FFT, subcarrier extraction) into `out`, 14 subcarrier rows
    /// back to back.
    ///
    /// # Panics
    /// Panics if `antenna` is out of range.
    fn fft_batch(
        &self,
        rx_samples: &[Vec<Cf32>],
        antenna: usize,
        out: &mut [Cf32],
        s: &mut SymbolScratch,
    ) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(
            antenna < self.cfg.num_antennas,
            "antenna {antenna} out of range"
        );
        let nsc = self.cfg.bandwidth.num_subcarriers();
        for (l, row) in out.chunks_exact_mut(nsc).enumerate() {
            self.ofdm
                .demod_symbol_into(&rx_samples[antenna], l, row, &mut s.time, &mut s.fft);
        }
    }

    /// The demod subtask kernel for data symbol `i`: MRC across the
    /// antennas' grids, the DFT de-precoding IDFT, the mean post-combining
    /// noise variance and the soft demapper, writing the symbol's `M × Qm`
    /// LLRs straight into its row of the coded stream `llrs`.
    fn demod_symbol(
        &self,
        grids: &[Grid],
        est: &ChannelEstimate,
        i: usize,
        llrs: &mut [f32],
        s: &mut SymbolScratch,
    ) {
        let (l, m) = (self.cfg.data_syms[i], self.cfg.alloc_subcarriers());
        let mut rows: [&[Cf32]; 8] = [&[]; 8];
        for (a, g) in grids.iter().enumerate() {
            rows[a] = &g.symbol(l)[..m];
        }
        s.combined.resize(m, Cf32::ZERO);
        s.post_var.resize(m, 0.0);
        let var_sum = mrc_combine_into(&rows[..grids.len()], est, &mut s.combined, &mut s.post_var);
        self.dft.inverse_with(&mut s.combined, &mut s.fft);
        let scale = (m as f32).sqrt();
        for v in s.combined.iter_mut() {
            *v = v.scale(scale);
        }
        let row = m * self.cfg.mcs.modulation_order();
        self.cfg.modu.demap_maxlog(
            &s.combined,
            var_sum / m as f32,
            &mut llrs[i * row..(i + 1) * row],
        );
    }

    /// The prep half of decode subtask `r`: descrambles the block's slice
    /// of the coded stream `llrs` and de-rate-matches it in one pass into
    /// the flat `[d0|d1|d2]` turbo streams, then clamps the filler bits.
    /// Returns the block's filler count.
    fn prep_block(&self, llrs: &[f32], r: usize, streams: &mut Vec<f32>) -> usize {
        let cfg = &self.cfg;
        let (off, e) = (cfg.e_offsets[r], cfg.e_splits[r]);
        self.codecs[self.codec_index[r]].matcher.de_rate_match_into(
            &llrs[off..off + e],
            &self.scrambler.masks()[off..off + e],
            streams,
        );
        let filler = if r == 0 { cfg.seg.filler } else { 0 };
        streams[..filler].fill(FILLER_LLR);
        filler
    }

    /// Checks that `rx_samples` holds one full subframe per receive
    /// antenna of the configuration.
    fn check_samples(&self, rx_samples: &[Vec<Cf32>]) -> Result<(), PhyError> {
        let cfg = &self.cfg;
        if rx_samples.len() != cfg.num_antennas {
            return Err(PhyError::LengthMismatch {
                what: "antenna streams",
                expected: cfg.num_antennas,
                actual: rx_samples.len(),
            });
        }
        let need = cfg.bandwidth.samples_per_subframe();
        for s in rx_samples {
            if s.len() != need {
                return Err(PhyError::LengthMismatch {
                    what: "subframe samples",
                    expected: need,
                    actual: s.len(),
                });
            }
        }
        Ok(())
    }
}

/// Reusable result buffer for one migrated decode subtask, owned by a slot
/// arena and refilled in place by [`UplinkRx::run_decode_subtask_into`];
/// the owner copies it into its slab with [`SlabJob::absorb_decode_buf`].
#[derive(Clone, Debug, Default)]
pub struct BlockBuf {
    /// Hard-decision bits of the block (length `K_r`).
    pub bits: Vec<u8>,
    /// Turbo iterations used.
    pub iterations: usize,
    /// Per-block CRC outcome.
    pub crc_ok: bool,
}

impl BlockBuf {
    /// An empty buffer; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the bit buffer for any block of `cfg`.
    pub fn warm(&mut self, cfg: &UplinkConfig) {
        let want = cfg.seg.k_plus;
        self.bits.reserve(want.saturating_sub(self.bits.len()));
    }
}

/// Largest number of decode subtasks one [`run_staged_decode_batch`] call
/// drains: enough for every code block of a 5 MHz subframe plus headroom
/// for cross-cell drains, small enough that staging never delays the
/// first decode noticeably.
pub const MAX_DECODE_BATCH: usize = 8;

/// One staged decode subtask inside a [`DecodeBatchScratch`]: the
/// descrambled, de-rate-matched soft streams plus the bookkeeping the
/// early-stop closure needs, and the decode outputs.
#[derive(Debug, Default)]
pub struct DecodeSlot {
    /// The flat `[d0|d1|d2]` turbo streams.
    streams: Vec<f32>,
    max_iters: usize,
    multi: bool,
    filler: usize,
    codec_idx: usize,
    /// Hard-decision bits (valid after [`run_staged_decode_batch`]).
    pub bits: Vec<u8>,
    /// Turbo iterations used.
    pub iterations: usize,
    /// Per-block CRC outcome.
    pub crc_ok: bool,
}

/// Preallocated staging area for a batched decode drain: up to
/// [`MAX_DECODE_BATCH`] subtasks' prepped streams and turbo workspaces.
/// A runtime worker keeps one per core, warms it once per configuration,
/// and reuses it every subframe — the steady-state batched decode
/// performs **zero heap allocations**, like the rest of the slab path.
#[derive(Debug)]
pub struct DecodeBatchScratch {
    slots: Vec<DecodeSlot>,
    workspaces: Vec<TurboWorkspace>,
    len: usize,
}

impl Default for DecodeBatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeBatchScratch {
    /// A scratch with [`MAX_DECODE_BATCH`] cold slots; warm before use.
    pub fn new() -> Self {
        DecodeBatchScratch {
            // analyze: allow(alloc): scratch construction; runs once per worker and tests/alloc_regression.rs proves the steady state is alloc-free
            slots: (0..MAX_DECODE_BATCH)
                .map(|_| DecodeSlot::default())
                .collect(),
            // analyze: allow(alloc): scratch construction; runs once per worker and tests/alloc_regression.rs proves the steady state is alloc-free
            workspaces: (0..MAX_DECODE_BATCH)
                .map(|_| TurboWorkspace::new())
                .collect(),
            len: 0,
        }
    }

    /// Pre-grows every slot for any block of `cfg`.
    pub fn warm(&mut self, cfg: &UplinkConfig) {
        let k = cfg.seg.k_plus;
        for slot in &mut self.slots {
            slot.streams
                .reserve((3 * (k + 4)).saturating_sub(slot.streams.len()));
            slot.bits.reserve(k.saturating_sub(slot.bits.len()));
        }
        for ws in &mut self.workspaces {
            ws.warm(k);
        }
    }

    /// Slots staged since the last [`DecodeBatchScratch::clear`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no subtask is staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every slot is staged.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Maximum batch size.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drops all staged subtasks (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Staged slot `i` (outputs valid after [`run_staged_decode_batch`]).
    ///
    /// # Panics
    /// Panics if `i` is not a staged slot index.
    pub fn slot(&self, i: usize) -> &DecodeSlot {
        // analyze: allow(panic): buffer-shape contract; callers index by the value stage_decode_subtask returned
        assert!(i < self.len, "slot {i} not staged");
        &self.slots[i]
    }
}

/// Decodes every staged slot of `scratch` through [`decode_batch`], which
/// pairs same-`K` blocks (first fit, in staging order) so two trellises
/// share one wide SIMD kernel; leftovers run the single-block path.
/// `rxs[i]` is the receiver whose [`UplinkRx::stage_decode_subtask`]
/// staged slot `i` — slots from *different* cells pair freely, because an
/// LTE turbo interleaver is fully determined by `K` (same `K` ⇒ identical
/// QPP), so either receiver's decoder serves both. Results are bit-for-bit
/// identical to per-slot [`UplinkRx::run_decode_subtask_into`] calls.
///
/// # Panics
/// Panics if `rxs.len()` differs from the staged count.
pub fn run_staged_decode_batch(rxs: &[&UplinkRx], scratch: &mut DecodeBatchScratch) {
    let n = scratch.len;
    // analyze: allow(panic): buffer-shape contract; a mismatch means the drain staged against different receivers — decode garbage or fail loudly, and loud wins
    assert_eq!(rxs.len(), n, "one receiver per staged slot");
    if n == 0 {
        return;
    }
    let DecodeBatchScratch {
        slots, workspaces, ..
    } = scratch;
    let mut results = [(0usize, false); MAX_DECODE_BATCH];
    {
        // Fixed-size, so the drain stays allocation-free; entries past `n`
        // repeat the last staged slot and are never decoded.
        let jobs: [TurboBatchJob<'_>; MAX_DECODE_BATCH] = std::array::from_fn(|i| {
            let i = i.min(n - 1);
            let s = &slots[i];
            let (d0, d1, d2) = split_streams(&s.streams);
            TurboBatchJob {
                decoder: &rxs[i].codecs[s.codec_idx].decoder,
                d0,
                d1,
                d2,
                max_iters: s.max_iters,
            }
        });
        let early_stop = |i: usize, bits: &[u8]| {
            let s = &slots[i];
            if s.multi {
                CRC24B.check(bits)
            } else {
                CRC24A.check(&bits[s.filler..])
            }
        };
        decode_batch(&jobs[..n], early_stop, workspaces, &mut results);
    }
    for ((s, ws), &(iterations, crc_ok)) in
        slots.iter_mut().zip(workspaces.iter()).zip(&results[..n])
    {
        s.bits.clear();
        s.bits.extend_from_slice(&ws.bits);
        s.iterations = iterations;
        s.crc_ok = crc_ok;
    }
}

/// Preallocated per-subframe state backing a [`SlabJob`]: the grids, the
/// channel estimate, the coded-LLR stream and the per-block results. A
/// runtime worker keeps one slab per core, warms it once for every
/// configuration it will see, and reuses it for every subframe: the
/// steady-state staged decode then performs **zero heap allocations**,
/// matching `decode_subframe_with`.
#[derive(Debug, Default)]
pub struct JobSlab {
    grids: Vec<Grid>,
    est: ChannelEstimate,
    llrs: Vec<f32>,
    block_bits: Vec<Vec<u8>>,
    block_iters: Vec<usize>,
    block_crc: Vec<bool>,
    tb: Vec<u8>,
    tb_oks: Vec<bool>,
    payload: Vec<u8>,
}

impl JobSlab {
    /// An empty slab; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the slab for `cfg` (grids rebuilt only on a bandwidth or
    /// antenna-count change; everything else grow-only).
    fn prepare(&mut self, cfg: &UplinkConfig) {
        let rebuild = self.grids.len() != cfg.num_antennas
            || self
                .grids
                .first()
                .is_some_and(|g| g.bandwidth() != cfg.bandwidth);
        if rebuild {
            // analyze: allow(alloc): slab construction; runs once per config change and tests/alloc_regression.rs proves the steady state is alloc-free
            self.grids = vec![Grid::new(cfg.bandwidth); cfg.num_antennas];
        }
        let c = cfg.seg.num_blocks;
        while self.block_bits.len() < c {
            // analyze: allow(alloc): slab construction; runs once per config change and tests/alloc_regression.rs proves the steady state is alloc-free
            self.block_bits.push(Vec::new());
        }
        self.llrs.clear();
        self.llrs.resize(cfg.coded_bits(), 0.0);
        self.block_iters.clear();
        self.block_iters.resize(c, 0);
        self.block_crc.clear();
        self.block_crc.resize(c, false);
    }

    /// Pre-grows every buffer to the steady-state size of `cfg`, so later
    /// [`UplinkRx::start_job_in`] cycles with this configuration (or any
    /// smaller one) perform no heap allocation.
    pub fn warm(&mut self, cfg: &UplinkConfig) {
        self.prepare(cfg);
        let m = cfg.alloc_subcarriers();
        let seg = &cfg.seg;
        let c = seg.num_blocks;
        for (r, bits) in self.block_bits.iter_mut().enumerate().take(c) {
            let want = seg.block_size(r);
            bits.reserve(want.saturating_sub(bits.len()));
        }
        let grow = |v: &mut Vec<u8>, n: usize| v.reserve(n.saturating_sub(v.len()));
        grow(&mut self.tb, seg.input_bits);
        grow(&mut self.payload, cfg.transport_block_bytes());
        self.tb_oks.reserve(c.saturating_sub(self.tb_oks.len()));
        while self.est.h.len() < cfg.num_antennas {
            self.est.h.push(Vec::new());
        }
        for ha in self.est.h.iter_mut().take(cfg.num_antennas) {
            ha.reserve(m.saturating_sub(ha.len()));
        }
    }

    /// The recovered payload bytes of the last finished job.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Per-block turbo iteration counts of the last finished job.
    pub fn block_iterations(&self) -> &[usize] {
        &self.block_iters
    }

    /// Per-block CRC outcomes of the last finished job.
    pub fn block_crc_ok(&self) -> &[bool] {
        &self.block_crc
    }
}

/// Compact outcome of a slab-backed staged decode: the ACK/NACK decision
/// plus iteration accounting. The payload stays in the slab
/// ([`JobSlab::payload`]) — nothing is allocated.
#[derive(Clone, Copy, Debug)]
pub struct SlabVerdict {
    /// Transport-block CRC24A result — the ACK/NACK decision.
    pub crc_ok: bool,
    /// Total turbo iterations across code blocks.
    pub total_iterations: usize,
}

/// The staged decode of one subframe, structured as the paper's Fig. 5
/// stages and subtasks, with every intermediate buffer in a caller-owned
/// [`JobSlab`]. Local subtasks write straight into the slab; migrated
/// subtasks run via the `_into` kernels on the thief's thread into arena
/// slots the owner absorbs with `absorb_*`. The stage transitions and
/// [`SlabJob::finish`] belong to the owning thread.
pub struct SlabJob<'a> {
    rx: &'a UplinkRx,
    samples: &'a [Vec<Cf32>],
    slab: &'a mut JobSlab,
    /// Antennas whose 14-symbol FFT batch has run or been absorbed (bit `a`).
    fft_done: u64,
    /// Demod subtasks that have run (bit `i`).
    demod_done: u64,
    /// Decode subtasks (code blocks) that have run or been absorbed (bit `r`).
    decode_done: u64,
}

/// Records subtask `i` of a stage in its completion mask.
///
/// # Panics
/// Panics if subtask `i` is already recorded.
fn mark_done(mask: &mut u64, i: usize, what: &str) {
    let bit = 1 << i;
    // analyze: allow(panic): the paper's guarantee is that a subtask is never executed twice; a repeat means the scheduler ran or absorbed it twice, and the stage would go on from a grid, LLR row or code block another subtask never wrote, or count a block's iterations twice
    assert!(*mask & bit == 0, "{what} {i} ran twice");
    *mask |= bit;
}

/// The mask with the low `n` bits set (`n < 64`): every subtask of an
/// `n`-subtask stage done.
fn all_done(n: usize) -> u64 {
    (1 << n) - 1
}

impl UplinkRx {
    /// Starts a staged decode of one subframe whose buffers come from
    /// `slab`. `rx_samples` holds one stream per receive antenna.
    ///
    /// # Errors
    /// Returns [`PhyError::LengthMismatch`] on an antenna-stream or
    /// sample-count mismatch.
    pub fn start_job_in<'a>(
        &'a self,
        rx_samples: &'a [Vec<Cf32>],
        slab: &'a mut JobSlab,
    ) -> Result<SlabJob<'a>, PhyError> {
        self.check_samples(rx_samples)?;
        slab.prepare(&self.cfg);
        Ok(SlabJob {
            rx: self,
            samples: rx_samples,
            slab,
            fft_done: 0,
            demod_done: 0,
            decode_done: 0,
        })
    }
}

impl SlabJob<'_> {
    /// Absorbs a migrated 14-symbol FFT batch (produced by
    /// [`UplinkRx::run_fft_batch_into`] on another thread).
    ///
    /// # Panics
    /// Panics if `flat` is not `14 × num_subcarriers` long, or if this
    /// antenna's batch already ran or was absorbed.
    pub fn absorb_fft_batch(&mut self, antenna: usize, flat: &[Cf32]) {
        let nsc = self.rx.cfg.bandwidth.num_subcarriers();
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(flat.len(), SYMBOLS_PER_SUBFRAME * nsc, "batch length");
        self.slab.grids[antenna].rows_mut().copy_from_slice(flat);
        mark_done(&mut self.fft_done, antenna, "FFT batch of antenna");
    }

    /// Runs one antenna's whole 14-symbol FFT batch on the owning thread,
    /// demodulating straight into the slab's grid. The batch is the FFT
    /// subtask the runtime schedules; a thief runs the same unit through
    /// [`UplinkRx::run_fft_batch_into`].
    ///
    /// # Panics
    /// Panics if `antenna` is out of range, or if its batch already ran
    /// or was absorbed.
    pub fn run_fft_batch_local(&mut self, antenna: usize) {
        let grid = self.slab.grids[antenna].rows_mut();
        workspace::with_thread_workspace(|ws| {
            self.rx.fft_batch(self.samples, antenna, grid, &mut ws.sym);
        });
        mark_done(&mut self.fft_done, antenna, "FFT batch of antenna");
    }

    /// Ends the FFT task: estimates the channel from the DMRS symbols.
    ///
    /// # Panics
    /// Panics if an antenna's FFT batch is still outstanding.
    pub fn finish_fft(&mut self) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            self.fft_done,
            all_done(self.rx.cfg.num_antennas),
            "FFT task incomplete"
        );
        let band = 0..self.rx.cfg.alloc_subcarriers();
        estimate_channel_band_into(&self.slab.grids, &self.rx.dmrs, band, &mut self.slab.est);
    }

    /// Number of demod subtasks (12 data symbols).
    pub fn demod_subtask_count(&self) -> usize {
        self.rx.cfg.breakdown().demod
    }

    /// Runs demod subtask `i` on the owning thread, writing LLRs straight
    /// into the slab's coded stream.
    ///
    /// # Panics
    /// Panics if called before [`SlabJob::finish_fft`], if `i` is out of
    /// range, or if subtask `i` already ran.
    pub fn run_demod_subtask_local(&mut self, i: usize) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            self.fft_done,
            all_done(self.rx.cfg.num_antennas),
            "FFT task incomplete"
        );
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(
            i < self.demod_subtask_count(),
            "demod subtask {i} out of range"
        );
        let slab = &mut *self.slab;
        workspace::with_thread_workspace(|ws| {
            self.rx
                .demod_symbol(&slab.grids, &slab.est, i, &mut slab.llrs, &mut ws.sym);
        });
        mark_done(&mut self.demod_done, i, "demod subtask");
    }

    /// The complete coded-LLR stream (valid once the demod task finished).
    /// This is what the owner copies into its arena when publishing decode
    /// subtasks for stealing.
    ///
    /// # Panics
    /// Panics if demod subtasks are still outstanding.
    pub fn coded_llrs(&self) -> &[f32] {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            self.demod_done,
            all_done(self.demod_subtask_count()),
            "demod task incomplete"
        );
        &self.slab.llrs
    }

    /// Number of decode subtasks (`C` code blocks).
    pub fn decode_subtask_count(&self) -> usize {
        self.rx.cfg.seg.num_blocks
    }

    /// Runs decode subtask `r` on the owning thread, writing straight into
    /// the slab's per-block buffers.
    ///
    /// # Panics
    /// Panics if demod subtasks are still outstanding, `r` is out of
    /// range, or block `r` already ran or was absorbed.
    pub fn run_decode_subtask_local(&mut self, r: usize) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            self.demod_done,
            all_done(self.demod_subtask_count()),
            "demod task incomplete"
        );
        let (iterations, crc_ok) =
            self.rx
                .run_decode_subtask_into(&self.slab.llrs, r, &mut self.slab.block_bits[r]);
        self.slab.block_iters[r] = iterations;
        self.slab.block_crc[r] = crc_ok;
        mark_done(&mut self.decode_done, r, "decode subtask");
    }

    /// Runs every decode subtask whose bit is set in `mask` on the owning
    /// thread, draining them through [`run_staged_decode_batch`] in groups
    /// of up to [`MAX_DECODE_BATCH`] so same-`K` blocks share one wide
    /// turbo kernel. Bit-for-bit identical to per-block
    /// [`SlabJob::run_decode_subtask_local`] calls.
    ///
    /// # Panics
    /// Panics if demod subtasks are still outstanding, `mask` addresses
    /// a block out of range, or one that already ran or was absorbed.
    pub fn run_decode_batch_local(&mut self, mask: u64, scratch: &mut DecodeBatchScratch) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            self.demod_done,
            all_done(self.demod_subtask_count()),
            "demod task incomplete"
        );
        let blocks = self.decode_subtask_count();
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(
            blocks >= 64 - mask.leading_zeros() as usize,
            "decode mask out of range"
        );
        let mut staged = [0usize; MAX_DECODE_BATCH];
        let mut r = 0;
        while r < blocks {
            scratch.clear();
            let mut ns = 0;
            while r < blocks && ns < scratch.capacity() {
                if mask & (1 << r) != 0 {
                    self.rx.stage_decode_subtask(&self.slab.llrs, r, scratch);
                    staged[ns] = r;
                    ns += 1;
                }
                r += 1;
            }
            if ns == 0 {
                continue;
            }
            let rxs = [self.rx; MAX_DECODE_BATCH];
            run_staged_decode_batch(&rxs[..ns], scratch);
            for (i, &br) in staged.iter().enumerate().take(ns) {
                let slot = scratch.slot(i);
                let bits = &mut self.slab.block_bits[br];
                bits.clear();
                bits.extend_from_slice(&slot.bits);
                self.slab.block_iters[br] = slot.iterations;
                self.slab.block_crc[br] = slot.crc_ok;
                mark_done(&mut self.decode_done, br, "decode subtask");
            }
        }
    }

    /// Absorbs a migrated decode result (produced by
    /// [`UplinkRx::run_decode_subtask_into`] on another thread).
    ///
    /// # Panics
    /// Panics if `r` is out of range, or if block `r` already ran or was
    /// absorbed.
    pub fn absorb_decode_buf(&mut self, r: usize, buf: &BlockBuf) {
        let bits = &mut self.slab.block_bits[r];
        bits.clear();
        bits.extend_from_slice(&buf.bits);
        self.slab.block_iters[r] = buf.iterations;
        self.slab.block_crc[r] = buf.crc_ok;
        mark_done(&mut self.decode_done, r, "decode subtask");
    }

    /// Whether decode subtask `r` has been run or absorbed.
    pub fn decode_done(&self, r: usize) -> bool {
        self.decode_done & (1 << r) != 0
    }

    /// Finishes the job: reassembles the transport block into the slab and
    /// checks its CRC. The payload stays in [`JobSlab::payload`].
    ///
    /// # Errors
    /// Propagates desegmentation shape errors.
    ///
    /// # Panics
    /// Panics if any decode subtask is missing.
    pub fn finish(self) -> Result<SlabVerdict, PhyError> {
        let cfg = &self.rx.cfg;
        let c = cfg.seg.num_blocks;
        let missing = all_done(c) & !self.decode_done;
        // analyze: allow(panic): stage-ordering protocol; the SlotBoard confirms every subtask before this stage runs, so a missing result is a scheduler bug
        assert!(
            missing == 0,
            "decode subtask {} missing",
            missing.trailing_zeros()
        );
        cfg.seg.desegment_into(
            &self.slab.block_bits[..c],
            &mut self.slab.tb,
            &mut self.slab.tb_oks,
        )?;
        let crc_ok = CRC24A.check(&self.slab.tb) && self.slab.block_crc[..c].iter().all(|&b| b);
        bits_to_bytes_into(&self.slab.tb[..cfg.tbs_bits()], &mut self.slab.payload);
        Ok(SlabVerdict {
            crc_ok,
            total_iterations: self.slab.block_iters[..c].iter().sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{complex_gaussian, AwgnChannel, ChannelModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(cfg: &UplinkConfig, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cfg.transport_block_bytes())
            .map(|_| rng.gen())
            .collect()
    }

    fn run_e2e(bw: Bandwidth, ants: usize, mcs: u8, snr_db: f64, seed: u64) -> (RxOutput, Vec<u8>) {
        let cfg = UplinkConfig::new(bw, ants, mcs).unwrap();
        let tx = UplinkTx::new(cfg.clone());
        let p = payload(&cfg, seed);
        let sf = tx.encode_subframe(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut ch = AwgnChannel::new(snr_db);
        let rx_samples = ch.apply(&sf.samples, ants, &mut rng);
        let rx = UplinkRx::new(cfg);
        (rx.decode_subframe(&rx_samples).unwrap(), p)
    }

    #[test]
    fn bits_bytes_roundtrip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C];
        let mut back = Vec::new();
        bits_to_bytes_into(&bytes_to_bits(&bytes), &mut back);
        assert_eq!(back, bytes);
        assert_eq!(bytes_to_bits(&[0x80])[0], 1);
    }

    #[test]
    fn e2e_qpsk_clean_channel() {
        let (out, p) = run_e2e(Bandwidth::Mhz1_4, 1, 5, 30.0, 1);
        assert!(out.crc_ok);
        assert_eq!(out.payload, p);
        assert_eq!(out.max_iterations(), 1, "clean channel needs 1 iteration");
    }

    #[test]
    fn e2e_16qam_two_antennas() {
        let (out, p) = run_e2e(Bandwidth::Mhz1_4, 2, 15, 25.0, 2);
        assert!(out.crc_ok);
        assert_eq!(out.payload, p);
    }

    #[test]
    fn e2e_64qam_high_mcs() {
        let (out, p) = run_e2e(Bandwidth::Mhz1_4, 2, 27, 30.0, 3);
        assert!(out.crc_ok);
        assert_eq!(out.payload, p);
    }

    #[test]
    fn e2e_5mhz_multi_block() {
        // 5 MHz, MCS 20: TBS big enough for multiple code blocks.
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
        assert!(cfg.segmentation().num_blocks >= 2);
        let (out, p) = run_e2e(Bandwidth::Mhz5, 2, 20, 28.0, 4);
        assert!(out.crc_ok);
        assert_eq!(out.payload, p);
        assert_eq!(out.block_crc_ok.len(), cfg.segmentation().num_blocks);
    }

    #[test]
    fn low_snr_fails_crc_not_panics() {
        let (out, _) = run_e2e(Bandwidth::Mhz1_4, 1, 27, -5.0, 5);
        assert!(!out.crc_ok);
        assert_eq!(out.max_iterations(), 4, "hopeless decode hits Lm");
    }

    #[test]
    fn iterations_grow_as_snr_drops() {
        let hi = run_e2e(Bandwidth::Mhz1_4, 2, 16, 30.0, 6)
            .0
            .block_iterations
            .iter()
            .sum::<usize>();
        let lo = run_e2e(Bandwidth::Mhz1_4, 2, 16, 8.5, 6)
            .0
            .block_iterations
            .iter()
            .sum::<usize>();
        assert!(
            lo >= hi,
            "iterations should not decrease with noise: {hi} vs {lo}"
        );
    }

    #[test]
    fn partial_allocation_roundtrip() {
        // 10 of 25 PRBs at 5 MHz: TBS, G, and the DMRS band all shrink;
        // the chain must still decode cleanly.
        let cfg = UplinkConfig::with_allocation(Bandwidth::Mhz5, 2, 14, 4, 10).unwrap();
        assert_eq!(cfg.alloc_subcarriers(), 120);
        assert_eq!(cfg.tbs_bits(), cfg.mcs.transport_block_bits(10));
        assert_eq!(cfg.coded_bits(), 120 * 12 * 4);
        let tx = UplinkTx::new(cfg.clone());
        let rx = UplinkRx::new(cfg.clone());
        let p = payload(&cfg, 41);
        let sf = tx.encode_subframe(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut ch = AwgnChannel::new(25.0);
        let rxs = ch.apply(&sf.samples, 2, &mut rng);
        let out = rx.decode_subframe(&rxs).unwrap();
        assert!(out.crc_ok);
        assert_eq!(out.payload, p);
    }

    #[test]
    fn partial_allocation_leaves_unused_band_silent() {
        // Energy outside the allocated band must be (near) zero — the rest
        // of the carrier belongs to other users.
        let cfg = UplinkConfig::with_allocation(Bandwidth::Mhz5, 1, 10, 4, 8).unwrap();
        let tx = UplinkTx::new(cfg.clone());
        let sf = tx.encode_subframe(&payload(&cfg, 42)).unwrap();
        // Demodulate the clean waveform and inspect the grid.
        let ofdm = crate::resource_grid::OfdmProcessor::new(cfg.bandwidth);
        let grid = ofdm.demodulate(&sf.samples);
        let m = cfg.alloc_subcarriers();
        let width = cfg.bandwidth.num_subcarriers();
        let mut in_band = 0.0f32;
        let mut out_band = 0.0f32;
        for l in 0..SYMBOLS_PER_SUBFRAME {
            let row = grid.symbol(l);
            in_band += row[..m].iter().map(|v| v.norm_sq()).sum::<f32>();
            out_band += row[m..].iter().map(|v| v.norm_sq()).sum::<f32>();
        }
        assert!(in_band > 1.0, "allocation carries energy");
        assert!(
            out_band < in_band * ((width - m) as f32 / m as f32) * 1e-3,
            "unallocated band leaks: {out_band} vs {in_band}"
        );
    }

    #[test]
    fn smaller_allocation_fewer_code_blocks() {
        // Fewer PRBs ⇒ smaller TBS ⇒ fewer decode subtasks — the mechanism
        // behind §4.2's note that varying PRB utilization changes the
        // migration opportunity profile.
        let full = UplinkConfig::new(Bandwidth::Mhz10, 2, 27).unwrap();
        let half = UplinkConfig::with_allocation(Bandwidth::Mhz10, 2, 27, 4, 25).unwrap();
        assert!(half.breakdown().decode < full.breakdown().decode);
        assert!(half.tbs_bits() < full.tbs_bits());
    }

    #[test]
    fn zero_or_oversized_allocation_rejected() {
        assert!(UplinkConfig::with_allocation(Bandwidth::Mhz5, 1, 5, 4, 0).is_err());
        assert!(UplinkConfig::with_allocation(Bandwidth::Mhz5, 1, 5, 4, 26).is_err());
    }

    /// Block fading: per antenna, an independent Rayleigh gain for each
    /// `(delay in samples, average power)` tap, held for the subframe,
    /// plus AWGN at `snr_db`. One tap at delay 0 is flat fading; delays
    /// must stay well inside the normal CP.
    fn fading(
        tx: &[Cf32],
        ants: usize,
        snr_db: f64,
        profile: &[(usize, f32)],
        rng: &mut StdRng,
    ) -> Vec<Vec<Cf32>> {
        let sigma = (10f64.powf(-snr_db / 10.0) as f32).sqrt();
        (0..ants)
            .map(|_| {
                let taps: Vec<(usize, Cf32)> = profile
                    .iter()
                    .map(|&(d, p)| (d, complex_gaussian(rng).scale(p.sqrt())))
                    .collect();
                (0..tx.len())
                    .map(|n| {
                        let mut acc = Cf32::ZERO;
                        for &(d, h) in &taps {
                            if n >= d {
                                acc += h * tx[n - d];
                            }
                        }
                        acc + complex_gaussian(rng).scale(sigma)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rayleigh_fading_decodes_at_high_average_snr() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 4, 10).unwrap();
        let tx = UplinkTx::new(cfg.clone());
        let p = payload(&cfg, 7);
        let sf = tx.encode_subframe(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rx_samples = fading(&sf.samples, 4, 30.0, &[(0, 1.0)], &mut rng);
        let rx = UplinkRx::new(cfg);
        let out = rx.decode_subframe(&rx_samples).unwrap();
        assert!(out.crc_ok, "4-branch diversity at 30 dB must decode");
        assert_eq!(out.payload, p);
    }

    #[test]
    fn e2e_frequency_selective_channel() {
        // Two-antenna diversity through a two-path fading channel: the
        // per-subcarrier LS estimate + MRC must flatten the echo.
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, 8).unwrap();
        let tx = UplinkTx::new(cfg.clone());
        let rx = UplinkRx::new(cfg.clone());
        let mut decoded = 0;
        let trials = 6;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let p = payload(&cfg, seed);
            let sf = tx.encode_subframe(&p).unwrap();
            // A main path and a −6 dB echo 16 samples later.
            let rx_samples = fading(&sf.samples, 2, 28.0, &[(0, 0.8), (16, 0.2)], &mut rng);
            let out = rx.decode_subframe(&rx_samples).unwrap();
            if out.crc_ok && out.payload == p {
                decoded += 1;
            }
        }
        // Rayleigh taps occasionally fade both antennas; most must decode.
        assert!(decoded >= trials - 1, "only {decoded}/{trials} decoded");
    }

    #[test]
    fn slab_job_equals_serial() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
        assert!(cfg.segmentation().num_blocks >= 2);
        let tx = UplinkTx::new(cfg.clone());
        let p = payload(&cfg, 9);
        let sf = tx.encode_subframe(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ch = AwgnChannel::new(22.0);
        let rx_samples = ch.apply(&sf.samples, 2, &mut rng);
        let rx = UplinkRx::new(cfg.clone());

        let serial = rx.decode_subframe(&rx_samples).unwrap();

        let mut slab = JobSlab::new();
        slab.warm(&cfg);
        // Run the slab job three times (reuse), alternating local subtasks
        // with the migrated `_into` + `absorb_*` path, as the cluster would;
        // the last round also runs every stage's subtasks in reverse order,
        // as migration would.
        for round in 0..3 {
            let order = |n: usize| -> Vec<usize> {
                if round == 2 {
                    (0..n).rev().collect()
                } else {
                    (0..n).collect()
                }
            };
            let mut job = rx.start_job_in(&rx_samples, &mut slab).unwrap();
            let mut batch = Vec::new();
            for a in order(cfg.num_antennas) {
                if (a + round) % 2 == 0 {
                    job.run_fft_batch_local(a);
                } else {
                    rx.run_fft_batch_into(&rx_samples, a, &mut batch);
                    job.absorb_fft_batch(a, &batch);
                }
            }
            job.finish_fft();
            for i in order(job.demod_subtask_count()) {
                job.run_demod_subtask_local(i);
            }
            let llrs = job.coded_llrs().to_vec();
            let mut buf = BlockBuf::new();
            for r in order(job.decode_subtask_count()) {
                if (r + round) % 2 == 0 {
                    job.run_decode_subtask_local(r);
                } else {
                    let (iterations, crc_ok) = rx.run_decode_subtask_into(&llrs, r, &mut buf.bits);
                    buf.iterations = iterations;
                    buf.crc_ok = crc_ok;
                    job.absorb_decode_buf(r, &buf);
                }
                assert!(job.decode_done(r));
            }
            let verdict = job.finish().unwrap();
            assert_eq!(verdict.crc_ok, serial.crc_ok);
            let serial_total: usize = serial.block_iterations.iter().sum();
            assert_eq!(verdict.total_iterations, serial_total);
            assert_eq!(slab.payload(), &serial.payload[..]);
            assert_eq!(slab.block_iterations(), &serial.block_iterations[..]);
            assert_eq!(slab.block_crc_ok(), &serial.block_crc_ok[..]);
        }
    }

    /// A clean subframe of `cfg` on 2 antennas and its receiver, for the
    /// stage bookkeeping tests.
    fn clean_subframe(cfg: UplinkConfig) -> (UplinkRx, Vec<Vec<Cf32>>) {
        let sf = UplinkTx::new(cfg.clone())
            .encode_subframe(&payload(&cfg, 3))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rx_samples = AwgnChannel::new(30.0).apply(&sf.samples, 2, &mut rng);
        (UplinkRx::new(cfg), rx_samples)
    }

    /// The one-block 1.4 MHz QPSK case of [`clean_subframe`].
    fn two_antenna_subframe() -> (UplinkRx, Vec<Vec<Cf32>>) {
        clean_subframe(UplinkConfig::new(Bandwidth::Mhz1_4, 2, 5).unwrap())
    }

    #[test]
    #[should_panic(expected = "FFT batch of antenna 0 ran twice")]
    fn repeated_fft_batch_panics() {
        let (rx, samples) = two_antenna_subframe();
        let mut slab = JobSlab::new();
        let mut job = rx.start_job_in(&samples, &mut slab).unwrap();
        let mut batch = Vec::new();
        rx.run_fft_batch_into(&samples, 0, &mut batch);
        job.run_fft_batch_local(0);
        // Antenna 1 never runs; a count would see 28 symbols and estimate
        // the channel from antenna 1's grid of the previous subframe.
        job.absorb_fft_batch(0, &batch);
        job.finish_fft();
    }

    #[test]
    #[should_panic(expected = "demod subtask 0 ran twice")]
    fn repeated_demod_subtask_panics() {
        let (rx, samples) = two_antenna_subframe();
        let mut slab = JobSlab::new();
        let mut job = rx.start_job_in(&samples, &mut slab).unwrap();
        job.run_fft_batch_local(0);
        job.run_fft_batch_local(1);
        job.finish_fft();
        let last = job.demod_subtask_count() - 1;
        for i in 0..last {
            job.run_demod_subtask_local(i);
        }
        // Subtask `last` never runs; a count would accept its stale LLRs.
        job.run_demod_subtask_local(0);
        job.coded_llrs();
    }

    /// Starts a job and runs its FFT and demod stages.
    fn job_at_decode<'a>(
        rx: &'a UplinkRx,
        samples: &'a [Vec<Cf32>],
        slab: &'a mut JobSlab,
    ) -> SlabJob<'a> {
        let mut job = rx.start_job_in(samples, slab).unwrap();
        job.run_fft_batch_local(0);
        job.run_fft_batch_local(1);
        job.finish_fft();
        for i in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(i);
        }
        job
    }

    #[test]
    #[should_panic(expected = "decode subtask 0 ran twice")]
    fn local_then_absorbed_decode_block_panics() {
        let (rx, samples) = two_antenna_subframe();
        let mut slab = JobSlab::new();
        let mut job = job_at_decode(&rx, &samples, &mut slab);
        let mut buf = BlockBuf::new();
        (buf.iterations, buf.crc_ok) =
            rx.run_decode_subtask_into(job.coded_llrs(), 0, &mut buf.bits);
        job.run_decode_subtask_local(0);
        // A thief's result for the same block arrives as well; a flag
        // would take it and finish as if one decode had run.
        job.absorb_decode_buf(0, &buf);
        job.finish().unwrap();
    }

    #[test]
    #[should_panic(expected = "decode subtask 1 ran twice")]
    fn batch_mask_over_a_run_block_panics() {
        let (rx, samples) = clean_subframe(UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap());
        let blocks = rx.config().segmentation().num_blocks;
        assert!(blocks >= 2);
        let mut slab = JobSlab::new();
        let mut scratch = DecodeBatchScratch::new();
        let mut job = job_at_decode(&rx, &samples, &mut slab);
        job.run_decode_subtask_local(1);
        // The drain's mask still names block 1.
        job.run_decode_batch_local(all_done(blocks), &mut scratch);
        job.finish().unwrap();
    }

    #[test]
    fn batched_decode_drain_equals_serial() {
        // Multi-block (same-K blocks pair through the wide kernel) and
        // single-block (degenerate drain) configs, at an SNR low enough
        // that iteration counts vary — any kernel divergence shows up in
        // `block_iterations`, not just the payload.
        for (mcs, snr_db) in [(20u8, 6.0), (5u8, 2.0)] {
            let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, mcs).unwrap();
            let tx = UplinkTx::new(cfg.clone());
            let p = payload(&cfg, 31);
            let sf = tx.encode_subframe(&p).unwrap();
            let mut rng = StdRng::seed_from_u64(31);
            let mut ch = AwgnChannel::new(snr_db);
            let rx_samples = ch.apply(&sf.samples, 2, &mut rng);
            let rx = UplinkRx::new(cfg.clone());

            let run = |batched: bool| {
                let mut slab = JobSlab::new();
                slab.warm(&cfg);
                let mut scratch = DecodeBatchScratch::new();
                scratch.warm(&cfg);
                let mut job = rx.start_job_in(&rx_samples, &mut slab).unwrap();
                for a in 0..2 {
                    job.run_fft_batch_local(a);
                }
                job.finish_fft();
                for i in 0..job.demod_subtask_count() {
                    job.run_demod_subtask_local(i);
                }
                let blocks = job.decode_subtask_count();
                if batched {
                    job.run_decode_batch_local((1u64 << blocks) - 1, &mut scratch);
                } else {
                    for r in 0..blocks {
                        job.run_decode_subtask_local(r);
                    }
                }
                let verdict = job.finish().unwrap();
                (
                    verdict.crc_ok,
                    slab.payload().to_vec(),
                    slab.block_iterations().to_vec(),
                    slab.block_crc_ok().to_vec(),
                )
            };
            assert_eq!(run(true), run(false), "mcs {mcs}");
        }
    }

    #[test]
    fn batched_drain_handles_sparse_masks() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz5, 2, 20).unwrap();
        let blocks = cfg.segmentation().num_blocks;
        assert!(blocks >= 2);
        let tx = UplinkTx::new(cfg.clone());
        let p = payload(&cfg, 7);
        let sf = tx.encode_subframe(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut ch = AwgnChannel::new(22.0);
        let rx_samples = ch.apply(&sf.samples, 2, &mut rng);
        let rx = UplinkRx::new(cfg.clone());
        let mut slab = JobSlab::new();
        slab.warm(&cfg);
        let mut scratch = DecodeBatchScratch::new();
        scratch.warm(&cfg);
        let mut job = rx.start_job_in(&rx_samples, &mut slab).unwrap();
        for a in 0..2 {
            job.run_fft_batch_local(a);
        }
        job.finish_fft();
        for i in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(i);
        }
        // Odd blocks via the batch drain, even blocks serially — the mix a
        // steal-mode owner produces when thieves took part of the stage.
        let mut mask = 0u64;
        for r in (1..blocks).step_by(2) {
            mask |= 1 << r;
        }
        job.run_decode_batch_local(mask, &mut scratch);
        for r in (0..blocks).step_by(2) {
            assert!(!job.decode_done(r));
            job.run_decode_subtask_local(r);
        }
        for r in 0..blocks {
            assert!(job.decode_done(r));
        }
        let verdict = job.finish().unwrap();
        assert!(verdict.crc_ok);
        let serial = rx.decode_subframe(&rx_samples).unwrap();
        assert_eq!(slab.payload(), &serial.payload[..]);
        assert_eq!(slab.block_iterations(), &serial.block_iterations[..]);
    }

    #[test]
    fn config_validation() {
        assert!(UplinkConfig::new(Bandwidth::Mhz10, 0, 5).is_err());
        assert!(UplinkConfig::new(Bandwidth::Mhz10, 9, 5).is_err());
        assert!(UplinkConfig::new(Bandwidth::Mhz10, 2, 29).is_err());
        assert!(UplinkConfig::with_iters(Bandwidth::Mhz10, 2, 5, 0).is_err());
    }

    #[test]
    fn e_splits_sum_to_g() {
        for mcs in [0u8, 9, 17, 27, 28] {
            let cfg = UplinkConfig::new(Bandwidth::Mhz10, 2, mcs).unwrap();
            let total: usize = cfg.e_splits().iter().sum();
            assert_eq!(total, cfg.coded_bits(), "MCS {mcs}");
            for e in cfg.e_splits() {
                assert_eq!(e % cfg.mcs.modulation_order(), 0);
            }
        }
    }

    #[test]
    fn breakdown_matches_paper_config() {
        // Paper: N = 2, 10 MHz, MCS 27 → 28 FFT subtasks, 12 demod, 6 decode.
        let cfg = UplinkConfig::new(Bandwidth::Mhz10, 2, 27).unwrap();
        let b = cfg.breakdown();
        assert_eq!(b.fft, 28);
        assert_eq!(b.demod, 12);
        assert_eq!(b.decode, 6);
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 1, 5).unwrap();
        let tx = UplinkTx::new(cfg);
        assert!(tx.encode_subframe(&[0u8; 3]).is_err());
    }

    #[test]
    fn wrong_antenna_count_rejected() {
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, 5).unwrap();
        let rx = UplinkRx::new(cfg.clone());
        let one = vec![vec![Cf32::ZERO; cfg.bandwidth.samples_per_subframe()]];
        assert!(rx.start_job_in(&one, &mut JobSlab::new()).is_err());
        assert!(rx.decode_subframe(&one).is_err());
    }
}
