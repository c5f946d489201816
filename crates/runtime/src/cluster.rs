//! The sharded multi-cell runtime: one `CranCluster` drives N cells
//! (RAPs) on one host — the consolidation regime of Figs. 17/18.
//!
//! Four scheduler modes share the same transport cadence, calibration and
//! PHY so their deadline behaviour is directly comparable:
//!
//! * **Partitioned** (§3.1.1) — each cell owns `⌈T_max⌉ = 2` cores; a
//!   subframe runs serially on its assigned core; no cross-core help.
//! * **Global** (§3.1.2) — one shared FIFO queue, any core takes the next
//!   subframe whole.
//! * **RT-OPEX (mutex)** — the PR-2 era migration path: Algorithm 1 plans
//!   at the *owner*, ships subtasks as boxed closures through per-core
//!   `Mutex<VecDeque>+Condvar` inboxes, and recovers stragglers. Kept as
//!   the baseline the lock-free path is measured against.
//! * **RT-OPEX (steal)** — the lock-free path: the owner publishes
//!   subtask *tickets* into its bounded Chase–Lev deque
//!   ([`rtopex_core::steal`]) and drains it LIFO; parked cores steal FIFO
//!   from the top and run the δ admission check (*steal-time*, not
//!   plan-time) before executing into the owner's preallocated slot
//!   arena. Nothing migrates unless a thief actually had the idle cycles
//!   to take it — Algorithm 1's "migrate to idle cores" without the
//!   sender ever guessing wrong about who is idle.
//!
//! ## One driver, two sources
//!
//! Every run goes through one private driver (`CranCluster::drive`): it
//! builds the pool, calibration, arenas and shared state, spawns and
//! barriers the pinned workers, lets a delivery *source* stage releases,
//! then shuts the inboxes down and assembles the report. The source is
//! the only thing the two public entry points differ in:
//!
//! * [`CranCluster::run`] — **emulated**: the deterministic tower-trace
//!   cadence, every release pre-staged with its embargo timestamp. The
//!   only path with an exact cadence (capacity sweeps) and the only one
//!   on which FFT subtasks migrate, because a helper reads the pool's
//!   samples.
//! * [`CranCluster::run_fed`] — **fed**: subframes pulled off a
//!   [`FronthaulRx`] and swapped into per-cell delivery slots. The only
//!   way network subframes get in; open-ended, so nothing in it depends
//!   on `ClusterConfig::subframes`.
//!
//! Below the driver the file reads top-down: worker loop → one stage
//! helper (`run_stage`, called for FFT and for decode) over two fan-outs
//! (`fanout_steal`, `fanout_mutex`) → one thief executor
//! (`execute_stolen`) that every migrated subtask, ticket or envelope,
//! runs through.
//!
//! ## Allocation discipline
//!
//! Every per-subframe buffer lives in a per-worker [`JobSlab`] or a
//! per-core [`CoreArena`] warmed before the run starts: the steady-state
//! steal-mode loop performs **zero heap allocations** (enforced by
//! `tests/alloc_regression.rs`). The mutex baseline still boxes one
//! closure per migrated subtask — that allocation is the mailbox's cost
//! and part of what the comparison measures.
//!
//! ## Memory-safety protocol for the slot arena
//!
//! A stage publication bumps the arena epoch under the `RwLock` write
//! guard; a thief holds the read guard for its whole execution and
//! re-validates the ticket's epoch first. A straggler from a recovered
//! stage therefore either (a) still holds the read guard — the owner's
//! next publication blocks until it finishes — or (b) acquires it after
//! the bump, sees a stale epoch, and drops the ticket without writing.
//! Slot payloads are only read by the owner after the slot's ready flag
//! turns `DONE` (release/acquire paired), so a half-written slot is never
//! absorbed.

use crate::affinity::pin_current_thread;
use crate::migrate::{Envelope, ResultFlag};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_core::metrics::{DeadlineMetrics, MigrationStats};
use rtopex_core::migration::{plan_migration_into, survey_idle_windows};
use rtopex_core::partitioned::PartitionedSchedule;
use rtopex_core::slots::{SlotBoard, SlotState};
use rtopex_core::steal::{self, decode_ticket, encode_ticket, DeltaGuard, Steal};
use rtopex_core::time::Nanos;
use rtopex_model::stats::Samples;
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_phy::uplink::{BlockBuf, JobSlab, SlabJob, UplinkConfig, UplinkRx, UplinkTx};
use rtopex_phy::Cf32;
use rtopex_transport::{FronthaulRx, MulticellIngest, Recv, RxStats, SubframeBuf, TestbedLink};
use rtopex_workload::{load_to_mcs, LoadTrace, TraceParams};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How subframes are scheduled across the cluster's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerMode {
    /// §3.1.1 — static core ownership, serial subframes, no migration.
    Partitioned,
    /// §3.1.2 — one shared FIFO queue of whole subframes.
    Global,
    /// RT-OPEX over the mutex mailbox (Algorithm 1, sender-initiated).
    RtOpexMutex,
    /// RT-OPEX over the Chase–Lev deque (steal-time admission,
    /// receiver-initiated).
    RtOpexSteal,
}

impl SchedulerMode {
    /// Every mode, in sweep order.
    pub const ALL: [SchedulerMode; 4] = [
        SchedulerMode::Partitioned,
        SchedulerMode::Global,
        SchedulerMode::RtOpexMutex,
        SchedulerMode::RtOpexSteal,
    ];

    /// Stable identifier for reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::Partitioned => "partitioned",
            SchedulerMode::Global => "global",
            SchedulerMode::RtOpexMutex => "rtopex_mutex",
            SchedulerMode::RtOpexSteal => "rtopex_steal",
        }
    }

    /// Whether the mode migrates subtasks across cores.
    pub fn migrates(self) -> bool {
        matches!(
            self,
            SchedulerMode::RtOpexMutex | SchedulerMode::RtOpexSteal
        )
    }
}

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Channel bandwidth of every cell.
    pub bandwidth: Bandwidth,
    /// Receive antennas per cell.
    pub num_antennas: usize,
    /// Consolidated cells (RAPs); each owns 2 cores (`⌈T_max⌉ = 2`).
    pub num_cells: usize,
    /// Subframes per cell.
    pub subframes: usize,
    /// Subframe period (LTE: 1 ms; dilatable — every deadline scales with
    /// it through [`ClusterConfig::budget`]).
    pub period: Duration,
    /// Emulated one-way transport latency.
    pub rtt_half: Duration,
    /// Scheduler under test.
    pub mode: SchedulerMode,
    /// Channel SNR for the pre-encoded subframes.
    pub snr_db: f64,
    /// Distinct MCS values to pre-encode; trace loads snap to the nearest.
    pub mcs_pool: Vec<u8>,
    /// Per-subtask migration cost estimate δ, µs.
    pub delta_us: f64,
    /// RNG seed (traces, payloads, channel noise).
    pub seed: u64,
}

impl ClusterConfig {
    /// A demo cluster: 3 cells at 1.4 MHz / 2 antennas on the true 1 ms
    /// LTE cadence, RT-OPEX(steal).
    pub fn demo() -> Self {
        ClusterConfig {
            bandwidth: Bandwidth::Mhz1_4,
            num_antennas: 2,
            num_cells: 3,
            subframes: 200,
            period: Duration::from_micros(1_000),
            rtt_half: Duration::from_micros(1_000),
            mode: SchedulerMode::RtOpexSteal,
            snr_db: 30.0,
            mcs_pool: vec![5, 10, 16, 22, 27],
            delta_us: 60.0,
            seed: 0xC0DE,
        }
    }

    /// Processing budget per subframe: `2·period − rtt_half` (Eq. 3).
    pub fn budget(&self) -> Duration {
        2 * self.period - self.rtt_half
    }

    /// Total processing cores (2 per cell).
    pub fn total_cores(&self) -> usize {
        self.num_cells * 2
    }
}

/// Results of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The mode that ran.
    pub mode: SchedulerMode,
    /// Cells driven.
    pub cells: usize,
    /// Per-cell deadline outcomes.
    pub deadline: DeadlineMetrics,
    /// Migration accounting (zero for Partitioned/Global).
    pub migration: MigrationStats,
    /// Wall-clock processing times of completed subframes, µs.
    pub proc_us: Samples,
    /// Subframes dropped by the slack check.
    pub dropped: u64,
    /// Completed subframes whose transport-block CRC failed (NACKs).
    pub crc_failures: u64,
    /// Whether CPU pinning succeeded on this machine.
    pub pinned: bool,
    /// Subtasks actually executed by a thief (steal mode).
    pub steals: u64,
    /// Steals the δ admission guard declined at the thief.
    pub declined_steals: u64,
    /// Wall clock from the first release to run end.
    pub elapsed: Duration,
}

impl ClusterReport {
    /// Aggregate deadline-miss rate across cells.
    pub fn miss_rate(&self) -> f64 {
        self.deadline.overall().rate()
    }

    /// Completed subframes per wall-clock second.
    pub fn subframes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.proc_us.len() as f64 / secs
        }
    }
}

/// A pre-encoded, channel-impaired subframe ready for decoding.
pub(crate) struct Prepared {
    pub(crate) mcs: u8,
    pub(crate) rx: UplinkRx,
    pub(crate) samples: Vec<Vec<Cf32>>,
}

/// Calibrated per-MCS execution estimates (µs), indexed like `mcs_pool`.
#[derive(Clone, Debug, Default)]
struct Calib {
    fft_batch_us: f64,
    demod_us: Vec<f64>,
    decode_block_us: Vec<f64>,
    decode_total_us: Vec<f64>,
}

/// One subframe release. `Copy` so the release queues never allocate.
/// Jobs are pre-staged into the inboxes with an embargo timestamp:
/// workers take a job only once `release` has passed, which keeps the
/// cadence exact without a per-release delivery-thread wakeup (whose OS
/// scheduling jitter on a busy host would eat into every budget).
#[derive(Clone, Copy, Debug)]
struct OwnJob {
    cell: usize,
    pool_idx: usize,
    /// Fed-mode delivery slot holding this subframe's samples; unused
    /// (always 0) in the emulated `run()` path, where samples come from
    /// the pre-encoded pool.
    slot: usize,
    release: Instant,
    deadline: Instant,
}

struct InboxState<'a> {
    own: VecDeque<OwnJob>,
    migrated: VecDeque<Envelope<'a>>,
    shutdown: bool,
}

struct Inbox<'a> {
    state: Mutex<InboxState<'a>>,
    cv: Condvar,
}

impl<'a> Inbox<'a> {
    fn with_capacity(cap: usize) -> Self {
        Inbox {
            state: Mutex::new(InboxState {
                own: VecDeque::with_capacity(cap),
                migrated: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// The stage a core has published for helpers. The epoch and the ready
/// flags live in the [`SlotBoard`] (rtopex-core's model-checked
/// publication protocol); this is just its descriptor payload.
struct StageDesc {
    kind: TaskKind,
    pool_idx: usize,
    tp_us: f64,
    deadline: Instant,
    /// Snapshot of the coded-LLR stream for decode stages.
    llrs: Vec<f32>,
}

/// Per-core preallocated migration arena: the publication board (stage
/// descriptor + epoch + ready flags) plus reusable result slots for both
/// subtask kinds. Replaces the per-subframe `Arc<Vec<Mutex<Option<…>>>>`
/// churn the node used to pay.
pub(crate) struct CoreArena {
    board: SlotBoard<StageDesc>,
    /// One flattened 14-row buffer per FFT batch (antenna).
    fft_slots: Vec<Mutex<Vec<Cf32>>>,
    /// One block buffer per decode subtask.
    dec_slots: Vec<Mutex<BlockBuf>>,
}

impl CoreArena {
    fn new(pool: &[Prepared], cfg: &ClusterConfig) -> Self {
        let nsc = cfg.bandwidth.num_subcarriers();
        let max_blocks = pool
            .iter()
            .map(|p| p.rx.config().segmentation().num_blocks)
            .max()
            .unwrap_or(1);
        let max_llrs = pool
            .iter()
            .map(|p| p.rx.config().coded_bits())
            .max()
            .unwrap_or(0);
        let fft_slots = (0..cfg.num_antennas)
            .map(|_| Mutex::new(Vec::with_capacity(14 * nsc)))
            .collect();
        let dec_slots = (0..max_blocks)
            .map(|_| {
                let mut b = BlockBuf::new();
                for p in pool {
                    b.warm(p.rx.config());
                }
                Mutex::new(b)
            })
            .collect();
        CoreArena {
            board: SlotBoard::new(
                cfg.num_antennas.max(max_blocks),
                StageDesc {
                    kind: TaskKind::Demod,
                    pool_idx: 0,
                    tp_us: 0.0,
                    deadline: Instant::now(),
                    llrs: Vec::with_capacity(max_llrs),
                },
            ),
            fft_slots,
            dec_slots,
        }
    }
}

/// Publishes a stage on the arena's board: bumps the epoch (blocking out
/// stragglers of the previous stage), records the descriptor, resets the
/// ready flags. Returns the new epoch.
fn publish_stage(
    arena: &CoreArena,
    kind: TaskKind,
    pool_idx: usize,
    count: usize,
    tp_us: f64,
    deadline: Instant,
    llrs: Option<&[f32]>,
) -> u64 {
    arena.board.publish(count, |d| {
        d.kind = kind;
        d.pool_idx = pool_idx;
        d.tp_us = tp_us;
        d.deadline = deadline;
        if let Some(l) = llrs {
            d.llrs.clear();
            d.llrs.extend_from_slice(l);
        }
    })
}

/// Per-worker accumulators, merged once at worker exit so the hot loop
/// never touches a shared metrics lock.
struct WorkerTotals {
    deadline: DeadlineMetrics,
    migration: MigrationStats,
    proc_us: Samples,
    dropped: u64,
    crc_failures: u64,
    steals: u64,
    declined: u64,
}

impl WorkerTotals {
    fn new(cells: usize) -> Self {
        WorkerTotals {
            deadline: DeadlineMetrics::new(cells),
            migration: MigrationStats::default(),
            proc_us: Samples::new(),
            dropped: 0,
            crc_failures: 0,
            steals: 0,
            declined: 0,
        }
    }

    fn merge(&mut self, other: &WorkerTotals) {
        self.deadline.merge(&other.deadline);
        self.migration.merge(&other.migration);
        self.proc_us.merge(&other.proc_us);
        self.dropped += other.dropped;
        self.crc_failures += other.crc_failures;
        self.steals += other.steals;
        self.declined += other.declined;
    }
}

/// Delivery slots per fed-mode cell. Sized so one cell can have a
/// subframe in flight on each of its two cores plus a small landing
/// margin for jitter before the shed path (miss + drop) kicks in.
const FED_SLOTS: usize = 4;

/// One fed-mode cell's landing area: preallocated sample buffers the
/// delivery thread swaps network subframes into, and a free list the
/// owning worker returns slots through. Contention is delivery ↔ one
/// owner only; both critical sections are a pointer swap or an index
/// push.
struct FedCell {
    slots: Vec<Mutex<Vec<Vec<Cf32>>>>,
    free: Mutex<Vec<usize>>,
}

/// Fed-mode shared state: per-cell slot arenas plus the shed counter
/// (subframes that arrived while every slot of their cell was busy).
struct FedShared {
    cells: Vec<FedCell>,
    shed: AtomicU64,
}

impl FedShared {
    fn new(cfg: &ClusterConfig, samples_per_subframe: usize) -> Self {
        let cells = (0..cfg.num_cells)
            .map(|_| FedCell {
                slots: (0..FED_SLOTS)
                    .map(|_| {
                        Mutex::new(vec![
                            vec![Cf32::new(0.0, 0.0); samples_per_subframe];
                            cfg.num_antennas
                        ])
                    })
                    .collect(),
                free: Mutex::new((0..FED_SLOTS).rev().collect()),
            })
            .collect();
        FedShared {
            cells,
            shed: AtomicU64::new(0),
        }
    }
}

/// Returns a fed job's delivery slot to its cell's free list on every
/// exit path of `process_subframe` (drop at a slack check included).
/// Declared before the slot's sample guard so the guard releases first.
struct FedSlotRelease<'f> {
    fed: Option<(&'f FedShared, usize, usize)>,
}

impl Drop for FedSlotRelease<'_> {
    fn drop(&mut self) {
        if let Some((f, cell, slot)) = self.fed {
            f.cells[cell].free.lock().push(slot);
        }
    }
}

struct Shared<'a> {
    cfg: &'a ClusterConfig,
    arenas: &'a [CoreArena],
    /// `Some` when subframes arrive over a [`FronthaulRx`] instead of the
    /// pre-encoded pool; `None` in the emulated `run()` path.
    fed: Option<&'a FedShared>,
    inboxes: Vec<Inbox<'a>>,
    global: Inbox<'a>,
    stealers: Vec<steal::Stealer>,
    idle: Vec<AtomicBool>,
    totals: Mutex<WorkerTotals>,
    calib: Calib,
    schedule: PartitionedSchedule,
    /// Reference instant for `epoch_ns` (captured at construction).
    base: Instant,
    /// Over-the-air instant of subframe 0, as nanoseconds after `base`;
    /// written once by the transport thread after every worker has warmed
    /// up and passed the start barrier, so cold caches never eat into the
    /// first subframes' budgets.
    epoch_ns: AtomicU64,
    /// Per-cell ingest stagger within a period (shared 10 GbE port).
    stagger: Vec<Duration>,
    pinned: AtomicBool,
}

impl<'a> Shared<'a> {
    /// Over-the-air instant of subframe 0.
    fn epoch(&self) -> Instant {
        self.base + Duration::from_nanos(self.epoch_ns.load(Ordering::Acquire))
    }

    fn pin_epoch(&self, at: Instant) {
        self.epoch_ns.store(
            at.saturating_duration_since(self.base).as_nanos() as u64,
            Ordering::Release,
        );
    }

    /// Queues a release on the shared FIFO (Global) or on the core the
    /// partitioned schedule gives `job.cell`'s subframe `seq`. Returns the
    /// inbox so a live source can wake its worker; the pre-staging source
    /// wakes everyone once, after the last release.
    fn stage(&self, job: OwnJob, seq: u64) -> &Inbox<'a> {
        let inbox = match self.cfg.mode {
            SchedulerMode::Global => &self.global,
            _ => &self.inboxes[self.schedule.core_for(job.cell, seq)],
        };
        inbox.state.lock().own.push_back(job);
        inbox
    }

    /// Arrival instant of cell `cell`'s subframe `j` at the compute node.
    fn release_instant(&self, cell: usize, j: u64) -> Instant {
        self.epoch() + self.cfg.period * j as u32 + self.cfg.rtt_half + self.stagger[cell]
    }

    /// The next release that will claim `core`, strictly after `now`:
    /// the first subframe index whose arrival is after `now` on this
    /// cell's cadence, then the schedule's first own index from there.
    fn next_release(&self, core: usize, now: Instant) -> Instant {
        let cell = self.schedule.bs_for_core(core);
        let first = self.release_instant(cell, 0);
        let from = now.checked_duration_since(first).map_or(0, |e| {
            (e.as_nanos() / self.cfg.period.as_nanos()) as u64 + 1
        });
        let j = self.schedule.next_own_index(core, from);
        // Only the emulated cadence has a known last release; a fed stream
        // is open-ended and `cfg.subframes` there is the peer's claim.
        if self.fed.is_none() && j >= self.cfg.subframes as u64 {
            return now + self.cfg.period * 64;
        }
        self.release_instant(cell, j)
    }

    /// `core`'s free window at `now`: the time until its next own release.
    fn idle_window(&self, core: usize, now: Instant) -> Nanos {
        Nanos(
            self.next_release(core, now)
                .saturating_duration_since(now)
                .as_nanos() as u64,
        )
    }

    /// The parked cores and their free windows at `now`.
    fn parked_windows(&self, now: Instant) -> impl Iterator<Item = (usize, Nanos)> + use<'_, 'a> {
        (0..self.idle.len())
            .filter(|&c| self.idle[c].load(Ordering::Acquire))
            .map(move |c| (c, self.idle_window(c, now)))
    }

    /// The δ guard (R1) at the configured migration cost.
    fn guard(&self) -> DeltaGuard {
        DeltaGuard {
            delta: Nanos::from_us_f64(self.cfg.delta_us),
        }
    }

    /// Whether any other core is currently parked (cheap lazy-publish
    /// check: no helper → no point copying LLRs or bumping epochs).
    fn any_idle_helper(&self, me: usize) -> bool {
        self.idle
            .iter()
            .enumerate()
            .any(|(c, f)| c != me && f.load(Ordering::Acquire))
    }

    /// Owner-side benefit gate for steal-mode publication: some parked
    /// core must pass the δ guard for one subtask — the same question its
    /// thief will ask at steal time, asked early. Without this, a
    /// saturated cluster pays the publication overhead (epoch bump, LLR
    /// snapshot, thief wake) on every stage while no thief ever has the
    /// cycles to help. The binding admission decision still happens at
    /// steal time.
    fn worth_publishing(&self, me: usize, tp_us: f64, deadline: Instant) -> bool {
        let now = Instant::now();
        let tp = Nanos::from_us_f64(tp_us);
        let slack = Nanos(deadline.saturating_duration_since(now).as_nanos() as u64);
        let guard = self.guard();
        self.parked_windows(now)
            .any(|(c, window)| c != me && guard.admit(tp, slack, window))
    }

    /// Every inbox a worker may be parked on: the per-core ones and the
    /// Global-mode FIFO.
    fn all_inboxes(&self) -> impl Iterator<Item = &Inbox<'a>> {
        self.inboxes.iter().chain([&self.global])
    }

    fn push_migrated(&self, host: usize, env: Envelope<'a>) {
        let mut st = self.inboxes[host].state.lock();
        st.migrated.push_back(env);
        drop(st);
        self.inboxes[host].cv.notify_one();
    }

    /// Wakes parked workers so they scan the deques (steal mode).
    fn wake_thieves(&self, me: usize) {
        for (c, inbox) in self.inboxes.iter().enumerate() {
            if c != me && self.idle[c].load(Ordering::Acquire) {
                inbox.cv.notify_one();
            }
        }
    }
}

/// The sharded multi-cell runtime.
pub struct CranCluster {
    cfg: ClusterConfig,
}

impl CranCluster {
    /// Creates a cluster.
    ///
    /// # Panics
    /// Panics on an empty MCS pool or zero cells.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.mcs_pool.is_empty(), "MCS pool must be non-empty");
        assert!(cfg.num_cells > 0, "empty run");
        CranCluster { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Pre-encodes one subframe per pool MCS (shared by every cell: the
    /// trace decides which entry a given release uses).
    pub(crate) fn prepare_pool(cfg: &ClusterConfig) -> Vec<Prepared> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37);
        cfg.mcs_pool
            .iter()
            .map(|&mcs| {
                let ucfg = UplinkConfig::new(cfg.bandwidth, cfg.num_antennas, mcs).expect("config");
                let tx = UplinkTx::new(ucfg.clone());
                let payload: Vec<u8> = (0..ucfg.transport_block_bytes())
                    .map(|_| rng.gen())
                    .collect();
                let sf = tx.encode_subframe(&payload).expect("encode");
                let mut chan = AwgnChannel::new(cfg.snr_db);
                let samples = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
                Prepared {
                    mcs,
                    rx: UplinkRx::new(ucfg),
                    samples,
                }
            })
            .collect()
    }

    /// Measures per-stage execution through the slab path so Algorithm 1
    /// and the δ guard have deterministic `tp` estimates (median of 3).
    fn calibrate(pool: &[Prepared]) -> Calib {
        const TRIALS: usize = 3;
        rtopex_phy::workspace::with_thread_workspace(|ws| {
            for p in pool {
                ws.warm(p.rx.config());
            }
        });
        let mut slab = JobSlab::new();
        for p in pool {
            slab.warm(p.rx.config());
        }
        let mut calib = Calib::default();
        let mut fft_batches = Samples::new();
        for p in pool {
            let mut fft_trials = Samples::new();
            let mut demod_trials = Samples::new();
            let mut dec_trials = Samples::new();
            let mut blocks = 1usize;
            for _ in 0..TRIALS {
                let mut job = p.rx.start_job_in(&p.samples, &mut slab).expect("job");
                let (fft_us, demod_us) = run_to_decode(&mut job, p.samples.len());
                fft_trials.push(fft_us / p.samples.len() as f64);
                demod_trials.push(demod_us);
                let t2 = Instant::now();
                blocks = job.decode_subtask_count();
                for r in 0..blocks {
                    job.run_decode_subtask_local(r);
                }
                dec_trials.push(t2.elapsed().as_secs_f64() * 1e6);
                let _ = job.finish();
            }
            fft_batches.push(fft_trials.median());
            calib.demod_us.push(demod_trials.median());
            let dec_us = dec_trials.median();
            calib.decode_total_us.push(dec_us);
            calib.decode_block_us.push(dec_us / blocks as f64);
        }
        calib.fft_batch_us = fft_batches.mean();
        calib
    }

    /// The deterministic per-cell MCS plan (tower traces) as pool indices
    /// into `cfg.mcs_pool` — public so a fronthaul aggregator can
    /// transmit exactly the load schedule an emulated `run()` would have
    /// generated for the same config and seed.
    pub fn mcs_plan(cfg: &ClusterConfig) -> Vec<Vec<usize>> {
        (0..cfg.num_cells)
            .map(|cell| {
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(cell as u64 * 7919));
                let mut trace = LoadTrace::new(TraceParams::tower(cell % 4));
                (0..cfg.subframes)
                    .map(|_| {
                        let mcs = load_to_mcs(trace.next_load(&mut rng)).index();
                        nearest_pool_idx(&cfg.mcs_pool, mcs).expect("non-empty pool")
                    })
                    .collect()
            })
            .collect()
    }

    /// The sender-side subframe pool: the same pre-encoded,
    /// channel-impaired sample streams `run()` decodes from memory, keyed
    /// by MCS. A fronthaul aggregator pairs this with [`Self::mcs_plan`]
    /// to put the emulated workload on a real wire.
    pub fn encode_pool(cfg: &ClusterConfig) -> Vec<(u8, Vec<Vec<Cf32>>)> {
        Self::prepare_pool(cfg)
            .into_iter()
            .map(|p| (p.mcs, p.samples))
            .collect()
    }

    /// Runs the cluster to completion (blocking) over the emulated
    /// cadence and reports.
    ///
    /// # Panics
    /// Panics on zero subframes.
    pub fn run(&self) -> ClusterReport {
        assert!(self.cfg.subframes > 0, "empty run");
        let plan = Self::mcs_plan(&self.cfg);
        self.drive(None, |shared, barrier| {
            deliver_emulated(shared, &plan, barrier)
        })
    }

    /// Runs the cluster fed by a real fronthaul receiver instead of the
    /// emulated pre-encoded pool: IQ subframes arrive through `rx`
    /// (in-process, UDP or TCP — any [`FronthaulRx`]), land in
    /// preallocated per-cell slot arenas, and are scheduled exactly like
    /// emulated releases except that deadlines are **arrival-based**
    /// (`arrival + budget`): the network already charged `T_fronthaul`,
    /// so the budget clock starts when the subframe reaches the node.
    ///
    /// Differences from [`CranCluster::run`], all confined to where the
    /// samples come from:
    ///
    /// * The pre-encoded pool still exists but only for calibration and
    ///   per-MCS decoder configs — received samples are what gets decoded.
    /// * FFT stages are never published for stealing: a thief reads the
    ///   owner's samples, and a fed job's samples live behind its slot
    ///   guard for exactly the job's lifetime. Decode stages migrate as
    ///   usual — the published LLR snapshot is self-contained.
    /// * A subframe arriving while all [`FED_SLOTS`] slots of its cell
    ///   are busy is shed at delivery and recorded as a miss + drop, the
    ///   overload behaviour Eq. 3 prescribes.
    /// * The stream is open-ended: `ClusterConfig::subframes` (which a
    ///   node copies from the peer's hello, where `0` means "until
    ///   closed") is never read, so no allocation scales with it.
    ///
    /// Returns when the sender closes the stream (or goes silent for a
    /// generous idle window) and every queued subframe has drained.
    ///
    /// # Panics
    /// Panics if `rx`'s negotiated stream geometry (antennas, cell count,
    /// samples per subframe) does not match this cluster's config.
    pub fn run_fed(&self, rx: &mut dyn FronthaulRx) -> FedReport {
        let cfg = &self.cfg;
        let params = rx.params();
        assert_eq!(
            params.antennas as usize, cfg.num_antennas,
            "stream antennas != cluster antennas"
        );
        assert_eq!(
            params.cells.len(),
            cfg.num_cells,
            "stream cell count != cluster cells"
        );
        assert_eq!(
            params.samples_per_subframe as usize,
            cfg.bandwidth.samples_per_subframe(),
            "stream samples/subframe != bandwidth"
        );
        let fed = FedShared::new(cfg, cfg.bandwidth.samples_per_subframe());
        let cluster = self.drive(Some(&fed), |shared, barrier| {
            deliver_fed(shared, &fed, rx, barrier)
        });
        FedReport {
            cluster,
            rx: rx.stats(),
            shed: fed.shed.load(Ordering::Relaxed),
        }
    }

    /// The one driver behind [`Self::run`] and [`Self::run_fed`]: builds
    /// the pool, calibration, arenas and shared state, spawns the pinned
    /// workers and waits for them to warm up, hands the delivery thread
    /// to `deliver`, then shuts the inboxes down and assembles the report.
    ///
    /// `deliver` is the source: it pins the epoch, releases the workers
    /// through `barrier`, stages every subframe it has, and returns the
    /// instant by which the last of them has drained. `fed` is the
    /// landing area a network source swaps samples into (`None`: samples
    /// come from the pre-encoded pool).
    fn drive(
        &self,
        fed: Option<&FedShared>,
        deliver: impl FnOnce(&Shared<'_>, &Barrier) -> Instant,
    ) -> ClusterReport {
        let cfg = &self.cfg;
        let pool = Self::prepare_pool(cfg);
        let calib = Self::calibrate(&pool);
        let cores = cfg.total_cores();
        let arenas: Vec<CoreArena> = (0..cores).map(|_| CoreArena::new(&pool, cfg)).collect();
        let ingest = MulticellIngest::homogeneous(
            TestbedLink::paper_testbed(),
            cfg.num_cells,
            cfg.bandwidth,
            cfg.num_antennas,
        );
        let d0 = ingest.deterministic_delivery_us(0).unwrap_or(0.0);
        let stagger: Vec<Duration> = (0..cfg.num_cells)
            .map(|c| {
                let d = ingest.deterministic_delivery_us(c).unwrap_or(d0);
                Duration::from_secs_f64(((d - d0).max(0.0)) / 1e6)
            })
            .collect();
        // Inbox depth is the source's: the emulated cadence pre-stages
        // every release; a fed cell can never have more than `FED_SLOTS`
        // jobs queued, and `cfg.subframes` there is whatever the peer's
        // hello claimed and must not size anything.
        let depth = match fed {
            None => cfg.subframes + 2,
            Some(_) => FED_SLOTS,
        };
        let (mut workers, stealers): (Vec<steal::Worker>, Vec<steal::Stealer>) =
            (0..cores).map(|_| steal::steal_pair(64)).unzip();
        let shared = Shared {
            cfg,
            arenas: &arenas,
            fed,
            inboxes: (0..cores).map(|_| Inbox::with_capacity(depth)).collect(),
            global: Inbox::with_capacity(cfg.num_cells * depth),
            stealers,
            idle: (0..cores).map(|_| AtomicBool::new(false)).collect(),
            totals: Mutex::new(WorkerTotals::new(cfg.num_cells)),
            calib,
            schedule: PartitionedSchedule::with_cores_per_bs(cfg.num_cells, 2),
            base: Instant::now(),
            epoch_ns: AtomicU64::new(0),
            stagger,
            pinned: AtomicBool::new(false),
        };
        // Start barrier: workers warm caches (a full decode of every pool
        // entry) before the release cadence exists, so subframe 0 never
        // pays the cold-start penalty. The source pins the epoch only
        // after every worker has reported ready.
        let barrier = Barrier::new(cores + 1);

        std::thread::scope(|s| {
            let shared = &shared;
            let pool = &pool;
            let barrier = &barrier;
            for (core, w) in workers.drain(..).enumerate() {
                s.spawn(move || worker_loop(core, shared, pool, w, barrier));
            }
            barrier.wait(); // all workers warm
            let drained = deliver(shared, barrier);
            std::thread::sleep(drained.saturating_duration_since(Instant::now()));
            for inbox in shared.all_inboxes() {
                inbox.state.lock().shutdown = true;
                inbox.cv.notify_all();
            }
        });

        let elapsed = Instant::now().saturating_duration_since(shared.epoch());
        let m = shared.totals.into_inner();
        ClusterReport {
            mode: cfg.mode,
            cells: cfg.num_cells,
            deadline: m.deadline,
            migration: m.migration,
            proc_us: m.proc_us,
            dropped: m.dropped,
            crc_failures: m.crc_failures,
            pinned: shared.pinned.load(Ordering::Relaxed),
            steals: m.steals,
            declined_steals: m.declined,
            elapsed,
        }
    }
}

/// Index of the pool entry whose MCS is nearest `mcs` (trace loads and
/// received subframes both snap to the pre-encoded pool).
fn nearest_pool_idx(pool_mcs: &[u8], mcs: u8) -> Option<usize> {
    pool_mcs
        .iter()
        .enumerate()
        .min_by_key(|(_, &p)| (p as i32 - mcs as i32).abs())
        .map(|(i, _)| i)
}

/// The emulated source: plays the batched-ingest delivery thread — one
/// port, cells back-to-back per period. The whole delivery schedule is
/// deterministic, so every release is pre-staged with its embargo
/// timestamp; workers gate on it themselves (see `OwnJob`). `plan` is
/// [`CranCluster::mcs_plan`]'s per-cell pool indices.
fn deliver_emulated(shared: &Shared<'_>, plan: &[Vec<usize>], barrier: &Barrier) -> Instant {
    let cfg = shared.cfg;
    shared.pin_epoch(Instant::now() + Duration::from_millis(5));
    barrier.wait();
    for j in 0..cfg.subframes as u64 {
        for (cell, seq) in plan.iter().enumerate() {
            let release = shared.release_instant(cell, j);
            let job = OwnJob {
                cell,
                pool_idx: seq[j as usize],
                slot: 0,
                release,
                deadline: release + cfg.budget(),
            };
            shared.stage(job, j);
        }
    }
    for inbox in shared.all_inboxes() {
        inbox.cv.notify_all();
    }
    // Sleep out the cadence plus drain margin.
    shared.epoch() + cfg.period * cfg.subframes as u32 + cfg.budget() + cfg.period * 4
}

/// The fed source: pulls subframes off the transport, swaps their
/// samples into a free slot of the owning cell, and stages the job on the
/// cell's core (or the global queue). The swap is two pointer exchanges
/// per antenna — the recv buffer and the slot trade allocations, so
/// steady state never touches the heap. Returns once the sender closes
/// the stream or has been silent for the idle limit.
fn deliver_fed(
    shared: &Shared<'_>,
    fed: &FedShared,
    rx: &mut dyn FronthaulRx,
    barrier: &Barrier,
) -> Instant {
    let cfg = shared.cfg;
    // Provisional epoch so idle-window math is defined before the first
    // subframe lands; re-pinned to the true arrival below.
    shared.pin_epoch(Instant::now());
    barrier.wait();

    let params = rx.params().clone();
    let mut buf = SubframeBuf::for_stream(&params);
    let mut first = true;
    let mut last_traffic = Instant::now();
    let idle_limit = (cfg.period * 64).max(Duration::from_secs(5));
    let poll = cfg.period.max(Duration::from_millis(10));
    loop {
        match rx.recv_into(&mut buf, poll) {
            Ok(Recv::Subframe) => {
                let now = Instant::now();
                last_traffic = now;
                if first {
                    first = false;
                    shared.pin_epoch(now.checked_sub(cfg.rtt_half).unwrap_or(now));
                }
                let Some(cell) = params.local_cell(buf.cell) else {
                    continue; // foreign cell id: transport bug, shed
                };
                let slot = fed.cells[cell].free.lock().pop();
                let Some(slot) = slot else {
                    // Every slot busy: the cell is overloaded; shed now
                    // rather than queue a subframe that would miss anyway.
                    fed.shed.fetch_add(1, Ordering::Relaxed);
                    let mut t = shared.totals.lock();
                    t.deadline.record(cell, true);
                    t.dropped += 1;
                    continue;
                };
                {
                    let mut dst = fed.cells[cell].slots[slot].lock();
                    for (d, s) in dst.iter_mut().zip(buf.samples.iter_mut()) {
                        std::mem::swap(d, s);
                    }
                }
                let job = OwnJob {
                    cell,
                    pool_idx: nearest_pool_idx(&cfg.mcs_pool, buf.mcs).unwrap_or(0),
                    slot,
                    release: now,
                    deadline: now + cfg.budget(),
                };
                shared.stage(job, buf.seq as u64).cv.notify_one();
            }
            Ok(Recv::TimedOut) => {
                if last_traffic.elapsed() > idle_limit {
                    break; // sender vanished without a BYE
                }
            }
            Ok(Recv::Closed) | Err(_) => break,
        }
    }
    // Drain margin.
    Instant::now() + cfg.budget() + cfg.period * 4
}

/// Runs `job`'s FFT (`batches` antenna batches) and demod stages serially
/// on the calling thread, leaving it ready for decode. Returns the wall
/// time of each stage in µs: calibration reads them, the worker warm-up
/// and the thief test only want the job advanced.
fn run_to_decode(job: &mut SlabJob<'_>, batches: usize) -> (f64, f64) {
    let t0 = Instant::now();
    for b in 0..batches {
        job.run_fft_batch_local(b);
    }
    let fft_us = t0.elapsed().as_secs_f64() * 1e6;
    job.finish_fft();
    let t1 = Instant::now();
    for i in 0..job.demod_subtask_count() {
        job.run_demod_subtask_local(i);
    }
    (fft_us, t1.elapsed().as_secs_f64() * 1e6)
}

/// Results of a fed (network-driven) cluster run: the usual cluster
/// report plus the transport's receive-side accounting.
#[derive(Clone, Debug)]
pub struct FedReport {
    /// Scheduler-side outcomes, identical in shape to an emulated run.
    pub cluster: ClusterReport,
    /// Transport receive stats (delivered/gaps/stale/drops) at run end.
    pub rx: RxStats,
    /// Subframes shed at delivery because their cell's slots were all
    /// busy (each is also recorded as a miss + drop in `cluster`).
    pub shed: u64,
}

/// What the fan-out helpers ask the owner to do with subtask `i`.
enum StageOp {
    /// Execute locally through the slab job.
    RunLocal(usize),
    /// Absorb a completed result from the arena slot.
    Absorb(usize),
}

/// Runs subtasks `0..count` on the owner — a whole stage when nothing was
/// published, or what Algorithm 1 kept local.
fn run_local(count: usize, exec: &mut dyn FnMut(StageOp)) {
    for i in 0..count {
        exec(StageOp::RunLocal(i));
    }
}

/// A worker's own mutable state between subframes: scratch preallocated
/// before the start barrier, its deque end, and its [`WorkerTotals`].
struct WorkerState {
    deque: steal::Worker,
    idle_scratch: Vec<(usize, Nanos)>,
    plan_scratch: Vec<(usize, usize)>,
    flag_scratch: Vec<(usize, ResultFlag)>,
    totals: WorkerTotals,
}

fn worker_loop<'a>(
    me: usize,
    shared: &Shared<'a>,
    pool: &'a [Prepared],
    deque: steal::Worker,
    barrier: &Barrier,
) {
    if matches!(pin_current_thread(me), crate::affinity::PinOutcome::Pinned) && me == 0 {
        shared.pinned.store(true, Ordering::Relaxed);
    }
    rtopex_phy::workspace::with_thread_workspace(|ws| {
        for p in pool {
            ws.warm(p.rx.config());
        }
    });
    let mut slab = JobSlab::new();
    let mut w = WorkerState {
        deque,
        idle_scratch: Vec::with_capacity(shared.inboxes.len()),
        plan_scratch: Vec::with_capacity(shared.inboxes.len()),
        flag_scratch: Vec::with_capacity(64),
        totals: WorkerTotals::new(shared.cfg.num_cells),
    };
    for p in pool {
        slab.warm(p.rx.config());
        // Warm decode: run the whole pipeline once so instruction and data
        // caches, branch predictors and the slab's buffers are all hot
        // before the first real release.
        // analyze: allow(panic): warm-up job before the epoch barrier; the pool was just prepared with this exact config
        let mut job = p.rx.start_job_in(&p.samples, &mut slab).expect("warm job");
        run_to_decode(&mut job, p.samples.len());
        for r in 0..job.decode_subtask_count() {
            job.run_decode_subtask_local(r);
        }
        let _ = job.finish();
    }
    barrier.wait(); // all workers warm
    barrier.wait(); // the source has pinned the epoch
    let mode = shared.cfg.mode;

    enum Got<'e> {
        Own(OwnJob),
        Migrated(Envelope<'e>),
        Shutdown,
    }

    loop {
        let inbox = if mode == SchedulerMode::Global {
            &shared.global
        } else {
            &shared.inboxes[me]
        };
        let got = 'acquire: loop {
            // The front job may still be embargoed (release in the
            // future); until then this core is idle and may help others.
            let mut embargo: Option<Instant> = None;
            {
                let mut st = inbox.state.lock();
                match st.own.front().copied() {
                    Some(j) if j.release <= Instant::now() => {
                        st.own.pop_front();
                        break 'acquire Got::Own(j);
                    }
                    Some(j) => embargo = Some(j.release),
                    None => {}
                }
                if let Some(e) = st.migrated.pop_front() {
                    break 'acquire Got::Migrated(e);
                }
                if st.shutdown && st.own.is_empty() {
                    break 'acquire Got::Shutdown;
                }
                if mode != SchedulerMode::RtOpexSteal {
                    shared.idle[me].store(true, Ordering::Release);
                    match embargo {
                        Some(t) => {
                            let d = t.saturating_duration_since(Instant::now());
                            inbox.cv.wait_for(&mut st, d);
                        }
                        None => inbox.cv.wait(&mut st),
                    }
                    shared.idle[me].store(false, Ordering::Release);
                    continue 'acquire;
                }
            }
            // Steal mode: advertise idleness, scan the other deques, then
            // *yield* instead of parking. A parked thread pays the OS wake
            // latency — 1-3 ms on a loaded host — the moment its own
            // release fires, which alone sinks a 5-cell node on start
            // lateness; a yielding thread is already on the runqueue and
            // resumes within a scheduling quantum. This is the same
            // always-runnable property the mutex baseline inherits
            // accidentally from its flag-wait yield loops, adopted here as
            // a deliberate design: each idle turn is ~1 µs (inbox peek +
            // deque scan), so busy peers lose only a few context switches
            // per subframe to their idle neighbours.
            shared.idle[me].store(true, Ordering::Release);
            if try_steal(me, shared, pool, &mut w.totals) {
                shared.idle[me].store(false, Ordering::Release);
                continue 'acquire;
            }
            std::thread::yield_now();
        };
        shared.idle[me].store(false, Ordering::Release);
        match got {
            Got::Own(job) => process_subframe(me, shared, pool, job, &mut slab, &mut w),
            // analyze: allow(call:run): dispatches the migrated Envelope only — name-based resolution would pull every engine run loop into the worker
            Got::Migrated(env) => env.run(),
            Got::Shutdown => break,
        }
    }
    shared.totals.lock().merge(&w.totals);
}

/// A thief's scan: one pass over the other cores' deques, round-robin
/// from `me + 1`. Returns whether anything was executed or declined.
fn try_steal(me: usize, shared: &Shared<'_>, pool: &[Prepared], wm: &mut WorkerTotals) -> bool {
    let n = shared.stealers.len();
    for off in 1..n {
        if steal_from(me, (me + off) % n, shared, pool, wm) {
            return true;
        }
    }
    false
}

/// One steal attempt against `victim`'s deque: take a ticket, run the
/// steal-time δ admission check, and execute it into the victim's arena.
fn steal_from(
    me: usize,
    victim: usize,
    shared: &Shared<'_>,
    pool: &[Prepared],
    wm: &mut WorkerTotals,
) -> bool {
    let mut retries = 0u32;
    let ticket = loop {
        match shared.stealers[victim].steal() {
            Steal::Taken(t) => break Some(t),
            Steal::Retry if retries < 4 => {
                retries += 1;
                continue;
            }
            _ => break None,
        }
    };
    let Some(ticket) = ticket else { return false };
    let (epoch, idx) = decode_ticket(ticket);
    let admit = |stage: &StageDesc| {
        let now = Instant::now();
        let slack = stage.deadline.saturating_duration_since(now);
        shared.guard().admit(
            Nanos::from_us_f64(stage.tp_us),
            Nanos(slack.as_nanos() as u64),
            shared.idle_window(me, now),
        )
    };
    match execute_stolen(&shared.arenas[victim], pool, epoch, idx, admit) {
        Theft::Stale => {} // ticket of a recovered stage: drop it
        Theft::Declined => wm.declined += 1,
        Theft::Executed => wm.steals += 1,
    }
    true
}

/// What became of one published subtask in a helper's hands.
#[derive(Debug, PartialEq, Eq)]
enum Theft {
    /// The stage was republished since; nothing was written.
    Stale,
    /// The admission check refused it; the owner recovers it locally.
    Declined,
    /// Executed into the arena slot and marked ready.
    Executed,
}

/// The helper side of every migrated subtask — a stolen ticket or a
/// mailbox envelope: enter `arena`'s board at the publication `epoch`,
/// ask `admit`, execute subtask `idx` into its result slot, mark it ready.
///
/// `enter` validates the epoch and holds the board's read guard for the
/// whole execution: the owner's next publication (epoch bump) cannot
/// start until we are done, so a straggler of a recovered stage can never
/// write into a newer stage's slots.
fn execute_stolen(
    arena: &CoreArena,
    pool: &[Prepared],
    epoch: u64,
    idx: usize,
    admit: impl FnOnce(&StageDesc) -> bool,
) -> Theft {
    let Some(stage) = arena.board.enter(epoch) else {
        return Theft::Stale;
    };
    if !admit(&stage) {
        stage.decline(idx);
        return Theft::Declined;
    }
    let prepared = &pool[stage.pool_idx];
    match stage.kind {
        TaskKind::Fft => {
            // analyze: allow(guard-held-lock): per-subtask slot mutex, a leaf contended only with the recovering owner; the stage guard must stay held across the write-back to fence that owner's next publication, and executing without the slot lock would race a straggler's write-back
            let mut slot = arena.fft_slots[idx].lock();
            prepared
                .rx
                .run_fft_batch_into(&prepared.samples, idx, &mut slot);
        }
        TaskKind::Decode => {
            // analyze: allow(guard-held-lock): per-subtask slot mutex, a leaf contended only with the recovering owner; the stage guard must stay held across the write-back to fence that owner's next publication, and executing without the slot lock would race a straggler's write-back
            let mut slot = arena.dec_slots[idx].lock();
            let (iterations, crc_ok) =
                prepared
                    .rx
                    .run_decode_subtask_into(&stage.llrs, idx, &mut slot.bits);
            slot.iterations = iterations;
            slot.crc_ok = crc_ok;
        }
        TaskKind::Demod => {}
    }
    stage.complete(idx);
    Theft::Executed
}

/// Steal-mode fan-out of the stage published at `epoch`: push tickets,
/// drain own deque LIFO, absorb or recover what thieves took.
#[allow(clippy::too_many_arguments)]
fn fanout_steal(
    me: usize,
    shared: &Shared<'_>,
    worker: &mut steal::Worker,
    kind: TaskKind,
    count: usize,
    epoch: u64,
    deadline: Instant,
    exec: &mut dyn FnMut(StageOp),
    wm: &mut WorkerTotals,
) {
    let arena = &shared.arenas[me];
    let mut local_mask: u64 = 0;
    for i in 0..count {
        if worker.push(encode_ticket(epoch, i)).is_err() {
            local_mask |= 1 << i; // deque full: keep it local
        }
    }
    if (local_mask.count_ones() as usize) < count {
        shared.wake_thieves(me);
    }
    for i in 0..count {
        if local_mask & (1 << i) != 0 {
            exec(StageOp::RunLocal(i));
        }
    }
    // Drain own work LIFO, running each ticket the moment it is popped;
    // anything not popped here was stolen.
    while let Some(t) = worker.pop() {
        let (e, i) = decode_ticket(t);
        debug_assert_eq!(e, epoch, "own deque holds a stale ticket");
        local_mask |= 1 << i;
        exec(StageOp::RunLocal(i));
    }
    let mut migrated = 0usize;
    let mut recoveries = 0usize;
    for i in 0..count {
        if local_mask & (1 << i) != 0 {
            continue;
        }
        match arena.board.wait(i, deadline) {
            SlotState::Done => {
                exec(StageOp::Absorb(i));
                migrated += 1;
            }
            _ => {
                // Declined by the guard, or a straggler: recover locally
                // (Fig. 12 state 6).
                exec(StageOp::RunLocal(i));
                recoveries += 1;
            }
        }
    }
    wm.migration.record_stage(kind, count, migrated);
    if recoveries > 0 {
        wm.migration.record_recovery(recoveries);
    }
}

/// Mutex-mode fan-out of the stage published at `epoch`: Algorithm 1 at
/// the owner, boxed envelopes through the inboxes, flag waits, local
/// recovery — the PR-2 baseline, now writing into the preallocated arena
/// instead of per-subframe slots.
#[allow(clippy::too_many_arguments)]
fn fanout_mutex<'a>(
    me: usize,
    shared: &Shared<'a>,
    pool: &'a [Prepared],
    kind: TaskKind,
    count: usize,
    tp_us: f64,
    epoch: u64,
    deadline: Instant,
    exec: &mut dyn FnMut(StageOp),
    idle_scratch: &mut Vec<(usize, Nanos)>,
    plan_scratch: &mut Vec<(usize, usize)>,
    flag_scratch: &mut Vec<(usize, ResultFlag)>,
    wm: &mut WorkerTotals,
) {
    survey_idle_windows(me, shared.parked_windows(Instant::now()), idle_scratch);
    let plan = plan_migration_into(
        count,
        Nanos::from_us_f64(tp_us),
        shared.guard().delta,
        idle_scratch,
        plan_scratch,
    );
    if plan.local == count {
        run_local(count, exec);
        wm.migration.record_stage(kind, count, 0);
        return;
    }
    // Re-borrow through the `'a` slice so envelope closures may hold the
    // arena reference for the scope's lifetime.
    let arenas: &'a [CoreArena] = shared.arenas;
    let arena = &arenas[me];
    let mut next = plan.local;
    flag_scratch.clear();
    for &(host, n) in plan_scratch.iter() {
        for _ in 0..n {
            let idx = next;
            // Algorithm 1 admitted the subtask at plan time, so the helper
            // only has to fence out a straggler of a recovered stage.
            let (env, flag) = Envelope::new(move || {
                execute_stolen(arena, pool, epoch, idx, |_| true);
            });
            shared.push_migrated(host, env);
            flag_scratch.push((idx, flag));
            next += 1;
        }
    }
    debug_assert_eq!(next, count);
    run_local(plan.local, exec);
    let mut recoveries = 0usize;
    let migrated = flag_scratch.len();
    for (i, flag) in flag_scratch.drain(..) {
        let budget = deadline.saturating_duration_since(Instant::now());
        if flag.wait(budget.min(Duration::from_millis(50))) {
            exec(StageOp::Absorb(i));
        } else {
            exec(StageOp::RunLocal(i));
            recoveries += 1;
        }
    }
    wm.migration.record_stage(kind, count, migrated);
    if recoveries > 0 {
        wm.migration.record_recovery(recoveries);
    }
}

/// One migratable stage of the subframe `phy` is decoding: FFT (subtask =
/// one antenna's 14-symbol batch) or decode (subtask = one code block).
/// The stage kind fixes the subtask geometry and the kernel; the
/// scheduler mode fixes the publication gate and the fan-out.
fn run_stage<'a>(
    kind: TaskKind,
    me: usize,
    shared: &Shared<'a>,
    pool: &'a [Prepared],
    job: &OwnJob,
    phy: &mut SlabJob<'_>,
    w: &mut WorkerState,
) {
    let cfg = shared.cfg;
    let arena = &shared.arenas[me];
    let (count, tp_us) = match kind {
        TaskKind::Fft => (cfg.num_antennas, shared.calib.fft_batch_us),
        _ => (
            phy.decode_subtask_count(),
            shared.calib.decode_block_us[job.pool_idx],
        ),
    };
    // analyze: allow(panic): the owner mask is a u64 bitset; a config with more than 64 subtasks cannot be represented and must be rejected at fan-out
    assert!(count <= 64, "subtask count exceeds owner mask");
    // A fed subframe keeps its FFT owner-local: a helper executes against
    // the *pool's* samples, but a fed job's real samples live behind its
    // slot guard. Decode stages still migrate — their LLR snapshot is
    // self-contained.
    let helpable = count > 1 && !(kind == TaskKind::Fft && shared.fed.is_some());
    let publish = helpable
        && match cfg.mode {
            SchedulerMode::RtOpexSteal => shared.worth_publishing(me, tp_us, job.deadline),
            SchedulerMode::RtOpexMutex => shared.any_idle_helper(me),
            SchedulerMode::Partitioned | SchedulerMode::Global => false,
        };
    let published = publish.then(|| {
        let llrs = (kind == TaskKind::Decode).then(|| phy.coded_llrs());
        publish_stage(arena, kind, job.pool_idx, count, tp_us, job.deadline, llrs)
    });
    let WorkerState {
        deque,
        idle_scratch,
        plan_scratch,
        flag_scratch,
        totals,
    } = w;
    let mut exec = |op: StageOp| match kind {
        TaskKind::Fft => match op {
            StageOp::RunLocal(b) => phy.run_fft_batch_local(b),
            StageOp::Absorb(b) => {
                let slot = arena.fft_slots[b].lock();
                phy.absorb_fft_batch(b, &slot);
            }
        },
        _ => match op {
            StageOp::RunLocal(r) => phy.run_decode_subtask_local(r),
            StageOp::Absorb(r) => {
                let slot = arena.dec_slots[r].lock();
                phy.absorb_decode_buf(r, &slot);
            }
        },
    };
    let Some(epoch) = published else {
        // Nothing published — always in the serial modes, and in the
        // RT-OPEX ones whenever no helper could take a subtask: the whole
        // stage runs here.
        run_local(count, &mut exec);
        if cfg.mode.migrates() {
            totals.migration.record_stage(kind, count, 0);
        }
        return;
    };
    match cfg.mode {
        SchedulerMode::RtOpexSteal => fanout_steal(
            me,
            shared,
            deque,
            kind,
            count,
            epoch,
            job.deadline,
            &mut exec,
            totals,
        ),
        // The serial modes never publish, so this is the mailbox mode.
        _ => fanout_mutex(
            me,
            shared,
            pool,
            kind,
            count,
            tp_us,
            epoch,
            job.deadline,
            &mut exec,
            idle_scratch,
            plan_scratch,
            flag_scratch,
            totals,
        ),
    }
}

fn process_subframe<'a>(
    me: usize,
    shared: &Shared<'a>,
    pool: &'a [Prepared],
    job: OwnJob,
    slab: &mut JobSlab,
    w: &mut WorkerState,
) {
    let cfg = shared.cfg;
    let prepared = &pool[job.pool_idx];
    // Fed mode: the subframe's samples live in its delivery slot. The
    // guard is held for the whole job; the release sentinel (declared
    // first, so it drops last) returns the slot to the free list on
    // every exit path, slack drops included.
    let _slot_release = FedSlotRelease {
        fed: shared.fed.map(|f| (f, job.cell, job.slot)),
    };
    let fed_samples = shared.fed.map(|f| f.cells[job.cell].slots[job.slot].lock());
    let samples: &[Vec<Cf32>] = match fed_samples.as_deref() {
        Some(s) => s,
        None => &prepared.samples,
    };
    let started = Instant::now();
    let pidx = job.pool_idx;
    let calib = &shared.calib;

    // Stage slack checks use the calibrated serial stage estimates.
    let est_fft = Duration::from_secs_f64(calib.fft_batch_us * cfg.num_antennas as f64 / 1e6);
    if Instant::now() + est_fft > job.deadline {
        w.totals.deadline.record(job.cell, true);
        w.totals.dropped += 1;
        return;
    }

    let mut phy = prepared
        .rx
        .start_job_in(samples, slab)
        // analyze: allow(panic): pool entries come from prepare_pool with the same config; a shape mismatch means the pool was corrupted and the slot must die loudly
        .expect("prepared samples are consistent");

    run_stage(TaskKind::Fft, me, shared, pool, &job, &mut phy, w);
    phy.finish_fft();

    // --- Demod task: serial on the owner. ---
    let est_demod = Duration::from_secs_f64(calib.demod_us[pidx] / 1e6);
    if Instant::now() + est_demod > job.deadline {
        w.totals.deadline.record(job.cell, true);
        w.totals.dropped += 1;
        return;
    }
    for i in 0..phy.demod_subtask_count() {
        phy.run_demod_subtask_local(i);
    }

    let est_dec = Duration::from_secs_f64(calib.decode_total_us[pidx] / 1e6);
    // Migration roughly halves the decode critical path; the slack check
    // is plan-aware like the simulator's.
    let est_effective = if cfg.mode.migrates() && phy.decode_subtask_count() > 1 {
        est_dec / 2 + Duration::from_secs_f64(cfg.delta_us / 1e6)
    } else {
        est_dec
    };
    if Instant::now() + est_effective > job.deadline {
        w.totals.deadline.record(job.cell, true);
        w.totals.dropped += 1;
        return;
    }
    run_stage(TaskKind::Decode, me, shared, pool, &job, &mut phy, w);

    // analyze: allow(panic): the recovery loop above re-runs every unconfirmed subtask before finish(); an unabsorbed subtask here is a scheduler bug, not a runtime condition
    let verdict = phy.finish().expect("all subtasks absorbed");
    let finished = Instant::now();
    w.totals.deadline.record(job.cell, finished > job.deadline);
    if !verdict.crc_ok {
        w.totals.crc_failures += 1;
    }
    w.totals
        .proc_us
        .push(finished.saturating_duration_since(started).as_secs_f64() * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(mode: SchedulerMode) -> ClusterConfig {
        // 5 MHz so high-MCS subframes carry multiple code blocks and the
        // FFT batch stays above the migration cost δ — at 1.4 MHz the
        // optimized PHY finishes every stage faster than δ, and
        // Algorithm 1 (correctly) never migrates.
        ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            num_cells: 2,
            subframes: 40,
            period: Duration::from_micros(3_000),
            mode,
            mcs_pool: vec![5, 16, 27],
            ..ClusterConfig::demo()
        }
    }

    #[test]
    fn every_mode_accounts_for_all_subframes() {
        for mode in SchedulerMode::ALL {
            let r = CranCluster::new(quick_cfg(mode)).run();
            assert_eq!(r.deadline.total_subframes(), 2 * 40, "{}", mode.name());
            assert_eq!(
                r.proc_us.len() as u64 + r.dropped,
                2 * 40,
                "{}",
                mode.name()
            );
            assert_eq!(r.crc_failures, 0, "{} corrupted decodes", mode.name());
        }
    }

    #[test]
    fn serial_modes_never_migrate() {
        for mode in [SchedulerMode::Partitioned, SchedulerMode::Global] {
            let r = CranCluster::new(quick_cfg(mode)).run();
            assert_eq!(
                r.migration.fft_migrated + r.migration.decode_migrated,
                0,
                "{}",
                mode.name()
            );
            assert_eq!(r.steals, 0);
        }
    }

    #[test]
    fn steal_mode_decodes_correctly_under_migration() {
        // Give thieves real idle windows: a long period and few cells.
        let r = CranCluster::new(quick_cfg(SchedulerMode::RtOpexSteal)).run();
        assert_eq!(r.crc_failures, 0, "stolen subtasks corrupted decodes");
        // Steal accounting is self-consistent: every absorbed migration
        // was a thief execution.
        assert!(
            r.steals >= r.migration.fft_migrated + r.migration.decode_migrated,
            "steals {} < absorbed {}",
            r.steals,
            r.migration.fft_migrated + r.migration.decode_migrated
        );
    }

    #[test]
    fn mutex_mode_migrates_and_decodes_correctly() {
        let r = CranCluster::new(quick_cfg(SchedulerMode::RtOpexMutex)).run();
        // Real subtasks crossed threads…
        assert!(
            r.migration.fft_migrated + r.migration.decode_migrated > 0,
            "no migrations happened"
        );
        // …and the PHY results stayed correct: at 30 dB every completed
        // subframe should pass its CRC.
        assert_eq!(r.crc_failures, 0, "migration corrupted decodes");
    }

    #[test]
    fn deterministic_thief_correctness() {
        // Owner publishes a decode stage; two thieves race to steal every
        // ticket; the owner absorbs and the payload must be bit-exact.
        let cfg = ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            num_cells: 1,
            subframes: 1,
            mcs_pool: vec![20],
            mode: SchedulerMode::RtOpexSteal,
            ..ClusterConfig::demo()
        };
        let pool = CranCluster::prepare_pool(&cfg);
        let p = &pool[0];
        let serial = p.rx.decode_subframe(&p.samples).unwrap();
        let blocks = p.rx.config().segmentation().num_blocks;
        assert!(blocks >= 2, "need multiple code blocks");

        let arena = CoreArena::new(&pool, &cfg);
        let mut slab = JobSlab::new();
        slab.warm(p.rx.config());
        let mut job = p.rx.start_job_in(&p.samples, &mut slab).unwrap();
        run_to_decode(&mut job, cfg.num_antennas);
        let deadline = Instant::now() + Duration::from_secs(5);
        let epoch = publish_stage(
            &arena,
            TaskKind::Decode,
            0,
            blocks,
            50.0,
            deadline,
            Some(job.coded_llrs()),
        );
        let (mut w, s) = steal::steal_pair(64);
        for r in 0..blocks {
            w.push(encode_ticket(epoch, r)).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = s.clone();
                let (arena, pool) = (&arena, &pool);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Taken(t) => {
                            let (e, r) = decode_ticket(t);
                            let theft = execute_stolen(arena, pool, e, r, |_| true);
                            assert_eq!(theft, Theft::Executed, "live epoch");
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                });
            }
        });
        // Owner: whatever was not stolen is still in the deque.
        let mut local = 0;
        while let Some(t) = w.pop() {
            let (_, r) = decode_ticket(t);
            job.run_decode_subtask_local(r);
            local += 1;
        }
        for r in 0..blocks {
            if !job.decode_done(r) {
                assert_eq!(arena.board.wait(r, deadline), SlotState::Done);
                let slot = arena.dec_slots[r].lock();
                job.absorb_decode_buf(r, &slot);
            }
        }
        let verdict = job.finish().unwrap();
        assert!(local < blocks, "thieves never stole anything");
        assert_eq!(verdict.crc_ok, serial.crc_ok);
        assert_eq!(slab.payload(), &serial.payload[..]);
    }

    #[test]
    fn budget_and_core_math() {
        let cfg = ClusterConfig::demo();
        assert_eq!(cfg.budget(), Duration::from_micros(1_000));
        assert_eq!(cfg.total_cores(), 6);
        assert!(SchedulerMode::RtOpexSteal.migrates());
        assert!(!SchedulerMode::Global.migrates());
    }

    #[test]
    #[should_panic(expected = "MCS pool")]
    fn empty_pool_rejected() {
        CranCluster::new(ClusterConfig {
            mcs_pool: vec![],
            ..ClusterConfig::demo()
        });
    }
}
