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
//! * **RT-OPEX (mutex)** — Algorithm 1, sender-initiated: the owner
//!   surveys the idle cores' free windows, plans how many subtasks each
//!   may take, publishes the stage only when the plan migrates something,
//!   and sends each planned subtask's *ticket* to its host's
//!   `Mutex<VecDeque>+Condvar` inbox.
//! * **RT-OPEX (steal)** — the lock-free path: the owner publishes
//!   subtask *tickets* into its bounded Chase–Lev deque
//!   ([`rtopex_core::steal`]) and drains it LIFO; idle cores steal FIFO
//!   from the top and run the δ admission check (*steal-time*, not
//!   plan-time) before executing into the owner's preallocated slot
//!   arena. Nothing migrates unless a thief actually had the idle cycles
//!   to take it — Algorithm 1's "migrate to idle cores" without the
//!   sender ever guessing wrong about who is idle.
//!
//! The two RT-OPEX modes differ only in policy (who decides, and when);
//! the ticket, the arena, the executor and the absorb/recover tail are
//! shared.
//!
//! Every mode idles through one path: a worker with nothing queued spins
//! (scanning the deques) only while a steal is possible — steal mode,
//! some subframe live on the node — and sleeps on its inbox otherwise.
//! A steal-mode arrival wakes every core, so the thieves are up before
//! the owner publishes. Between subframes a steal-mode core sleeps in
//! short naps, which keep its CPU from halting deep enough to wake late
//! and cost a few µs each; every other idle worker parks.
//!
//! ## One driver, one source
//!
//! Every run goes through one private driver (`CranCluster::drive`): it
//! builds the pool, calibration, arenas and shared state, spawns and
//! barriers the pinned workers, then runs the delivery loop — subframes
//! pulled off a [`FronthaulRx`] and swapped into per-cell delivery
//! slots — until the stream closes, waits for the last staged
//! subframe's verdict, shuts the inboxes down and assembles the report.
//! [`CranCluster::run_fed`] hands it any receiver (UDP, TCP or
//! in-process); [`CranCluster::run`] is the same call over an
//! in-process pair whose sender thread paces the deterministic
//! tower-trace workload with [`send_paced`], the loop
//! `rtopex-fronthaul` runs per host. Every test, experiment and
//! benchmark number therefore comes from the path `rtopex-node` ships.
//!
//! Below the driver the file reads top-down: worker loop → one stage
//! helper (`run_stage`, called for FFT and for decode) → one fan-out
//! (`fanout`: the mode picks the hand-out, then one loop absorbs or
//! recovers every subtask the owner did not run) → one helper executor
//! (`execute_stolen`) that every migrated subtask, stolen or sent, runs
//! through. A subtask's `SlotBoard` ready flag is its only completion
//! signal in both RT-OPEX modes.
//!
//! ## Allocation discipline
//!
//! Every per-subframe buffer lives in a per-worker [`JobSlab`] or a
//! per-core `CoreArena` warmed before the run starts, and a migrated
//! subtask travels as a `Copy` ticket in every mode, through a deque or
//! an inbox queue sized up front: nothing is allocated at hand-off. The
//! analyzer's purity seeds deny allocation on the orchestration functions
//! (`process_subframe`, `run_stage`, `fanout`, `try_steal`,
//! `execute_stolen`; `cargo xtask analyze`), and
//! `tests/alloc_regression.rs` counts zero allocations on the PHY slab
//! path they drive.
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
//!
//! An FFT thief reads its antenna batch straight from the job's delivery
//! slot under that slot's read guard (see `FedCell` for why this is
//! sound): the owner holds a read guard on it for the whole job, and the
//! delivery thread takes the write guard only to land a new subframe in
//! a slot the owner has returned.

use crate::affinity::pin_current_thread;
use parking_lot::{Condvar, Mutex, RwLock};
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
use rtopex_transport::{
    inproc_pair, FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TestbedLink,
    TransportError,
};
use rtopex_workload::{load_to_mcs, LoadTrace, TraceParams};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How subframes are scheduled across the cluster's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerMode {
    /// §3.1.1 — static core ownership, serial subframes, no migration.
    Partitioned,
    /// §3.1.2 — one shared FIFO queue of whole subframes.
    Global,
    /// RT-OPEX with Algorithm 1 planned at the owner (sender-initiated):
    /// tickets go to the planned hosts' inboxes.
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

/// Per-subtask migration cost estimate δ, µs: the δ guard's threshold
/// and the decode slack check's migration overhead.
const DELTA_US: f64 = 60.0;

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Channel bandwidth of every cell.
    pub bandwidth: Bandwidth,
    /// Receive antennas per cell.
    pub num_antennas: usize,
    /// Consolidated cells (RAPs); each owns 2 cores (`⌈T_max⌉ = 2`).
    pub num_cells: usize,
    /// Subframes per cell that [`CranCluster::run`] sends and
    /// [`CranCluster::mcs_plan`] draws; [`CranCluster::run_fed`] never
    /// reads it.
    pub subframes: usize,
    /// Subframe period (LTE: 1 ms; dilatable — every deadline scales with
    /// it through [`ClusterConfig::budget`]).
    pub period: Duration,
    /// One-way fronthaul latency the Eq. 3 budget charges; deadlines
    /// count from arrival, so no path delays a subframe by it.
    pub rtt_half: Duration,
    /// Scheduler under test.
    pub mode: SchedulerMode,
    /// Channel SNR for the pre-encoded subframes.
    pub snr_db: f64,
    /// Distinct MCS values to pre-encode; trace loads snap to the nearest.
    pub mcs_pool: Vec<u8>,
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
    /// Subframes given up without a verdict, each also a miss:
    /// `drops.total()`.
    pub dropped: u64,
    /// The same subframes, by cause.
    pub drops: Drops,
    /// Completed subframes whose transport-block CRC failed (NACKs).
    pub crc_failures: u64,
    /// Whether CPU pinning succeeded on this machine.
    pub pinned: bool,
    /// Subtasks actually executed by a thief (steal mode).
    pub steals: u64,
    /// Steals the δ admission guard declined at the thief.
    pub declined_steals: u64,
    /// Wall clock from the first arrival to the last verdict.
    pub elapsed: Duration,
}

/// Subframes a run gave up without a verdict, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Drops {
    /// Their MCS is no entry of the pool, so no decoder config fits.
    pub mcs_outside_pool: u64,
    /// Shed at delivery: every delivery slot of their cell was busy.
    pub shed: u64,
    /// Refused by a stage's slack check: the stage would have ended
    /// after the deadline.
    pub no_slack: u64,
}

impl Drops {
    /// Drops of every cause.
    pub fn total(&self) -> u64 {
        self.mcs_outside_pool + self.shed + self.no_slack
    }

    fn merge(&mut self, other: &Drops) {
        self.mcs_outside_pool += other.mcs_outside_pool;
        self.shed += other.shed;
        self.no_slack += other.no_slack;
    }
}

impl fmt::Display for Drops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (MCS outside pool {}, shed {}, no slack {})",
            self.total(),
            self.mcs_outside_pool,
            self.shed,
            self.no_slack
        )
    }
}

/// Why a subframe was given up without a verdict.
#[derive(Clone, Copy, Debug)]
enum DropCause {
    McsOutsidePool,
    Shed,
    NoSlack,
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

/// One delivered subframe. `Copy` so the release queues never allocate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OwnJob {
    pub(crate) cell: usize,
    pub(crate) pool_idx: usize,
    /// Delivery slot of `cell` holding this subframe's samples.
    pub(crate) slot: usize,
    pub(crate) deadline: Instant,
}

/// A subtask Algorithm 1 sent to a mutex-mode host: the owner core whose
/// arena holds the stage, and the `(epoch, index)` ticket.
pub(crate) type Migrated = (usize, u64);

pub(crate) struct InboxState {
    own: VecDeque<OwnJob>,
    pub(crate) migrated: VecDeque<Migrated>,
    pub(crate) shutdown: bool,
}

/// A core's queue: releases of its own subframes and, in mutex mode,
/// tickets other owners sent it. Workers sleep on `cv`.
pub(crate) struct Inbox {
    pub(crate) state: Mutex<InboxState>,
    pub(crate) cv: Condvar,
}

impl Inbox {
    /// An inbox whose queues hold `own` releases and `migrated` tickets
    /// before they grow.
    pub(crate) fn with_capacity(own: usize, migrated: usize) -> Self {
        Inbox {
            state: Mutex::new(InboxState {
                own: VecDeque::with_capacity(own),
                migrated: VecDeque::with_capacity(migrated),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queues a ticket of `owner`'s published stage and wakes the host.
    pub(crate) fn push_migrated(&self, owner: usize, ticket: u64) {
        let mut st = self.state.lock();
        st.migrated.push_back((owner, ticket));
        drop(st);
        self.cv.notify_one();
    }

    /// Tells every worker waiting here to exit once its queues are empty.
    pub(crate) fn shut_down(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
    }
}

/// The stage a core has published for helpers. The epoch and the ready
/// flags live in the [`SlotBoard`] (rtopex-core's model-checked
/// publication protocol); this is just its descriptor payload.
pub(crate) struct StageDesc {
    kind: TaskKind,
    /// The subframe being decoded: its pool entry (decoder config), its
    /// deadline, and the delivery slot an FFT thief reads samples from.
    job: OwnJob,
    tp_us: f64,
    /// Snapshot of the coded-LLR stream for decode stages.
    llrs: Vec<f32>,
}

/// Per-core preallocated migration arena: the publication board (stage
/// descriptor + epoch + ready flags) plus reusable result slots for both
/// subtask kinds. Replaces the per-subframe `Arc<Vec<Mutex<Option<…>>>>`
/// churn the node used to pay.
pub(crate) struct CoreArena {
    pub(crate) board: SlotBoard<StageDesc>,
    /// One flattened 14-row buffer per FFT batch (antenna).
    fft_slots: Vec<Mutex<Vec<Cf32>>>,
    /// One block buffer per decode subtask.
    dec_slots: Vec<Mutex<BlockBuf>>,
}

impl CoreArena {
    pub(crate) fn new(pool: &[Prepared], cfg: &ClusterConfig) -> Self {
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
                    job: OwnJob {
                        cell: 0,
                        pool_idx: 0,
                        slot: 0,
                        deadline: Instant::now(),
                    },
                    tp_us: 0.0,
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
pub(crate) fn publish_stage(
    arena: &CoreArena,
    kind: TaskKind,
    job: &OwnJob,
    count: usize,
    tp_us: f64,
    llrs: Option<&[f32]>,
) -> u64 {
    arena.board.publish(count, |d| {
        d.kind = kind;
        d.job = *job;
        d.tp_us = tp_us;
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
    drops: Drops,
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
            drops: Drops::default(),
            crc_failures: 0,
            steals: 0,
            declined: 0,
        }
    }

    /// A subframe of `cell` given up without a verdict: a miss + drop,
    /// counted under its cause.
    fn record_drop(&mut self, cell: usize, cause: DropCause) {
        self.deadline.record(cell, true);
        let count = match cause {
            DropCause::McsOutsidePool => &mut self.drops.mcs_outside_pool,
            DropCause::Shed => &mut self.drops.shed,
            DropCause::NoSlack => &mut self.drops.no_slack,
        };
        *count += 1;
    }

    fn merge(&mut self, other: &WorkerTotals) {
        self.deadline.merge(&other.deadline);
        self.migration.merge(&other.migration);
        self.proc_us.merge(&other.proc_us);
        self.drops.merge(&other.drops);
        self.crc_failures += other.crc_failures;
        self.steals += other.steals;
        self.declined += other.declined;
    }
}

/// Delivery slots per cell. Sized so one cell can have a subframe in
/// flight on each of its two cores plus a small landing margin for
/// jitter before the shed path (miss + drop) kicks in.
const FED_SLOTS: usize = 4;

/// One cell's landing area: preallocated sample buffers the delivery
/// thread swaps received subframes into, and a free list the owning
/// worker returns slots through.
///
/// Each slot is a reader–writer lock, and only the delivery thread
/// writes. Why an FFT thief may read a job's samples from its slot:
///
/// * The owner holds a read guard on the slot for the whole job, so the
///   slot cannot be rewritten while any stage of that job is live.
/// * The delivery thread takes the write guard only to swap samples
///   into a slot it popped from the free list, that is, after the owner
///   has returned it.
/// * A thief takes its own read guard under the board's stage guard. A
///   straggler that entered the board at a live epoch and still holds
///   the slot's read guard makes that swap wait for it, at most one FFT
///   batch. One that reaches the slot after the swap computes from the
///   next subframe's samples, but only for a subtask its owner has
///   already recovered: the owner stopped reading that stage's flags
///   when it returned the slot, and its next publication (the board's
///   unchanged epoch fence) resets them. So every batch the owner
///   absorbs was computed from its own job's samples.
///
/// The write guard waits only for thieves that are running an FFT batch,
/// and they wait for nothing the delivery thread holds, so the swap
/// cannot deadlock the owner's recovery.
pub(crate) struct FedCell {
    slots: Vec<RwLock<Vec<Vec<Cf32>>>>,
    free: Mutex<Vec<usize>>,
}

impl FedCell {
    /// Swaps `samples` into a free slot (the caller's buffer gets the
    /// slot's old allocation back) and returns the slot, or `None` when
    /// every slot is in use.
    pub(crate) fn land(&self, samples: &mut [Vec<Cf32>]) -> Option<usize> {
        let slot = self.free.lock().pop()?;
        let mut dst = self.slots[slot].write();
        for (d, s) in dst.iter_mut().zip(samples.iter_mut()) {
            std::mem::swap(d, s);
        }
        Some(slot)
    }
}

/// The delivery slots of every cell.
pub(crate) struct FedShared {
    pub(crate) cells: Vec<FedCell>,
}

impl FedShared {
    pub(crate) fn new(cfg: &ClusterConfig, samples_per_subframe: usize) -> Self {
        let cells = (0..cfg.num_cells)
            .map(|_| FedCell {
                slots: (0..FED_SLOTS)
                    .map(|_| {
                        RwLock::new(vec![
                            vec![Cf32::new(0.0, 0.0); samples_per_subframe];
                            cfg.num_antennas
                        ])
                    })
                    .collect(),
                free: Mutex::new((0..FED_SLOTS).rev().collect()),
            })
            .collect();
        FedShared { cells }
    }
}

/// Returns a job's delivery slot to its cell's free list on every exit
/// path of `process_subframe` (drop at a slack check included).
/// Declared before the slot's sample guard so the guard releases first.
struct FedSlotRelease<'f> {
    cell: &'f FedCell,
    slot: usize,
}

impl Drop for FedSlotRelease<'_> {
    fn drop(&mut self) {
        self.cell.free.lock().push(self.slot);
    }
}

/// What an idle worker does next (see [`Shared::idle_turn`]).
enum IdleTurn {
    /// Scan the other cores' deques once, then yield.
    Steal,
    /// Wait on the inbox for at most [`NAP`].
    Nap,
    /// Wait on the inbox until woken.
    Park,
}

/// One nap of an idle steal-mode core. A guest CPU that halts for longer
/// than its hypervisor polls is descheduled on the host and woken through
/// it, which can take milliseconds; a core that sleeps in naps this short
/// is woken within microseconds, by `stage` or by the end of its nap,
/// and still costs only a few µs of CPU per nap.
const NAP: Duration = Duration::from_micros(100);

struct Shared<'a> {
    cfg: &'a ClusterConfig,
    arenas: &'a [CoreArena],
    fed: &'a FedShared,
    inboxes: Vec<Inbox>,
    global: Inbox,
    stealers: Vec<steal::Stealer>,
    idle: Vec<AtomicBool>,
    totals: Mutex<WorkerTotals>,
    calib: &'a Calib,
    schedule: PartitionedSchedule,
    cadence: Cadence,
    pinned: AtomicBool,
    /// Subframes staged and not yet finished. A steal is possible only
    /// while one is live, and a closed stream has drained once it is 0.
    live: AtomicUsize,
    /// Latest arrival, as nanoseconds after `cadence.base` (0: none yet). Idle
    /// steal-mode cores stay on call for [`Shared::on_call_window`] after it.
    last_arrival_ns: AtomicU64,
    /// Signalled, under `drain`, by the worker that takes `live` to 0.
    drained: Condvar,
    drain: Mutex<()>,
}

/// The node's model of the senders' cadence: cell `c`'s subframe `j`
/// arrives at `epoch + j·period + stagger[c]`. The epoch follows the
/// arrivals ([`Cadence::track`]), so idle windows stay on the schedule
/// [`send_paced`] actually keeps.
struct Cadence {
    /// Reference instant for `epoch_ns` (captured at construction).
    base: Instant,
    /// The epoch as nanoseconds after `base`; until the first arrival
    /// pins it, idle-window estimates run off `base`.
    epoch_ns: AtomicU64,
    period: Duration,
    /// Per-cell ingest stagger within a period (shared 10 GbE port).
    stagger: Vec<Duration>,
}

impl Cadence {
    fn new(cfg: &ClusterConfig) -> Self {
        Cadence {
            base: Instant::now(),
            epoch_ns: AtomicU64::new(0),
            period: cfg.period,
            stagger: ingest_stagger(cfg),
        }
    }

    /// Fits the epoch to cell `cell`'s subframe `seq` landing at `now`:
    /// the first arrival pins it, and a later one more than a period off
    /// its predicted instant moves it there. `send_paced` moves the rest
    /// of its schedule back after a stalled send; without this every
    /// later idle window would be off by the stall.
    fn track(&self, cell: usize, seq: u64, now: Instant, first: bool) {
        let offset = self.period * seq as u32 + self.stagger[cell];
        let due = self.epoch() + offset;
        let off = if now > due { now - due } else { due - now };
        if first || off > self.period {
            let epoch = now.checked_sub(offset).unwrap_or(self.base);
            let ns = epoch.saturating_duration_since(self.base).as_nanos() as u64;
            self.epoch_ns.store(ns, Ordering::Release);
        }
    }

    fn epoch(&self) -> Instant {
        self.base + Duration::from_nanos(self.epoch_ns.load(Ordering::Acquire))
    }

    /// Arrival instant of cell `cell`'s subframe `j` at the compute node.
    fn release_instant(&self, cell: usize, j: u64) -> Instant {
        self.epoch() + self.period * j as u32 + self.stagger[cell]
    }

    /// The next release that will claim `core`, strictly after `now`:
    /// the first subframe index whose arrival is after `now` on this
    /// cell's cadence, then the schedule's first own index from there.
    fn next_release(&self, schedule: &PartitionedSchedule, core: usize, now: Instant) -> Instant {
        let cell = schedule.bs_for_core(core);
        let first = self.release_instant(cell, 0);
        let from = now
            .checked_duration_since(first)
            .map_or(0, |e| (e.as_nanos() / self.period.as_nanos()) as u64 + 1);
        self.release_instant(cell, schedule.next_own_index(core, from))
    }
}

impl<'a> Shared<'a> {
    fn new(
        cfg: &'a ClusterConfig,
        arenas: &'a [CoreArena],
        fed: &'a FedShared,
        calib: &'a Calib,
        stealers: Vec<steal::Stealer>,
    ) -> Self {
        let cores = cfg.total_cores();
        // A cell never has more than `FED_SLOTS` jobs queued; the
        // subframe count is the peer's claim and must not size anything.
        // A mutex-mode host holds at most one stage's tickets from each
        // owner at a time, stale ones aside.
        let tickets = cores * arenas.first().map_or(0, |a| a.board.slot_count());
        Shared {
            cfg,
            arenas,
            fed,
            inboxes: (0..cores)
                .map(|_| Inbox::with_capacity(FED_SLOTS, tickets))
                .collect(),
            global: Inbox::with_capacity(cfg.num_cells * FED_SLOTS, 0),
            stealers,
            idle: (0..cores).map(|_| AtomicBool::new(false)).collect(),
            totals: Mutex::new(WorkerTotals::new(cfg.num_cells)),
            calib,
            schedule: PartitionedSchedule::with_cores_per_bs(cfg.num_cells, 2),
            cadence: Cadence::new(cfg),
            pinned: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            last_arrival_ns: AtomicU64::new(0),
            drained: Condvar::new(),
            drain: Mutex::new(()),
        }
    }

    /// Queues a release on the shared FIFO (Global) or on the core the
    /// partitioned schedule gives `job.cell`'s subframe `seq`, and wakes
    /// one worker parked on that inbox. In steal mode it wakes every
    /// other core too: a thief spins while any subframe is live (see
    /// [`Shared::idle_turn`]), so it is awake when the owner publishes.
    fn stage(&self, job: OwnJob, seq: u64, arrival: Instant) {
        // Counted before any inbox lock is taken. A worker reads `live`
        // under its own inbox lock and waits on that lock's condvar, so
        // either it takes the lock after us and sees this subframe, or it
        // already waits when our notify lands: no wake-up is lost. The
        // lock carries the ordering, so `Relaxed` is enough.
        self.live.fetch_add(1, Ordering::Relaxed);
        self.last_arrival_ns.store(
            arrival
                .saturating_duration_since(self.cadence.base)
                .as_nanos() as u64,
            Ordering::Relaxed,
        );
        let owner = self.schedule.core_for(job.cell, seq);
        let inbox = match self.cfg.mode {
            SchedulerMode::Global => &self.global,
            _ => &self.inboxes[owner],
        };
        inbox.state.lock().own.push_back(job);
        inbox.cv.notify_one();
        if self.cfg.mode == SchedulerMode::RtOpexSteal {
            for (c, thief) in self.inboxes.iter().enumerate() {
                if c != owner {
                    drop(thief.state.lock());
                    thief.cv.notify_one();
                }
            }
        }
    }

    /// What a worker with nothing queued does next; read under its inbox
    /// lock. Only steal-mode cores stay awake, as thieves for any core's
    /// job: they spin while a subframe is live, so a steal is possible,
    /// and nap while another arrival is due. Every other idle worker, and
    /// a steal-mode one on a silent node, parks until `stage` wakes it.
    fn idle_turn(&self) -> IdleTurn {
        if self.cfg.mode != SchedulerMode::RtOpexSteal {
            return IdleTurn::Park;
        }
        if self.live.load(Ordering::Relaxed) > 0 {
            return IdleTurn::Steal;
        }
        let last = Duration::from_nanos(self.last_arrival_ns.load(Ordering::Relaxed));
        let now = Instant::now().saturating_duration_since(self.cadence.base);
        if !last.is_zero() && now < last + self.on_call_window() {
            IdleTurn::Nap
        } else {
            IdleTurn::Park
        }
    }

    /// How long after an arrival idle steal-mode cores keep napping: the
    /// delivery loop's receive timeout, the longest gap it treats as a
    /// stream that is still running.
    fn on_call_window(&self) -> Duration {
        self.cfg.period.max(Duration::from_millis(10))
    }

    /// Counts one staged subframe finished, on every exit path of
    /// [`process_subframe`]; the last one wakes [`Self::wait_drained`].
    fn subframe_done(&self) {
        if self.live.fetch_sub(1, Ordering::Relaxed) == 1 {
            drop(self.drain.lock());
            self.drained.notify_all();
        }
    }

    /// Blocks until every staged subframe has finished, or until `dead`
    /// reports a worker gone (it panicked, and its queue never drains).
    /// Called once nothing more will be staged, so a 0 read here stays 0.
    fn wait_drained(&self, dead: impl Fn() -> bool) {
        let mut held = self.drain.lock();
        while self.live.load(Ordering::Relaxed) > 0 && !dead() {
            self.drained.wait_for(&mut held, Duration::from_millis(100));
        }
    }

    /// `core`'s free window at `now`: the time until its next own release.
    fn idle_window(&self, core: usize, now: Instant) -> Nanos {
        Nanos(
            self.cadence
                .next_release(&self.schedule, core, now)
                .saturating_duration_since(now)
                .as_nanos() as u64,
        )
    }

    /// The idle cores and their free windows at `now`.
    fn idle_windows(&self, now: Instant) -> impl Iterator<Item = (usize, Nanos)> + use<'_, 'a> {
        (0..self.idle.len())
            .filter(|&c| self.idle[c].load(Ordering::Acquire))
            .map(move |c| (c, self.idle_window(c, now)))
    }

    /// The δ guard (R1) at the migration cost [`DELTA_US`].
    fn guard(&self) -> DeltaGuard {
        DeltaGuard {
            delta: Nanos::from_us_f64(DELTA_US),
        }
    }

    /// Owner-side benefit gate for steal-mode publication: some idle
    /// core must pass the δ guard for one subtask — the same question its
    /// thief will ask at steal time, asked early. Without this, a
    /// saturated cluster pays the publication overhead (epoch bump, LLR
    /// snapshot) on every stage while no thief ever has the
    /// cycles to help. The binding admission decision still happens at
    /// steal time.
    fn worth_publishing(&self, me: usize, tp_us: f64, deadline: Instant) -> bool {
        let now = Instant::now();
        let tp = Nanos::from_us_f64(tp_us);
        let slack = Nanos(deadline.saturating_duration_since(now).as_nanos() as u64);
        let guard = self.guard();
        self.idle_windows(now)
            .any(|(c, window)| c != me && guard.admit(tp, slack, window))
    }

    /// Every inbox a worker may be parked on: the per-core ones and the
    /// Global-mode FIFO.
    fn all_inboxes(&self) -> impl Iterator<Item = &Inbox> {
        self.inboxes.iter().chain([&self.global])
    }
}

/// Eq. 3 on this host for the pool MCS with the largest calibrated
/// serial time `T̂ = FFT + demod + decode`: `Ok` from
/// [`CranCluster::check_eq3`] when `T̂` fits the budget, `Err` when it
/// does not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Eq3Check {
    /// The pool MCS with the largest `T̂`.
    pub mcs: u8,
    /// Its calibrated serial time `T̂`.
    pub need: Duration,
    /// The Eq. 3 budget, [`ClusterConfig::budget`].
    pub budget: Duration,
}

impl fmt::Display for Eq3Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MCS {} needs {} µs, budget {} µs",
            self.mcs,
            self.need.as_micros(),
            self.budget.as_micros()
        )
    }
}

/// The sharded multi-cell runtime.
pub struct CranCluster {
    cfg: ClusterConfig,
    /// The pre-encoded pool and its calibration, filled once by whichever
    /// of [`Self::check_eq3`] or a run needs them first, so the estimates
    /// the check certified are the ones the slack checks use.
    calibrated: OnceLock<(Vec<Prepared>, Calib)>,
}

impl CranCluster {
    /// Creates a cluster.
    ///
    /// # Panics
    /// Panics on an empty MCS pool or zero cells.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.mcs_pool.is_empty(), "MCS pool must be non-empty");
        assert!(cfg.num_cells > 0, "empty run");
        CranCluster {
            cfg,
            calibrated: OnceLock::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Checks the paper's Eq. 3 (`T_w ≤ 2·period − RTT/2`) on this host:
    /// every pool MCS's calibrated serial time, FFT + demod + decode at
    /// the configured SNR (the same estimates the per-stage slack checks
    /// read), against [`ClusterConfig::budget`]. Returns the worst MCS,
    /// as `Err` when it does not fit. Calibrates on the calling thread if
    /// no run has yet; [`Self::run`] and [`Self::run_fed`] never call it.
    pub fn check_eq3(&self) -> Result<Eq3Check, Eq3Check> {
        let cfg = &self.cfg;
        let (_, calib) = self.calibrated();
        let fft_us = calib.fft_batch_us * cfg.num_antennas as f64;
        let (worst, need_us) = (0..cfg.mcs_pool.len())
            .map(|i| (i, fft_us + calib.demod_us[i] + calib.decode_total_us[i]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty pool");
        let check = Eq3Check {
            mcs: cfg.mcs_pool[worst],
            need: Duration::from_secs_f64(need_us / 1e6),
            budget: cfg.budget(),
        };
        if check.need <= check.budget {
            Ok(check)
        } else {
            Err(check)
        }
    }

    /// The pre-encoded pool and its calibration, built on first use.
    fn calibrated(&self) -> &(Vec<Prepared>, Calib) {
        self.calibrated.get_or_init(|| {
            let pool = Self::prepare_pool(&self.cfg);
            let calib = Self::calibrate(&pool);
            (pool, calib)
        })
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
                let t0 = Instant::now();
                for b in 0..p.samples.len() {
                    job.run_fft_batch_local(b);
                }
                fft_trials.push(t0.elapsed().as_secs_f64() * 1e6 / p.samples.len() as f64);
                job.finish_fft();
                let t1 = Instant::now();
                for i in 0..job.demod_subtask_count() {
                    job.run_demod_subtask_local(i);
                }
                demod_trials.push(t1.elapsed().as_secs_f64() * 1e6);
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
    /// transmit exactly the load schedule [`Self::run`] sends for the
    /// same config and seed.
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

    /// The sender-side subframe pool: one pre-encoded, channel-impaired
    /// sample stream per pool MCS, keyed by MCS. A fronthaul aggregator
    /// pairs this with [`Self::mcs_plan`] (see [`SendPlan`]).
    pub fn encode_pool(cfg: &ClusterConfig) -> Vec<(u8, Vec<Vec<Cf32>>)> {
        Self::prepare_pool(cfg)
            .into_iter()
            .map(|p| (p.mcs, p.samples))
            .collect()
    }

    /// Runs the cluster to completion (blocking) over an in-process
    /// fronthaul and reports. A sender thread paces
    /// [`Self::mcs_plan`] × [`Self::encode_pool`] with [`send_paced`]
    /// into [`Self::run_fed`]'s delivery loop; its first subframe is due
    /// once every worker has warmed up and passed the start barrier.
    /// Deadlines are arrival-based, as on every fed run.
    ///
    /// # Panics
    /// Panics on zero subframes.
    pub fn run(&self) -> FedReport {
        let cfg = &self.cfg;
        assert!(cfg.subframes > 0, "empty run");
        let params = StreamParams {
            samples_per_subframe: cfg.bandwidth.samples_per_subframe() as u32,
            antennas: cfg.num_antennas as u8,
            cells: (0..cfg.num_cells as u16).collect(),
            period_us: cfg.period.as_micros() as u32,
            budget_us: cfg.budget().as_micros() as u32,
            mcs_pool: cfg.mcs_pool.clone(),
            subframes: cfg.subframes as u32,
        };
        // The ready queue rides out a delivery thread stalled for 16
        // periods before drop-oldest turns subframes into gaps.
        let (mut tx, mut rx) = inproc_pair(params, cfg.num_cells * 16);
        let plan = SendPlan::new(cfg);
        let rows: Vec<usize> = (0..cfg.num_cells).collect();
        let (ready_tx, ready_rx) = mpsc::sync_channel(1);
        std::thread::scope(|s| {
            s.spawn(move || {
                // No epoch: the driver died before its workers were up.
                if let Ok(epoch) = ready_rx.recv() {
                    let _ = send_paced(&mut tx, &plan, &rows, epoch);
                }
            });
            self.drive(&mut rx, move || {
                let _ = ready_tx.send(Instant::now());
            })
        })
    }

    /// Runs the cluster fed by a fronthaul receiver: IQ subframes arrive
    /// through `rx` (in-process, UDP or TCP — any [`FronthaulRx`]), land
    /// in preallocated per-cell delivery slots, and are scheduled with
    /// **arrival-based** deadlines (`arrival + budget`): the network
    /// already charged `T_fronthaul`, so the budget clock starts when the
    /// subframe reaches the node.
    ///
    /// * The pre-encoded pool exists only for calibration, warm-up and
    ///   per-MCS decoder configs — received samples are what gets decoded.
    /// * Both parallel stages migrate. An FFT thief reads its antenna
    ///   batch from the job's delivery slot under the slot's read guard
    ///   (see `FedCell`); a decode thief reads the published LLR
    ///   snapshot.
    /// * A subframe whose MCS is not in `ClusterConfig::mcs_pool` has no
    ///   decoder config; it is recorded as a miss + drop, never decoded.
    /// * A subframe arriving while all `FED_SLOTS` slots of its cell
    ///   are busy is shed at delivery and recorded as a miss + drop, the
    ///   overload behaviour Eq. 3 prescribes.
    /// * The stream is open-ended: `ClusterConfig::subframes` (which a
    ///   node copies from the peer's hello, where `0` means "until
    ///   closed") is never read, so no allocation scales with it.
    ///
    /// Returns when the sender closes the stream (or goes silent for a
    /// generous idle window) and every staged subframe has its verdict;
    /// `ClusterReport::elapsed` ends there, at the last verdict, so
    /// `subframes_per_sec` carries no drain margin.
    ///
    /// # Panics
    /// Panics if `rx`'s negotiated stream geometry (antennas, cell count,
    /// samples per subframe) does not match this cluster's config.
    pub fn run_fed(&self, rx: &mut dyn FronthaulRx) -> FedReport {
        self.drive(rx, || {})
    }

    /// The one run loop behind [`Self::run`] and [`Self::run_fed`]: takes
    /// the pool and calibration (building them on first use), builds the
    /// arenas and shared state, spawns the pinned workers and waits for
    /// them to warm up, runs the delivery loop on the calling thread until
    /// `rx` closes, waits until no staged subframe is live, then shuts the
    /// inboxes down and assembles the report.
    /// `ready` fires once every worker is past the start barrier, just
    /// before the first receive.
    fn drive(&self, rx: &mut dyn FronthaulRx, ready: impl FnOnce()) -> FedReport {
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
        let (pool, calib) = self.calibrated();
        let cores = cfg.total_cores();
        let arenas: Vec<CoreArena> = (0..cores).map(|_| CoreArena::new(pool, cfg)).collect();
        let (mut workers, stealers): (Vec<steal::Worker>, Vec<steal::Stealer>) =
            (0..cores).map(|_| steal::steal_pair(64)).unzip();
        let shared = Shared::new(cfg, &arenas, &fed, calib, stealers);
        // Start barrier: workers warm caches (a full decode of every pool
        // entry) before the first subframe is received, so subframe 0
        // never pays the cold-start penalty.
        let barrier = Barrier::new(cores + 1);

        let (first_arrival, last_verdict) = std::thread::scope(|s| {
            let shared = &shared;
            let barrier = &barrier;
            let handles: Vec<_> = workers
                .drain(..)
                .enumerate()
                .map(|(core, w)| s.spawn(move || worker_loop(core, shared, pool, w, barrier)))
                .collect();
            barrier.wait(); // all workers warm
            ready();
            let first_arrival = deliver_fed(shared, &mut *rx);
            // A worker past shutdown helps no peer (a ticket sent to it
            // would only be recovered by its owner), so the inboxes shut
            // down once the last staged subframe has its verdict.
            shared.wait_drained(|| handles.iter().any(|h| h.is_finished()));
            let last_verdict = Instant::now();
            for inbox in shared.all_inboxes() {
                inbox.shut_down();
            }
            (first_arrival, last_verdict)
        });

        let first_arrival = first_arrival.unwrap_or(shared.cadence.base);
        let elapsed = last_verdict.saturating_duration_since(first_arrival);
        let m = shared.totals.into_inner();
        FedReport {
            cluster: ClusterReport {
                mode: cfg.mode,
                cells: cfg.num_cells,
                deadline: m.deadline,
                migration: m.migration,
                proc_us: m.proc_us,
                dropped: m.drops.total(),
                drops: m.drops,
                crc_failures: m.crc_failures,
                pinned: shared.pinned.load(Ordering::Relaxed),
                steals: m.steals,
                declined_steals: m.declined,
                elapsed,
            },
            rx: rx.stats(),
            shed: m.drops.shed,
        }
    }
}

/// Index of the pool entry whose MCS is nearest `mcs` (trace loads snap
/// to the pre-encoded pool).
fn nearest_pool_idx(pool_mcs: &[u8], mcs: u8) -> Option<usize> {
    pool_mcs
        .iter()
        .enumerate()
        .min_by_key(|(_, &p)| (p as i32 - mcs as i32).abs())
        .map(|(i, _)| i)
}

/// Per-cell ingest stagger within a period: how long after cell 0's
/// subframe each cell's reaches the node when every cell shares the
/// paper testbed's 10 GbE port. The radio links serialize in parallel
/// and the shared port carries the cells back to back, so cell `c`
/// lands as if its antennas were the last of `(c + 1)·antennas`.
fn ingest_stagger(cfg: &ClusterConfig) -> Vec<Duration> {
    let link = TestbedLink::paper_testbed();
    let arrival = |antennas| link.one_way_deterministic_us(cfg.bandwidth, antennas);
    let d0 = arrival(cfg.num_antennas);
    (0..cfg.num_cells)
        .map(|c| {
            let d = arrival((c + 1) * cfg.num_antennas);
            Duration::from_secs_f64(((d - d0).max(0.0)) / 1e6)
        })
        .collect()
}

/// The deterministic workload a paced sender transmits for one
/// [`ClusterConfig`]: its pre-encoded pool, the per-cell MCS plan over
/// it (`cfg.subframes` entries per cell), the per-cell ingest stagger
/// and the cadence.
pub struct SendPlan {
    pool: Vec<(u8, Vec<Vec<Cf32>>)>,
    plan: Vec<Vec<usize>>,
    stagger: Vec<Duration>,
    period: Duration,
}

impl SendPlan {
    /// Encodes the pool and draws the plan for `cfg`.
    pub fn new(cfg: &ClusterConfig) -> Self {
        SendPlan {
            pool: CranCluster::encode_pool(cfg),
            plan: CranCluster::mcs_plan(cfg),
            stagger: ingest_stagger(cfg),
            period: cfg.period,
        }
    }
}

/// The pacing loop every sender runs: [`CranCluster::run`]'s in-process
/// one, each `rtopex-fronthaul` host thread and the public-API tests.
///
/// The `k`-th cell of `tx`'s stream carries plan row `rows[k]`. Row
/// `r`'s subframe `j` goes out at `epoch + j·period + stagger[r]` with
/// wire seq `j`; every period ends with one flush, and the stream with
/// `finish`. A send due more than one period ago (a late wake-up or a
/// stalled `send`) goes out at once and moves the rest of the schedule
/// back by its lateness, so the subframes behind it keep their spacing
/// instead of going out back to back; every subframe is still sent, in
/// order. Returns the subframes sent and how the stream ended: a
/// transport error stops it early, without `finish`.
pub fn send_paced(
    tx: &mut dyn FronthaulTx,
    plan: &SendPlan,
    rows: &[usize],
    epoch: Instant,
) -> (u64, Result<(), TransportError>) {
    let subframes = plan.plan.first().map_or(0, Vec::len);
    let mut sent = 0u64;
    let mut epoch = epoch;
    for j in 0..subframes {
        for (k, &row) in rows.iter().enumerate() {
            let at = epoch + plan.period * j as u32 + plan.stagger[row];
            let now = Instant::now();
            match now.checked_duration_since(at) {
                Some(late) if late > plan.period => epoch += late,
                Some(_) => {}
                None => std::thread::sleep(at - now),
            }
            let cell = tx.params().cells[k];
            let (mcs, samples) = &plan.pool[plan.plan[row][j]];
            if let Err(e) = tx.send(cell, j as u32, *mcs, samples) {
                return (sent, Err(e));
            }
            sent += 1;
        }
        // One coalesced write per period (TCP); a no-op elsewhere.
        if let Err(e) = tx.flush() {
            return (sent, Err(e));
        }
    }
    (sent, tx.finish())
}

/// The delivery loop: pulls subframes off the transport, swaps their
/// samples into a free slot of the owning cell, and stages the job on the
/// cell's core (or the global queue). The swap is two pointer exchanges
/// per antenna — the recv buffer and the slot trade allocations, so
/// steady state never touches the heap. Returns once the sender closes
/// the stream or has been silent for the idle limit, with the first
/// arrival's instant.
fn deliver_fed(shared: &Shared<'_>, rx: &mut dyn FronthaulRx) -> Option<Instant> {
    let cfg = shared.cfg;
    let params = rx.params().clone();
    let mut buf = SubframeBuf::for_stream(&params);
    let mut first = None;
    let mut last_traffic = Instant::now();
    let idle_limit = (cfg.period * 64).max(Duration::from_secs(5));
    let poll = shared.on_call_window();
    loop {
        match rx.recv_into(&mut buf, poll) {
            Ok(Recv::Subframe) => {
                let now = Instant::now();
                last_traffic = now;
                let Some(cell) = params.local_cell(buf.cell) else {
                    continue; // foreign cell id: transport bug, shed
                };
                shared
                    .cadence
                    .track(cell, buf.seq as u64, now, first.is_none());
                first.get_or_insert(now);
                // Only the config the subframe was encoded with decodes
                // it; a neighbouring pool entry's would only NACK.
                let Some(pool_idx) = cfg.mcs_pool.iter().position(|&m| m == buf.mcs) else {
                    shared
                        .totals
                        .lock()
                        .record_drop(cell, DropCause::McsOutsidePool);
                    continue;
                };
                let Some(slot) = shared.fed.cells[cell].land(&mut buf.samples) else {
                    // Every slot busy: the cell is overloaded; shed now
                    // rather than queue a subframe that would miss anyway.
                    shared.totals.lock().record_drop(cell, DropCause::Shed);
                    continue;
                };
                let job = OwnJob {
                    cell,
                    pool_idx,
                    slot,
                    deadline: now + cfg.budget(),
                };
                shared.stage(job, buf.seq as u64, now);
            }
            Ok(Recv::TimedOut) => {
                if last_traffic.elapsed() > idle_limit {
                    break; // sender vanished without a BYE
                }
            }
            Ok(Recv::Closed) | Err(_) => break,
        }
    }
    first
}

/// Results of a cluster run: the scheduler's report plus the
/// transport's receive-side accounting.
#[derive(Clone, Debug)]
pub struct FedReport {
    /// Scheduler-side outcomes.
    pub cluster: ClusterReport,
    /// Transport receive stats (delivered/gaps/stale/drops) at run end.
    pub rx: RxStats,
    /// Subframes shed at delivery because their cell's slots were all
    /// busy: `cluster.drops.shed`.
    pub shed: u64,
}

/// What the fan-out helpers ask the owner to do with subtask `i`.
enum StageOp {
    /// Execute locally through the slab job.
    RunLocal(usize),
    /// Absorb a completed result from the arena slot.
    Absorb(usize),
}

/// A worker's own mutable state between subframes: scratch preallocated
/// before the start barrier, its deque end, and its [`WorkerTotals`].
struct WorkerState {
    deque: steal::Worker,
    idle_scratch: Vec<(usize, Nanos)>,
    /// Algorithm 1's `(host, count)` batches for the stage in flight.
    plan_scratch: Vec<(usize, usize)>,
    totals: WorkerTotals,
}

fn worker_loop(
    me: usize,
    shared: &Shared<'_>,
    pool: &[Prepared],
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
        totals: WorkerTotals::new(shared.cfg.num_cells),
    };
    for p in pool {
        slab.warm(p.rx.config());
        // Warm decode: run the whole pipeline once so instruction and data
        // caches, branch predictors and the slab's buffers are all hot
        // before the first real release.
        // analyze: allow(panic): warm-up job before the epoch barrier; the pool was just prepared with this exact config
        let job = p.rx.start_job_in(&p.samples, &mut slab).expect("warm job");
        let _ = job.run_local();
    }
    barrier.wait(); // all workers warm
    let inbox = if shared.cfg.mode == SchedulerMode::Global {
        &shared.global
    } else {
        &shared.inboxes[me]
    };

    enum Got {
        Own(OwnJob),
        Migrated(Migrated),
        Shutdown,
    }

    loop {
        // One idle path for every mode; `Shared::idle_turn` says whether
        // to steal, nap or park. A steal-mode arrival wakes every core
        // (`Shared::stage`), so a thief is awake for the owner's whole
        // job. The turn is read under the inbox lock that the condvar
        // releases, which is what makes that wake-up impossible to lose.
        let got = 'acquire: loop {
            let mut st = inbox.state.lock();
            if let Some(j) = st.own.pop_front() {
                break 'acquire Got::Own(j);
            }
            if let Some(m) = st.migrated.pop_front() {
                break 'acquire Got::Migrated(m);
            }
            if st.shutdown {
                break 'acquire Got::Shutdown;
            }
            shared.idle[me].store(true, Ordering::Release);
            match shared.idle_turn() {
                IdleTurn::Steal => {
                    drop(st);
                    if !try_steal(me, shared, pool, &mut w.totals) {
                        std::thread::yield_now();
                    }
                }
                IdleTurn::Nap => {
                    inbox.cv.wait_for(&mut st, NAP);
                }
                IdleTurn::Park => inbox.cv.wait(&mut st),
            }
        };
        shared.idle[me].store(false, Ordering::Release);
        match got {
            Got::Own(job) => {
                process_subframe(me, shared, pool, job, &mut slab, &mut w);
                shared.subframe_done();
            }
            Got::Migrated(m) => {
                run_migrated(shared.arenas, shared.fed, pool, m);
            }
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
        let slack = stage.job.deadline.saturating_duration_since(now);
        shared.guard().admit(
            Nanos::from_us_f64(stage.tp_us),
            Nanos(slack.as_nanos() as u64),
            shared.idle_window(me, now),
        )
    };
    match execute_stolen(&shared.arenas[victim], shared.fed, pool, epoch, idx, admit) {
        Theft::Stale => {} // ticket of a recovered stage: drop it
        Theft::Declined => wm.declined += 1,
        Theft::Executed => wm.steals += 1,
    }
    true
}

/// What became of one published subtask in a helper's hands.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Theft {
    /// The stage was republished since; nothing was written.
    Stale,
    /// The admission check refused it; the owner recovers it locally.
    Declined,
    /// Executed into the arena slot and marked ready.
    Executed,
}

/// The helper side of every migrated subtask, a stolen ticket or one
/// Algorithm 1 sent: enter `arena`'s board at the publication `epoch`,
/// ask `admit`, execute subtask `idx` into its result slot, mark it ready.
///
/// `enter` validates the epoch and holds the board's read guard for the
/// whole execution: the owner's next publication (epoch bump) cannot
/// start until we are done, so a straggler of a recovered stage can never
/// write into a newer stage's slots. An FFT batch reads the job's samples
/// from its delivery slot in `fed` (see [`FedCell`]).
pub(crate) fn execute_stolen(
    arena: &CoreArena,
    fed: &FedShared,
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
    let job = stage.job;
    let prepared = &pool[job.pool_idx];
    match stage.kind {
        TaskKind::Fft => {
            // analyze: allow(guard-held-lock): delivery-slot read guard, shared with the owner for its whole job; only the delivery thread writes, into a slot the owner has returned, and it waits at most for this one batch (FedCell's soundness note)
            let samples = fed.cells[job.cell].slots[job.slot].read();
            // analyze: allow(guard-held-lock): per-subtask slot mutex, a leaf contended only with the recovering owner; the stage guard must stay held across the write-back to fence that owner's next publication, and executing without the slot lock would race a straggler's write-back
            let mut slot = arena.fft_slots[idx].lock();
            prepared.rx.run_fft_batch_into(&samples, idx, &mut slot);
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

/// A mutex-mode host runs a ticket `owner` sent it. Algorithm 1 admitted
/// the subtask at plan time, so only the epoch fence applies: a ticket
/// its owner has already recovered and republished over is `Stale`.
pub(crate) fn run_migrated(
    arenas: &[CoreArena],
    fed: &FedShared,
    pool: &[Prepared],
    (owner, ticket): Migrated,
) -> Theft {
    let (epoch, idx) = decode_ticket(ticket);
    execute_stolen(&arenas[owner], fed, pool, epoch, idx, |_| true)
}

/// Hands out the stage published at `epoch` and collects it. Steal mode
/// pushes every ticket to the owner's deque and drains it LIFO; what a
/// full deque refused runs here first. Mutex mode sends Algorithm 1's
/// batches (`w.plan_scratch`) to their hosts and runs the first `local`
/// subtasks here. Then one loop takes every subtask the owner did not
/// run: absorb it once its ready flag reads `Done`, or recover it locally
/// (Fig. 12 state 6) when a thief declined it or it missed its wait.
#[allow(clippy::too_many_arguments)]
fn fanout(
    me: usize,
    shared: &Shared<'_>,
    kind: TaskKind,
    count: usize,
    local: usize,
    epoch: u64,
    deadline: Instant,
    exec: &mut dyn FnMut(StageOp),
    w: &mut WorkerState,
) {
    let mut local_mask: u64 = 0;
    if shared.cfg.mode == SchedulerMode::RtOpexSteal {
        for i in 0..count {
            if w.deque.push(encode_ticket(epoch, i)).is_err() {
                local_mask |= 1 << i; // deque full: keep it local
            }
        }
        for i in 0..count {
            if local_mask & (1 << i) != 0 {
                exec(StageOp::RunLocal(i));
            }
        }
        // Drain own work LIFO, running each ticket the moment it is
        // popped; anything not popped here was stolen.
        while let Some(t) = w.deque.pop() {
            let (e, i) = decode_ticket(t);
            debug_assert_eq!(e, epoch, "own deque holds a stale ticket");
            local_mask |= 1 << i;
            exec(StageOp::RunLocal(i));
        }
    } else {
        let mut next = local;
        for &(host, n) in &w.plan_scratch {
            for _ in 0..n {
                shared.inboxes[host].push_migrated(me, encode_ticket(epoch, next));
                next += 1;
            }
        }
        debug_assert_eq!(next, count);
        for i in 0..local {
            local_mask |= 1 << i;
            exec(StageOp::RunLocal(i));
        }
    }
    let arena = &shared.arenas[me];
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
                exec(StageOp::RunLocal(i));
                recoveries += 1;
            }
        }
    }
    w.totals.migration.record_stage(kind, count, migrated);
    if recoveries > 0 {
        w.totals.migration.record_recovery(recoveries);
    }
}

/// One migratable stage of the subframe `phy` is decoding: FFT (subtask =
/// one antenna's 14-symbol batch) or decode (subtask = one code block).
/// The stage kind fixes the subtask geometry and the kernel; the
/// scheduler mode fixes how many subtasks the owner keeps. The stage is
/// published only when some may leave: in steal mode when an idle core
/// passes the δ guard, in mutex mode when Algorithm 1's plan migrates
/// something.
fn run_stage(
    kind: TaskKind,
    me: usize,
    shared: &Shared<'_>,
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
    // Subtasks the owner runs whatever its helpers do.
    let local = match cfg.mode {
        _ if count < 2 => count,
        SchedulerMode::RtOpexSteal if shared.worth_publishing(me, tp_us, job.deadline) => 0,
        SchedulerMode::RtOpexMutex => {
            survey_idle_windows(me, shared.idle_windows(Instant::now()), &mut w.idle_scratch);
            plan_migration_into(
                count,
                Nanos::from_us_f64(tp_us),
                shared.guard().delta,
                &w.idle_scratch,
                &mut w.plan_scratch,
            )
            .local
        }
        _ => count,
    };
    let published = (local < count).then(|| {
        let llrs = (kind == TaskKind::Decode).then(|| phy.coded_llrs());
        publish_stage(arena, kind, job, count, tp_us, llrs)
    });
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
        for i in 0..count {
            exec(StageOp::RunLocal(i));
        }
        if cfg.mode.migrates() {
            w.totals.migration.record_stage(kind, count, 0);
        }
        return;
    };
    fanout(
        me,
        shared,
        kind,
        count,
        local,
        epoch,
        job.deadline,
        &mut exec,
        w,
    );
}

/// The slack check before a stage: whether a stage estimated at `est`
/// still fits before `job`'s deadline. When it does not, the subframe is
/// recorded as a miss + drop and the caller gives it up.
fn has_slack(job: &OwnJob, est: Duration, totals: &mut WorkerTotals) -> bool {
    if Instant::now() + est <= job.deadline {
        return true;
    }
    totals.record_drop(job.cell, DropCause::NoSlack);
    false
}

fn process_subframe(
    me: usize,
    shared: &Shared<'_>,
    pool: &[Prepared],
    job: OwnJob,
    slab: &mut JobSlab,
    w: &mut WorkerState,
) {
    let cfg = shared.cfg;
    let prepared = &pool[job.pool_idx];
    // The subframe's samples live in its delivery slot. The read guard
    // is held for the whole job (FFT thieves take their own); the release
    // sentinel (declared first, so it drops last) returns the slot to the
    // free list on every exit path, slack drops included.
    let cell = &shared.fed.cells[job.cell];
    let _slot_release = FedSlotRelease {
        cell,
        slot: job.slot,
    };
    let samples = cell.slots[job.slot].read();
    let started = Instant::now();
    let pidx = job.pool_idx;
    let calib = &shared.calib;

    // Stage slack checks use the calibrated serial stage estimates.
    let est_fft = Duration::from_secs_f64(calib.fft_batch_us * cfg.num_antennas as f64 / 1e6);
    if !has_slack(&job, est_fft, &mut w.totals) {
        return;
    }

    let mut phy = prepared
        .rx
        .start_job_in(&samples, slab)
        // analyze: allow(panic): pool entries come from prepare_pool with the same config; a shape mismatch means the pool was corrupted and the slot must die loudly
        .expect("prepared samples are consistent");

    run_stage(TaskKind::Fft, me, shared, &job, &mut phy, w);
    phy.finish_fft();

    // --- Demod task: serial on the owner. ---
    let est_demod = Duration::from_secs_f64(calib.demod_us[pidx] / 1e6);
    if !has_slack(&job, est_demod, &mut w.totals) {
        return;
    }
    for i in 0..phy.demod_subtask_count() {
        phy.run_demod_subtask_local(i);
    }

    let est_dec = Duration::from_secs_f64(calib.decode_total_us[pidx] / 1e6);
    // Migration roughly halves the decode critical path; the slack check
    // is plan-aware like the simulator's.
    let est_effective = if cfg.mode.migrates() && phy.decode_subtask_count() > 1 {
        est_dec / 2 + Duration::from_secs_f64(DELTA_US / 1e6)
    } else {
        est_dec
    };
    if !has_slack(&job, est_effective, &mut w.totals) {
        return;
    }
    run_stage(TaskKind::Decode, me, shared, &job, &mut phy, w);

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

    /// Records when each subframe is sent; the `stall_at`-th send
    /// takes `stall` to return.
    struct StallingTx {
        params: StreamParams,
        stall_at: usize,
        stall: Duration,
        sent_at: Vec<Instant>,
    }

    impl FronthaulTx for StallingTx {
        fn params(&self) -> &StreamParams {
            &self.params
        }

        fn send(&mut self, _: u16, _: u32, _: u8, _: &[Vec<Cf32>]) -> Result<(), TransportError> {
            self.sent_at.push(Instant::now());
            if self.sent_at.len() == self.stall_at + 1 {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }

        fn flush(&mut self) -> Result<(), TransportError> {
            Ok(())
        }

        fn finish(&mut self) -> Result<(), TransportError> {
            Ok(())
        }
    }

    /// One cell's 10 subframes paced at `period` through a sender whose
    /// third send stalls for `stall`; returns when each went out.
    fn stalled_run(period: Duration, stall: Duration) -> Vec<Instant> {
        let cfg = ClusterConfig {
            num_cells: 1,
            subframes: 10,
            period,
            mcs_pool: vec![5],
            ..ClusterConfig::demo()
        };
        let plan = SendPlan::new(&cfg);
        let mut tx = StallingTx {
            params: StreamParams {
                samples_per_subframe: cfg.bandwidth.samples_per_subframe() as u32,
                antennas: cfg.num_antennas as u8,
                cells: vec![0],
                period_us: period.as_micros() as u32,
                budget_us: period.as_micros() as u32,
                mcs_pool: cfg.mcs_pool.clone(),
                subframes: cfg.subframes as u32,
            },
            stall_at: 2,
            stall,
            sent_at: Vec::new(),
        };
        let (sent, end) = send_paced(&mut tx, &plan, &[0], Instant::now());
        assert_eq!(sent, 10);
        assert!(end.is_ok());
        tx.sent_at
    }

    #[test]
    fn a_stalled_send_shifts_the_schedule_instead_of_bursting() {
        let period = Duration::from_millis(20);
        let sent_at = stalled_run(period, period * 5);
        // The sends behind the stall keep the schedule's length (a late
        // wake-up only stretches it) and are never back to back.
        let after = &sent_at[3..];
        let span = *after.last().unwrap() - after[0];
        assert!(span >= period * (after.len() as u32 - 1), "{span:?}");
        for w in after.windows(2) {
            assert!(w[1] - w[0] >= period / 4, "{:?}", w[1] - w[0]);
        }
    }

    #[test]
    fn idle_windows_follow_a_stalled_sender() {
        let period = Duration::from_millis(20);
        let cfg = ClusterConfig {
            num_cells: 1,
            period,
            ..ClusterConfig::demo()
        };
        let cadence = Cadence::new(&cfg);
        // In-process delivery: each subframe arrives as it is sent. A
        // stall of 4.25 periods shifts the cadence by 3.25: off the old
        // phase, and onto the other core's slots.
        let arrivals = stalled_run(period, period * 17 / 4);
        let schedule = PartitionedSchedule::with_cores_per_bs(1, 2);
        for (j, w) in arrivals.windows(2).enumerate() {
            cadence.track(0, j as u64, w[0], j == 0);
            if j == 2 {
                continue; // the stall itself cannot be foreseen
            }
            // At subframe j's arrival, the core that owns j + 1 expects
            // it where it really lands, after the stall too.
            let core = schedule.core_for(0, j as u64 + 1);
            let expected = cadence.next_release(&schedule, core, w[0]);
            let off =
                expected.saturating_duration_since(w[1]) + w[1].saturating_duration_since(expected);
            assert!(
                off < period / 2,
                "subframe {}: window off by {off:?}",
                j + 1
            );
        }
    }

    /// Runs the delivery loop alone, with no worker to free a slot, over
    /// one cell's subframes of MCS `mcs` sent back to back, and returns
    /// what it dropped.
    fn deliver_without_workers(mcs: &[u8]) -> Drops {
        let cfg = ClusterConfig {
            num_cells: 1,
            mcs_pool: vec![5],
            ..ClusterConfig::demo()
        };
        let samples = cfg.bandwidth.samples_per_subframe();
        let params = StreamParams {
            samples_per_subframe: samples as u32,
            antennas: cfg.num_antennas as u8,
            cells: vec![0],
            period_us: cfg.period.as_micros() as u32,
            budget_us: cfg.budget().as_micros() as u32,
            mcs_pool: cfg.mcs_pool.clone(),
            subframes: mcs.len() as u32,
        };
        let (mut tx, mut rx) = inproc_pair(params, 16);
        let zeros = vec![vec![Cf32::new(0.0, 0.0); samples]; cfg.num_antennas];
        for (seq, &m) in mcs.iter().enumerate() {
            tx.send(0, seq as u32, m, &zeros).unwrap();
        }
        tx.finish().unwrap();
        let fed = FedShared::new(&cfg, samples);
        let calib = Calib::default();
        let shared = Shared::new(&cfg, &[], &fed, &calib, Vec::new());
        deliver_fed(&shared, &mut rx);
        let totals = shared.totals.into_inner();
        assert_eq!(
            totals.deadline.overall().missed,
            totals.drops.total(),
            "every drop is a miss"
        );
        totals.drops
    }

    #[test]
    fn a_subframe_outside_the_mcs_pool_counts_as_such() {
        let drops = deliver_without_workers(&[5, 6, 5, 6]);
        assert_eq!(
            drops,
            Drops {
                mcs_outside_pool: 2,
                ..Drops::default()
            }
        );
    }

    #[test]
    fn a_subframe_finding_every_slot_busy_is_shed() {
        let drops = deliver_without_workers(&[5; FED_SLOTS + 3]);
        assert_eq!(
            drops,
            Drops {
                shed: 3,
                ..Drops::default()
            }
        );
    }

    #[test]
    fn a_stage_that_would_end_past_the_deadline_is_dropped_for_slack() {
        let job = OwnJob {
            cell: 1,
            pool_idx: 0,
            slot: 0,
            deadline: Instant::now() + Duration::from_secs(60),
        };
        let mut totals = WorkerTotals::new(2);
        assert!(has_slack(&job, Duration::from_millis(1), &mut totals));
        assert!(!has_slack(&job, Duration::from_secs(120), &mut totals));
        assert_eq!(
            totals.drops,
            Drops {
                no_slack: 1,
                ..Drops::default()
            }
        );
        assert_eq!(totals.deadline.overall().missed, 1);
    }

    #[test]
    fn mutex_mode_migrates_and_decodes_correctly() {
        // 5 MHz with a long period: high-MCS subframes carry several code
        // blocks and helpers have real idle windows.
        let cfg = ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            num_cells: 2,
            subframes: 40,
            period: Duration::from_micros(3_000),
            mode: SchedulerMode::RtOpexMutex,
            mcs_pool: vec![5, 16, 27],
            ..ClusterConfig::demo()
        };
        let r = CranCluster::new(cfg).run().cluster;
        // Every subframe was paced over the in-process fronthaul and
        // accounted for…
        assert_eq!(r.deadline.total_subframes(), 2 * 40);
        assert_eq!(r.proc_us.len() as u64 + r.dropped, 2 * 40);
        // …real subtasks crossed threads…
        assert!(
            r.migration.fft_migrated + r.migration.decode_migrated > 0,
            "no migrations happened"
        );
        // …and the PHY results stayed correct: at 30 dB every completed
        // subframe should pass its CRC.
        assert_eq!(r.crc_failures, 0, "migration corrupted decodes");
    }

    /// Publishes `count` subtasks of `kind` for `own`, lets two racing
    /// thieves take every ticket they can, and returns the subtasks the
    /// owner still holds.
    fn publish_and_steal(
        arena: &CoreArena,
        fed: &FedShared,
        pool: &[Prepared],
        own: &OwnJob,
        kind: TaskKind,
        count: usize,
        llrs: Option<&[f32]>,
    ) -> Vec<usize> {
        let epoch = publish_stage(arena, kind, own, count, 50.0, llrs);
        let (mut w, s) = steal::steal_pair(64);
        for i in 0..count {
            w.push(encode_ticket(epoch, i)).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = s.clone();
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Taken(t) => {
                            let (e, i) = decode_ticket(t);
                            let theft = execute_stolen(arena, fed, pool, e, i, |_| true);
                            assert_eq!(theft, Theft::Executed, "live epoch");
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                });
            }
        });
        std::iter::from_fn(|| w.pop().map(|t| decode_ticket(t).1)).collect()
    }

    #[test]
    fn deterministic_thief_correctness() {
        // The owner publishes both parallel stages of a subframe sitting
        // in a delivery slot; two thieves race to steal every ticket (FFT
        // batches read the slot through its read guard); the owner absorbs
        // and the payload must be bit-exact.
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
        // Another subframe of the same MCS lands in the slot: a thief
        // reading the pool's samples instead would corrupt the payload.
        let other = ClusterConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let mut landed = CranCluster::encode_pool(&other).swap_remove(0).1;
        let serial = p.rx.decode_subframe(&landed).unwrap();
        let blocks = p.rx.config().segmentation().num_blocks;
        assert!(blocks >= 2, "need multiple code blocks");

        let fed = FedShared::new(&cfg, cfg.bandwidth.samples_per_subframe());
        let slot = fed.cells[0].land(&mut landed).unwrap();
        let samples = fed.cells[0].slots[slot].read();
        let arena = CoreArena::new(&pool, &cfg);
        let mut slab = JobSlab::new();
        slab.warm(p.rx.config());
        let mut job = p.rx.start_job_in(&samples, &mut slab).unwrap();
        let own = OwnJob {
            cell: 0,
            pool_idx: 0,
            slot,
            deadline: Instant::now() + Duration::from_secs(5),
        };

        let batches = cfg.num_antennas;
        let kept = publish_and_steal(&arena, &fed, &pool, &own, TaskKind::Fft, batches, None);
        assert!(kept.len() < batches, "thieves never stole an FFT batch");
        for b in 0..batches {
            if kept.contains(&b) {
                job.run_fft_batch_local(b);
            } else {
                assert_eq!(arena.board.wait(b, own.deadline), SlotState::Done);
                job.absorb_fft_batch(b, &arena.fft_slots[b].lock());
            }
        }
        job.finish_fft();
        for i in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(i);
        }

        let llrs = Some(job.coded_llrs());
        let kept = publish_and_steal(&arena, &fed, &pool, &own, TaskKind::Decode, blocks, llrs);
        assert!(kept.len() < blocks, "thieves never stole a code block");
        for r in 0..blocks {
            if kept.contains(&r) {
                job.run_decode_subtask_local(r);
            } else {
                assert_eq!(arena.board.wait(r, own.deadline), SlotState::Done);
                job.absorb_decode_buf(r, &arena.dec_slots[r].lock());
            }
        }
        let verdict = job.finish().unwrap();
        assert!(serial.crc_ok);
        assert_eq!(verdict.crc_ok, serial.crc_ok);
        assert_eq!(slab.payload(), &serial.payload[..]);
    }

    #[test]
    fn a_sent_ticket_nobody_serves_is_recovered_then_refused_as_stale() {
        let cfg = ClusterConfig {
            num_cells: 1,
            mcs_pool: vec![5],
            mode: SchedulerMode::RtOpexMutex,
            ..ClusterConfig::demo()
        };
        let pool = CranCluster::prepare_pool(&cfg);
        let p = &pool[0];
        let fed = FedShared::new(&cfg, cfg.bandwidth.samples_per_subframe());
        let slot = fed.cells[0].land(&mut p.samples.clone()).unwrap();
        let arenas = [CoreArena::new(&pool, &cfg)];
        let arena = &arenas[0];
        let own = OwnJob {
            cell: 0,
            pool_idx: 0,
            slot,
            deadline: Instant::now() + Duration::from_millis(5),
        };
        let sentinel = vec![Cf32::new(7.0, -7.0); 3];
        *arena.fft_slots[1].lock() = sentinel.clone();

        // Owner core 0 keeps batch 0 and sends batch 1 to a host whose
        // inbox nobody serves.
        let batches = cfg.num_antennas;
        let epoch = publish_stage(arena, TaskKind::Fft, &own, batches, 10.0, None);
        let host = Inbox::with_capacity(0, 4);
        host.push_migrated(0, encode_ticket(epoch, 1));
        let mut slab = JobSlab::new();
        let mut job = p.rx.start_job_in(&p.samples, &mut slab).unwrap();
        job.run_fft_batch_local(0);
        // The wait ends at its bound and the owner recovers the batch.
        assert_eq!(arena.board.wait(1, own.deadline), SlotState::Pending);
        job.run_fft_batch_local(1);
        job.finish_fft();

        // The next publication fences the sent ticket out: the host runs
        // it late, writes nothing, and leaves the new stage's flag alone.
        let next = publish_stage(arena, TaskKind::Fft, &own, batches, 10.0, None);
        assert!(next > epoch);
        let sent = host.state.lock().migrated.pop_front().unwrap();
        assert_eq!(sent, (0, encode_ticket(epoch, 1)));
        assert_eq!(run_migrated(&arenas, &fed, &pool, sent), Theft::Stale);
        assert_eq!(*arena.fft_slots[1].lock(), sentinel);
        assert_eq!(arena.board.poll(1), SlotState::Pending);
    }

    #[test]
    fn a_thief_in_the_slot_delays_landing_but_not_recovery() {
        let cfg = ClusterConfig {
            num_cells: 1,
            mcs_pool: vec![5],
            ..ClusterConfig::demo()
        };
        let pool = CranCluster::prepare_pool(&cfg);
        let p = &pool[0];
        let fed = FedShared::new(&cfg, cfg.bandwidth.samples_per_subframe());
        let cell = &fed.cells[0];
        let slot = cell.land(&mut p.samples.clone()).unwrap();
        let arena = CoreArena::new(&pool, &cfg);
        let own = OwnJob {
            cell: 0,
            pool_idx: 0,
            slot,
            deadline: Instant::now() + Duration::from_millis(20),
        };

        // The owner holds its job's slot and publishes the FFT stage; a
        // straggler enters the board at the live epoch, takes the slot's
        // read guard as `execute_stolen` does, and stalls there.
        let owner_samples = cell.slots[slot].read();
        let epoch = publish_stage(&arena, TaskKind::Fft, &own, cfg.num_antennas, 10.0, None);
        let stage = arena.board.enter(epoch).expect("live epoch");
        let thief_samples = cell.slots[stage.job.slot].read();

        // Recovery: batch 0 never completes, so the owner's wait ends at
        // the deadline and it runs the whole stage itself, straggler or
        // not.
        assert_ne!(arena.board.wait(0, own.deadline), SlotState::Done);
        let mut slab = JobSlab::new();
        let mut job = p.rx.start_job_in(&owner_samples, &mut slab).unwrap();
        for b in 0..cfg.num_antennas {
            job.run_fft_batch_local(b);
        }
        job.finish_fft();

        // The owner returns the slot. The delivery thread's swap into it
        // waits for the straggler, and goes through once it leaves.
        drop(owner_samples);
        cell.free.lock().push(slot);
        let left = AtomicBool::new(false);
        std::thread::scope(|s| {
            let delivery = s.spawn(|| {
                let landed = cell.land(&mut p.samples.clone());
                (landed, left.load(Ordering::SeqCst))
            });
            // Lets the delivery thread reach the write guard first; the
            // assertions below hold whichever thread gets there first.
            std::thread::sleep(Duration::from_millis(20));
            stage.complete(0);
            left.store(true, Ordering::SeqCst);
            drop(thief_samples);
            drop(stage);
            let (landed, after_straggler) = delivery.join().unwrap();
            assert_eq!(landed, Some(slot));
            assert!(after_straggler, "swapped under a reader");
        });
        // Nothing fences the owner's next publication.
        let next = publish_stage(&arena, TaskKind::Fft, &own, cfg.num_antennas, 10.0, None);
        assert!(next > epoch);
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
    fn deliveries_are_staggered_and_monotone() {
        let cfg = ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            num_cells: 4,
            ..ClusterConfig::demo()
        };
        let stagger = ingest_stagger(&cfg);
        assert_eq!(stagger.len(), 4);
        assert_eq!(stagger[0], Duration::ZERO, "cell 0 is the reference");
        // Each step is one cell's serialization on the shared port.
        let link = TestbedLink::paper_testbed();
        let bits = (TestbedLink::subframe_bytes(cfg.bandwidth) * 8 * cfg.num_antennas) as f64;
        let per_cell_us = bits / link.aggregate_bps * 1e6;
        for w in stagger.windows(2) {
            assert!(w[1] > w[0], "later cells deliver strictly later");
            let step_us = (w[1] - w[0]).as_secs_f64() * 1e6;
            // Each offset is rounded to a whole nanosecond.
            assert!(
                (step_us - per_cell_us).abs() < 2e-3,
                "{step_us} vs {per_cell_us}"
            );
        }
    }

    #[test]
    fn eq3_refuses_a_pool_the_host_cannot_decode_in_budget() {
        // 2·10 − 10 = 10 µs: no 5 MHz subframe decodes that fast.
        let tight = ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            mcs_pool: vec![5, 27],
            period: Duration::from_micros(10),
            rtt_half: Duration::from_micros(10),
            ..ClusterConfig::demo()
        };
        let cluster = CranCluster::new(tight.clone());
        let err = cluster.check_eq3().unwrap_err();
        assert!([5, 27].contains(&err.mcs), "{err}");
        assert!(err.need > Duration::from_micros(10), "{err}");
        assert_eq!(err.budget, Duration::from_micros(10));
        assert!(err
            .to_string()
            .starts_with(&format!("MCS {} needs ", err.mcs)));
        // The pool is calibrated once per cluster: the verdict is stable.
        assert_eq!(cluster.check_eq3(), Err(err));
        // A 1 s budget is far above any calibration, even a contended one.
        let roomy = ClusterConfig {
            period: Duration::from_secs(1),
            rtt_half: Duration::from_secs(1),
            ..tight
        };
        let ok = CranCluster::new(roomy).check_eq3().unwrap();
        assert!([5, 27].contains(&ok.mcs), "{ok}");
        assert_eq!(ok.budget, Duration::from_secs(1));
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
