//! The farm driver: `S` boards evolving one lattice in bulk-synchronous
//! lockstep.
//!
//! Each pass, every board receives its halo columns over the inter-board
//! links ([`crate::link::BoardLink`]: bandwidth-throttled, parity
//! checked), then runs its cycle-level engine — a WSA pipeline (§4) or
//! an SPA slice array (§5) — for `k` generations over the halo-augmented
//! slab on its own worker thread, and finally the owned columns are
//! stitched back into the machine lattice at the barrier. A slab
//! augmented with `k` true generation-`t` columns per interior side
//! evolves `k` generations with every owned column bit-exact (boundary
//! pollution travels one column per generation), so the farmed run
//! equals the single-engine reference *exactly*, for HPP and — via the
//! origin-aware stream framing the engines already speak — for
//! coordinate-dependent FHP, on both the null boundary and the torus.
//!
//! The price is redundant halo recompute (each exchanged column is
//! evolved by two boards) and link time at the barrier; the machine
//! report accounts both, which is what the analytical board model in
//! `lattice-vlsi` predicts and `tab_farm_scaling` cross-checks.
//!
//! # The recovery ladder
//!
//! At machine scale the dominant cost of a transient upset is not the
//! flip but how far recovery propagates, so
//! [`LatticeFarm::run_with_recovery`] escalates through four levels,
//! each containing the fault at the layer that detected it:
//!
//! 1. **Link ARQ** — a parity failure on a halo frame retransmits just
//!    that frame ([`BoardLink::transmit_arq`]); the wire never rewinds,
//!    so the retry draws fresh transient weather.
//! 2. **Local rollback** — an engine/audit/watchdog failure on one
//!    board rewinds only that board to the top of the pass and replays
//!    its buffered inbound halos; neighbors stall, they don't rewind.
//! 3. **Global rollback** — when the local budget is exhausted (or the
//!    failure isn't localizable, like a machine-wide audit), all boards
//!    reload the last checkpoint barrier.
//! 4. **Degraded re-partitioning** — a board that exhausts the whole
//!    ladder is retired under a [`FarmDegradeConfig`]: the lattice is
//!    re-partitioned onto the survivors (`lattice_core::shard`), a
//!    fresh barrier is taken, and the run continues slower but exact.
//!
//! Every detection is answered by exactly one ladder action, so
//! `detected == retransmits + local_rollbacks + rollbacks +
//! boards_retired` on any successful run (see
//! [`lattice_engines_sim::RecoveryStats`]).

use crate::link::{BoardLink, HaloWindow};
use crate::partition::{
    max_aug_width2d, partition2d, partition2d_checked, sweep_regions2d, Block, Region2d,
};
use lattice_core::bits::Traffic;
use lattice_core::checkpoint::store::{ShardBlob, SnapshotSink};
use lattice_core::units::{
    u64_from_usize, usize_from_u64, Bits, BitsPerTick, Cells, Hz, Sites, SitesPerSec, SitesPerTick,
    Ticks,
};
use lattice_core::{checkpoint, Coord, Grid, LatticeError, Rule, Shape, State};
use lattice_engines_sim::{
    EngineReport, FaultCtx, FaultPlan, FaultStats, Pipeline, RecoveryStats, RunOptions, SpaEngine,
    SpaRunOptions,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which cycle-level engine every board runs over its slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEngine {
    /// A wide-serial pipeline (§4): `width` PEs per stage, one stage per
    /// generation of the pass.
    Wsa {
        /// PEs per stage (`P`).
        width: usize,
    },
    /// The partitioned architecture (§5): serial slice-PEs side by side.
    /// `slice_width` must divide every board's *augmented* slab width;
    /// `1` (one column per PE, the fully partitioned corner) always
    /// does and is the natural farm choice.
    Spa {
        /// Columns per slice (`W`).
        slice_width: usize,
    },
}

/// How an injected worker fault misbehaves (test/experiment hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker stalls for this many milliseconds before computing —
    /// long enough past the watchdog deadline, the supervisor declares
    /// the board down and its late result is discarded.
    Hang {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The worker dies without reporting (models a panic or a dropped
    /// result channel); detected even without a watchdog.
    Die,
}

/// Binds a [`WorkerFault`] to one board at one `(pass, attempt)` epoch,
/// so a single injected hang can be retried cleanly by the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFaultSpec {
    /// Physical board whose worker misbehaves.
    pub board: usize,
    /// Logical pass number the fault fires on.
    pub pass: u64,
    /// Board attempt epoch the fault fires on (`0` = first try; a local
    /// or global rollback bumps the epoch, clearing the fault exactly
    /// like re-running real flaky hardware).
    pub attempt: u64,
    /// The misbehavior.
    pub fault: WorkerFault,
}

/// A board-level engine farm over one lattice.
#[derive(Debug, Clone, Copy)]
pub struct LatticeFarm {
    /// Boards (`S`), each owning one rectangular block (a columnar slab
    /// when [`LatticeFarm::grid`] has one row).
    pub shards: usize,
    /// Board grid shape `(R, C)` with `R · C == shards`: the lattice is
    /// cut into `R` row bands × `C` column bands. `(1, shards)` — the
    /// default — is the columnar farm.
    pub grid: (usize, usize),
    /// The engine instantiated on every board.
    pub engine: ShardEngine,
    /// Generations per pass (`k`) — also the halo width each board
    /// imports per pass.
    pub depth: usize,
    /// The intra-rack halo link model: the horizontal (left/right)
    /// exchange, whose frames also carry the corner cells and, at
    /// `R = 1` on the torus, the on-board wrap rows.
    pub link: BoardLink,
    /// The inter-rack halo link model: the vertical (up/down) exchange
    /// between board-grid rows, typically throttled relative to
    /// [`LatticeFarm::link`] (QCDOC-style two-tier interconnect). Idle
    /// at `R = 1`.
    pub link_inter: BoardLink,
    /// Toroidal boundary. Coordinate-dependent rules (FHP) must then be
    /// built `with_wrap` for the lattice, exactly as with
    /// `lattice_engines_sim::halo::run_periodic`.
    pub periodic: bool,
    /// Optional injected worker misbehavior (hang/die), for exercising
    /// the watchdog path deterministically.
    pub worker_fault: Option<WorkerFaultSpec>,
    /// Overlap halo exchange with interior compute: each pass splits
    /// into a boundary sweep (the seam-adjacent columns) and an
    /// interior sweep; the boundary columns are computed first and
    /// their halo frames for pass `n + 1` ship over double-buffered
    /// links ([`HaloWindow`]) while pass `n`'s interior is still
    /// evolving. The next pass barriers on halo *arrival*, so its
    /// transfer time is hidden up to the previous interior sweep:
    /// per-pass machine time becomes `boundary + max(interior, halo)`
    /// instead of `compute + halo`. Results are bit-exact either way.
    pub overlap: bool,
}

/// Per-board cumulative statistics over a farm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Physical board id (stable across degraded re-partitioning).
    pub shard: usize,
    /// First owned global row (0 for columnar farms).
    pub row0: usize,
    /// Owned rows (the full lattice height for columnar farms).
    pub rows: usize,
    /// First owned global column (final geometry, if re-partitioned).
    pub col0: usize,
    /// Owned columns (final geometry; a retired board keeps the last
    /// slab it owned).
    pub cols: usize,
    /// Site updates performed (halo recompute included).
    pub updates: Sites,
    /// Engine ticks summed over passes.
    pub ticks: Ticks,
    /// Bits imported over this board's halo links.
    pub halo_in_bits: Bits,
    /// Halo frames this board's link retransmitted during committed
    /// passes (ARQ, ladder level 1).
    pub retransmits: u64,
    /// Times this board alone was rewound and replayed (ladder
    /// level 2) — neighbors' counters stay put.
    pub local_rollbacks: u64,
    /// Whether degraded re-partitioning retired this board.
    pub retired: bool,
}

/// A machine-level run summary: the aggregated [`EngineReport`] plus the
/// farm-specific accounting (halo traffic and barrier time).
#[derive(Debug, Clone)]
pub struct FarmReport<S: State> {
    /// The merged machine report: `grid` is the stitched final lattice;
    /// `updates`/`ticks`/traffic/faults aggregate every board via
    /// [`EngineReport::merge`] per pass (parallel composition), then add
    /// across passes (sequential composition). `updates` counts the
    /// halo recompute; see [`FarmReport::useful_updates`].
    pub machine: EngineReport<S>,
    /// Passes through the farm.
    pub passes: u64,
    /// Boards the farm was configured with (retired boards included;
    /// see [`ShardStats::retired`]).
    pub shards: usize,
    /// Per-board breakdown, indexed by physical board id.
    pub per_shard: Vec<ShardStats>,
    /// Inter-board halo traffic (bits out of senders / into receivers),
    /// ARQ retransmissions included — retransmitted bits are real bits.
    pub halo_traffic: Traffic,
    /// Ticks the machine spent in halo exchange at the barriers (the
    /// slowest board's link time, summed over passes), including the
    /// [`FarmReport::retransmit_ticks`] share.
    pub halo_ticks: Ticks,
    /// The share of [`FarmReport::halo_ticks`] spent retransmitting
    /// halo frames — the ARQ term the `lattice-vlsi` farm model adds to
    /// its pass-tick prediction.
    pub retransmit_ticks: Ticks,
    /// The share of [`FarmReport::halo_ticks`] hidden under interior
    /// compute by overlapped exchange (zero when
    /// [`LatticeFarm::overlap`] is off): each pass's staged halo
    /// transfer runs concurrently with the *previous* pass's interior
    /// sweep, so only `min(interior, halo)` of it is free. Subtracted
    /// from the wall clock in [`FarmReport::machine_ticks`].
    pub overlapped_ticks: Ticks,
    /// Halo frames retransmitted during committed passes (frames of
    /// attempts that later rolled back are counted only in
    /// `RecoveryStats::retransmits`).
    pub retransmits: u64,
}

impl<S: State> FarmReport<S> {
    /// The final lattice.
    pub fn grid(&self) -> &Grid<S> {
        &self.machine.grid
    }

    /// Machine wall-clock ticks: compute plus the halo-exchange time
    /// that was actually exposed at the barriers — overlapped exchange
    /// hides [`FarmReport::overlapped_ticks`] of the link time under
    /// interior compute, so per pass the wall clock follows
    /// `boundary + max(interior, halo)` instead of `compute + halo`.
    pub fn machine_ticks(&self) -> Ticks {
        self.machine.ticks + self.halo_ticks.saturating_sub(self.overlapped_ticks)
    }

    /// Lattice-visible updates (`generations × sites`), excluding the
    /// redundant halo recompute counted in `machine.updates`.
    pub fn useful_updates(&self) -> Sites {
        Sites::new(u64_from_usize(self.machine.grid.len())) * self.machine.generations
    }

    /// Useful site updates per machine tick.
    pub fn updates_per_tick(&self) -> SitesPerTick {
        self.useful_updates() / self.machine_ticks()
    }

    /// Useful updates per second at engine clock `clock`.
    pub fn updates_per_second(&self, clock: Hz) -> SitesPerSec {
        self.updates_per_tick() * clock
    }

    /// Sustained inter-board bandwidth demand per machine tick.
    pub fn halo_bits_per_tick(&self) -> BitsPerTick {
        Bits::new(self.halo_traffic.bits_in) / self.machine_ticks()
    }

    /// Work amplification from halo recompute: total updates performed
    /// over useful updates (≥ 1; grows with shards and pass depth).
    pub fn redundancy(&self) -> f64 {
        let useful = self.useful_updates();
        if useful.is_zero() {
            1.0
        } else {
            self.machine.updates.ratio(useful)
        }
    }

    /// Fraction of machine time spent computing (vs halo exchange).
    pub fn compute_fraction(&self) -> f64 {
        if self.machine_ticks().is_zero() {
            1.0
        } else {
            self.machine.ticks.ratio(self.machine_ticks())
        }
    }

    /// Machine PE utilization: useful updates over total PE-ticks
    /// (stalls, fill, and halo recompute all count against it).
    pub fn utilization(&self) -> f64 {
        let pe_ticks = self.machine_ticks().to_f64()
            * f64::from(self.machine.stages)
            * f64::from(self.machine.width);
        if pe_ticks == 0.0 {
            0.0
        } else {
            self.useful_updates().to_f64() / pe_ticks
        }
    }
}

/// Degraded-mode policy: how many boards the farm may retire and
/// re-partition around before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmDegradeConfig {
    /// Boards that may be retired over the whole run. Must be smaller
    /// than the shard count — the farm cannot retire its last board.
    pub max_retired: usize,
}

/// Recovery policy for [`LatticeFarm::run_with_recovery`]: the budgets
/// of the four-level escalation ladder.
#[derive(Debug, Clone, Copy)]
pub struct FarmRecoveryConfig {
    /// Farm-wide rollback-and-retry attempts per checkpoint window
    /// (ladder level 3) before degrading or giving up.
    pub max_retries: u32,
    /// Passes between checkpoint barriers (each barrier snapshots every
    /// shard's slab through the real checkpoint codec).
    pub checkpoint_every: u64,
    /// Halo-frame retransmissions per transmit (ladder level 1). `0`
    /// disables ARQ: every link parity failure escalates immediately.
    pub arq_retries: u32,
    /// Single-board rollback-and-replay attempts per board per
    /// checkpoint window (ladder level 2). `0` escalates straight to
    /// farm-wide rollback.
    pub local_retries: u32,
    /// Per-pass worker heartbeat deadline. A board that has not
    /// reported within the deadline is declared down
    /// ([`LatticeError::BoardDown`]) and handled by the ladder like any
    /// other localized failure. `None` waits forever (a dead worker is
    /// still detected when its result channel drops).
    pub watchdog: Option<Duration>,
    /// Degraded re-partitioning (ladder level 4); `None` means a board
    /// that exhausts the ladder fails the run, as the pre-ladder farm
    /// did.
    pub degrade: Option<FarmDegradeConfig>,
}

impl Default for FarmRecoveryConfig {
    fn default() -> Self {
        FarmRecoveryConfig {
            max_retries: 3,
            checkpoint_every: 1,
            arq_retries: 2,
            local_retries: 2,
            watchdog: None,
            degrade: None,
        }
    }
}

/// A fault-tolerant farm run: the report plus what recovery did.
#[derive(Debug, Clone)]
pub struct FarmFtRun<S: State> {
    /// The machine-level run summary (fault tallies are in
    /// `report.machine.faults`, retries included).
    pub report: FarmReport<S>,
    /// Recovery actions taken (checkpoints are counted per shard blob).
    pub recovery: RecoveryStats,
}

/// A board's halo exchange, buffered so local retries can replay it.
/// The horizontal (intra-rack) and vertical (inter-rack) frames cross
/// *different wires*, so their bits and retransmits are billed per
/// tier; `bits`/`retransmits` are the intra-rack figures (the only
/// nonzero ones for a columnar farm).
struct ExchangeOutcome<S: State> {
    aug: Grid<S>,
    bits: Bits,
    retransmits: u32,
    /// Bits over the inter-rack (vertical) tier; zero at `R = 1`.
    bits_inter: Bits,
    /// Retransmits on the inter-rack tier; zero at `R = 1`.
    retransmits_inter: u32,
    traffic: Traffic,
    /// Whether this frame was shipped ahead during the previous pass's
    /// interior sweep (taken from a [`HaloWindow`]) — the condition for
    /// crediting its transfer time as overlapped.
    staged: bool,
}

/// The sender-ahead frame a board stages into its neighbor-facing
/// [`HaloWindow`] during a pass's interior sweep: either the delivered
/// exchange, or the link error its ARQ budget could not clear (which
/// must surface at the *arrival* barrier it belongs to, not the pass
/// that shipped it).
type StagedHalo<S> = HaloWindow<Result<ExchangeOutcome<S>, LatticeError>>;

/// What one board has produced so far within the current pass. The
/// cache state encodes what a retry must redo: a link failure leaves
/// `exchange` empty (re-exchange), an engine/audit failure leaves
/// `exchange` buffered but `reports` empty (replay the buffered halos).
/// `reports` holds one engine report per sweep region, in
/// [`sweep_regions2d`] order (a single entry when overlap is off).
struct BoardCache<S: State> {
    exchange: Option<ExchangeOutcome<S>>,
    reports: Option<Vec<EngineReport<S>>>,
}

impl<S: State> Default for BoardCache<S> {
    fn default() -> Self {
        BoardCache { exchange: None, reports: None }
    }
}

/// The engine input for one sweep region: borrows the full augmented
/// block when the region covers it entirely (the serialized path pays
/// no copy), else materializes the region's rectangle.
fn region_grid<'a, S: State>(
    aug: &'a Grid<S>,
    region: &Region2d,
) -> Result<std::borrow::Cow<'a, Grid<S>>, LatticeError> {
    if region.r0 == 0
        && region.height == aug.shape().rows()
        && region.a0 == 0
        && region.width == aug.shape().cols()
    {
        return Ok(std::borrow::Cow::Borrowed(aug));
    }
    let shape = Shape::grid2(region.height, region.width)?;
    Ok(std::borrow::Cow::Owned(Grid::from_fn(shape, |c| {
        aug.get(Coord::c2(region.r0 + c.row(), region.a0 + c.col()))
    })))
}

/// Sequential composition of one board's sweep regions within a pass:
/// the regions run back to back on the same silicon, so ticks, updates,
/// and traffic add, while pipeline geometry (`stages`, `width`) and
/// capacity figures stay the board's maxima and `generations` stays the
/// pass depth. The dual of [`EngineReport::merge`], which composes
/// *concurrent* engines (ticks max, stages add).
fn fold_regions<S: State>(mut reports: Vec<EngineReport<S>>) -> EngineReport<S> {
    let mut folded = reports.remove(0);
    for r in reports {
        folded.generations = folded.generations.max(r.generations);
        folded.updates += r.updates;
        folded.ticks += r.ticks;
        folded.memory_traffic.merge(r.memory_traffic);
        folded.pin_traffic.merge(r.pin_traffic);
        folded.side_traffic.merge(r.side_traffic);
        folded.offchip_sr_traffic.merge(r.offchip_sr_traffic);
        folded.sr_cells_per_stage = folded.sr_cells_per_stage.max(r.sr_cells_per_stage);
        folded.stages = folded.stages.max(r.stages);
        folded.width = folded.width.max(r.width);
        folded.faults.merge(r.faults);
    }
    folded
}

/// Converts a missing cache entry — a supervisor-logic invariant, not a
/// hardware fault — into a localized [`BoardFailure`] instead of a
/// panic, so a supervisor bug degrades into the recovery ladder rather
/// than tearing the farm down.
fn cached<T>(entry: Option<T>, slab: usize, what: &str) -> Result<T, BoardFailure> {
    entry.ok_or_else(|| BoardFailure {
        slab: Some(slab),
        error: LatticeError::Corrupted {
            site: format!("board cache, slab {slab}"),
            detail: format!("{what} missing from the pass cache"),
        },
    })
}

/// A failure inside one pass attempt, localized when possible.
struct BoardFailure {
    /// Slab index the failure is localized to; `None` for machine-wide
    /// failures (the global audit), which skip ladder level 2.
    slab: Option<usize>,
    error: LatticeError,
}

/// Per-board audit callback: `(physical board, aug before, aug after)`.
type ShardAuditRef<'a, S> =
    &'a mut dyn FnMut(usize, &Grid<S>, &Grid<S>) -> Result<(), LatticeError>;

/// Geometry and policy shared by every board of one pass attempt.
struct PassParams<'a> {
    k: usize,
    t_now: u64,
    /// End of the whole run — overlap mode needs it to know whether a
    /// next pass exists (and how deep it is) when shipping ahead.
    t_end: u64,
    pass: u64,
    blocks: &'a [Block],
    /// Block index → physical board id (identity until boards retire).
    phys: &'a [usize],
    stride: usize,
    link_chip_base: usize,
    /// Per physical board attempt epochs.
    attempts: &'a [u64],
    arq_retries: u32,
    watchdog: Option<Duration>,
    /// The committed previous pass's interior-sweep time: the window
    /// this pass's (staged) halo transfer was hidden under. Zero when
    /// the previous pass failed, rolled back, or did not stage.
    overlap_credit: Ticks,
}

/// A board's compute outcome: absent until its worker reports, then
/// one engine report per sweep region or the board's failure.
type BoardResult<S> = Option<Result<Vec<EngineReport<S>>, LatticeError>>;

/// One board's work order for a pass (borrowing its buffered exchange).
struct JobRef<'a, S: State> {
    slab: usize,
    aug: &'a Grid<S>,
    /// Sweep regions in execution order (boundary first); one full
    /// region when overlap is off.
    regions: Vec<Region2d>,
    ctx: Option<FaultCtx<'a>>,
    origin: (usize, usize),
    chip0: usize,
    phys: usize,
    attempt: u64,
}

/// What one pass produced, before aggregation. `reports` holds the
/// per-board *folded* report (regions composed sequentially).
struct PassOutcome<S: State> {
    grid: Grid<S>,
    reports: Vec<EngineReport<S>>,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    halo_bits_per_board: Vec<Bits>,
    retransmits_per_board: Vec<u32>,
    /// Slowest board's boundary-sweep time (zero when overlap is off:
    /// the whole sweep is interior).
    boundary_ticks: Ticks,
    /// Slowest board's interior-sweep time — the window the *next*
    /// pass's halo transfer can hide under.
    interior_ticks: Ticks,
    /// The share of this pass's `halo_ticks` that was hidden under the
    /// previous pass's interior sweep: `min(credit, halo_ticks)` when
    /// every frame arrived staged, zero otherwise.
    overlapped_ticks: Ticks,
}

/// Cross-pass accumulators for the machine report. `Clone` so a live
/// [`FarmSession`] can snapshot a mid-run [`FarmReport`] without
/// disturbing the accumulators.
#[derive(Clone)]
struct Totals {
    updates: Sites,
    compute_ticks: Ticks,
    generations: u64,
    memory: Traffic,
    pins: Traffic,
    side: Traffic,
    offchip: Traffic,
    sr: Cells,
    stages: u32,
    width: u32,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    overlapped_ticks: Ticks,
    retransmits: u64,
    per_shard: Vec<ShardStats>,
}

impl Totals {
    fn new(blocks: &[Block]) -> Self {
        Totals {
            updates: Sites::ZERO,
            compute_ticks: Ticks::ZERO,
            generations: 0,
            memory: Traffic::new(),
            pins: Traffic::new(),
            side: Traffic::new(),
            offchip: Traffic::new(),
            sr: Cells::ZERO,
            stages: 0,
            width: 0,
            halo_traffic: Traffic::new(),
            halo_ticks: Ticks::ZERO,
            retransmit_ticks: Ticks::ZERO,
            overlapped_ticks: Ticks::ZERO,
            retransmits: 0,
            per_shard: blocks
                .iter()
                .map(|b| ShardStats {
                    shard: b.index,
                    row0: b.row0,
                    rows: b.rows,
                    col0: b.col0,
                    cols: b.width,
                    updates: Sites::ZERO,
                    ticks: Ticks::ZERO,
                    halo_in_bits: Bits::ZERO,
                    retransmits: 0,
                    local_rollbacks: 0,
                    retired: false,
                })
                .collect(),
        }
    }

    /// Folds one pass in: shard reports compose in parallel (via
    /// [`EngineReport::merge`]), passes compose sequentially (ticks and
    /// updates add). The pass's compute time is the boundary barrier
    /// plus the interior barrier — each phase waits on its slowest
    /// board — which reduces to the slowest board's full sweep when
    /// overlap is off. `phys` maps slab index → physical board.
    fn absorb<S: State>(&mut self, out: &PassOutcome<S>, k: u64, phys: &[usize]) {
        self.compute_ticks += out.boundary_ticks + out.interior_ticks;
        self.generations += k;
        self.stages = self.stages.max(out.reports.iter().map(|r| r.stages).sum());
        self.halo_traffic.merge(out.halo_traffic);
        self.halo_ticks += out.halo_ticks;
        self.retransmit_ticks += out.retransmit_ticks;
        self.overlapped_ticks += out.overlapped_ticks;
        for (i, report) in out.reports.iter().enumerate() {
            // The counters of `EngineReport::merge` over the boards,
            // folded straight in rather than through a merged copy of
            // the first board's report (and its lattice).
            self.updates += report.updates;
            self.memory.merge(report.memory_traffic);
            self.pins.merge(report.pin_traffic);
            self.side.merge(report.side_traffic);
            self.offchip.merge(report.offchip_sr_traffic);
            self.sr = self.sr.max(report.sr_cells_per_stage);
            self.width = self.width.max(report.width);
            let stats = &mut self.per_shard[phys[i]];
            stats.updates += report.updates;
            stats.ticks += report.ticks;
            stats.halo_in_bits += out.halo_bits_per_board[i];
            stats.retransmits += u64::from(out.retransmits_per_board[i]);
            self.retransmits += u64::from(out.retransmits_per_board[i]);
        }
    }

    /// Re-records the block geometry after a degraded re-partitioning.
    fn regeom(&mut self, blocks: &[Block], phys: &[usize]) {
        for (i, b) in blocks.iter().enumerate() {
            self.per_shard[phys[i]].row0 = b.row0;
            self.per_shard[phys[i]].rows = b.rows;
            self.per_shard[phys[i]].col0 = b.col0;
            self.per_shard[phys[i]].cols = b.width;
        }
    }

    fn finish<S: State>(
        self,
        grid: Grid<S>,
        passes: u64,
        shards: usize,
        faults: FaultStats,
    ) -> FarmReport<S> {
        FarmReport {
            machine: EngineReport {
                grid,
                generations: self.generations,
                updates: self.updates,
                ticks: self.compute_ticks,
                memory_traffic: self.memory,
                pin_traffic: self.pins,
                side_traffic: self.side,
                offchip_sr_traffic: self.offchip,
                sr_cells_per_stage: self.sr,
                stages: self.stages,
                width: self.width,
                faults,
            },
            passes,
            shards,
            per_shard: self.per_shard,
            halo_traffic: self.halo_traffic,
            halo_ticks: self.halo_ticks,
            retransmit_ticks: self.retransmit_ticks,
            overlapped_ticks: self.overlapped_ticks,
            retransmits: self.retransmits,
        }
    }
}

/// Takes one checkpoint barrier: snapshots every block through the real
/// checkpoint codec, bills the recovery accounting, and (when a durable
/// `sink` is attached) pushes the shard blobs as one shard-consistent
/// snapshot.
fn take_ckpt<S: State>(
    g: &Grid<S>,
    t: u64,
    blocks: &[Block],
    recovery: &mut RecoveryStats,
    sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
) -> Result<Vec<Vec<u8>>, LatticeError> {
    let blobs = save_shard_checkpoints(g, blocks, t)?;
    recovery.checkpoints += u64_from_usize(blocks.len());
    recovery.checkpoint_bytes += blobs.iter().map(|b| u64_from_usize(b.len())).sum::<u64>();
    if let Some(s) = sink.as_deref_mut() {
        let shards: Vec<ShardBlob> = blobs
            .iter()
            .zip(blocks)
            .map(|(blob, blk)| ShardBlob {
                col0: u64_from_usize(blk.col0),
                row0: u64_from_usize(blk.row0),
                blob: blob.clone(),
            })
            .collect();
        s.persist(Ticks::new(t), &shards)?;
    }
    Ok(blobs)
}

fn save_shard_checkpoints<S: State>(
    grid: &Grid<S>,
    blocks: &[Block],
    t: u64,
) -> Result<Vec<Vec<u8>>, LatticeError> {
    blocks
        .iter()
        .map(|blk| {
            checkpoint::save_block(grid, (blk.row0, blk.col0), (blk.rows, blk.width), Ticks::new(t))
        })
        .collect()
}

fn load_shard_checkpoints<S: State>(
    blobs: &[Vec<u8>],
    blocks: &[Block],
    shape: Shape,
) -> Result<(Grid<S>, u64), LatticeError> {
    let mut grid = Grid::new(shape);
    let mut time: Option<Ticks> = None;
    for (blob, blk) in blobs.iter().zip(blocks) {
        let (sg, t) = checkpoint::load::<S>(blob)?;
        if *time.get_or_insert(t) != t {
            return Err(LatticeError::Corrupted {
                site: format!("shard {} checkpoint", blk.index),
                detail: "shard checkpoints disagree on generation".into(),
            });
        }
        if sg.shape() != Shape::grid2(blk.rows, blk.width)? {
            return Err(LatticeError::Corrupted {
                site: format!("shard {} checkpoint", blk.index),
                detail: "shard checkpoint does not match its block".into(),
            });
        }
        let stride = shape.cols();
        for (r, row) in sg.as_slice().chunks_exact(blk.width).enumerate() {
            let at = (blk.row0 + r) * stride + blk.col0;
            grid.as_mut_slice()[at..at + blk.width].copy_from_slice(row);
        }
    }
    Ok((grid, time.unwrap_or(Ticks::ZERO).get()))
}

impl LatticeFarm {
    /// A farm of `shards` boards running `engine` at `depth` generations
    /// per pass, with unthrottled links and the null boundary.
    pub fn new(shards: usize, engine: ShardEngine, depth: usize) -> Self {
        LatticeFarm {
            shards,
            grid: (1, shards),
            engine,
            depth,
            link: BoardLink::unthrottled(),
            link_inter: BoardLink::unthrottled(),
            periodic: false,
            worker_fault: None,
            overlap: false,
        }
    }

    /// Reshapes the farm onto an `R × C` board grid (replacing the
    /// shard count with `R · C`): each board owns a rectangular block,
    /// exchanging halo columns over the intra-rack tier and halo rows
    /// over the inter-rack tier. `(1, shards)` is the columnar farm.
    pub fn with_grid(mut self, grid_rows: usize, grid_cols: usize) -> Self {
        self.grid = (grid_rows, grid_cols);
        self.shards = grid_rows * grid_cols;
        self
    }

    /// Replaces the inter-rack (vertical) link model only, leaving the
    /// intra-rack tier as configured — the two-tier QCDOC shape where
    /// rack-to-rack wires are narrower than backplane wires.
    pub fn with_tier_link(mut self, link_inter: BoardLink) -> Self {
        self.link_inter = link_inter;
        self
    }

    /// Enables (or disables) overlapped halo exchange: boundary sweeps
    /// first, next-pass frames shipped during the interior sweep over
    /// double-buffered links, barrier on arrival. Bit-exact either way;
    /// only the tick accounting changes. SPA boards require
    /// `slice_width == 1` under overlap (the sweep regions are not
    /// generally slice-aligned).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Replaces the inter-board link model on *both* tiers (a uniform
    /// wire); follow with [`LatticeFarm::with_tier_link`] to throttle
    /// the inter-rack tier separately.
    pub fn with_link(mut self, link: BoardLink) -> Self {
        self.link = link;
        self.link_inter = link;
        self
    }

    /// Selects the toroidal boundary.
    pub fn with_periodic(mut self, periodic: bool) -> Self {
        self.periodic = periodic;
        self
    }

    /// Injects a worker misbehavior (hang/die) at one board and epoch —
    /// the deterministic way to exercise the watchdog.
    pub fn with_worker_fault(mut self, spec: WorkerFaultSpec) -> Self {
        self.worker_fault = Some(spec);
        self
    }

    fn validate<S: State>(&self, grid: &Grid<S>) -> Result<(), LatticeError> {
        if grid.shape().rank() != 2 {
            return Err(LatticeError::InvalidConfig("a farm shards a 2-D lattice".into()));
        }
        if self.depth == 0 {
            return Err(LatticeError::InvalidConfig("farm pass depth must be ≥ 1".into()));
        }
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return Err(LatticeError::InvalidConfig(
                "a board grid needs ≥ 1 row and column".into(),
            ));
        }
        if self.grid.0 * self.grid.1 != self.shards {
            return Err(LatticeError::InvalidConfig(format!(
                "board grid {}×{} disagrees with the shard count {}",
                self.grid.0, self.grid.1, self.shards
            )));
        }
        match self.engine {
            ShardEngine::Wsa { width: 0 } => {
                return Err(LatticeError::InvalidConfig("WSA boards need width ≥ 1".into()));
            }
            ShardEngine::Spa { slice_width: 0 } => {
                return Err(LatticeError::InvalidConfig("SPA boards need slice width ≥ 1".into()));
            }
            ShardEngine::Spa { slice_width } if self.overlap && slice_width != 1 => {
                return Err(LatticeError::InvalidConfig(
                    "overlapped exchange needs SPA slice width 1: boundary and interior \
                     sweep regions are not generally slice-aligned"
                        .into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Board-grid shape at `shards` live boards: the configured grid at
    /// full strength, a columnar `(1, shards)` layout once degraded
    /// re-partitioning has retired boards (level 4 is gated to
    /// single-row grids, so the reshape is always columnar).
    fn grid_at(&self, shards: usize) -> (usize, usize) {
        if shards == self.shards {
            self.grid
        } else {
            (1, shards)
        }
    }

    /// On-board vertical wrap depth at pass depth `k`: a single-row
    /// board grid keeps the torus's vertical wrap on board (exactly the
    /// columnar farm's augmented rows); a multi-row grid imports wrap
    /// rows as ordinary halo rows over the inter-rack links instead.
    fn wrap_at(&self, grid_rows: usize, k: usize) -> usize {
        if self.periodic && grid_rows == 1 {
            k
        } else {
            0
        }
    }

    /// The block layout at `shards` live boards and pass depth `k`.
    fn blocks_at(
        &self,
        rows: usize,
        cols: usize,
        shards: usize,
        k: usize,
    ) -> Result<Vec<Block>, LatticeError> {
        let (gr, gc) = self.grid_at(shards);
        partition2d(rows, cols, gr, gc, k, self.periodic)
    }

    /// Physical chips per board at `shards` boards: board `b` owns chip
    /// ids `[b·stride, (b+1)·stride)`, stable across passes (the final
    /// shallow pass uses a prefix), so stuck-at faults follow silicon.
    fn chip_stride_at(
        &self,
        rows: usize,
        cols: usize,
        shards: usize,
    ) -> Result<usize, LatticeError> {
        Ok(match self.engine {
            ShardEngine::Wsa { .. } => self.depth,
            ShardEngine::Spa { slice_width } => {
                let (gr, gc) = self.grid_at(shards);
                let max_aug = max_aug_width2d(rows, cols, gr, gc, self.depth, self.periodic)?;
                self.depth * max_aug.div_ceil(slice_width)
            }
        })
    }

    /// The chip stride sized for every shard count the farm can reach:
    /// degraded re-partitioning widens slabs, and chip ids must not
    /// move when it does, or stuck-at faults would jump between boards.
    fn chip_stride_range(
        &self,
        rows: usize,
        cols: usize,
        smin: usize,
    ) -> Result<usize, LatticeError> {
        let mut stride = 0usize;
        for s in smin..=self.shards {
            stride = stride.max(self.chip_stride_at(rows, cols, s)?);
        }
        Ok(stride)
    }

    /// Gathers one board's halo-augmented block from `grid` at pass
    /// depth `k` and moves the halo regions across the board's links
    /// (with ARQ): halo *columns* — the full augmented height, corners
    /// included — on the intra-rack tier, halo *rows* (owned width
    /// only, so corner sites are billed once) on the inter-rack tier.
    /// Shared by the arrival-barrier exchange and the overlap mode's
    /// ship-ahead staging — the same code path, so the two can never
    /// disagree on frame contents, parity, or the links' fault-stream
    /// positions.
    #[allow(clippy::too_many_arguments)]
    fn exchange_board<S: State>(
        &self,
        grid: &Grid<S>,
        block: &Block,
        b: usize,
        wrap: usize,
        ctx: Option<FaultCtx<'_>>,
        link_chip_base: usize,
        pos: &mut u64,
        pos_inter: &mut u64,
        arq_retries: u32,
        recovery: &mut RecoveryStats,
        staged: bool,
    ) -> Result<ExchangeOutcome<S>, LatticeError> {
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let top_pad = wrap + block.halo_up;
        let aug_rows = block.aug_height(wrap);
        let aug_shape = Shape::grid2(aug_rows, block.aug_width())?;
        // Each augmented row is one source row's column span, copied
        // whole: on the torus both spans wrap (row and column indices
        // taken mod the lattice); under the null boundary the halos are
        // clamped, so every index is in range.
        let aug_width = block.aug_width();
        let mut aug = Grid::new(aug_shape);
        let src = grid.as_slice();
        let col_start = if self.periodic {
            (block.col0 + cols - block.halo_left % cols) % cols
        } else {
            block.col0 - block.halo_left
        };
        for (ar, dst) in aug.as_mut_slice().chunks_exact_mut(aug_width).enumerate() {
            let gr = if self.periodic {
                (block.row0 + ar + rows - top_pad % rows) % rows
            } else {
                block.row0 + ar - top_pad
            };
            let row = &src[gr * cols..(gr + 1) * cols];
            let (mut filled, mut c) = (0, col_start);
            while filled < aug_width {
                let n = (cols - c).min(aug_width - filled);
                dst[filled..filled + n].copy_from_slice(&row[c..c + n]);
                filled += n;
                c = 0;
            }
        }
        // Halo columns (full augmented height: corners and the torus's
        // wrap rows ride the column frames) cross the intra-rack tier;
        // owned columns stay on board.
        let halo_cols: Vec<usize> =
            (0..block.halo_left).chain(block.halo_left + block.width..block.aug_width()).collect();
        let mut imported: Vec<S> = Vec::with_capacity(halo_cols.len() * aug_rows);
        for &c in &halo_cols {
            for r in 0..aug_rows {
                imported.push(aug.get(Coord::c2(r, c)));
            }
        }
        let link_faults = ctx.map(|ctx| (ctx, link_chip_base + b));
        let mut traffic = Traffic::new();
        let mut retransmits = 0u32;
        let received = self.link.transmit_arq(
            &imported,
            b,
            link_faults,
            pos,
            &mut traffic,
            arq_retries,
            &mut retransmits,
        );
        // Every retransmission is one detection the ARQ level
        // already answered; a final failure is the one unanswered
        // detection that escalates to the caller's ladder.
        recovery.detected += u64::from(retransmits);
        recovery.retransmits += u64::from(retransmits);
        let received = received?;
        for (j, &c) in halo_cols.iter().enumerate() {
            for r in 0..aug_rows {
                aug.set(Coord::c2(r, c), received[j * aug_rows + r]);
            }
        }
        let bits = Bits::for_items(imported.len(), <S as State>::BITS);

        // Halo rows (owned width only — the corners already crossed in
        // the column frames) cross the inter-rack tier. A single-row
        // board grid has no vertical seams, so this tier stays idle and
        // the columnar farm's byte-for-byte behavior is preserved.
        let halo_rows: Vec<usize> = (top_pad - block.halo_up..top_pad)
            .chain(top_pad + block.rows..top_pad + block.rows + block.halo_down)
            .collect();
        let mut retransmits_inter = 0u32;
        let bits_inter = Bits::for_items(halo_rows.len() * block.width, <S as State>::BITS);
        if !halo_rows.is_empty() {
            let mut imported_v: Vec<S> = Vec::with_capacity(halo_rows.len() * block.width);
            for &r in &halo_rows {
                for c in block.halo_left..block.halo_left + block.width {
                    imported_v.push(aug.get(Coord::c2(r, c)));
                }
            }
            let link_faults_v = ctx.map(|ctx| (ctx, link_chip_base + self.shards + b));
            let received_v = self.link_inter.transmit_arq(
                &imported_v,
                b,
                link_faults_v,
                pos_inter,
                &mut traffic,
                arq_retries,
                &mut retransmits_inter,
            );
            recovery.detected += u64::from(retransmits_inter);
            recovery.retransmits += u64::from(retransmits_inter);
            let received_v = received_v?;
            for (j, &r) in halo_rows.iter().enumerate() {
                for (jc, c) in (block.halo_left..block.halo_left + block.width).enumerate() {
                    aug.set(Coord::c2(r, c), received_v[j * block.width + jc]);
                }
            }
        }
        Ok(ExchangeOutcome {
            aug,
            bits,
            bits_inter,
            retransmits,
            retransmits_inter,
            traffic,
            staged,
        })
    }

    /// One attempt at a bulk-synchronous superstep: halo *arrival* (a
    /// staged frame from the previous pass's ship-ahead, or a barrier
    /// exchange with ARQ) for every board lacking a buffered frame,
    /// concurrent compute (with watchdog) for every board lacking a
    /// report — boundary sweep regions first, then (in overlap mode)
    /// the next pass's frames ship while the interior regions evolve —
    /// per-region audit, stitch. Clean per-board work is cached in
    /// `cache`, so retrying after a localized failure redoes only the
    /// failed board's work — that containment *is* ladder level 2.
    #[allow(clippy::too_many_arguments)]
    fn attempt_pass<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        pp: &PassParams<'_>,
        plan: Option<&FaultPlan>,
        halo_pos: &mut [u64],
        halo_pos_inter: &mut [u64],
        cache: &mut [BoardCache<R::S>],
        windows: &mut [StagedHalo<R::S>],
        recovery: &mut RecoveryStats,
        shard_audit: ShardAuditRef<'_, R::S>,
    ) -> Result<PassOutcome<R::S>, BoardFailure> {
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let grid_rows = if pp.blocks.is_empty() {
            1
        } else {
            pp.blocks.iter().map(|b| b.grid_row).max().unwrap_or(0) + 1
        };
        let wrap = self.wrap_at(grid_rows, pp.k);

        // Phase 1 — halo arrival for boards without a buffered frame:
        // claim the staged (shipped-ahead) frame if one is in the
        // window, otherwise exchange at the barrier, serialized.
        for block in pp.blocks {
            let i = block.index;
            if cache[i].exchange.is_some() {
                continue;
            }
            let b = pp.phys[i];
            let fail = |error: LatticeError| BoardFailure { slab: Some(i), error };
            let staged = windows[b].take(pp.pass).map_err(fail)?;
            let ex = match staged {
                Some(frame) => frame.map_err(fail)?,
                None => {
                    let ctx = plan.map(|p| {
                        FaultCtx::for_shard(p, u64_from_usize(b), pp.pass, pp.attempts[b])
                    });
                    self.exchange_board(
                        grid,
                        block,
                        b,
                        wrap,
                        ctx,
                        pp.link_chip_base,
                        &mut halo_pos[b],
                        &mut halo_pos_inter[b],
                        pp.arq_retries,
                        recovery,
                        false,
                    )
                    .map_err(fail)?
                }
            };
            cache[i].exchange = Some(ex);
        }

        // Phase 2 — boards without a report compute concurrently, one
        // engine sub-run per sweep region (boundary regions first).
        let mut jobs: Vec<JobRef<'_, R::S>> = Vec::with_capacity(pp.blocks.len());
        for block in pp.blocks.iter().filter(|block| cache[block.index].reports.is_none()) {
            let i = block.index;
            let b = pp.phys[i];
            let ex = cached(cache[i].exchange.as_ref(), i, "halo exchange")?;
            jobs.push(JobRef {
                slab: i,
                aug: &ex.aug,
                regions: sweep_regions2d(block, pp.k, self.overlap, wrap),
                ctx: plan
                    .map(|p| FaultCtx::for_shard(p, u64_from_usize(b), pp.pass, pp.attempts[b])),
                origin: (
                    block.row0.wrapping_sub(wrap + block.halo_up),
                    block.col0.wrapping_sub(block.halo_left),
                ),
                chip0: b * pp.stride,
                phys: b,
                attempt: pp.attempts[b],
            });
        }
        let jobs = jobs;
        let engine = self.engine;
        let wf = self.worker_fault;
        let (k, t_now, pass) = (pp.k, pp.t_now, pp.pass);
        let mut results: Vec<BoardResult<R::S>> = (0..pp.blocks.len()).map(|_| None).collect();
        let mut timed_out = false;
        crossbeam::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for job in &jobs {
                let tx = tx.clone();
                scope.spawn(move |_| {
                    // Panics are contained to the worker: the board
                    // simply never reports, which the supervisor
                    // detects below.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(spec) = wf {
                            if spec.board == job.phys
                                && spec.pass == pass
                                && spec.attempt == job.attempt
                            {
                                match spec.fault {
                                    WorkerFault::Hang { millis } => {
                                        // Fault *injection*, not lattice state: a
                                        // hang stalls the worker but the recovery
                                        // outcome is decided by the watchdog, not
                                        // by how long this sleeps.
                                        // lattice-lint: allow(determinism)
                                        std::thread::sleep(Duration::from_millis(millis))
                                    }
                                    WorkerFault::Die => return,
                                }
                            }
                        }
                        let mut reports = Vec::with_capacity(job.regions.len());
                        let mut outcome = Ok(());
                        for region in &job.regions {
                            let sub = match region_grid(job.aug, region) {
                                Ok(sub) => sub,
                                Err(e) => {
                                    outcome = Err(e);
                                    break;
                                }
                            };
                            let origin = (
                                job.origin.0.wrapping_add(region.r0),
                                job.origin.1.wrapping_add(region.a0),
                            );
                            let r = match engine {
                                ShardEngine::Wsa { width } => {
                                    let chips: Vec<usize> = (job.chip0..job.chip0 + k).collect();
                                    let opts = RunOptions {
                                        origin,
                                        faults: job.ctx,
                                        chip_ids: Some(&chips),
                                        offchip_from: None,
                                    };
                                    Pipeline::wide(width, k).run_opts(rule, &sub, t_now, opts)
                                }
                                ShardEngine::Spa { slice_width } => {
                                    let opts = SpaRunOptions {
                                        origin,
                                        faults: job.ctx,
                                        chip_offset: job.chip0,
                                    };
                                    SpaEngine::new(slice_width, k).run_opts(rule, &sub, t_now, opts)
                                }
                            };
                            match r {
                                Ok(report) => reports.push(report),
                                Err(e) => {
                                    outcome = Err(e);
                                    break;
                                }
                            }
                        }
                        let _ = tx.send((job.slab, outcome.map(|()| reports)));
                    }));
                });
            }
            drop(tx);
            // Supervisor: collect heartbeats until every outstanding
            // board reports, the watchdog deadline lapses, or every
            // worker is gone.
            // The watchdog clock bounds *wall time to detection*; which
            // boards are retired (and every lattice bit) is decided by
            // the deterministic retry ladder.
            // lattice-lint: allow(determinism)
            let deadline = pp.watchdog.map(|d| Instant::now() + d);
            let mut got = 0usize;
            while got < jobs.len() {
                let msg = match deadline {
                    // lattice-lint: allow(determinism)
                    Some(dl) => match rx.recv_timeout(dl.saturating_duration_since(Instant::now()))
                    {
                        Ok(m) => m,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            timed_out = true;
                            break;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    },
                    None => match rx.recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    },
                };
                results[msg.0] = Some(msg.1);
                got += 1;
            }
        })
        .map_err(|_| BoardFailure {
            slab: None,
            error: LatticeError::Corrupted {
                site: "farm".into(),
                detail: "a farm thread panicked".into(),
            },
        })?;
        drop(jobs);

        // Accept every clean report (neighbors must not redo work when
        // one board fails), audit each fresh one region by region, and
        // surface the first failure in slab order.
        let mut failure: Option<BoardFailure> = None;
        for block in pp.blocks {
            let i = block.index;
            if cache[i].reports.is_some() {
                continue;
            }
            let b = pp.phys[i];
            match results[i].take() {
                Some(Ok(reports)) => {
                    let audited = {
                        let aug = &cached(cache[i].exchange.as_ref(), i, "halo exchange")?.aug;
                        let regions = sweep_regions2d(block, pp.k, self.overlap, wrap);
                        regions.iter().zip(&reports).try_for_each(|(region, report)| {
                            let sub = region_grid(aug, region)?;
                            shard_audit(b, &sub, &report.grid)
                        })
                    };
                    match audited {
                        Ok(()) => cache[i].reports = Some(reports),
                        Err(e) => {
                            failure.get_or_insert(BoardFailure { slab: Some(i), error: e });
                        }
                    }
                }
                Some(Err(e)) => {
                    failure.get_or_insert(BoardFailure { slab: Some(i), error: e });
                }
                None => {
                    let cause = if timed_out {
                        "missed the watchdog deadline"
                    } else {
                        "worker died before reporting"
                    };
                    failure.get_or_insert(BoardFailure {
                        slab: Some(i),
                        error: LatticeError::BoardDown { shard: b, cause: cause.into() },
                    });
                }
            }
        }
        if let Some(f) = failure {
            return Err(f);
        }

        // Phase 3 — assemble: stitch each region's certified columns
        // into the next machine lattice, settle the barrier's link-time
        // bill (slowest board, retransmissions included), and split the
        // compute bill into the boundary and interior barriers.
        let mut halo_traffic = Traffic::new();
        let mut halo_ticks = Ticks::ZERO;
        let mut base_ticks = Ticks::ZERO;
        let mut boundary_ticks = Ticks::ZERO;
        let mut interior_ticks = Ticks::ZERO;
        let mut all_staged = true;
        let mut halo_bits_per_board = Vec::with_capacity(pp.blocks.len());
        let mut retransmits_per_board = Vec::with_capacity(pp.blocks.len());
        let mut next = Grid::new(shape);
        let mut reports = Vec::with_capacity(pp.blocks.len());
        let top_pad = |block: &Block| wrap + block.halo_up;
        for block in pp.blocks {
            let i = block.index;
            let ex = cached(cache[i].exchange.as_ref(), i, "halo exchange")?;
            halo_traffic.merge(ex.traffic);
            // The two tiers are separate wires, so a board's halo wait
            // is the slower tier, retransmissions included; the barrier
            // then waits for the slowest board.
            let base = self.link.transfer_ticks(ex.bits);
            let base_v = self.link_inter.transfer_ticks(ex.bits_inter);
            let board_full = (base * (1 + u64::from(ex.retransmits)))
                .max(base_v * (1 + u64::from(ex.retransmits_inter)));
            halo_ticks = halo_ticks.max(board_full);
            base_ticks = base_ticks.max(base.max(base_v));
            all_staged &= ex.staged;
            halo_bits_per_board.push(ex.bits + ex.bits_inter);
            retransmits_per_board.push(ex.retransmits + ex.retransmits_inter);
            let region_reports = cached(cache[i].reports.take(), i, "engine reports")?;
            let regions = sweep_regions2d(block, pp.k, self.overlap, wrap);
            let mut board_boundary = Ticks::ZERO;
            let mut board_interior = Ticks::ZERO;
            let tp = top_pad(block);
            for (region, report) in regions.iter().zip(&region_reports) {
                if region.boundary {
                    board_boundary += report.ticks;
                } else {
                    board_interior += report.ticks;
                }
                // Owned site (r, j) sits at augmented (top_pad + r,
                // halo_left + j), i.e. region-local (top_pad + r − r0,
                // halo_left + j − a0): copy each owned row span whole.
                let span = region.own_hi - region.own_lo;
                let src = report.grid.as_slice();
                let dst = next.as_mut_slice();
                for r in region.own_r_lo..region.own_r_hi {
                    let from =
                        (tp + r - region.r0) * region.width + block.halo_left + region.own_lo
                            - region.a0;
                    let to = (block.row0 + r) * cols + block.col0 + region.own_lo;
                    dst[to..to + span].copy_from_slice(&src[from..from + span]);
                }
            }
            boundary_ticks = boundary_ticks.max(board_boundary);
            interior_ticks = interior_ticks.max(board_interior);
            reports.push(fold_regions(region_reports));
        }
        // A staged transfer ran concurrently with the previous pass's
        // interior sweep, so up to that much of it is already paid for.
        let overlapped_ticks =
            if all_staged { halo_ticks.min(pp.overlap_credit) } else { Ticks::ZERO };

        // Ship ahead: with another pass coming, gather the next pass's
        // halo frames from the just-stitched lattice — their contents
        // are fully determined by the boundary sweeps — move them over
        // the links now (this is the transfer the next pass's
        // `overlap_credit` hides), and stage them in the double-buffer
        // windows for the arrival barrier to claim. A frame whose ARQ
        // budget exhausts is staged as the error itself: it must
        // surface at the barrier it belongs to.
        if self.overlap && pp.t_now + u64_from_usize(pp.k) < pp.t_end {
            let t_next = pp.t_now + u64_from_usize(pp.k);
            let k_next = self.depth.min(usize_from_u64(pp.t_end - t_next));
            let blocks_next = self
                .blocks_at(rows, cols, pp.blocks.len(), k_next)
                .map_err(|e| BoardFailure { slab: None, error: e })?;
            let wrap_next = self.wrap_at(grid_rows, k_next);
            for block in &blocks_next {
                let i = block.index;
                let b = pp.phys[i];
                let ctx = plan.map(|p| {
                    FaultCtx::for_shard(p, u64_from_usize(b), pp.pass + 1, pp.attempts[b])
                });
                let frame = self.exchange_board(
                    &next,
                    block,
                    b,
                    wrap_next,
                    ctx,
                    pp.link_chip_base,
                    &mut halo_pos[b],
                    &mut halo_pos_inter[b],
                    pp.arq_retries,
                    recovery,
                    true,
                );
                windows[b]
                    .stage(pp.pass + 1, frame)
                    .map_err(|e| BoardFailure { slab: Some(i), error: e })?;
            }
        }
        Ok(PassOutcome {
            grid: next,
            reports,
            halo_traffic,
            halo_ticks,
            retransmit_ticks: halo_ticks - base_ticks,
            halo_bits_per_board,
            retransmits_per_board,
            boundary_ticks,
            interior_ticks,
            overlapped_ticks,
        })
    }

    /// Runs `generations` of `rule` over `grid` starting at generation
    /// `t0`, in passes of the configured depth (the final pass may be
    /// shallower).
    ///
    /// Bit-exactness contract: equals the reference
    /// `lattice_core::evolve` under the farm's boundary.
    pub fn run<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
    ) -> Result<FarmReport<R::S>, LatticeError> {
        self.run_with_faults(rule, grid, t0, generations, None)
    }

    /// [`LatticeFarm::run`] with fault injection. Every board draws its
    /// own transient weather ([`FaultCtx::for_shard`]); engine chips of
    /// board `s` occupy one stable id range, and each board's halo link
    /// is a [`lattice_engines_sim::Component::Link`] chip past all of
    /// them. A halo-link parity failure aborts the run with the board's
    /// name — recovery is [`LatticeFarm::run_with_recovery`]'s job.
    pub fn run_with_faults<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<FarmReport<R::S>, LatticeError> {
        self.validate(grid)?;
        let fault_base = plan.map(|p| p.stats()).unwrap_or_default();
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let stride = self.chip_stride_at(rows, cols, self.shards)?;
        let link_chip_base = self.shards * stride;
        let phys: Vec<usize> = (0..self.shards).collect();
        let attempts = vec![0u64; self.shards];
        let (gr, gc) = self.grid;
        let full_blocks = partition2d_checked(rows, cols, gr, gc, self.depth, self.periodic)?;
        let mut totals = Totals::new(&full_blocks);
        let mut scratch = RecoveryStats::default();
        let mut no_shard_audit =
            |_: usize, _: &Grid<R::S>, _: &Grid<R::S>| -> Result<(), LatticeError> { Ok(()) };
        let mut halo_pos = vec![0u64; self.shards];
        let mut halo_pos_inter = vec![0u64; self.shards];
        let mut windows: Vec<StagedHalo<R::S>> =
            (0..self.shards).map(|_| HaloWindow::new()).collect();
        let mut credit = Ticks::ZERO;
        let mut current = grid.clone();
        let t_end = t0 + generations;
        let mut t_now = t0;
        let mut passes = 0u64;
        while t_now < t_end {
            let k = self.depth.min(usize_from_u64(t_end - t_now));
            let blocks = self.blocks_at(rows, cols, self.shards, k)?;
            let mut cache: Vec<BoardCache<R::S>> =
                (0..blocks.len()).map(|_| BoardCache::default()).collect();
            let pp = PassParams {
                k,
                t_now,
                t_end,
                pass: passes,
                blocks: &blocks,
                phys: &phys,
                stride,
                link_chip_base,
                attempts: &attempts,
                arq_retries: 0,
                watchdog: None,
                overlap_credit: credit,
            };
            let out = self
                .attempt_pass(
                    rule,
                    &current,
                    &pp,
                    plan,
                    &mut halo_pos,
                    &mut halo_pos_inter,
                    &mut cache,
                    &mut windows,
                    &mut scratch,
                    &mut no_shard_audit,
                )
                .map_err(|f| f.error)?;
            current = out.grid.clone();
            credit = out.interior_ticks;
            totals.absorb(&out, u64_from_usize(k), &phys);
            t_now += u64_from_usize(k);
            passes += 1;
        }
        let faults = plan.map(|p| p.stats().since(fault_base)).unwrap_or_default();
        Ok(totals.finish(current, passes, self.shards, faults))
    }

    /// [`LatticeFarm::run`] hardened against hardware faults through the
    /// four-level escalation ladder (see the module docs): link ARQ,
    /// then single-board rollback-and-replay, then farm-wide rollback
    /// to the last checkpoint barrier, then degraded re-partitioning —
    /// each level bounded by its [`FarmRecoveryConfig`] budget, and
    /// every recovered run bit-exact against the fault-free reference.
    ///
    /// `audit` checks the whole machine lattice each pass (e.g. a
    /// conservation law); its failures cannot be localized to a board,
    /// so they skip straight to ladder level 3. For per-board checks
    /// use [`LatticeFarm::run_with_recovery_audited`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        self.run_with_recovery_audited(rule, grid, t0, generations, plan, cfg, audit, |_, _, _| {
            Ok(())
        })
    }

    /// [`LatticeFarm::run_with_recovery`] with an additional per-board
    /// audit: `shard_audit(board, aug_before, aug_after)` checks one
    /// board's halo-augmented slab across its `k` generations. Because
    /// its verdict names the board, a violation is handled by ladder
    /// level 2 — that board alone rolls back and replays its buffered
    /// halos — which is how silent (parity-invisible) PE corruption
    /// gets localized recovery instead of a farm-wide rollback.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery_audited<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        shard_audit: impl FnMut(usize, &Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        self.run_recovery_impl(rule, grid, t0, generations, plan, cfg, audit, shard_audit, None)
    }

    /// [`LatticeFarm::run_with_recovery_audited`] with persistence
    /// level 0 of the ladder: every checkpoint barrier (initial,
    /// periodic, post-re-partition, and final state) is also pushed to
    /// `sink` as a shard-consistent durable snapshot — one
    /// [`ShardBlob`] per slab, stamped with the slab's first interior
    /// column so a resume can reassemble the lattice even after
    /// degraded re-partitioning changed the slab layout. A killed farm
    /// resumes bit-exact: reassemble the newest snapshot and call this
    /// again with the restored lattice and generation as `grid`/`t0`
    /// (FHP chirality hashes absolute coordinates, so the stamp
    /// matters). A sink failure fails the run; callers wanting
    /// best-effort persistence (e.g. the chaos soak) wrap the sink.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery_persistent<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        shard_audit: impl FnMut(usize, &Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        sink: &mut dyn SnapshotSink,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        self.run_recovery_impl(
            rule,
            grid,
            t0,
            generations,
            plan,
            cfg,
            audit,
            shard_audit,
            Some(sink),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_recovery_impl<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        shard_audit: impl FnMut(usize, &Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        mut sink: Option<&mut dyn SnapshotSink>,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        let mut session = self.session(grid, t0, plan, cfg, sink.as_deref_mut())?;
        session.step_audited(rule, generations, audit, shard_audit, sink.as_deref_mut())?;
        // Durably record the final state, so a completed run resumes as
        // a no-op instead of replaying from the last barrier.
        if let Some(s) = sink {
            session.checkpoint(Some(s))?;
        }
        Ok(session.finish())
    }

    /// Opens a re-entrant run: the full recovery-ladder state of
    /// [`LatticeFarm::run_with_recovery`] captured in a [`FarmSession`]
    /// that advances in chunks ([`FarmSession::step`]) instead of
    /// running to completion. The initial checkpoint barrier is taken
    /// here (and pushed to `sink` if one is attached), exactly as the
    /// one-shot entry points do.
    pub fn session<'p, S: State>(
        &self,
        grid: &Grid<S>,
        t0: u64,
        plan: Option<&'p FaultPlan>,
        cfg: &FarmRecoveryConfig,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'p, S>, LatticeError> {
        let plan = match plan {
            Some(p) => PlanRef::Borrowed(p),
            None => PlanRef::None,
        };
        self.session_inner(grid, t0, plan, cfg, sink)
    }

    /// [`LatticeFarm::session`] with a fault plan the session *owns*.
    ///
    /// The borrowed form ties the session's lifetime to the plan's; a
    /// long-lived host multiplexing many sessions (the `lattice-serve`
    /// daemon, whose per-session plans are built from each session's
    /// spec) has no frame for that borrow to live in, so this entry
    /// point moves the plan into the session and the result is
    /// `'static`.
    pub fn session_owned<S: State>(
        &self,
        grid: &Grid<S>,
        t0: u64,
        plan: Option<Arc<FaultPlan>>,
        cfg: &FarmRecoveryConfig,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'static, S>, LatticeError> {
        let plan = match plan {
            Some(p) => PlanRef::Owned(p),
            None => PlanRef::None,
        };
        self.session_inner(grid, t0, plan, cfg, sink)
    }

    /// The physical chip id of board `b`'s *intra-rack* halo link under
    /// this farm's chip numbering, for a `rows`×`cols` lattice with a
    /// degrade budget of `max_retired` boards — the id a [`Fault`]
    /// targeting [`Component::Link`](lattice_engines_sim::Component::Link)
    /// must carry to afflict exactly that board's link. The board's
    /// inter-rack link (idle on single-row grids) occupies the second
    /// bank of link ids, [`LatticeFarm::link_chip_inter`].
    pub fn link_chip(
        &self,
        rows: usize,
        cols: usize,
        max_retired: usize,
        b: usize,
    ) -> Result<usize, LatticeError> {
        if b >= self.shards {
            return Err(LatticeError::InvalidConfig(format!(
                "board {b} out of range for {} shard(s)",
                self.shards
            )));
        }
        if max_retired >= self.shards {
            return Err(LatticeError::InvalidConfig(
                "degrade budget must leave at least one board".into(),
            ));
        }
        let stride = self.chip_stride_range(rows, cols, self.shards - max_retired)?;
        Ok(self.shards * stride + b)
    }

    /// The physical chip id of board `b`'s *inter-rack* (vertical-tier)
    /// halo link: one full bank of link ids past the intra-rack bank,
    /// so the two tiers of the same board draw independent fault
    /// weather.
    pub fn link_chip_inter(
        &self,
        rows: usize,
        cols: usize,
        max_retired: usize,
        b: usize,
    ) -> Result<usize, LatticeError> {
        Ok(self.link_chip(rows, cols, max_retired, b)? + self.shards)
    }

    fn session_inner<'p, S: State>(
        &self,
        grid: &Grid<S>,
        t0: u64,
        plan: PlanRef<'p>,
        cfg: &FarmRecoveryConfig,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'p, S>, LatticeError> {
        self.validate(grid)?;
        if cfg.checkpoint_every == 0 {
            return Err(LatticeError::InvalidConfig("checkpoint interval must be ≥ 1".into()));
        }
        let max_retired = cfg.degrade.map_or(0, |d| d.max_retired);
        if max_retired >= self.shards {
            return Err(LatticeError::InvalidConfig(
                "degrade budget must leave at least one board".into(),
            ));
        }
        if max_retired > 0 && self.grid.0 > 1 {
            return Err(LatticeError::InvalidConfig(
                "degraded re-partitioning is columnar: a degrade budget needs a \
                 single-row board grid"
                    .into(),
            ));
        }
        let fault_base = plan.get().map(|p| p.stats()).unwrap_or_default();
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let stride = self.chip_stride_range(rows, cols, self.shards - max_retired)?;
        let (gr, gc) = self.grid;
        let ckpt_slabs = partition2d_checked(rows, cols, gr, gc, self.depth, self.periodic)?;
        let totals = Totals::new(&ckpt_slabs);
        let mut recovery = RecoveryStats::default();
        let mut sink = sink;
        let current = grid.clone();
        let ckpt = take_ckpt(&current, t0, &ckpt_slabs, &mut recovery, &mut sink)?;
        Ok(FarmSession {
            farm: *self,
            cfg: *cfg,
            plan,
            fault_base,
            shape,
            rows,
            cols,
            stride,
            link_chip_base: self.shards * stride,
            phys: (0..self.shards).collect(),
            ckpt_slabs,
            totals,
            recovery,
            halo_pos: vec![0u64; self.shards],
            halo_pos_inter: vec![0u64; self.shards],
            windows: (0..self.shards).map(|_| HaloWindow::new()).collect(),
            credit: Ticks::ZERO,
            attempts: vec![0u64; self.shards],
            local_left: vec![cfg.local_retries; self.shards],
            retries_left: cfg.max_retries,
            retired_left: max_retired,
            current,
            t_now: t0,
            pass: 0,
            passes: 0,
            passes_since_ckpt: 0,
            ckpt,
        })
    }
}

/// How a [`FarmSession`] holds its fault plan: borrowed from the
/// caller (the one-shot entry points), owned by the session
/// ([`LatticeFarm::session_owned`]), or absent.
enum PlanRef<'p> {
    None,
    Borrowed(&'p FaultPlan),
    Owned(Arc<FaultPlan>),
}

impl PlanRef<'_> {
    fn get(&self) -> Option<&FaultPlan> {
        match self {
            PlanRef::None => None,
            PlanRef::Borrowed(p) => Some(p),
            PlanRef::Owned(p) => Some(p),
        }
    }
}

/// A re-entrant farm run: the recovery ladder's entire cross-pass state
/// — lattice, checkpoint barrier, retry budgets, fault-stream and
/// attempt epochs, overlap windows, accounting — held between
/// [`FarmSession::step`] calls, so a caller (the `lattice-serve`
/// daemon's worker pool, most importantly) can interleave many runs by
/// advancing each a bounded number of generations at a time.
///
/// Bit-exactness contract: any chunking of `generations` into `step`
/// calls produces the same lattice as one [`LatticeFarm::run_with_recovery`]
/// call (the one-shot entry points are themselves one-`step` sessions).
/// Only the overlap *accounting* can differ: ship-ahead staging never
/// crosses a `step` boundary, so a chunk seam behaves like pass 0's
/// cold start — the first pass of the next chunk exchanges at the
/// barrier, serialized, and earns no `overlapped_ticks` credit.
///
/// A `step` that returns an error has exhausted the recovery ladder
/// mid-pass; the session's lattice is the last committed state, but its
/// retry budgets are spent — the session should be checkpointed (to
/// salvage the state) or discarded, not stepped again.
pub struct FarmSession<'p, S: State> {
    farm: LatticeFarm,
    cfg: FarmRecoveryConfig,
    plan: PlanRef<'p>,
    fault_base: FaultStats,
    shape: Shape,
    rows: usize,
    cols: usize,
    stride: usize,
    link_chip_base: usize,
    /// Slab index → physical board id (identity until boards retire).
    phys: Vec<usize>,
    /// Block geometry of the current checkpoint barrier.
    ckpt_slabs: Vec<Block>,
    totals: Totals,
    recovery: RecoveryStats,
    /// Per-board link fault-stream positions (absolute wire positions,
    /// so chunking cannot change which bits the weather flips).
    halo_pos: Vec<u64>,
    /// Same, for the inter-rack tier's separate wires.
    halo_pos_inter: Vec<u64>,
    windows: Vec<StagedHalo<S>>,
    credit: Ticks,
    /// Per physical board attempt epochs.
    attempts: Vec<u64>,
    local_left: Vec<u32>,
    retries_left: u32,
    retired_left: usize,
    current: Grid<S>,
    t_now: u64,
    pass: u64,
    passes: u64,
    passes_since_ckpt: u64,
    /// The in-memory checkpoint barrier (one codec blob per slab).
    ckpt: Vec<Vec<u8>>,
}

impl<'p, S: State> FarmSession<'p, S> {
    /// The current generation (absolute — resuming FHP needs it).
    pub fn time(&self) -> u64 {
        self.t_now
    }

    /// Committed passes so far (re-commits after a rollback included).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The last committed lattice.
    pub fn grid(&self) -> &Grid<S> {
        &self.current
    }

    /// Recovery actions taken so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// A mid-run snapshot of the machine report: the accounting of
    /// every committed pass so far, with the current lattice. The
    /// session keeps running — this is what the daemon's `stats`
    /// endpoint serves between steps.
    pub fn report(&self) -> FarmReport<S> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        self.totals.clone().finish(self.current.clone(), self.passes, self.farm.shards, faults)
    }

    /// Takes a fresh checkpoint barrier *now* (pushed to `sink` when one
    /// is attached) and re-arms the retry budgets, exactly like the
    /// periodic barrier inside a run. This is the daemon's durable
    /// commit after a step, and its eviction write: a session restored
    /// from the sink's newest snapshot (via `reassemble` + a new
    /// session at the recorded generation) is bit-exact.
    pub fn checkpoint(
        &mut self,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        let mut sink = sink;
        self.ckpt =
            take_ckpt(&self.current, self.t_now, &self.ckpt_slabs, &mut self.recovery, &mut sink)?;
        self.passes_since_ckpt = 0;
        self.retries_left = self.cfg.max_retries;
        self.local_left.fill(self.cfg.local_retries);
        Ok(())
    }

    /// Advances the run `n` generations through the recovery ladder.
    pub fn step<R: Rule<S = S>>(&mut self, rule: &R, n: u64) -> Result<(), LatticeError> {
        self.step_audited(rule, n, |_, _| Ok(()), |_, _, _| Ok(()), None)
    }

    /// [`FarmSession::step`] with the machine-wide and per-board audits
    /// of [`LatticeFarm::run_with_recovery_audited`], and an optional
    /// durable `sink` receiving every checkpoint barrier the chunk
    /// crosses. A rollback may legally rewind behind the chunk's start
    /// (the barrier is wherever `checkpoint_every` last put it); the
    /// chunk still ends at the same absolute generation.
    pub fn step_audited<R: Rule<S = S>>(
        &mut self,
        rule: &R,
        n: u64,
        mut audit: impl FnMut(&Grid<S>, &Grid<S>) -> Result<(), LatticeError>,
        mut shard_audit: impl FnMut(usize, &Grid<S>, &Grid<S>) -> Result<(), LatticeError>,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        let t_end = self.t_now + n;
        'run: while self.t_now < t_end {
            if self.passes_since_ckpt >= self.cfg.checkpoint_every {
                self.ckpt = take_ckpt(
                    &self.current,
                    self.t_now,
                    &self.ckpt_slabs,
                    &mut self.recovery,
                    &mut sink,
                )?;
                self.passes_since_ckpt = 0;
                self.retries_left = self.cfg.max_retries;
                self.local_left.fill(self.cfg.local_retries);
            }
            let k = self.farm.depth.min(usize_from_u64(t_end - self.t_now));
            let blocks = self.farm.blocks_at(self.rows, self.cols, self.phys.len(), k)?;
            let mut cache: Vec<BoardCache<S>> =
                (0..blocks.len()).map(|_| BoardCache::default()).collect();
            loop {
                let pp = PassParams {
                    k,
                    t_now: self.t_now,
                    t_end,
                    pass: self.pass,
                    blocks: &blocks,
                    phys: &self.phys,
                    stride: self.stride,
                    link_chip_base: self.link_chip_base,
                    attempts: &self.attempts,
                    arq_retries: self.cfg.arq_retries,
                    watchdog: self.cfg.watchdog,
                    overlap_credit: self.credit,
                };
                let res = self
                    .farm
                    .attempt_pass(
                        rule,
                        &self.current,
                        &pp,
                        self.plan.get(),
                        &mut self.halo_pos,
                        &mut self.halo_pos_inter,
                        &mut cache,
                        &mut self.windows,
                        &mut self.recovery,
                        &mut shard_audit,
                    )
                    .and_then(|out| match audit(&self.current, &out.grid) {
                        Ok(()) => Ok(out),
                        Err(e) => Err(BoardFailure { slab: None, error: e }),
                    });
                match res {
                    Ok(out) => {
                        self.credit = out.interior_ticks;
                        self.totals.absorb(&out, u64_from_usize(k), &self.phys);
                        self.current = out.grid;
                        self.t_now += u64_from_usize(k);
                        self.pass += 1;
                        self.passes += 1;
                        self.passes_since_ckpt += 1;
                        continue 'run;
                    }
                    Err(fail) => {
                        self.recovery.detected += 1;
                        // Any failure voids the overlap window: staged
                        // frames carry a pre-rollback attempt epoch and
                        // a possibly pre-rollback lattice, so the retry
                        // re-exchanges at the barrier, serialized, and
                        // earns no overlap credit.
                        for w in self.windows.iter_mut() {
                            w.invalidate();
                        }
                        self.credit = Ticks::ZERO;
                        // Level 2 — roll back just the failed board and
                        // replay its buffered halos; the cache keeps
                        // every other board's clean work.
                        if let Some(i) = fail.slab {
                            let b = self.phys[i];
                            if self.local_left[b] > 0 {
                                self.local_left[b] -= 1;
                                self.recovery.local_rollbacks += 1;
                                self.totals.per_shard[b].local_rollbacks += 1;
                                self.attempts[b] += 1;
                                continue;
                            }
                        }
                        // Level 3 — the pre-ladder behavior: every
                        // board reloads the last barrier, every epoch
                        // re-seeds.
                        if self.retries_left > 0 {
                            self.retries_left -= 1;
                            self.recovery.rollbacks += 1;
                            for a in self.attempts.iter_mut() {
                                *a += 1;
                            }
                            let (g, t) = load_shard_checkpoints::<S>(
                                &self.ckpt,
                                &self.ckpt_slabs,
                                self.shape,
                            )?;
                            self.current = g;
                            self.t_now = t;
                            self.passes_since_ckpt = 0;
                            continue 'run;
                        }
                        // Level 4 — retire the board that exhausted its
                        // ladder and re-partition its slab onto the
                        // survivors.
                        if let Some(i) = fail.slab {
                            if self.retired_left > 0 && self.phys.len() > 1 {
                                self.retired_left -= 1;
                                self.recovery.boards_retired += 1;
                                let b = self.phys.remove(i);
                                self.totals.per_shard[b].retired = true;
                                let (g, t) = load_shard_checkpoints::<S>(
                                    &self.ckpt,
                                    &self.ckpt_slabs,
                                    self.shape,
                                )?;
                                self.current = g;
                                self.t_now = t;
                                // Only reachable on single-row grids
                                // (`session_inner` gates the degrade
                                // budget), so the reshape is columnar.
                                self.ckpt_slabs = partition2d(
                                    self.rows,
                                    self.cols,
                                    1,
                                    self.phys.len(),
                                    self.farm.depth,
                                    self.farm.periodic,
                                )?;
                                self.totals.regeom(&self.ckpt_slabs, &self.phys);
                                self.ckpt = take_ckpt(
                                    &self.current,
                                    self.t_now,
                                    &self.ckpt_slabs,
                                    &mut self.recovery,
                                    &mut sink,
                                )?;
                                self.passes_since_ckpt = 0;
                                self.retries_left = self.cfg.max_retries;
                                self.local_left.fill(self.cfg.local_retries);
                                for a in self.attempts.iter_mut() {
                                    *a += 1;
                                }
                                continue 'run;
                            }
                        }
                        return Err(fail.error);
                    }
                }
            }
        }
        Ok(())
    }

    /// Closes the session: the final machine report and recovery tally,
    /// identical to what the one-shot entry points return.
    pub fn finish(self) -> FarmFtRun<S> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        FarmFtRun {
            report: self.totals.finish(self.current, self.passes, self.farm.shards, faults),
            recovery: self.recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::units::f64_from_u64;
    use lattice_core::{evolve, Boundary};
    use lattice_engines_sim::{Component, Fault, FaultKind};
    use lattice_gas::{init, FhpRule, FhpVariant, HppRule};

    fn hpp_world(rows: usize, cols: usize, seed: u64) -> (Grid<u8>, HppRule) {
        let shape = Shape::grid2(rows, cols).unwrap();
        (init::random_hpp(shape, 0.4, seed).unwrap(), HppRule::new())
    }

    #[test]
    fn farmed_hpp_is_bit_exact_for_every_shard_count() {
        let (g, rule) = hpp_world(12, 22, 3);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 5);
        for shards in 1..=6 {
            let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2);
            let report = farm.run(&rule, &g, 0, 5).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
            assert_eq!(report.passes, 3, "depth-2 passes over 5 generations");
            assert_eq!(report.machine.generations, 5);
        }
    }

    #[test]
    fn farmed_fhp_seams_respect_global_coordinates() {
        // FHP chirality hashes (row, col, t): a seam between boards must
        // not shift the frame.
        let shape = Shape::grid2(10, 21).unwrap();
        let g = init::random_fhp(shape, FhpVariant::III, 0.35, 9, false).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 7, 4);
        for shards in [2usize, 3, 4] {
            let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, 2);
            let report = farm.run(&rule, &g, 7, 4).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
        }
    }

    #[test]
    fn spa_boards_match_wsa_boards() {
        let (g, rule) = hpp_world(9, 17, 5);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 1 }, 2);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(report.grid(), &reference);
        assert!(report.machine.side_traffic.total() > 0, "SPA side channels in use");
    }

    #[test]
    fn periodic_farm_matches_torus_reference() {
        let (rows, cols) = (8usize, 18usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let hpp = init::random_hpp(shape, 0.45, 7).unwrap();
        let rule = HppRule::new();
        let reference = evolve(&hpp, &rule, Boundary::Periodic, 0, 5);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2).with_periodic(true);
        let report = farm.run(&rule, &hpp, 0, 5).unwrap();
        assert_eq!(report.grid(), &reference, "HPP torus");

        // FHP on the torus: wrapped rule, even rows.
        let fhp = init::random_fhp(shape, FhpVariant::I, 0.4, 2, true).unwrap();
        let frule = FhpRule::new(FhpVariant::I, 11).with_wrap(rows, cols);
        let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 4);
        let freport = farm.run(&frule, &fhp, 0, 4).unwrap();
        assert_eq!(freport.grid(), &freference, "FHP torus");
    }

    #[test]
    fn periodic_farm_matches_torus_reference_for_rest_particle_variants() {
        // Regression: FHP-III's chirality-selected rotations can move
        // the rest bit between states of an invariant class, so the
        // rest-branch chirality hash must wrap its center coordinates
        // exactly like the arrival branch — an engine computing the
        // torus's origin-shifted halo sites sees out-of-range centers.
        // (FHP-I has no rest bit and FHP-II's chirality choices never
        // move it, which is why only FHP-III caught this.)
        let (rows, cols) = (12usize, 30usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        for (variant, shards) in
            [(FhpVariant::II, 3), (FhpVariant::III, 1), (FhpVariant::III, 3), (FhpVariant::III, 5)]
        {
            let fhp = init::random_fhp(shape, variant, 0.3, 42, true).unwrap();
            let rule = FhpRule::new(variant, 42).with_wrap(rows, cols);
            let reference = evolve(&fhp, &rule, Boundary::Periodic, 0, 10);
            let farm =
                LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2).with_periodic(true);
            let report = farm.run(&rule, &fhp, 0, 10).unwrap();
            assert_eq!(report.grid(), &reference, "{variant:?} torus, {shards} shards");
        }
    }

    #[test]
    fn halo_accounting_matches_geometry() {
        let (g, rule) = hpp_world(16, 24, 1);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        // Shard widths 6 each, halos clamp only at the lattice edges, so
        // per pass the four boards import (0+2) + (2+2) + (2+2) + (2+0)
        // = 12 columns of 16 rows at 8 bits; 2 passes.
        assert_eq!(report.halo_traffic.bits_in, 2 * 12 * 16 * 8);
        assert_eq!(report.halo_traffic.bits_in, report.halo_traffic.bits_out);
        assert!(report.redundancy() > 1.0, "halo recompute counted");
        assert_eq!(report.halo_ticks, Ticks::ZERO, "unthrottled links are free");
        assert_eq!(report.retransmit_ticks, Ticks::ZERO);
        assert_eq!(report.retransmits, 0);
        assert!((report.compute_fraction() - 1.0).abs() < 1e-12);
        let per_board: Vec<u128> = report.per_shard.iter().map(|s| s.halo_in_bits.get()).collect();
        assert_eq!(per_board, vec![2 * 2 * 16 * 8, 4 * 2 * 16 * 8, 4 * 2 * 16 * 8, 2 * 2 * 16 * 8]);
    }

    #[test]
    fn throttled_links_cost_time_but_never_results() {
        // Every tick expectation here is re-derived from the analytical
        // `lattice_vlsi::FarmModel` at the same geometry — not a magic
        // constant — so the model and the simulation are held to agree
        // in both exchange modes.
        let (g, rule) = hpp_world(16, 32, 8);
        let model =
            lattice_vlsi::FarmModel::new(lattice_vlsi::Technology::paper_1987(), 16, 32, 2, 2)
                .with_link(BitsPerTick::new(4.0));
        let free = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2);
        let slow = free.with_link(BoardLink::new(4.0));
        let a = free.run(&rule, &g, 0, 6).unwrap();
        let b = slow.run(&rule, &g, 0, 6).unwrap();
        assert_eq!(a.grid(), b.grid(), "bandwidth changes speed, never results");
        assert!(b.halo_ticks > Ticks::ZERO);
        assert_eq!(a.machine.ticks, b.machine.ticks, "compute time unchanged");
        assert!(b.machine_ticks() > a.machine_ticks());
        assert!(b.updates_per_tick() < a.updates_per_tick());
        assert!(b.compute_fraction() < 1.0);
        // Serialized agreement: the link-side prediction is exact (the
        // farm and the model divide the same bits by the same
        // capacity); the compute side is the model's pipeline formula,
        // good to a couple of fill-latency sites per pass.
        let close = |measured: Ticks, predicted: f64| {
            let err = (measured.to_f64() / predicted - 1.0).abs();
            assert!(err < 0.02, "{measured} vs predicted {predicted}: off by {err}");
        };
        let passes = b.passes;
        assert_eq!(b.halo_ticks, Ticks::new(passes * model.halo_ticks(4).get()));
        let p = f64_from_u64(passes);
        close(b.machine.ticks, p * model.compute_ticks(4).to_f64());
        close(b.machine_ticks(), p * model.pass_ticks(4).to_f64());

        // Overlapped agreement: same bits on the same wire, but the
        // wall clock follows boundary + max(interior, halo) — except
        // the first pass, which has no previous interior to hide under
        // and exposes one `min(interior, halo)` of cold-start credit.
        let omodel = model.with_overlap(true);
        let c = slow.with_overlap(true).run(&rule, &g, 0, 6).unwrap();
        assert_eq!(c.grid(), a.grid(), "overlap changes timing, never results");
        assert_eq!(c.halo_ticks, b.halo_ticks, "the wire moves the same frames");
        let (ob, oi) = (omodel.boundary_compute_ticks(4), omodel.interior_compute_ticks(4));
        close(c.machine.ticks, p * (ob + oi).to_f64());
        let cold_start = oi.min(omodel.halo_ticks(4));
        close(c.overlapped_ticks, (p - 1.0) * cold_start.to_f64());
        close(c.machine_ticks(), p * omodel.pass_ticks(4).to_f64() + cold_start.to_f64());
    }

    #[test]
    fn overlapped_exchange_is_bit_exact_and_cheaper_on_wide_slabs() {
        // Wide slabs: the boundary sweeps are a small fraction of the
        // pass, so hiding a starved link's transfer behind the interior
        // sweep beats the serialized barrier outright.
        let (g, rule) = hpp_world(16, 96, 11);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 8);
        let serial =
            LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2).with_link(BoardLink::new(4.0));
        let overlap = serial.with_overlap(true);
        let s = serial.run(&rule, &g, 0, 8).unwrap();
        let o = overlap.run(&rule, &g, 0, 8).unwrap();
        assert_eq!(s.grid(), &reference);
        assert_eq!(o.grid(), &reference, "overlap is bit-exact");
        assert!(o.overlapped_ticks > Ticks::ZERO, "the transfer actually hid");
        assert!(o.overlapped_ticks <= o.halo_ticks, "cannot hide more than the wire spent");
        assert!(
            o.machine_ticks() < s.machine_ticks(),
            "overlap must win here: {} !< {}",
            o.machine_ticks(),
            s.machine_ticks()
        );
        // Unthrottled links have nothing to hide: overlap still
        // bit-exact, zero ticks overlapped, and the split sweeps cost
        // their extra pipeline refills.
        let free = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2).with_overlap(true);
        let f = free.run(&rule, &g, 0, 8).unwrap();
        assert_eq!(f.grid(), &reference);
        assert_eq!(f.overlapped_ticks, Ticks::ZERO);
        assert_eq!(f.machine_ticks(), f.machine.ticks);
    }

    #[test]
    fn overlapped_fhp_and_torus_respect_global_coordinates() {
        // FHP chirality hashes (row, col, t): the boundary/interior
        // region split must present every sub-sweep at its true global
        // origin, on the null boundary and across the torus wrap.
        let shape = Shape::grid2(10, 21).unwrap();
        let g = init::random_fhp(shape, FhpVariant::III, 0.35, 9, false).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 7, 4);
        for shards in [2usize, 3, 4] {
            let farm =
                LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, 2).with_overlap(true);
            let report = farm.run(&rule, &g, 7, 4).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
        }

        let (rows, cols) = (8usize, 18usize);
        let tshape = Shape::grid2(rows, cols).unwrap();
        let fhp = init::random_fhp(tshape, FhpVariant::I, 0.4, 2, true).unwrap();
        let frule = FhpRule::new(FhpVariant::I, 11).with_wrap(rows, cols);
        let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2)
            .with_periodic(true)
            .with_overlap(true);
        let freport = farm.run(&frule, &fhp, 0, 4).unwrap();
        assert_eq!(freport.grid(), &freference, "FHP torus under overlap");
    }

    #[test]
    fn overlapped_spa_boards_need_unit_slices() {
        let (g, rule) = hpp_world(9, 17, 5);
        // Wider slices are not region-aligned; the farm refuses rather
        // than silently serializing.
        let err = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 2 }, 2)
            .with_overlap(true)
            .run(&rule, &g, 0, 4)
            .unwrap_err();
        assert!(err.to_string().contains("slice width 1"), "{err}");
        // Unit slices overlap fine and stay bit-exact.
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let report = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 1 }, 2)
            .with_overlap(true)
            .run(&rule, &g, 0, 4)
            .unwrap();
        assert_eq!(report.grid(), &reference);
    }

    #[test]
    fn slabs_narrower_than_the_halo_are_rejected_up_front() {
        // 8 cols / 4 boards leaves 2-column slabs; a depth-3 pass needs
        // 3-column halo frames no board can source. The farm rejects
        // the partition with a structured error instead of stitching a
        // degenerate exchange.
        let (g, rule) = hpp_world(6, 8, 0);
        let err =
            LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 3).run(&rule, &g, 0, 3).unwrap_err();
        assert!(matches!(err, LatticeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("reach through"), "{err}");
        // One generation shallower the same split is legal.
        assert!(LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2).run(&rule, &g, 0, 3).is_ok());
    }

    #[test]
    fn overlapped_link_faults_are_contained_by_arq() {
        // The recovery ladder under overlap: staged ship-ahead frames
        // ride the same ARQ, and a run whose faults are all absorbed at
        // level 1 commits every staged frame — so the committed-pass
        // retransmit tally still matches the ladder's.
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2).with_overlap(true);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                600,
                Some(&plan),
                &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference, "recovered overlap run is bit-exact");
        assert!(ft.recovery.detected >= 1, "the flip rate must fire within 600 generations");
        assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains transient link faults at level 1");
        assert_eq!(ft.recovery.local_rollbacks, 0);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits);
        assert_eq!(ft.report.retransmits, ft.recovery.retransmits, "every staged frame committed");
    }

    #[test]
    fn link_fault_is_detected_and_recovered_to_bit_exact() {
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        // Without recovery the parity check eventually aborts the run.
        let bare = farm.run_with_faults(&rule, &g, 0, 600, Some(&plan));
        let err = bare.expect_err("a 2e-3 flip rate must fire within 600 generations");
        assert!(err.to_string().contains("board 1 halo link"), "{err}");

        // With the ladder, the same weather is absorbed at the link:
        // corrupted frames retransmit and no board ever rolls back.
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                600,
                Some(&plan),
                &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert!(ft.recovery.detected >= 1, "the flip rate must fire within 600 generations");
        assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains transient link faults at level 1");
        assert_eq!(ft.recovery.local_rollbacks, 0);
        assert_eq!(ft.recovery.boards_retired, 0);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits);
        assert_eq!(ft.report.retransmits, ft.recovery.retransmits, "every pass committed");
        assert!(ft.report.per_shard[1].retransmits >= 1);
        assert!(ft.report.machine.faults.link >= 1);
    }

    #[test]
    fn a_stuck_link_climbs_the_whole_ladder_and_degrades() {
        let (g, rule) = hpp_world(12, 18, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 6);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth, for every reachable shard count
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(5).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
        let cfg = FarmRecoveryConfig {
            max_retries: 1,
            checkpoint_every: 1,
            arq_retries: 1,
            local_retries: 1,
            watchdog: None,
            degrade: Some(FarmDegradeConfig { max_retired: 1 }),
        };
        let ft = farm.run_with_recovery(&rule, &g, 0, 6, Some(&plan), &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.report.grid(), &reference, "the degraded farm stays bit-exact");
        let r = &ft.recovery;
        // The ladder climbs in order: 1 retransmission per exchange
        // attempt (all corrupted — the link is stuck), then a local
        // rollback, then a global rollback, then retirement. Three
        // failed exchanges happen on the way up.
        assert_eq!(r.retransmits, 3);
        assert_eq!(r.local_rollbacks, 1);
        assert_eq!(r.rollbacks, 1);
        assert_eq!(r.boards_retired, 1);
        assert_eq!(
            r.detected,
            r.retransmits + r.local_rollbacks + r.rollbacks + r.boards_retired,
            "every detection is answered by exactly one ladder action"
        );
        assert!(ft.report.per_shard[1].retired);
        assert!(!ft.report.per_shard[0].retired);
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 1);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
        assert_eq!(ft.report.per_shard[0].cols, 18, "the survivor owns the whole lattice");
        assert_eq!(ft.report.shards, 2, "configured board count is preserved in the report");
        assert_eq!(ft.report.retransmits, 0, "no committed pass used the stuck link");
    }

    #[test]
    fn a_hung_worker_trips_the_watchdog_and_rolls_back_locally() {
        let (g, rule) = hpp_world(8, 12, 2);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 2);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1).with_worker_fault(
            WorkerFaultSpec {
                board: 1,
                pass: 0,
                attempt: 0,
                fault: WorkerFault::Hang { millis: 1000 },
            },
        );
        let cfg =
            FarmRecoveryConfig { watchdog: Some(Duration::from_millis(100)), ..Default::default() };
        let ft = farm.run_with_recovery(&rule, &g, 0, 2, None, &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.report.grid(), &reference, "the replayed pass is bit-exact");
        assert_eq!(ft.recovery.detected, 1);
        assert_eq!(ft.recovery.local_rollbacks, 1, "a hung board is a localized failure");
        assert_eq!(ft.recovery.rollbacks, 0, "its neighbor never rewinds");
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 1);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
    }

    #[test]
    fn a_dead_worker_is_detected_without_a_watchdog() {
        let (g, rule) = hpp_world(8, 12, 3);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 1).with_worker_fault(
            WorkerFaultSpec { board: 0, pass: 1, attempt: 0, fault: WorkerFault::Die },
        );
        let ft = farm
            .run_with_recovery(&rule, &g, 0, 3, None, &FarmRecoveryConfig::default(), |_, _| Ok(()))
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 1);
        assert_eq!(ft.recovery.local_rollbacks, 1, "a dropped result channel is localized");
        assert_eq!(ft.recovery.rollbacks, 0);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 1);
    }

    #[test]
    fn recovery_checkpoints_per_shard_and_counts_bytes() {
        let (g, rule) = hpp_world(10, 15, 2);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 1);
        let ft = farm
            .run_with_recovery(&rule, &g, 0, 4, None, &FarmRecoveryConfig::default(), |_, _| Ok(()))
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        // Initial barrier + one per pass before passes 2..4: 4 barriers
        // × 3 shards.
        assert_eq!(ft.recovery.checkpoints, 4 * 3);
        assert!(ft.recovery.checkpoint_bytes > 0);
        assert_eq!(ft.recovery.rollbacks, 0);
    }

    #[test]
    fn audit_failures_roll_the_whole_farm_back() {
        let (g, rule) = hpp_world(10, 16, 6);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let mut failures = 2;
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                3,
                None,
                &FarmRecoveryConfig::default(),
                move |_, _| {
                    if failures > 0 {
                        failures -= 1;
                        Err(LatticeError::Corrupted {
                            site: "audit".into(),
                            detail: "synthetic".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 2);
        // A machine-wide audit cannot name a board, so it skips the
        // local level entirely.
        assert_eq!(ft.recovery.rollbacks, 2);
        assert_eq!(ft.recovery.local_rollbacks, 0);
    }

    #[test]
    fn a_failed_shard_audit_rolls_back_one_board_only() {
        let (g, rule) = hpp_world(10, 16, 6);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let mut failures = 2;
        let ft = farm
            .run_with_recovery_audited(
                &rule,
                &g,
                0,
                3,
                None,
                &FarmRecoveryConfig { local_retries: 2, ..Default::default() },
                |_, _| Ok(()),
                move |board, _, _| {
                    if board == 1 && failures > 0 {
                        failures -= 1;
                        Err(LatticeError::Corrupted {
                            site: "board 1 audit".into(),
                            detail: "synthetic".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 2);
        assert_eq!(ft.recovery.local_rollbacks, 2, "a per-board audit names its board");
        assert_eq!(ft.recovery.rollbacks, 0, "board 0 never rewinds");
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 2);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (g, rule) = hpp_world(4, 8, 0);
        assert!(LatticeFarm::new(0, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(9, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 0 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 1 }, 0)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Spa { slice_width: 0 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        let line = Grid::<u8>::new(lattice_core::Shape::line(8).unwrap());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &line, 0, 1)
            .is_err());
        // A degrade budget that could retire the whole farm is invalid,
        // as is a zero checkpoint interval.
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let bad_degrade = FarmRecoveryConfig {
            degrade: Some(FarmDegradeConfig { max_retired: 2 }),
            ..Default::default()
        };
        assert!(farm
            .run_with_recovery(&rule, &g, 0, 1, None, &bad_degrade, |_, _| Ok(()))
            .is_err());
        let bad_ckpt = FarmRecoveryConfig { checkpoint_every: 0, ..Default::default() };
        assert!(farm.run_with_recovery(&rule, &g, 0, 1, None, &bad_ckpt, |_, _| Ok(())).is_err());
    }

    #[test]
    fn zero_generations_is_a_no_op_report() {
        let (g, rule) = hpp_world(6, 9, 1);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let report = farm.run(&rule, &g, 5, 0).unwrap();
        assert_eq!(report.grid(), &g);
        assert_eq!(report.passes, 0);
        assert_eq!(report.machine_ticks(), Ticks::ZERO);
        assert_eq!(report.updates_per_tick(), SitesPerTick::ZERO);
    }

    #[test]
    fn session_chunked_stepping_is_bit_exact() {
        // Any chunking of the run into `step` calls — including chunks
        // that end mid-pass-depth — produces the same lattice as the
        // one-shot entry point, in both exchange modes.
        let (g, rule) = hpp_world(12, 30, 7);
        let cfg = FarmRecoveryConfig::default();
        for &overlap in &[false, true] {
            let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 3)
                .with_link(BoardLink::new(8.0))
                .with_overlap(overlap);
            let one = farm.run_with_recovery(&rule, &g, 0, 17, None, &cfg, |_, _| Ok(())).unwrap();
            let mut sess = farm.session(&g, 0, None, &cfg, None).unwrap();
            for n in [1u64, 4, 2, 7, 0, 3] {
                sess.step(&rule, n).unwrap();
            }
            assert_eq!(sess.time(), 17, "overlap={overlap}");
            let mid = sess.report();
            assert_eq!(mid.grid(), one.report.grid(), "mid-run snapshot sees the lattice");
            let ft = sess.finish();
            assert_eq!(ft.report.grid(), one.report.grid(), "overlap={overlap}");
            assert_eq!(ft.report.machine.generations, one.report.machine.generations);
            // A chunk that ends mid-depth closes with a shallower pass,
            // so the chunked run takes more passes (and pays their fill
            // and halo bills) — the lattice is identical regardless.
            assert!(ft.report.passes > one.report.passes, "uneven chunks add shallow passes");
        }
    }

    #[test]
    fn session_single_step_matches_one_shot_exactly() {
        // One `step` covering the whole run IS the one-shot path — the
        // entire report, overlap credit included, must be identical.
        let (g, rule) = hpp_world(12, 30, 9);
        let cfg = FarmRecoveryConfig::default();
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2)
            .with_link(BoardLink::new(4.0))
            .with_overlap(true);
        let one = farm.run_with_recovery(&rule, &g, 0, 10, None, &cfg, |_, _| Ok(())).unwrap();
        let mut sess = farm.session(&g, 0, None, &cfg, None).unwrap();
        sess.step(&rule, 10).unwrap();
        let ft = sess.finish();
        assert_eq!(ft.report.grid(), one.report.grid());
        assert_eq!(ft.report.overlapped_ticks, one.report.overlapped_ticks);
        assert_eq!(ft.report.halo_ticks, one.report.halo_ticks);
        assert_eq!(ft.recovery, one.recovery);
    }

    #[test]
    fn session_chunked_recovery_is_bit_exact_under_link_faults() {
        // The ladder works across chunk boundaries: the same transient
        // link weather (keyed by absolute wire position, so chunking
        // cannot move it) is absorbed by ARQ, and the chunked lattice
        // still equals the fault-free reference.
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        let cfg = FarmRecoveryConfig { max_retries: 20, ..Default::default() };
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let mut sess = farm.session(&g, 0, Some(&plan), &cfg, None).unwrap();
        let mut left = 600u64;
        while left > 0 {
            let n = left.min(74);
            sess.step(&rule, n).unwrap();
            left -= n;
        }
        let ft = sess.finish();
        assert_eq!(ft.report.grid(), &reference, "chunked recovered run is bit-exact");
        assert!(ft.recovery.detected >= 1);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits, "all absorbed at level 1");
    }

    #[test]
    fn session_checkpoint_rearms_budgets_and_counts() {
        let (g, rule) = hpp_world(8, 16, 2);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let cfg = FarmRecoveryConfig { checkpoint_every: 100, ..Default::default() };
        let mut sess = farm.session(&g, 0, None, &cfg, None).unwrap();
        let after_open = sess.recovery().checkpoints;
        assert_eq!(after_open, 2, "the opening barrier snapshots both slabs");
        sess.step(&rule, 4).unwrap();
        sess.checkpoint(None).unwrap();
        assert_eq!(sess.recovery().checkpoints, after_open + 2);
        sess.step(&rule, 4).unwrap();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 8);
        assert_eq!(sess.grid(), &reference);
    }

    #[test]
    fn grid_farms_are_bit_exact_across_shapes_boundaries_and_overlap() {
        // The tentpole's correctness bar: R×C block farms with corner
        // exchange equal the single-engine reference across grid shape
        // × boundary × overlap, including an uneven final pass (5
        // generations at depth 2).
        let (rows, cols) = (12usize, 24usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        for (gr, gc) in [(1usize, 4usize), (2, 2), (2, 3), (3, 2)] {
            for overlap in [false, true] {
                // HPP on the null boundary.
                let hpp = init::random_hpp(shape, 0.4, 3).unwrap();
                let rule = HppRule::new();
                let reference = evolve(&hpp, &rule, Boundary::null(), 0, 5);
                let farm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 2 }, 2)
                    .with_grid(gr, gc)
                    .with_overlap(overlap);
                let report = farm.run(&rule, &hpp, 0, 5).unwrap();
                assert_eq!(report.grid(), &reference, "HPP null {gr}×{gc} overlap={overlap}");

                // Coordinate-hashing FHP-III on the torus: a block seam
                // or corner that shifts the frame anywhere fails this.
                let fhp = init::random_fhp(shape, FhpVariant::III, 0.35, 9, true).unwrap();
                let frule = FhpRule::new(FhpVariant::III, 4).with_wrap(rows, cols);
                let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 5);
                let tfarm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 2 }, 2)
                    .with_grid(gr, gc)
                    .with_periodic(true)
                    .with_overlap(overlap);
                let treport = tfarm.run(&frule, &fhp, 0, 5).unwrap();
                assert_eq!(treport.grid(), &freference, "FHP torus {gr}×{gc} overlap={overlap}");
            }
        }
    }

    #[test]
    fn two_tier_exchange_bills_the_slower_wire_and_counts_corners_once() {
        // 12 × 24 on a 2×2 grid at k = 2, null boundary: every block
        // owns 6 × 12 with one vertical and one horizontal seam, so per
        // pass each board imports 2 halo columns × 8 augmented rows
        // (128 bits — corners ride here) and 2 halo rows × 12 owned
        // columns (192 bits, corners excluded).
        let (g, rule) = hpp_world(12, 24, 1);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2)
            .with_grid(2, 2)
            .with_link(BoardLink::new(8.0));
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(report.grid(), &reference);
        assert_eq!(report.halo_traffic.bits_in, 2 * 4 * (128 + 192), "2 passes × 4 boards");
        for s in &report.per_shard {
            assert_eq!(s.halo_in_bits.get(), 2 * (128 + 192));
            assert_eq!((s.rows, s.cols), (6, 12));
        }
        // Separate wires: the barrier waits for the slower tier, here
        // the 192-bit inter frame at 8 bits/tick = 24 ticks per pass.
        assert_eq!(report.halo_ticks, Ticks::new(2 * 24));
        // Throttling only the inter-rack tier stretches exactly that
        // wait; results are untouched.
        let throttled = farm.with_tier_link(BoardLink::new(2.0));
        let treport = throttled.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(treport.grid(), &reference);
        assert_eq!(treport.halo_ticks, Ticks::new(2 * 96), "192 bits at 2 bits/tick");
        assert_eq!(treport.halo_traffic.bits_in, report.halo_traffic.bits_in);
    }

    #[test]
    fn grid_farm_link_faults_recover_bit_exact_on_both_tiers() {
        // Transient weather on one board's intra link and another's
        // inter link (second bank of link chip ids): ARQ absorbs both,
        // and the recovered grid run equals the reference, with and
        // without overlap.
        let (rows, cols) = (12usize, 24usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_hpp(shape, 0.4, 6).unwrap();
        let rule = HppRule::new();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 400);
        for overlap in [false, true] {
            let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2)
                .with_grid(2, 2)
                .with_overlap(overlap);
            let intra_chip = farm.link_chip(rows, cols, 0, 1).unwrap();
            let inter_chip = farm.link_chip_inter(rows, cols, 0, 2).unwrap();
            assert_eq!(inter_chip, intra_chip + 4 + 1, "second bank of link ids");
            let plan = FaultPlan::new(21)
                .with_fault(Fault {
                    component: Component::Link,
                    chip: Some(intra_chip),
                    cell: None,
                    kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
                })
                .with_fault(Fault {
                    component: Component::Link,
                    chip: Some(inter_chip),
                    cell: None,
                    kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
                });
            let ft = farm
                .run_with_recovery(
                    &rule,
                    &g,
                    0,
                    400,
                    Some(&plan),
                    &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                    |_, _| Ok(()),
                )
                .unwrap();
            assert_eq!(ft.report.grid(), &reference, "overlap={overlap}");
            assert!(ft.recovery.detected >= 1, "2e-3 must fire in 400 generations");
            assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains both tiers at level 1");
        }
    }

    #[test]
    fn grid_farms_gate_the_degrade_budget_to_single_row_grids() {
        let (g, rule) = hpp_world(12, 24, 2);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2).with_grid(2, 2);
        let cfg = FarmRecoveryConfig {
            degrade: Some(FarmDegradeConfig { max_retired: 1 }),
            ..Default::default()
        };
        let err = match farm.session(&g, 0, None, &cfg, None) {
            Err(e) => e,
            Ok(_) => panic!("a 2×2 grid with a degrade budget must be refused"),
        };
        assert!(err.to_string().contains("single-row board grid"), "{err}");
        // The columnar layout of the same four boards still degrades.
        let columnar = LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2);
        assert!(columnar.session(&g, 0, None, &cfg, None).is_ok());
        // And a grid session without a degrade budget runs fine.
        let mut sess = farm.session(&g, 0, None, &FarmRecoveryConfig::default(), None).unwrap();
        sess.step(&rule, 5).unwrap();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 5);
        assert_eq!(sess.grid(), &reference);
    }

    #[test]
    fn grid_sessions_chunk_and_checkpoint_bit_exact() {
        // Durable round trip on block geometry: chunked stepping with a
        // mid-run checkpoint equals the one-shot reference on a torus
        // 2×3 grid.
        let (rows, cols) = (12usize, 18usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.4, 8, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 3).with_wrap(rows, cols);
        let reference = evolve(&g, &rule, Boundary::Periodic, 0, 9);
        let farm = LatticeFarm::new(6, ShardEngine::Wsa { width: 1 }, 2)
            .with_grid(2, 3)
            .with_periodic(true);
        let mut sess = farm.session(&g, 0, None, &FarmRecoveryConfig::default(), None).unwrap();
        for n in [2u64, 3, 1, 3] {
            sess.step(&rule, n).unwrap();
            sess.checkpoint(None).unwrap();
        }
        assert_eq!(sess.grid(), &reference);
    }
}
