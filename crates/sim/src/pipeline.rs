//! Serial and wide-serial (WSA) pipelines: `k` cascaded stages.
//!
//! §3–§4: the host streams the lattice through `k` chips, each chip one
//! pipeline stage of `P` PEs; the stream leaves the last chip `k`
//! generations older. `P = 1` is the fully serial architecture of §3;
//! `P > 1` is the WSA of §4 ("performance is increased, but at a cost of
//! only the incremental amount of memory needed to store the extra
//! sites… two new site values are required every clock period").

use crate::faults::{Component, FaultCtx, FaultHook};
use crate::metrics::EngineReport;
use crate::stage::{LineBufferStage, StageConfig};
use lattice_core::bits::{StreamParity, Traffic};
use lattice_core::units::{u64_from_usize, Cells, Sites, Ticks};
use lattice_core::{Grid, LatticeError, Rule, Shape, State};

/// Per-run options beyond the geometry: the stream origin, fault
/// injection, and the physical-chip map.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'p> {
    /// Global coordinate of the stream's `(0, 0)` (see
    /// [`Pipeline::run_at`]).
    pub origin: (usize, usize),
    /// Fault injection context; `None` runs fault-free.
    pub faults: Option<FaultCtx<'p>>,
    /// Physical chip id behind each stage position (`chip_ids[j]` is the
    /// silicon stage `j` runs on). `None` means the identity map. A host
    /// running degraded — with a faulty chip bypassed — passes the
    /// surviving chips here so faults keep following the silicon.
    pub chip_ids: Option<&'p [usize]>,
    /// Ring cells at or past this index live off chip (WSA-E external
    /// shift registers) and are additionally exposed to
    /// [`Component::OffchipSr`] faults.
    pub offchip_from: Option<usize>,
}

/// A serial / wide-serial pipeline engine.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    /// PEs per stage (`P`).
    pub width: usize,
    /// Pipeline depth (`k` = chips = generations per pass).
    pub depth: usize,
}

impl Pipeline {
    /// A fully serial pipeline (`P = 1`) of depth `k`.
    pub fn serial(depth: usize) -> Self {
        Pipeline { width: 1, depth }
    }

    /// A wide-serial pipeline (`P = width`) of depth `k`.
    pub fn wide(width: usize, depth: usize) -> Self {
        Pipeline { width, depth }
    }

    /// Streams `grid` (generation `t0`) through the pipeline under the
    /// null boundary, returning the lattice `depth` generations later
    /// plus measured costs.
    ///
    /// Bit-exactness contract: equals
    /// `lattice_core::evolve(grid, rule, Boundary::null(), t0, depth)`.
    ///
    /// ```
    /// use lattice_core::{evolve, Boundary, Shape};
    /// use lattice_engines_sim::Pipeline;
    /// use lattice_gas::{init, HppRule};
    ///
    /// let shape = Shape::grid2(16, 32)?;
    /// let gas = init::random_hpp(shape, 0.3, 7)?;
    /// let rule = HppRule::new();
    /// let report = Pipeline::wide(2, 3).run(&rule, &gas, 0)?;
    /// assert_eq!(report.grid, evolve(&gas, &rule, Boundary::null(), 0, 3));
    /// assert_eq!(report.updates, lattice_core::units::Sites::new(3 * 16 * 32));
    /// # Ok::<(), lattice_core::LatticeError>(())
    /// ```
    pub fn run<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
    ) -> Result<EngineReport<R::S>, LatticeError> {
        self.run_at(rule, grid, t0, (0, 0))
    }

    /// [`Pipeline::run`] with a global coordinate origin for the stream's
    /// `(0, 0)` — used by halo framing so that rules whose output depends
    /// on absolute coordinates (FHP parity/chirality) see the *unframed*
    /// coordinates. `origin` may wrap (e.g. `usize::MAX` ≡ −1).
    pub fn run_at<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        origin: (usize, usize),
    ) -> Result<EngineReport<R::S>, LatticeError> {
        self.run_opts(rule, grid, t0, RunOptions { origin, ..RunOptions::default() })
    }

    /// [`Pipeline::run`] with full [`RunOptions`]: fault injection,
    /// physical-chip mapping, and off-chip shift-register exposure.
    ///
    /// Every inter-chip link carries a [`StreamParity`] word: the sender
    /// folds each site as it leaves the PE array, the receiver as it
    /// arrives, and a disagreement — any odd number of flipped bits, or
    /// a dropped/duplicated site — surfaces as
    /// [`LatticeError::Corrupted`] naming the chip's output link.
    /// Faults injected *inside* a stage (shift-register cells, PE
    /// outputs) corrupt the computation itself and are invisible to the
    /// link parity; catching those is the conservation audit's job.
    pub fn run_opts<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        opts: RunOptions<'_>,
    ) -> Result<EngineReport<R::S>, LatticeError> {
        if self.depth == 0 {
            return Err(LatticeError::InvalidConfig("pipeline depth must be ≥ 1".into()));
        }
        if opts.chip_ids.is_some_and(|ids| ids.len() != self.depth) {
            return Err(LatticeError::InvalidConfig(
                "chip map must name one physical chip per stage".into(),
            ));
        }
        let shape = grid.shape();
        let cfg = StageConfig {
            shape,
            width: self.width,
            fill: R::S::default(),
            gen: t0,
            origin: opts.origin,
        };
        cfg.validate()?;
        if opts.faults.is_none() {
            if let Some(out) = rule.evolve_block(grid, t0, opts.origin, self.depth as u64) {
                return self.report_from_geometry(out, &cfg);
            }
        }
        let chip_of = |j: usize| opts.chip_ids.map_or(j, |ids| ids[j]);
        let fault_base = opts.faults.map(|c| c.plan.stats()).unwrap_or_default();
        let n = shape.len();
        let d_bits = R::S::BITS;

        let mut stages = Vec::with_capacity(self.depth);
        for j in 0..self.depth {
            let mut stage = LineBufferStage::new(rule, StageConfig { gen: t0 + j as u64, ..cfg })?;
            if let Some(ctx) = opts.faults {
                stage = stage.with_faults(FaultHook {
                    ctx,
                    chip: chip_of(j),
                    offchip_from: opts.offchip_from,
                });
            }
            stages.push(stage);
        }

        let data = grid.as_slice();
        let mut fed = 0usize;
        let mut ticks = 0u64;
        let mut result: Vec<R::S> = Vec::with_capacity(n);
        let mut memory = Traffic::new();
        let mut pins = Traffic::new();
        // Per-stage in-flight buffers (outputs of stage j feed stage j+1
        // on the same tick; a one-tick register between chips would only
        // add `depth` ticks of latency).
        let mut bus: Vec<Vec<R::S>> = vec![Vec::new(); self.depth + 1];
        // Link parity: sender/receiver accumulators and the per-link
        // stream position (the transient-fault key).
        let mut sent = vec![StreamParity::new(); self.depth];
        let mut recv = vec![StreamParity::new(); self.depth];
        let mut link_pos = vec![0u64; self.depth];

        while result.len() < n {
            ticks += 1;
            let take = self.width.min(n - fed);
            bus[0].clear();
            bus[0].extend_from_slice(&data[fed..fed + take]);
            fed += take;
            memory.record_in(take as u128, d_bits);
            for (j, stage) in stages.iter_mut().enumerate() {
                let (inp, out) = {
                    // Split borrows: bus[j] is input, bus[j+1] output.
                    let (a, b) = bus.split_at_mut(j + 1);
                    (&a[j], &mut b[0])
                };
                out.clear();
                pins.record_in(inp.len() as u128, d_bits);
                let emitted = stage.tick(inp, out);
                pins.record_out(emitted as u128, d_bits);
                // The emitted sites cross the chip's output link.
                for v in out.iter_mut() {
                    sent[j].absorb(*v);
                    if let Some(ctx) = opts.faults {
                        *v = ctx.corrupt_site(Component::Link, chip_of(j), 0, link_pos[j], *v);
                    }
                    recv[j].absorb(*v);
                    link_pos[j] += 1;
                }
            }
            memory.record_out(bus[self.depth].len() as u128, d_bits);
            result.extend_from_slice(&bus[self.depth]);
            if ticks > (10 * n + 1000) as u64 * self.depth as u64 {
                return Err(LatticeError::InvalidConfig("pipeline wedged (bug)".into()));
            }
        }

        for j in 0..self.depth {
            if let Some(msg) = recv[j].mismatch(&sent[j]) {
                return Err(LatticeError::Corrupted {
                    site: format!("chip {} output link", chip_of(j)),
                    detail: msg,
                });
            }
        }

        // The schedule reads only the stages' stream counters, never a
        // site value, so the closed form must agree with every run.
        debug_assert_eq!(Ticks::new(ticks), self.schedule_ticks(shape));
        let sr_cells =
            Cells::new(stages.iter().map(|s| s.config().required_cells() as u64).max().unwrap());
        Ok(EngineReport {
            grid: Grid::from_vec(shape, result)?,
            generations: self.depth as u64,
            updates: Sites::new(u64_from_usize(n * self.depth)),
            ticks: Ticks::new(ticks),
            memory_traffic: memory,
            pin_traffic: pins,
            side_traffic: Traffic::new(),
            offchip_sr_traffic: Traffic::new(),
            sr_cells_per_stage: sr_cells,
            stages: self.depth as u32,
            width: self.width as u32,
            faults: opts.faults.map(|c| c.plan.stats().since(fault_base)).unwrap_or_default(),
        })
    }

    /// Clock ticks a pass of a `shape` stream takes — what the cycle
    /// simulator counts, in closed form per stage.
    ///
    /// Stage input arrives `P` sites per tick, so site `m` is in by tick
    /// `⌊m/P⌋ + 1`. Output `i` of a stage is ready once input
    /// `need(i) = min(i + a, n − 1)` is in (`a = cols + 1`, one row and
    /// one column ahead; `a = 1` on a line), and at most `P` outputs
    /// leave per tick, so output `i` leaves at
    /// `τ(i) = max(τ_in(need(i)), τ(i − P) + 1)`. Unrolled over the
    /// stages this is a longest path, `τ = ⌊v/P⌋ + 1`, whose "virtual
    /// index" `v` starts at `n − 1` and per stage becomes
    /// `min(v + a, n − 1 + P·⌊v/P⌋)`: the first term is a full-rate
    /// stage a little over a row behind its input; the second binds
    /// when the last row's outputs all become ready at once and drain
    /// `P` per tick. For `n ≥ a + P` the second term never binds and
    /// `ticks = ⌊(n − 1 + k·a)/P⌋ + 1`.
    pub fn schedule_ticks(&self, shape: Shape) -> Ticks {
        let n = u64_from_usize(shape.len());
        let p = u64_from_usize(self.width.max(1));
        let lead = if shape.rank() == 2 { u64_from_usize(shape.cols()) + 1 } else { 1 };
        let mut v = n - 1;
        for _ in 0..self.depth {
            v = (v + lead).min(n - 1 + p * (v / p));
        }
        Ticks::new(v / p + 1)
    }

    /// The report of a fault-free pass whose lattice came from the
    /// rule's block kernel. A pass's costs depend only on geometry:
    /// [`Pipeline::schedule_ticks`] ticks; the stream crosses the
    /// memory port once each way and every chip's pins once each way;
    /// every stage holds `required_cells` of shift register.
    fn report_from_geometry<S: State>(
        &self,
        grid: Grid<S>,
        cfg: &StageConfig<S>,
    ) -> Result<EngineReport<S>, LatticeError> {
        if grid.shape() != cfg.shape {
            return Err(LatticeError::ShapeMismatch {
                left: cfg.shape.dims().to_vec(),
                right: grid.shape().dims().to_vec(),
            });
        }
        let n = grid.len() as u128;
        let depth = self.depth as u128;
        let mut memory = Traffic::new();
        memory.record_in(n, S::BITS);
        memory.record_out(n, S::BITS);
        let mut pins = Traffic::new();
        pins.record_in(depth * n, S::BITS);
        pins.record_out(depth * n, S::BITS);
        Ok(EngineReport {
            generations: self.depth as u64,
            updates: Sites::new(u64_from_usize(grid.len() * self.depth)),
            ticks: self.schedule_ticks(cfg.shape),
            memory_traffic: memory,
            pin_traffic: pins,
            side_traffic: Traffic::new(),
            offchip_sr_traffic: Traffic::new(),
            sr_cells_per_stage: Cells::new(u64_from_usize(cfg.required_cells())),
            stages: self.depth as u32,
            width: self.width as u32,
            faults: Default::default(),
            grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::{evolve, Boundary, Shape};
    use lattice_gas::{FhpRule, FhpVariant, HppRule};

    #[test]
    fn serial_pipeline_is_bit_exact_hpp() {
        let shape = Shape::grid2(12, 17).unwrap();
        let g = lattice_gas::init::random_hpp(shape, 0.4, 7).unwrap();
        let rule = HppRule::new();
        for depth in [1usize, 2, 5] {
            let report = Pipeline::serial(depth).run(&rule, &g, 0).unwrap();
            let reference = evolve(&g, &rule, Boundary::null(), 0, depth as u64);
            assert_eq!(report.grid, reference, "depth={depth}");
            assert_eq!(report.generations, depth as u64);
        }
    }

    #[test]
    fn wide_pipeline_is_bit_exact_fhp() {
        let shape = Shape::grid2(10, 24).unwrap();
        let g = lattice_gas::init::random_fhp(shape, FhpVariant::III, 0.35, 3, false).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 99);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        for width in [1usize, 2, 4] {
            let report = Pipeline::wide(width, 4).run(&rule, &g, 0).unwrap();
            assert_eq!(report.grid, reference, "width={width}");
        }
    }

    #[test]
    fn wide_pipeline_nonzero_t0_matches_reference() {
        // FHP chirality depends on absolute time; the pipeline must
        // stamp each stage with the right generation.
        let shape = Shape::grid2(8, 8).unwrap();
        let g = lattice_gas::init::random_fhp(shape, FhpVariant::I, 0.5, 1, false).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 5);
        let reference = evolve(&g, &rule, Boundary::null(), 17, 3);
        let report = Pipeline::wide(2, 3).run(&rule, &g, 17).unwrap();
        assert_eq!(report.grid, reference);
    }

    #[test]
    fn memory_traffic_is_one_pass() {
        let shape = Shape::grid2(8, 16).unwrap();
        let g = lattice_gas::init::random_hpp(shape, 0.3, 2).unwrap();
        let report = Pipeline::wide(2, 3).run(&HppRule::new(), &g, 0).unwrap();
        let n = shape.len() as u128;
        // One stream in, one stream out, regardless of depth.
        assert_eq!(report.memory_traffic.bits_in, n * 8);
        assert_eq!(report.memory_traffic.bits_out, n * 8);
        // Pins: every stage sees the stream once each way.
        assert_eq!(report.pin_traffic.bits_in, 3 * n * 8);
        assert_eq!(report.pin_traffic.bits_out, 3 * n * 8);
    }

    #[test]
    fn throughput_approaches_p_per_tick() {
        let shape = Shape::grid2(32, 64).unwrap();
        let g = lattice_gas::init::random_hpp(shape, 0.3, 2).unwrap();
        let rule = HppRule::new();
        let r1 = Pipeline::wide(1, 4).run(&rule, &g, 0).unwrap();
        let r4 = Pipeline::wide(4, 4).run(&rule, &g, 0).unwrap();
        // 4-wide runs ≈ 4× the updates/tick of 1-wide.
        let ratio = r4.updates_per_tick() / r1.updates_per_tick();
        assert!((3.4..=4.2).contains(&ratio), "ratio {ratio}");
        // Utilization is high once fill/drain amortizes.
        assert!(r4.utilization() > 0.8, "{}", r4.utilization());
    }

    #[test]
    fn bandwidth_demand_matches_analytical_2dp() {
        // The measured steady-state demand equals the paper's 2·D·P
        // bits/tick.
        let shape = Shape::grid2(64, 64).unwrap();
        let g = lattice_gas::init::random_fhp(shape, FhpVariant::I, 0.2, 4, false).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 8);
        for p in [1u32, 2, 4] {
            let report = Pipeline::wide(p as usize, 2).run(&rule, &g, 0).unwrap();
            let measured = report.memory_bits_per_tick().get();
            let analytical = f64::from(2 * 8 * p);
            // Fill/drain ticks dilute the average slightly below peak.
            assert!(
                measured <= analytical && measured > 0.85 * analytical,
                "P={p}: measured {measured} vs {analytical}"
            );
        }
    }

    #[test]
    fn sr_cells_match_formula() {
        let shape = Shape::grid2(16, 100).unwrap();
        let g = lattice_gas::init::random_hpp(shape, 0.3, 2).unwrap();
        let report = Pipeline::wide(4, 2).run(&HppRule::new(), &g, 0).unwrap();
        assert_eq!(report.sr_cells_per_stage, Cells::new(2 * 100 + 4 + 2));
    }

    #[test]
    fn zero_depth_is_an_error() {
        let shape = Shape::grid2(4, 4).unwrap();
        let g: Grid<u8> = Grid::new(shape);
        assert!(Pipeline::serial(0).run(&HppRule::new(), &g, 0).is_err());
    }

    #[test]
    fn one_dimensional_pipeline_runs_eca() {
        use lattice_gas::ElementaryCa;
        let shape = Shape::line(64).unwrap();
        let g = Grid::from_fn(shape, |c| c.col() % 3 == 0);
        let rule = ElementaryCa::new(110);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 8);
        let report = Pipeline::serial(8).run(&rule, &g, 0).unwrap();
        assert_eq!(report.grid, reference);
        // 1-bit sites: D = 1 in the traffic accounting.
        assert_eq!(report.memory_traffic.bits_in, 64);
    }
}
