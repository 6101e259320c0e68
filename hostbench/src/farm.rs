//! The two farm workloads: `farm-batch` (fault-free HPP, WSA boards)
//! and `farm-ladder` (FHP-I on a 2×1 SPA torus with inter-rack link
//! transients and a durable checkpoint store).

use crate::host::{self, ScratchDir};
use crate::probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Measured, Options, QUERY_EVERY, WINDOWS};
use lattice_core::checkpoint::store::{reassemble, CheckpointStore, DiskBackend, SnapshotSink};
use lattice_core::{evolve_parallel, Boundary, Grid, Rule};
use lattice_engines_sim::{Component, Fault, FaultKind, FaultPlan, RecoveryStats};
use lattice_farm::{FarmReport, FarmSession, LatticeFarm};
use lattice_gas::observe::Observables;
use lattice_serve::{build_farm, recovery_config, seed_grid, FaultSpec, GasRule, SessionSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A farm workload: the machine spec plus how the run is driven.
pub struct FarmWorkload {
    /// Lattice, engine, board grid and (for the ladder) fault block.
    pub spec: SessionSpec,
    /// Passes advanced by one `FarmSession::step` call.
    pub passes: u64,
    /// Steps between durable commits; `None` runs without a store.
    pub store_every: Option<u64>,
    /// Steps after which the deterministic counters are read.
    pub prefix: u64,
}

impl FarmWorkload {
    /// Fault-free HPP on two columnar WSA boards (width 4, depth 4).
    /// The lattice is a torus: under the null boundary the gas drains
    /// out within a few hundred generations, after which the lattice is
    /// empty and the bit-exactness gate compares nothing.
    pub fn batch(opts: &Options) -> FarmWorkload {
        let (rows, cols) = if opts.smoke { (32, 64) } else { (512, 512) };
        let spec = SessionSpec {
            model: "hpp".into(),
            rows,
            cols,
            seed: opts.derive(1),
            shards: 2,
            engine: "wsa".into(),
            width: 4,
            depth: 4,
            periodic: true,
            ..SessionSpec::default()
        };
        FarmWorkload { spec, passes: 1, store_every: None, prefix: opts.prefix_steps() }
    }

    /// FHP-I on the torus over a 2×1 board grid of SPA boards (slice
    /// width 1), overlapped exchange over throttled links, seeded
    /// transients on the inter-rack halo links, and a durable commit
    /// after every step. Each step advances four passes: ship-ahead
    /// staging never crosses a step boundary, so with one pass per step
    /// every exchange would run cold and the overlap path would idle.
    pub fn ladder(opts: &Options) -> FarmWorkload {
        let (rows, cols) = if opts.smoke { (32, 32) } else { (64, 96) };
        let spec = SessionSpec {
            model: "fhp1".into(),
            rows,
            cols,
            seed: opts.derive(2),
            shards: 2,
            grid: Some((2, 1)),
            engine: "spa".into(),
            slice_width: 1,
            depth: 4,
            periodic: true,
            overlap: true,
            link_bits: Some(16.0),
            tier_bits: Some(4.0),
            fault: Some(FaultSpec {
                seed: Some(opts.derive(3)),
                link_rate: 4e-4,
                max_retries: 8,
                arq_retries: 2,
                local_retries: 3,
                ..FaultSpec::default()
            }),
            ..SessionSpec::default()
        };
        // Fault counts vary with the seed; four passes per step give a
        // long prefix, which keeps the modeled figures' spread small.
        FarmWorkload { spec, passes: 4, store_every: Some(1), prefix: opts.prefix_steps() }
    }
}

/// Seeded transient bit flips on every board's inter-rack halo link —
/// the tier a 2×1 grid's halos ride, so retransmissions cost link time.
fn ladder_plan(spec: &SessionSpec, farm: &LatticeFarm) -> Result<Option<Arc<FaultPlan>>, String> {
    let Some(f) = spec.fault.as_ref().filter(|f| f.link_rate > 0.0) else { return Ok(None) };
    let mut plan = FaultPlan::new(f.seed.unwrap_or(spec.seed));
    for b in 0..spec.shards {
        let chip = farm
            .link_chip_inter(spec.rows, spec.cols, f.max_retired, b)
            .map_err(|e| format!("link chip: {e}"))?;
        plan.push(Fault {
            component: Component::Link,
            chip: Some(chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: f.link_rate },
        });
    }
    Ok(Some(Arc::new(plan)))
}

/// Evolves `grid` with the reference kernel (`lattice_core`'s per-site
/// update, split over the host's threads) — the oracle the farm must
/// match bit for bit.
pub fn reference(rule: &GasRule, grid: &Grid<u8>, periodic: bool, gens: u64) -> Grid<u8> {
    fn go<R: Rule<S = u8> + Sync>(r: &R, grid: &Grid<u8>, periodic: bool, gens: u64) -> Grid<u8> {
        let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
        let (mut a, mut b) = (grid.clone(), grid.clone());
        for t in 0..gens {
            evolve_parallel(&a, &mut b, r, boundary, t, host::nproc())
                .expect("source and destination share a shape");
            std::mem::swap(&mut a, &mut b);
        }
        a
    }
    match rule {
        GasRule::Hpp(r) => go(r, grid, periodic, gens),
        GasRule::Fhp(r) => go(r, grid, periodic, gens),
    }
}

/// The deterministic counters of a farm session.
pub fn farm_counts(rep: &FarmReport<u8>, rec: RecoveryStats) -> BTreeMap<&'static str, f64> {
    let mt = rep.machine_ticks().get() as f64;
    BTreeMap::from([
        ("farm.redundancy", rep.redundancy()),
        ("farm.machine_ticks", mt),
        ("farm.halo_bits", rep.halo_traffic.bits_in as f64),
        ("farm.overlapped_ticks", rep.overlapped_ticks.get() as f64),
        ("farm.detected", rec.detected as f64),
        ("farm.retransmits", rec.retransmits as f64),
        ("farm.local_rollbacks", rec.local_rollbacks as f64),
        ("farm.global_rollbacks", rec.rollbacks as f64),
        ("farm.boards_retired", rec.boards_retired as f64),
        ("farm.recovery_cost", rep.retransmit_ticks.get() as f64 / mt),
        ("modeled.updates_per_tick", rep.updates_per_tick().get()),
        ("modeled.tick_stretch", mt / (mt - rep.retransmit_ticks.get() as f64)),
    ])
}

/// Detections must all be answered by exactly one ladder rung.
pub fn ladder_identity(rec: RecoveryStats) -> bool {
    rec.detected == rec.retransmits + rec.local_rollbacks + rec.rollbacks + rec.boards_retired
}

/// A set-up farm: generation-0 lattice, live session, optional store.
struct Built {
    grid0: Grid<u8>,
    session: FarmSession<'static, u8>,
    store: Option<CheckpointStore<DiskBackend>>,
    _dir: Option<ScratchDir>,
}

fn build(w: &FarmWorkload, name: &str) -> Result<Built, String> {
    let spec = &w.spec;
    fn err(what: &'static str) -> impl Fn(lattice_core::LatticeError) -> String {
        move |e| format!("{what}: {e}")
    }
    let grid0 = seed_grid(spec).map_err(err("seed grid"))?;
    let farm = build_farm(spec).map_err(err("build farm"))?;
    let plan = ladder_plan(spec, &farm)?;
    let (dir, mut store) = match w.store_every {
        Some(_) => {
            let dir = ScratchDir::new(name).map_err(|e| format!("store dir: {e}"))?;
            let backend = DiskBackend::open(dir.path()).map_err(err("store"))?;
            (Some(dir), Some(CheckpointStore::open(backend).map_err(err("store"))?))
        }
        None => (None, None),
    };
    let sink = store.as_mut().map(|s| s as &mut dyn SnapshotSink);
    let session = farm
        .session_owned(&grid0, 0, plan, &recovery_config(spec), sink)
        .map_err(err("session"))?;
    Ok(Built { grid0, session, store, _dir: dir })
}

/// One step, plus the durable commit when one falls due after it. The
/// same call sequence runs timed and untimed, so the counters at any
/// step number do not depend on host speed.
fn advance(
    w: &FarmWorkload,
    rule: &GasRule,
    b: &mut Built,
    done: u64,
    tr: &Tracer,
    m: &mut Measured,
) -> Result<Duration, ()> {
    let t = Instant::now();
    let gens = w.spec.depth as u64 * w.passes;
    let stepped = tr.span("farm.step", None, done, |_| rule.step(&mut b.session, gens));
    let took = t.elapsed();
    m.outcome(stepped, "step").ok_or(())?;
    if let (Some(every), Some(store)) = (w.store_every, b.store.as_mut()) {
        if (done + 1).is_multiple_of(every) {
            let r = tr.span("store.checkpoint", None, done, |_| b.session.checkpoint(Some(store)));
            m.outcome(r, "durable checkpoint").ok_or(())?;
        }
    }
    Ok(took)
}

/// The counters that must repeat exactly, read at the end of the prefix.
fn counts_of(b: &Built) -> BTreeMap<&'static str, f64> {
    let mut c = farm_counts(&b.session.report(), b.session.recovery());
    if let Some(store) = &b.store {
        c.insert("store.commits", store.commits() as f64);
    }
    c
}

/// Runs a farm workload once.
pub fn run(w: &FarmWorkload, opts: &Options, tr: &Tracer) -> Result<Measured, String> {
    let spec = &w.spec;
    let rule = GasRule::from_spec(spec).map_err(|e| format!("rule: {e}"))?;
    let name = opts.workload.name();
    let mut m = Measured::default();
    let mut built = None;
    while opts.another_setup(m.setup_s.len(), m.setup_s.iter().sum()) {
        drop(built.take());
        let t = Instant::now();
        let b = tr.span("setup", None, 0, |_| build(w, name))?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up repetition");

    let sites = (spec.rows * spec.cols) as f64;
    let gens = (spec.depth as u64 * w.passes) as f64;
    // Reads keep their per-pass cadence however many passes a step makes.
    let query_every = (QUERY_EVERY / w.passes).max(1);
    let prefix = w.prefix;
    let mut done = 0u64;
    let mut counts = None;
    // Warm-up: one untimed step fills caches and the allocator.
    advance(w, &rule, &mut b, done, tr, &mut m).map_err(|()| m.errors.join("; "))?;
    done += 1;

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let (broken, heap) = host::heap_peaks(budget, WINDOWS as u32, || {
        while start.elapsed() - paused < budget {
            match advance(w, &rule, &mut b, done, tr, &mut m) {
                Ok(took) => m.step_ms.push(took.as_secs_f64() * 1e3),
                Err(()) => return true,
            }
            done += 1;
            m.completed.push(((start.elapsed() - paused).as_secs_f64(), sites * gens));
            if done.is_multiple_of(query_every) {
                let t = Instant::now();
                let obs = tr.span("farm.query", None, done, |_| {
                    Observables::measure(b.session.grid(), rule.model())
                });
                black_box(obs);
                m.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                m.attempted += 1;
            }
            if done == prefix {
                let t = Instant::now();
                counts = Some(counts_of(&b));
                paused += t.elapsed();
            }
        }
        false
    });
    m.timed_s = (start.elapsed() - paused).as_secs_f64();
    m.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    m.peak_heap_mb = median(&heap).unwrap_or(f64::NAN);
    let mut broken = broken;
    while !broken && done < prefix {
        broken = advance(w, &rule, &mut b, done, tr, &mut m).is_err();
        done += 1;
        if done == prefix {
            counts = Some(counts_of(&b));
        }
    }
    if let Some(mut c) = counts {
        m.modeled_updates_per_tick = c.remove("modeled.updates_per_tick").unwrap_or(0.0);
        m.modeled_tick_stretch = c.remove("modeled.tick_stretch").unwrap_or(0.0);
        m.counts = c;
    }

    // Correctness gate (untimed).
    let time = b.session.time();
    let oracle = reference(&rule, &b.grid0, spec.periodic, time);
    m.check(&oracle == b.session.grid(), || {
        format!("farm lattice at generation {time} differs from the reference evolution")
    });
    let rec = b.session.recovery();
    m.check(ladder_identity(rec), || format!("ladder identity broken: {rec:?}"));
    if let Some(store) = b.store.as_mut() {
        let committed = b.session.checkpoint(Some(store));
        if m.outcome(committed, "final checkpoint").is_some() {
            let t = Instant::now();
            let loaded = tr.span("store.load", None, done, |_| {
                let snap = store.load_latest()?.ok_or_else(|| {
                    lattice_core::LatticeError::InvalidConfig("store is empty".into())
                })?;
                reassemble::<u8>(&snap.snapshot)
            });
            let load_ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some((grid, at)) = m.outcome(loaded, "load final snapshot") {
                m.check(&grid == b.session.grid() && at.get() == time, || {
                    format!(
                        "final snapshot (generation {}) does not reassemble to the lattice",
                        at.get()
                    )
                });
            }
            m.layer.insert("store.load_ms", load_ms);
        }
    }

    if tr.enabled() {
        probes(w, &rule, &mut b, opts, tr, &mut m)?;
    }
    Ok(m)
}

/// Per-layer probes of a traced farm run.
fn probes(
    w: &FarmWorkload,
    rule: &GasRule,
    b: &mut Built,
    opts: &Options,
    tr: &Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let spec = &w.spec;
    let reps = opts.probe_reps();
    m.layer.insert("gas.evolve_msites_per_s", probe::evolve_rate(rule, &b.grid0, spec, reps, tr));
    let (pass_ms, pass_rate) = probe::board_pass(spec, reps, tr)?;
    m.layer.insert("sim.board_pass_ms", pass_ms);
    m.layer.insert("sim.board_msites_per_s", pass_rate);
    let step_ms = crate::stats::median(&m.step_ms).unwrap_or(f64::NAN);
    m.layer.insert("daemon.step_work_ms_p50", step_ms);
    m.layer.insert("farm.overhead_ms", step_ms / w.passes as f64 - pass_ms);
    match b.store.as_ref() {
        Some(store) => {
            let ck = crate::trace::durations_ms(&tr.spans(), "store.checkpoint");
            m.layer
                .insert("store.checkpoint_ms_p50", crate::stats::median(&ck).unwrap_or(f64::NAN));
            let commits = store.commits().max(1) as f64;
            m.layer.insert("store.bytes_per_commit", store.bytes_written() as f64 / commits);
            m.layer.insert("store.commit_failures", store.commit_failures() as f64);
        }
        None => {
            let s = probe::store(&mut b.session, opts.workload.name(), reps, tr)?;
            s.record(m);
        }
    }
    probe::codec(b.session.grid(), spec, reps, tr).record(m);
    probe::rtt_daemon(reps, tr)?.record(m);
    // No daemon session is touched, so none is restored.
    m.layer.insert("daemon.restores", 0.0);
    Ok(())
}
