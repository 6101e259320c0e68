//! Layer probes of a traced run: each times one layer's calls in
//! isolation, on the workload's own geometry, under a named span.

use crate::host::ScratchDir;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Measured, QUERY_EVERY};
use lattice_core::checkpoint::store::{reassemble, CheckpointStore, DiskBackend};
use lattice_core::{evolve, Boundary, Grid, LatticeError};
use lattice_engines_sim::{Pipeline, SpaEngine};
use lattice_farm::{partition2d_checked, FarmSession};
use lattice_serve::{
    seed_grid, Client, Daemon, DaemonConfig, GasRule, Query, Request, Response, SessionSpec,
    StatsFrame,
};
use std::hint::black_box;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Single-thread reference evolution of the workload lattice for one
/// pass worth of generations, in million site-updates per second.
pub fn evolve_rate(
    rule: &GasRule,
    grid: &Grid<u8>,
    spec: &SessionSpec,
    reps: usize,
    tr: &Tracer,
) -> f64 {
    let boundary = if spec.periodic { Boundary::Periodic } else { Boundary::null() };
    let gens = spec.depth as u64;
    let secs: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            tr.span("gas.evolve", None, i as u64, |_| match rule {
                GasRule::Hpp(r) => black_box(evolve(grid, r, boundary, 0, gens)),
                GasRule::Fhp(r) => black_box(evolve(grid, r, boundary, 0, gens)),
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    (grid.len() as f64 * gens as f64) / median(&secs).unwrap_or(f64::NAN) / 1e6
}

/// One engine pass over the largest board's halo-augmented block:
/// `(p50 ms, million site-updates per second)`.
pub fn board_pass(spec: &SessionSpec, reps: usize, tr: &Tracer) -> Result<(f64, f64), String> {
    let (gr, gc) = spec.grid.unwrap_or((1, spec.shards));
    let blocks = partition2d_checked(spec.rows, spec.cols, gr, gc, spec.depth, spec.periodic)
        .map_err(|e| format!("partition: {e}"))?;
    let wrap = if gr == 1 && spec.periodic { spec.depth } else { 0 };
    let (rows, cols) = blocks
        .iter()
        .map(|b| (b.aug_height(wrap), b.aug_width()))
        .max_by_key(|(r, c)| r * c)
        .ok_or("no blocks")?;
    let block = SessionSpec {
        rows,
        cols,
        shards: 1,
        grid: None,
        periodic: false,
        link_bits: None,
        tier_bits: None,
        fault: None,
        ..spec.clone()
    };
    let err = |e: LatticeError| format!("board pass: {e}");
    let grid = seed_grid(&block).map_err(err)?;
    let rule = GasRule::from_spec(&block).map_err(err)?;
    let mut ms = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        let report =
            tr.span("sim.board_pass", None, i as u64, |_| match (&rule, spec.engine.as_str()) {
                (GasRule::Hpp(r), "wsa") => {
                    Pipeline::wide(spec.width, spec.depth).run(r, &grid, 0).map(|_| ())
                }
                (GasRule::Fhp(r), "wsa") => {
                    Pipeline::wide(spec.width, spec.depth).run(r, &grid, 0).map(|_| ())
                }
                (GasRule::Hpp(r), _) => {
                    SpaEngine::new(spec.slice_width, spec.depth).run(r, &grid, 0).map(|_| ())
                }
                (GasRule::Fhp(r), _) => {
                    SpaEngine::new(spec.slice_width, spec.depth).run(r, &grid, 0).map(|_| ())
                }
            });
        ms.push(ms_since(t));
        report.map_err(err)?;
    }
    let p50 = median(&ms).unwrap_or(f64::NAN);
    Ok((p50, (rows * cols * spec.depth) as f64 / p50 / 1e3))
}

/// What the store probe measured.
pub struct StoreProbe {
    checkpoint_ms: f64,
    bytes_per_commit: f64,
    commits: f64,
    failures: f64,
    load_ms: f64,
}

impl StoreProbe {
    /// Files the probe's values under their metric names.
    pub fn record(&self, m: &mut Measured) {
        m.layer.insert("store.checkpoint_ms_p50", self.checkpoint_ms);
        m.layer.insert("store.bytes_per_commit", self.bytes_per_commit);
        m.layer.insert("store.commits", self.commits);
        m.layer.insert("store.commit_failures", self.failures);
        m.layer.insert("store.load_ms", self.load_ms);
    }
}

/// Durable commits of `session` into a fresh disk store, then one
/// `load_latest` + `reassemble` of the newest snapshot.
pub fn store(
    session: &mut FarmSession<'static, u8>,
    name: &str,
    reps: usize,
    tr: &Tracer,
) -> Result<StoreProbe, String> {
    let err = |e: LatticeError| format!("store probe: {e}");
    let dir = ScratchDir::new(&format!("{name}-store-probe")).map_err(|e| e.to_string())?;
    let mut store =
        CheckpointStore::open(DiskBackend::open(dir.path()).map_err(err)?).map_err(err)?;
    let mut ms = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        tr.span("store.checkpoint", None, i as u64, |_| session.checkpoint(Some(&mut store)))
            .map_err(err)?;
        ms.push(ms_since(t));
    }
    let t = Instant::now();
    let (grid, _) = tr
        .span("store.load", None, 0, |_| {
            let snap = store
                .load_latest()?
                .ok_or_else(|| LatticeError::InvalidConfig("empty store".into()))?;
            reassemble::<u8>(&snap.snapshot)
        })
        .map_err(err)?;
    let load_ms = ms_since(t);
    if &grid != session.grid() {
        return Err("store probe: snapshot does not reassemble to the lattice".into());
    }
    Ok(StoreProbe {
        checkpoint_ms: median(&ms).unwrap_or(f64::NAN),
        bytes_per_commit: store.bytes_written() as f64 / store.commits().max(1) as f64,
        commits: store.commits() as f64,
        failures: store.commit_failures() as f64,
        load_ms,
    })
}

/// What the codec probe measured.
pub struct CodecProbe {
    encode_us: f64,
    decode_us: f64,
    region_bytes: f64,
}

impl CodecProbe {
    /// Files the probe's values under their metric names.
    pub fn record(&self, m: &mut Measured) {
        m.layer.insert("codec.encode_us_p50", self.encode_us);
        m.layer.insert("codec.decode_us_p50", self.decode_us);
        m.layer.insert("codec.region_bytes", self.region_bytes);
    }
}

/// The region window a query reads: the top-left corner, at most the
/// size of a `serve-durable` session.
pub fn region_window(spec: &SessionSpec) -> (usize, usize) {
    (spec.rows.min(64), spec.cols.min(128))
}

/// Encodes and decodes the frame mix of `serve-durable` (three steps to
/// one query, queries alternating region and observables) for a
/// session over `grid`.
pub fn codec(grid: &Grid<u8>, spec: &SessionSpec, reps: usize, tr: &Tracer) -> CodecProbe {
    let (rows, cols) = region_window(spec);
    let width = grid.shape().cols();
    let cells: Vec<u8> =
        (0..rows).flat_map(|r| grid.as_slice()[r * width..r * width + cols].to_vec()).collect();
    let session = "s0".to_string();
    let region = Response::Region {
        session: session.clone(),
        time: 64,
        row0: 0,
        col0: 0,
        rows,
        cols,
        cells,
    }
    .to_line();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for i in 0..(reps * 16) as u64 {
        let (request, response) = if i % QUERY_EVERY == QUERY_EVERY - 1 {
            let what = if (i / QUERY_EVERY).is_multiple_of(2) {
                Query::Region { row0: 0, col0: 0, rows, cols }
            } else {
                Query::Observables
            };
            let resp = match what {
                Query::Region { .. } => region.clone(),
                _ => Response::Observables {
                    session: session.clone(),
                    time: 64,
                    mass: 1000,
                    px: 3,
                    py: -2,
                    obstacles: 0,
                }
                .to_line(),
            };
            (Request::QueryReq { session: session.clone(), what }, resp)
        } else {
            let req = Request::Step {
                session: session.clone(),
                n: spec.depth as u64,
                id: Some(format!("c0r{i}")),
            };
            (req, Response::Stepped { session: session.clone(), time: 4 * i, passes: i }.to_line())
        };
        let t = Instant::now();
        let line = tr.span("codec.encode", None, i, |_| request.to_line());
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(line);
        let t = Instant::now();
        let back = tr.span("codec.decode", None, i, |_| Response::from_line(&response));
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(back.ok());
    }
    CodecProbe {
        encode_us: median(&enc).unwrap_or(f64::NAN),
        decode_us: median(&dec).unwrap_or(f64::NAN),
        region_bytes: region.len() as f64,
    }
}

/// What the transport probe and the daemon's `stats` reported.
pub struct DaemonProbe {
    rtt_ms: f64,
    stats: StatsFrame,
}

impl DaemonProbe {
    /// Files the probe's values under their metric names.
    pub fn record(&self, m: &mut Measured) {
        m.layer.insert("transport.rtt_ms_p50", self.rtt_ms);
        m.layer.insert("daemon.requests", self.stats.requests as f64);
        m.layer.insert("daemon.steps_served", self.stats.steps_served as f64);
    }
}

/// A `stats` request's reply.
pub fn stats(client: &mut Client) -> Result<StatsFrame, String> {
    match client.call(&Request::Stats { watch: 1 }.to_line()).map(|l| Response::from_line(&l)) {
        Ok(Ok(Response::Stats(frame))) => Ok(frame),
        other => Err(format!("stats: unexpected reply {other:?}")),
    }
}

/// `stats` round trips (no engine work) against a running daemon,
/// then one more for its counters.
pub fn rtt(client: &mut Client, reps: usize, tr: &Tracer) -> Result<DaemonProbe, String> {
    let line = Request::Stats { watch: 1 }.to_line();
    let mut ms = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        tr.span("transport.rtt", None, i as u64, |_| client.call(&line))
            .map_err(|e| format!("stats: {e}"))?;
        ms.push(ms_since(t));
    }
    Ok(DaemonProbe { rtt_ms: median(&ms).unwrap_or(f64::NAN), stats: stats(client)? })
}

/// [`rtt`] against a fresh, empty, memory-only daemon, for workloads
/// that run no daemon of their own.
pub fn rtt_daemon(reps: usize, tr: &Tracer) -> Result<DaemonProbe, String> {
    let config = DaemonConfig { addr: "127.0.0.1:0".into(), ..DaemonConfig::default() };
    let (addr, handle) = Daemon::spawn(&config).map_err(|e| format!("daemon: {e}"))?;
    let mut client = Client::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
    let probe = rtt(&mut client, reps, tr);
    crate::serve::shutdown(&mut client, handle)?;
    probe
}
