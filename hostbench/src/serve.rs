//! The `serve-durable` workload: an in-process daemon with a durable
//! store and `max_live = 2`, holding four small sessions, driven by two
//! closed-loop clients.

use crate::farm::farm_counts;
use crate::host::{self, ScratchDir};
use crate::probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Measured, Options, QUERY_EVERY, WINDOWS};
use lattice_core::{Grid, LatticeError};
use lattice_farm::FarmRecoveryConfig;
use lattice_serve::{
    build_farm, seed_grid, Client, Daemon, DaemonConfig, GasRule, Query, Request, Response,
    SessionSpec,
};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections driving the daemon (one per core).
const CLIENTS: usize = 2;
/// Sessions per client.
const PER_CLIENT: usize = 2;
/// Sessions the daemon keeps resident; the rest wait in the store.
const MAX_LIVE: usize = 2;

/// The four sessions: HPP and FHP-I alternate, so each client drives
/// one of each. Tori, so the gas stays on the lattice for the whole run.
pub fn sessions(opts: &Options) -> Vec<(String, SessionSpec)> {
    let (rows, cols) = if opts.smoke { (16, 32) } else { (64, 128) };
    (0..CLIENTS * PER_CLIENT)
        .map(|i| {
            let spec = SessionSpec {
                model: if i % 2 == 0 { "hpp" } else { "fhp1" }.into(),
                rows,
                cols,
                seed: opts.derive(10 + i as u64),
                shards: 2,
                engine: "wsa".into(),
                width: 2,
                depth: 4,
                periodic: true,
                ..SessionSpec::default()
            };
            (format!("s{i}"), spec)
        })
        .collect()
}

type Serving = JoinHandle<Result<(), LatticeError>>;

/// A running daemon with its store directory and an admin connection.
struct Live {
    addr: SocketAddr,
    handle: Serving,
    admin: Client,
    _dir: ScratchDir,
}

fn call(client: &mut Client, req: &Request) -> Result<Response, String> {
    let line = client.call(&req.to_line()).map_err(|e| format!("transport: {e}"))?;
    Response::from_line(&line).map_err(|e| format!("codec: {e}"))
}

/// Stops a daemon: `shutdown` (which evicts every live session to the
/// store) and a join of the serving thread.
pub fn shutdown(admin: &mut Client, handle: Serving) -> Result<(), String> {
    match call(admin, &Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("shutdown: unexpected reply {other:?}")),
    }
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))
}

fn start(specs: &[(String, SessionSpec)], rep: usize) -> Result<Live, String> {
    let dir =
        ScratchDir::new(&format!("serve-durable-{rep}")).map_err(|e| format!("store dir: {e}"))?;
    let config = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        checkpoint_dir: Some(dir.as_string()),
        max_live: MAX_LIVE,
        ..DaemonConfig::default()
    };
    let (addr, handle) = Daemon::spawn(&config).map_err(|e| format!("daemon: {e}"))?;
    let mut admin = Client::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
    for (name, spec) in specs {
        let req = Request::Create { session: name.clone(), spec: spec.clone() };
        match call(&mut admin, &req)? {
            Response::Created { admitted: true, .. } => {}
            other => return Err(format!("create {name}: {other:?}")),
        }
    }
    Ok(Live { addr, handle, admin, _dir: dir })
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    step_ms: Vec<f64>,
    /// Completion time (seconds into the timed phase) and site updates
    /// of each step.
    completed: Vec<(f64, f64)>,
    query_ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    /// Generation each of the client's sessions reached.
    times: Vec<u64>,
    /// Arrival time (seconds into the timed phase) of each reply, and
    /// the index of the session its request touched.
    touches: Vec<(f64, usize)>,
    region_bytes: usize,
}

/// One closed-loop client: alternate steps over its sessions, with a
/// query (region, then observables) as every fourth request.
fn drive(
    client: &mut Client,
    mine: &[(String, SessionSpec)],
    c: usize,
    start: Instant,
    budget: Duration,
    tr: &Tracer,
) -> ClientLog {
    let mut log = ClientLog { times: vec![0; mine.len()], ..ClientLog::default() };
    let (mut steps, mut queries) = (0usize, 0usize);
    let mut r = 0u64;
    while start.elapsed() < budget {
        let req_id = ((c as u64) << 32) | r;
        let is_query = r % QUERY_EVERY == QUERY_EVERY - 1;
        r += 1;
        let (s, request) = if is_query {
            let s = queries % mine.len();
            let spec = &mine[s].1;
            let what = if (queries / mine.len()).is_multiple_of(2) {
                let (rows, cols) = probe::region_window(spec);
                Query::Region { row0: 0, col0: 0, rows, cols }
            } else {
                Query::Observables
            };
            queries += 1;
            (s, Request::QueryReq { session: mine[s].0.clone(), what })
        } else {
            let s = steps % mine.len();
            steps += 1;
            let id = Some(format!("c{c}r{r}"));
            (s, Request::Step { session: mine[s].0.clone(), n: mine[s].1.depth as u64, id })
        };
        log.attempted += 1;
        let t = Instant::now();
        let root = tr.begin(if is_query { "client.query" } else { "client.step" }, None, req_id);
        let line = tr.span("codec.encode", root, req_id, |_| request.to_line());
        let reply = tr.span("transport.call", root, req_id, |_| client.call(&line));
        let decoded = reply.map(|l| {
            let len = l.len();
            (tr.span("codec.decode", root, req_id, |_| Response::from_line(&l)), len)
        });
        tr.end(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if decoded.is_ok() {
            log.touches.push((start.elapsed().as_secs_f64(), c * PER_CLIENT + s));
        }
        let expect = log.times[s];
        let depth = mine[s].1.depth as u64;
        match decoded {
            Ok((Ok(Response::Stepped { time, .. }), _)) if !is_query && time == expect + depth => {
                log.times[s] = time;
                log.step_ms.push(ms);
                let sites = (mine[s].1.rows * mine[s].1.cols) as f64;
                log.completed.push((start.elapsed().as_secs_f64(), sites * depth as f64));
            }
            Ok((Ok(Response::Region { time, rows, cols, cells, .. }), len))
                if is_query && time == expect && cells.len() == rows * cols =>
            {
                log.region_bytes = log.region_bytes.max(len);
                log.query_ms.push(ms);
            }
            Ok((Ok(Response::Observables { time, .. }), _)) if is_query && time == expect => {
                log.query_ms.push(ms);
            }
            Err(e) => {
                // The connection is unusable after a transport error.
                log.errors.push(format!("client {c} request {r}: {e}"));
                break;
            }
            other => log.errors.push(format!("client {c} request {r}: {other:?}")),
        }
    }
    log
}

/// Restores a daemon holding at most `cap` sessions resident makes
/// when it serves `touches` (session indices, in order) under LRU
/// eviction, starting with `resident` live (least recent first).
fn lru_restores(resident: &[usize], cap: usize, touches: &[usize]) -> u64 {
    let mut live = resident.to_vec();
    let mut restores = 0;
    for &s in touches {
        match live.iter().position(|&x| x == s) {
            Some(i) => {
                live.remove(i);
            }
            None => {
                restores += 1;
                if live.len() == cap {
                    live.remove(0);
                }
            }
        }
        live.push(s);
    }
    restores
}

/// The daemon's whole-lattice region for `name`.
fn region(admin: &mut Client, name: &str, spec: &SessionSpec) -> Result<(u64, Vec<u8>), String> {
    let what = Query::Region { row0: 0, col0: 0, rows: spec.rows, cols: spec.cols };
    match call(admin, &Request::QueryReq { session: name.into(), what })? {
        Response::Region { time, cells, .. } => Ok((time, cells)),
        other => Err(format!("region {name}: {other:?}")),
    }
}

/// A one-shot farm run of `spec` for `gens` generations — the oracle a
/// daemon session must equal.
fn direct(spec: &SessionSpec, gens: u64) -> Result<Grid<u8>, String> {
    let err = |e: LatticeError| format!("direct run: {e}");
    let grid = seed_grid(spec).map_err(err)?;
    let farm = build_farm(spec).map_err(err)?;
    let report = match GasRule::from_spec(spec).map_err(err)? {
        GasRule::Hpp(r) => farm.run(&r, &grid, 0, gens),
        GasRule::Fhp(r) => farm.run(&r, &grid, 0, gens),
    };
    Ok(report.map_err(err)?.grid().clone())
}

/// Session 0 re-run in process for the fixed prefix: the engine work
/// inside one daemon step, without transport, lock or store. Its
/// counters repeat exactly, unlike the daemon's, whose step count
/// depends on host speed.
struct Shadow {
    rule: GasRule,
    grid0: Grid<u8>,
    session: lattice_farm::FarmSession<'static, u8>,
    step_ms: Vec<f64>,
}

fn shadow(spec: &SessionSpec, steps: u64, tr: &Tracer) -> Result<Shadow, String> {
    let err = |e: LatticeError| format!("shadow session: {e}");
    let rule = GasRule::from_spec(spec).map_err(err)?;
    let grid0 = seed_grid(spec).map_err(err)?;
    let farm = build_farm(spec).map_err(err)?;
    let mut session = farm
        .session_owned::<u8>(&grid0, 0, None, &FarmRecoveryConfig::default(), None)
        .map_err(err)?;
    let mut step_ms = Vec::new();
    for i in 0..steps {
        let t = Instant::now();
        tr.span("daemon.shadow_step", None, i, |_| rule.step(&mut session, spec.depth as u64))
            .map_err(err)?;
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Shadow { rule, grid0, session, step_ms })
}

/// Runs the daemon workload once.
pub fn run(opts: &Options, tr: &Tracer) -> Result<Measured, String> {
    let specs = sessions(opts);
    let mut m = Measured::default();
    let mut live: Option<(Live, Vec<Client>)> = None;
    while opts.another_setup(m.setup_s.len(), m.setup_s.iter().sum()) {
        let rep = m.setup_s.len();
        if let Some((mut old, _)) = live.take() {
            shutdown(&mut old.admin, old.handle)?;
        }
        let t = Instant::now();
        let up = tr.span("setup", None, 0, |_| -> Result<_, String> {
            let l = start(&specs, rep)?;
            let clients = (0..CLIENTS)
                .map(|_| Client::connect(&l.addr.to_string()).map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((l, clients))
        })?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        live = Some(up);
    }
    let (mut l, mut clients) = live.expect("at least one set-up repetition");

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (logs, heap) = host::heap_peaks(budget, WINDOWS as u32, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(specs.chunks(PER_CLIENT))
                .enumerate()
                .map(|(c, (client, mine))| {
                    scope.spawn(move || drive(client, mine, c, start, budget, tr))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    m.timed_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    m.peak_heap_mb = median(&heap).unwrap_or(f64::NAN);

    let mut times = Vec::new();
    let mut touches = Vec::new();
    let mut region_bytes = 0;
    for log in logs {
        touches.extend(log.touches);
        m.step_ms.extend(log.step_ms);
        m.completed.extend(log.completed);
        m.query_ms.extend(log.query_ms);
        m.attempted += log.attempted;
        m.failed += log.errors.len() as u64;
        m.errors.extend(log.errors);
        region_bytes = region_bytes.max(log.region_bytes);
        times.extend(log.times);
    }
    // The daemon serves one request at a time under its state lock, so
    // reply order stands in for service order (replies to the two
    // clients may cross in the transport, so the count is an estimate).
    // Creating the sessions in turn left the last `MAX_LIVE` resident.
    touches.sort_by(|a, b| a.0.total_cmp(&b.0));
    let order: Vec<usize> = touches.iter().map(|&(_, s)| s).collect();
    let resident: Vec<usize> = (specs.len() - MAX_LIVE..specs.len()).collect();
    m.layer.insert("daemon.restores", lru_restores(&resident, MAX_LIVE, &order) as f64);

    // Modeled throughput from each session's `query report`; every
    // session's ratio is fixed by its geometry, so their mean repeats.
    let (mut per_tick, mut stretch) = (0.0, 0.0);
    for (name, spec) in &specs {
        let req = Request::QueryReq { session: name.clone(), what: Query::Report };
        match m.outcome(call(&mut l.admin, &req), "query report") {
            Some(Response::Report(r)) => {
                let mt = r.machine_ticks as f64;
                per_tick += (r.time * (spec.rows * spec.cols) as u64) as f64 / mt;
                stretch += mt / (mt - r.retransmit_ticks as f64);
            }
            other => m.check(false, || format!("report {name}: {other:?}")),
        }
    }
    m.modeled_updates_per_tick = per_tick / specs.len() as f64;
    m.modeled_tick_stretch = stretch / specs.len() as f64;

    // Correctness gate (untimed): each session's lattice equals a
    // direct farm run of the same spec and generation count.
    for ((name, spec), want) in specs.iter().zip(&times) {
        let got = region(&mut l.admin, name, spec);
        let Some((time, cells)) = m.outcome(got, "final region") else { continue };
        let oracle = direct(spec, time)?;
        m.check(time == *want && cells == oracle.as_slice(), || {
            format!(
                "session {name} at generation {time} (client saw {want}) differs from a direct run"
            )
        });
    }

    let mut sh = shadow(&specs[0].1, opts.prefix_steps(), tr)?;
    m.counts = farm_counts(&sh.session.report(), sh.session.recovery());
    m.counts.remove("modeled.updates_per_tick");
    m.counts.remove("modeled.tick_stretch");
    if tr.enabled() {
        probes(&specs[0].1, &mut sh, &mut l, opts, tr, &mut m, region_bytes)?;
    }
    drop(clients);
    shutdown(&mut l.admin, l.handle)?;
    Ok(m)
}

/// Per-layer probes of a traced daemon run.
fn probes(
    spec: &SessionSpec,
    sh: &mut Shadow,
    l: &mut Live,
    opts: &Options,
    tr: &Tracer,
    m: &mut Measured,
    region_bytes: usize,
) -> Result<(), String> {
    let reps = opts.probe_reps();
    probe::rtt(&mut l.admin, reps, tr)?.record(m);
    let spans = tr.spans();
    let us = |name: &str| {
        median(&crate::trace::durations_ms(&spans, name)).map_or(f64::NAN, |v| v * 1e3)
    };
    m.layer.insert("codec.encode_us_p50", us("codec.encode"));
    m.layer.insert("codec.decode_us_p50", us("codec.decode"));
    m.layer.insert("codec.region_bytes", region_bytes as f64);

    let work = median(&sh.step_ms).unwrap_or(f64::NAN);
    m.layer.insert("daemon.step_work_ms_p50", work);
    m.layer
        .insert("gas.evolve_msites_per_s", probe::evolve_rate(&sh.rule, &sh.grid0, spec, reps, tr));
    let (pass_ms, pass_rate) = probe::board_pass(spec, reps, tr)?;
    m.layer.insert("sim.board_pass_ms", pass_ms);
    m.layer.insert("sim.board_msites_per_s", pass_rate);
    // A daemon step is one pass (`n = depth`).
    m.layer.insert("farm.overhead_ms", work - pass_ms);
    probe::store(&mut sh.session, "serve-durable", reps, tr)?.record(m);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::lru_restores;

    #[test]
    fn lru_replay_counts_restores_of_evicted_sessions() {
        // Sessions 2 and 3 resident. Two clients alternating over
        // {0, 1} and {2, 3} miss on every touch; 0 touched again right
        // after 1 is still resident.
        assert_eq!(lru_restores(&[2, 3], 2, &[0, 2, 1, 3, 0, 1, 0]), 6);
        assert_eq!(lru_restores(&[2, 3], 2, &[3, 2, 3, 2]), 0);
        assert_eq!(lru_restores(&[2, 3], 2, &[]), 0);
        // Room for every session: each is restored once at most.
        assert_eq!(lru_restores(&[], 4, &[0, 1, 2, 3, 0, 1, 2, 3]), 4);
    }
}
