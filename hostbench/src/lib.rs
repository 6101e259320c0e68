//! Host-time benchmark of the lattice engine stack.
//!
//! Three workloads drive the public library API from one process:
//! `farm-batch` (fault-free sharded passes), `farm-ladder` (exchange,
//! recovery ladder and durable commits) and `serve-durable` (an
//! in-process daemon under two closed-loop clients). An untraced run
//! yields the end-to-end metrics; a traced run (`--trace 1`) repeats
//! the workload with spans around each call into a layer and yields
//! the per-layer metrics. Host time (wall clock) and modeled time
//! (machine ticks of the simulated farm) are reported under separate
//! names and never mixed.

#![deny(unsafe_code)]

pub mod farm;
pub mod host;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free HPP on a two-board WSA farm.
    FarmBatch,
    /// FHP-I on a 2×1 SPA torus with link faults and durable commits.
    FarmLadder,
    /// An in-process daemon with durable, evicting sessions.
    ServeDurable,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::FarmBatch, Workload::FarmLadder, Workload::ServeDurable];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmBatch => "farm-batch",
            Workload::FarmLadder => "farm-ladder",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny lattices and few repetitions, for the test suite.
    pub smoke: bool,
}

impl Options {
    /// Whether set-up runs again after `done` repetitions that took
    /// `spent_s` seconds in all (their median is reported): at least 9
    /// times (2 in smoke mode), and on until a quarter second is spent
    /// or 99 have run, since a set-up of a few milliseconds needs many
    /// samples for a steady median.
    pub fn another_setup(&self, done: usize, spent_s: f64) -> bool {
        if self.smoke {
            return done < 2;
        }
        done < 9 || (done < 99 && spent_s < 0.25)
    }

    /// Steps after which the deterministic counters are read, so they
    /// repeat exactly whatever the host speed.
    pub fn prefix_steps(&self) -> u64 {
        if self.smoke {
            6
        } else {
            64
        }
    }

    /// Repetitions of each layer probe in a traced run.
    pub fn probe_reps(&self) -> usize {
        if self.smoke {
            3
        } else {
            15
        }
    }

    /// A seed for input `salt`, derived from the benchmark seed
    /// (splitmix64), so each generated input varies with `--seed`. It
    /// fits in 53 bits, the exact-integer range of the wire format.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut z = self.seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) >> 11
    }
}

/// Every `QUERY_EVERY`th operation of a run is a read: a `query` on the
/// daemon, and on the farm workloads the in-process work of `query
/// observables` (mass and momentum of the current lattice).
pub const QUERY_EVERY: u64 = 4;

/// What one pass of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each timed step, ms.
    pub step_ms: Vec<f64>,
    /// Latency of each timed query, ms.
    pub query_ms: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Each completed step of the timed phase: seconds since the phase
    /// began, and the useful site updates it made.
    pub completed: Vec<(f64, f64)>,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong data.
    pub failed: u64,
    /// Process resident-set high-water mark after the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Live-heap high-water mark after the timed phase, MiB.
    pub peak_heap_mb: f64,
    /// Modeled useful site updates per machine tick.
    pub modeled_updates_per_tick: f64,
    /// Modeled machine ticks over machine ticks without retransmission.
    pub modeled_tick_stretch: f64,
    /// Counters that must repeat exactly for a given seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer values (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Descriptions of every failed operation or check.
    pub errors: Vec<String>,
}

/// Slices of the timed phase over which throughput is taken.
pub const WINDOWS: usize = 10;

impl Measured {
    /// Throughput as the median over [`WINDOWS`] equal slices of the
    /// timed phase of `weight` summed over the steps completed in each
    /// slice, per second — a burst of host contention moves one slice,
    /// not the result.
    pub fn rate(&self, weight: impl Fn(f64) -> f64) -> f64 {
        let width = self.timed_s / WINDOWS as f64;
        let mut sums = [0.0; WINDOWS];
        for &(at, updates) in &self.completed {
            sums[((at / width) as usize).min(WINDOWS - 1)] += weight(updates);
        }
        stats::median(&sums.map(|s| s / width)).unwrap_or(f64::NAN)
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Records one operation's outcome.
    pub fn outcome<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Runs one pass of `opts.workload`, traced or not.
pub fn run(opts: &Options, tracer: &trace::Tracer) -> Result<Measured, String> {
    match opts.workload {
        Workload::FarmBatch => farm::run(&farm::FarmWorkload::batch(opts), opts, tracer),
        Workload::FarmLadder => farm::run(&farm::FarmWorkload::ladder(opts), opts, tracer),
        Workload::ServeDurable => serve::run(opts, tracer),
    }
}

/// A metric as printed: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics, with units, every untraced run prints.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_msites_per_s", "Msites/s"),
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("peak_heap_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("modeled_updates_per_tick", "sites/tick"),
    ("modeled_tick_stretch", "ratio"),
];

/// The per-layer metrics, with units, every traced run prints.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("host.peak_rss_mb", "MiB"),
    ("host.step_ms_p95", "ms"),
    ("gas.evolve_msites_per_s", "Msites/s"),
    ("sim.board_pass_ms", "ms"),
    ("sim.board_msites_per_s", "Msites/s"),
    ("farm.overhead_ms", "ms"),
    ("farm.redundancy", "ratio"),
    ("farm.machine_ticks", "ticks"),
    ("farm.halo_bits", "bits"),
    ("farm.overlapped_ticks", "ticks"),
    ("farm.detected", "count"),
    ("farm.retransmits", "count"),
    ("farm.local_rollbacks", "count"),
    ("farm.global_rollbacks", "count"),
    ("farm.boards_retired", "count"),
    ("farm.recovery_cost", "ratio"),
    ("store.checkpoint_ms_p50", "ms"),
    ("store.bytes_per_commit", "bytes"),
    ("store.commits", "count"),
    ("store.commit_failures", "count"),
    ("store.load_ms", "ms"),
    ("codec.encode_us_p50", "us"),
    ("codec.decode_us_p50", "us"),
    ("codec.region_bytes", "bytes"),
    ("transport.rtt_ms_p50", "ms"),
    ("daemon.step_work_ms_p50", "ms"),
    ("daemon.residual_ms_p50", "ms"),
    ("daemon.requests", "count"),
    ("daemon.steps_served", "count"),
    ("daemon.restores", "count"),
    ("trace.step_ms_p50_delta", "ms"),
    ("trace.host_msites_delta_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.counts_match", "bool"),
];

/// Picks `names` out of `values`, attaching units; a missing name is an
/// error, so every run prints the full table.
fn table(names: &[(&str, &'static str)], values: &BTreeMap<&str, f64>) -> Result<Metrics, String> {
    names
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name.to_string(), (*v, unit))),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// A tail percentile of the step latency, or the reason it is refused.
fn step_tail(step_ms: &[f64], q: usize) -> Result<f64, String> {
    stats::percentile(step_ms, q).ok_or_else(|| {
        format!(
            "step_ms_p{q} refused: {} step samples leave fewer than {} beyond it",
            step_ms.len(),
            stats::TAIL_SAMPLES
        )
    })
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let med =
        |xs: &[f64], what: &str| stats::median(xs).ok_or_else(|| format!("no {what} samples"));
    let values = BTreeMap::from([
        ("setup_s", med(&m.setup_s, "set-up")?),
        ("host_msites_per_s", m.rate(|updates| updates) / 1e6),
        ("steps_per_s", m.rate(|_| 1.0)),
        ("step_ms_p50", med(&m.step_ms, "step")?),
        ("query_ms_p50", med(&m.query_ms, "query")?),
        ("peak_heap_mb", m.peak_heap_mb),
        ("ok_frac", (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64),
        ("modeled_updates_per_tick", m.modeled_updates_per_tick),
        ("modeled_tick_stretch", m.modeled_tick_stretch),
    ]);
    table(&END_TO_END, &values)
}

/// The per-layer metrics of a traced pass, with the tracing overhead
/// measured against the untraced pass `plain` of the same inputs.
pub fn per_layer(
    workload: Workload,
    plain: &Measured,
    traced: &Measured,
) -> Result<Metrics, String> {
    let mut values: BTreeMap<&str, f64> =
        traced.layer.iter().chain(&traced.counts).map(|(k, v)| (*k, *v)).collect();
    let get = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    let p50 = |m: &Measured| stats::median(&m.step_ms).unwrap_or(f64::NAN);
    let rate = |m: &Measured| m.rate(|updates| updates);
    // Only the daemon's step has a transport and a lock in its path.
    let residual = match workload {
        Workload::ServeDurable => {
            p50(plain) - get("transport.rtt_ms_p50") - get("daemon.step_work_ms_p50")
        }
        _ => 0.0,
    };
    values.insert("host.peak_rss_mb", traced.peak_rss_mb);
    // Both passes step the same inputs; pooled, they hold enough
    // samples for a p95 even though each ran half the time.
    let pooled: Vec<f64> = plain.step_ms.iter().chain(&traced.step_ms).copied().collect();
    values.insert("host.step_ms_p95", step_tail(&pooled, 95)?);
    values.insert("daemon.residual_ms_p50", residual);
    values.insert("trace.step_ms_p50_delta", p50(traced) - p50(plain));
    values.insert("trace.host_msites_delta_frac", rate(traced) / rate(plain) - 1.0);
    values.insert("trace.counts_match", f64::from(u8::from(same_counts(plain, traced))));
    table(&PER_LAYER, &values)
}

/// Whether two passes of the same inputs agree on every counter and
/// modeled figure — tracing must not change what the program does.
pub fn same_counts(a: &Measured, b: &Measured) -> bool {
    a.counts == b.counts
        && a.modeled_updates_per_tick == b.modeled_updates_per_tick
        && a.modeled_tick_stretch == b.modeled_tick_stretch
}

/// Renders the result line the harness reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    use lattice_serve::json::Value;
    let metrics = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = Value::Obj(vec![
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str((*unit).into())),
            ]);
            (name.clone(), v)
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::num_u64(attempted)),
        ("failed".into(), Value::num_u64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_ignores_a_burst_in_one_slice() {
        // 10 s, one step of 100 updates every 0.1 s, except that slice 3
        // completes nothing (a stall) and slice 7 completes triple.
        let mut m = Measured { timed_s: 10.0, ..Measured::default() };
        for i in 0..100 {
            let at = 0.05 + 0.1 * f64::from(i);
            let n = match at as usize {
                3 => 0,
                7 => 3,
                _ => 1,
            };
            for _ in 0..n {
                m.completed.push((at, 100.0));
            }
        }
        assert_eq!(m.rate(|u| u), 1000.0);
        assert_eq!(m.rate(|_| 1.0), 10.0);
    }
}
