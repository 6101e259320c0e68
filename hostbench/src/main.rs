//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any correctness check fails, 2 on bad
//! arguments or a run that could not be measured.

use lattice_hostbench::host::{self, OUT_DIR};
use lattice_hostbench::trace::{self, Tracer};
use lattice_hostbench::{end_to_end, per_layer, result_line, run, same_counts, Options, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: hostbench --workload <farm-batch|farm-ladder|serve-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        smoke: false,
    };
    Ok((opts, trace.ok_or("--trace is required")?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, traced) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("hostbench: {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "hostbench: {} seed {} {}s trace {} | nproc {} | cpu {} | store fs {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(traced),
        host::nproc(),
        host::cpu_model(),
        host::fs_type(std::path::Path::new(OUT_DIR)),
    );
    match measure(&opts, traced) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and renders the result line. A traced run splits
/// its time between an untraced and a traced pass of the same inputs,
/// so the tracing overhead is measured within one process.
fn measure(opts: &Options, traced: bool) -> Result<(bool, String), String> {
    let half = Options { seconds: opts.seconds / 2.0, ..*opts };
    let opts = if traced { &half } else { opts };
    let plain = run(opts, &Tracer::new(false))?;
    let report = |m: &lattice_hostbench::Measured| {
        for e in &m.errors {
            eprintln!("hostbench: FAILED {e}");
        }
    };
    report(&plain);
    if !traced {
        let metrics = end_to_end(&plain)?;
        for (name, (v, unit)) in &metrics {
            eprintln!("  {name:<26} {v:>14.4} {unit}");
        }
        let correct = plain.failed == 0;
        return Ok((correct, result_line(correct, plain.attempted, plain.failed, &metrics)));
    }
    let tracer = Tracer::new(true);
    let mut traced_run = run(opts, &tracer)?;
    report(&traced_run);
    let spans = tracer.spans();
    traced_run.layer.insert("trace.spans", spans.len() as f64);
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", opts.workload.name(), opts.seed);
    std::fs::write(&path, trace::to_json(&spans).render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("hostbench: {} spans written to {path}", spans.len());
    match (end_to_end(&plain), end_to_end(&traced_run)) {
        (Ok(a), Ok(b)) => {
            eprintln!("  {:<26} {:>14} {:>14}", "tracing overhead", "untraced", "traced");
            for (name, (v, unit)) in &a {
                eprintln!("  {name:<26} {v:>14.4} {:>14.4} {unit}", b[name].0);
            }
        }
        (Err(e), _) | (_, Err(e)) => eprintln!("hostbench: no tracing-overhead table: {e}"),
    }
    let metrics = per_layer(opts.workload, &plain, &traced_run)?;
    for (name, (v, unit)) in &metrics {
        eprintln!("  {name:<30} {v:>14.4} {unit}");
    }
    let counts_match = same_counts(&plain, &traced_run);
    if !counts_match {
        eprintln!("hostbench: FAILED counters differ between untraced and traced runs");
    }
    let attempted = plain.attempted + traced_run.attempted + 1;
    let failed = plain.failed + traced_run.failed + u64::from(!counts_match);
    let correct = failed == 0;
    Ok((correct, result_line(correct, attempted, failed, &metrics)))
}
