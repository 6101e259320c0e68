//! Short end-to-end runs of every workload on tiny lattices: each must
//! pass its correctness gate, and a traced run must yield every
//! per-layer metric with counters identical to the untraced run.

use lattice_hostbench::trace::Tracer;
use lattice_hostbench::{per_layer, run, same_counts, Options, Workload, END_TO_END, PER_LAYER};
use lattice_serve::json::{self, Value};

fn smoke(workload: Workload) -> Options {
    Options { workload, seed: 11, seconds: 3.0, smoke: true }
}

#[test]
fn every_workload_runs_clean_and_traces_every_layer() {
    std::fs::create_dir_all(lattice_hostbench::host::OUT_DIR).unwrap();
    for workload in Workload::ALL {
        let opts = smoke(workload);
        let plain = run(&opts, &Tracer::new(false)).unwrap();
        assert_eq!(plain.failed, 0, "{}: {:?}", workload.name(), plain.errors);
        assert!(!plain.step_ms.is_empty() && !plain.query_ms.is_empty(), "{}", workload.name());
        assert!(plain.modeled_updates_per_tick > 0.0 && plain.modeled_tick_stretch >= 1.0);
        let tracer = Tracer::new(true);
        let traced = run(&opts, &tracer).unwrap();
        assert_eq!(traced.failed, 0, "{}: {:?}", workload.name(), traced.errors);
        assert!(same_counts(&plain, &traced), "{}: counters moved under tracing", workload.name());
        assert!(!tracer.spans().is_empty());
        let mut traced = traced;
        traced.layer.insert("trace.spans", tracer.spans().len() as f64);
        match per_layer(workload, &plain, &traced) {
            Ok(layers) => {
                assert_eq!(layers.len(), PER_LAYER.len());
                assert_eq!(layers["trace.counts_match"].0, 1.0);
            }
            // Three seconds of daemon round trips are too few for a p95.
            Err(e) => assert!(
                workload == Workload::ServeDurable && e.contains("p95 refused"),
                "{}: {e}",
                workload.name()
            ),
        }
    }
}

#[test]
fn farm_ladder_exercises_the_recovery_ladder() {
    let m = run(&smoke(Workload::FarmLadder), &Tracer::new(false)).unwrap();
    assert_eq!(m.failed, 0, "{:?}", m.errors);
    assert!(m.counts["store.commits"] > 0.0);
    assert!(m.counts["farm.overlapped_ticks"] > 0.0, "staging should cross passes within a step");
    assert!(m.modeled_tick_stretch > 1.0, "link transients should cost retransmit ticks");
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let bench = json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Arr(rows)) = bench.get(key) else { panic!("{key} missing") };
        rows.iter()
            .map(|r| {
                let field = |f: &str| r.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
}
