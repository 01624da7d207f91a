//! Tiny-size runs of both workloads: every run is correct, reports exactly
//! the metrics `BENCHMARK.json` lists, and repeats its exact counts for one
//! seed.

use perfbench::report::Outcome;
use perfbench::{run, RunConfig, Size, Workload, END_TO_END, EXACT_COUNTS, PER_LAYER};
use std::path::PathBuf;
use std::sync::Mutex;

/// Runs read process-wide counters (`/proc/self/io`, `VmHWM`), so the tests
/// of this file take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let _turn = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        work_dir,
    };
    let outcome = run(&cfg).expect("the run completes");
    assert!(outcome.correct(), "{}", outcome.render_human());
    assert_eq!(outcome.error_rate(), 0.0);
    outcome
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn reroot_sparse_reports_every_end_to_end_metric() {
    let o = tiny(Workload::RerootSparse, 3, false, "rs-e2e");
    assert_eq!(names(&o), END_TO_END.map(|(n, _)| n));
    assert!(
        o.metrics.iter().all(|m| m.value > 0.0),
        "{}",
        o.render_human()
    );
}

#[test]
fn serve_durable_reports_every_end_to_end_metric() {
    let o = tiny(Workload::ServeDurable, 3, false, "sd-e2e");
    assert_eq!(names(&o), END_TO_END.map(|(n, _)| n));
    assert!(
        o.metrics.iter().all(|m| m.value > 0.0),
        "{}",
        o.render_human()
    );
}

fn exact_counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    EXACT_COUNTS
        .iter()
        .map(|&name| (name, o.get(name).expect("exact count reported")))
        .collect()
}

#[test]
fn traced_runs_repeat_their_counts_for_one_seed() {
    for (workload, tag) in [
        (Workload::RerootSparse, "rs"),
        (Workload::ServeDurable, "sd"),
    ] {
        let a = tiny(workload, 11, true, &format!("{tag}-trace-a"));
        let b = tiny(workload, 11, true, &format!("{tag}-trace-b"));
        assert_eq!(names(&a), PER_LAYER.map(|(n, _)| n));
        assert_eq!(exact_counts(&a), exact_counts(&b), "{workload:?}");
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = open + rest[open..].find('"').expect("closed string");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), owned(&END_TO_END));
    assert_eq!(section("per_layer"), owned(&PER_LAYER));
}
