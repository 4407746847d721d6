//! Self-tests of the benchmark at tiny sizes: every workload runs and
//! matches its reference, the printed metric names and units match
//! `BENCHMARK.json`, count metrics repeat exactly, and the service mix
//! hits the cache exactly as often as its generator planned.

use mpiq_bench::jsonlint::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Every workload the binary runs. BENCHMARK.json lists all but
/// `collectives`, whose timings follow the host's cache load too closely
/// to gate on a shared VM.
const WORKLOADS: [&str; 4] = ["paper-figs", "incast", "collectives", "service-mix"];
const GATED: [&str; 3] = ["paper-figs", "incast", "service-mix"];

/// Run one tiny workload and return the parsed result line.
fn run(workload: &str, seed: u64, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            trace,
            "--tiny",
            "--trace-dir",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    jsonlint::parse(last).expect("result line is JSON")
}

/// `name -> (value, unit)` of a result's metrics.
fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(members)) = result.get("metrics") else {
        panic!("no metrics object")
    };
    members
        .iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = v
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (k.clone(), (value, unit))
        })
        .collect()
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    jsonlint::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `name -> unit` of one metric list in BENCHMARK.json.
fn declared(key: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            (
                name.to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, GATED);
}

#[test]
fn every_workload_runs_tiny_with_the_declared_metrics() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(key);
        for w in WORKLOADS {
            let r = run(w, 3, trace);
            assert!(
                matches!(r.get("correct"), Some(Json::Bool(true))),
                "{w}: not correct"
            );
            assert_eq!(
                r.get("failed").and_then(Json::as_u64),
                Some(0),
                "{w}: failed ops"
            );
            assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let got: BTreeMap<String, String> = metrics(&r)
                .into_iter()
                .map(|(k, (_, unit))| (k, unit))
                .collect();
            assert_eq!(
                got, want,
                "{w} --trace {trace}: metric names or units differ"
            );
        }
    }
}

#[test]
fn counts_repeat_exactly() {
    for w in WORKLOADS {
        let runs = [run(w, 5, "1"), run(w, 5, "1"), run(w, 6, "1")];
        let counts: Vec<BTreeMap<String, f64>> = runs
            .iter()
            .map(|r| {
                metrics(r)
                    .into_iter()
                    .filter(|(_, (_, unit))| unit == "count" || unit == "ratio")
                    .filter(|(name, _)| name != "dessim.par_speedup")
                    .map(|(name, (v, _))| (name, v))
                    .collect()
            })
            .collect();
        assert!(counts[0].contains_key("dessim.events"));
        assert_eq!(
            counts[0], counts[1],
            "{w}: counts differ between identical runs"
        );
        assert_eq!(counts[0], counts[2], "{w}: counts differ between seeds");
    }
}

#[test]
fn service_hit_ratio_equals_planned_repeat_share() {
    // The tiny pool holds 14 specs; a 0.6 repeat share plans 21 repeats
    // in a 35-request stream.
    let m = metrics(&run("service-mix", 7, "1"));
    assert_eq!(m["service.hit_ratio"].0, 21.0 / 35.0);
}

#[test]
fn span_trace_is_valid_json() {
    run("incast", 8, "1");
    let path = format!("{}/trace-incast-8.json", env!("CARGO_TARGET_TMPDIR"));
    let text = std::fs::read_to_string(&path).expect("trace written");
    jsonlint::validate(&text).expect("chrome trace is JSON");
    assert!(
        text.contains("\"cat\":\"mpi\""),
        "layer pass spans recorded"
    );
}

#[test]
fn reference_copies_match_the_committed_goldens() {
    for file in ["fig5.csv", "fig6.csv", "table4.txt", "table5.txt"] {
        let dir = env!("CARGO_MANIFEST_DIR");
        let copy = std::fs::read(format!("{dir}/reference/{file}")).expect("reference copy");
        let golden = std::fs::read(format!("{dir}/../results/{file}")).expect("golden");
        assert_eq!(copy, golden, "reference/{file} differs from results/{file}");
    }
}
