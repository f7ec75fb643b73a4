//! Runs the real binary in `--quick` mode and holds its output, the metric
//! registry and `BENCHMARK.json` to one another.

use std::path::PathBuf;
use std::process::Command;

use ssbench::registry::{END_TO_END, PER_LAYER};
use util::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_ssbench");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.field("name").unwrap().as_str().unwrap().to_owned())
        .collect()
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.field(key).unwrap().as_str().unwrap()
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let bm = benchmark_json();
    let end_to_end = bm.field("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (m, &(name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(str_field(m, "name"), name);
        assert_eq!(str_field(m, "unit"), unit, "{name}");
        assert_eq!(str_field(m, "better"), better.as_str(), "{name}");
        assert_eq!(m.field("bound").unwrap().as_f64(), Some(bound), "{name}");
    }
    let per_layer = bm.field("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (m, &(name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(str_field(m, "name"), name);
        assert_eq!(str_field(m, "unit"), unit, "{name}");
        assert_eq!(str_field(m, "better"), better.as_str(), "{name}");
    }
    assert_eq!(
        names(bm.field("workloads").unwrap()),
        ssbench::workloads::NAMES
    );
}

#[test]
fn quick_run_reports_every_metric_of_every_workload() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let status = Command::new(BIN)
        .args(["--quick", "--reps", "2", "--out"])
        .arg(&out)
        .status()
        .expect("ssbench starts");
    assert!(status.success(), "ssbench --quick failed: {status}");

    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let results = Json::parse(&results).expect("results.json parses");
    let bm = benchmark_json();
    for workload in names(bm.field("workloads").unwrap()) {
        let w = results
            .field("workloads")
            .unwrap()
            .field(&workload)
            .unwrap_or_else(|_| panic!("results.json has no workload `{workload}`"));
        assert_eq!(
            w.field("correct").unwrap().as_bool(),
            Some(true),
            "{workload}"
        );
        for section in ["end_to_end", "per_layer"] {
            for metric in names(bm.field(section).unwrap()) {
                let value = w
                    .field(section)
                    .unwrap()
                    .field(&metric)
                    .unwrap_or_else(|_| panic!("{workload}: no {section} metric `{metric}`"))
                    .field("value")
                    .unwrap()
                    .as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {metric} = {value:?} is not a finite number"
                );
                if metric == "fail_ratio" {
                    assert_eq!(value, Some(0.0), "{workload}: downloads failed");
                }
            }
        }
    }

    let trace = std::fs::read_to_string(out.join("trace.json")).expect("trace.json written");
    let trace = Json::parse(&trace).expect("trace.json parses");
    let spans = trace.as_arr().expect("trace.json is a list of spans");
    for name in [
        "workload",
        "build",
        "run",
        "slice",
        "collect",
        "kernel.xia-addr.sha1",
    ] {
        assert!(
            spans.iter().any(|s| str_field(s, "name") == name),
            "trace.json has no `{name}` span"
        );
    }
}

#[test]
fn driver_mode_ends_with_the_contract_line() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--quick",
            "--workload",
            "drive_bulk",
            "--seed",
            "7",
            "--seconds",
            "0",
        ];
        let out = Command::new(BIN)
            .args(args)
            .args(["--trace", trace])
            .output()
            .expect("ssbench starts");
        assert!(out.status.success(), "driver mode failed: {}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("last line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.field("correct").unwrap().as_bool(), Some(true));
        let Json::Obj(metrics) = line.field("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        let reported: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            reported,
            names(benchmark_json().field(section).unwrap()),
            "--trace {trace}"
        );
    }
}
