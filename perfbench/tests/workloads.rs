//! Every workload at a tiny n: the registry matches `BENCHMARK.json`,
//! every metric comes out with its unit, every answer passes its check,
//! and the deterministic workloads' words repeat exactly.

use dtrack_perfbench::metrics::{self, END_TO_END};
use dtrack_perfbench::run::{run, Report, RunConfig};
use dtrack_perfbench::workload::Workload;
use dtrack_perfbench::{result_json, table};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    tiny_sets(workload, seed, trace, 2)
}

fn tiny_sets(workload: Workload, seed: u64, trace: bool, min_sets: usize) -> Report {
    let (n, round) = match workload {
        Workload::IngestHhSharded => (12_000, 4_096),
        Workload::IngestQuantileDet => (12_000, 4_000),
        Workload::MonitorAllqDet => (12_000, 1_000),
    };
    run(&RunConfig {
        n,
        round,
        min_sets,
        ..RunConfig::standard(workload, seed, 0.0, trace)
    })
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name end")].to_owned())
        .collect()
}

fn metric<'a>(report: &'a Report, name: &str) -> &'a (String, f64, &'static str) {
    report
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

#[test]
fn registry_matches_benchmark_json() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed("workloads"), workloads);
    for (name, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(metrics::per_layer())
    {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "{name} [{unit}] not listed"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_its_checks() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(w, 7, trace);
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                w.name(),
                report.failures
            );
            assert_eq!(report.failed, 0);
            let expected: Vec<(String, &str)> = if trace {
                metrics::per_layer()
            } else {
                END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
            };
            let got: Vec<(String, &str)> = report
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), *u))
                .collect();
            assert_eq!(got, expected, "{}", w.name());
            let line = result_json(&report).to_string();
            let rows = table(&report);
            for (name, unit) in &expected {
                let json_entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&json_entry), "{name} missing from the result");
                assert!(
                    rows.lines()
                        .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit)),
                    "{name} [{unit}] missing from the table"
                );
            }
            if !trace {
                assert_eq!(metric(&report, "ok_op_share").1, 1.0, "{}", w.name());
                assert!(metric(&report, "items_per_s").1 > 0.0);
                assert!(metric(&report, "mem_mb").1 > 0.0, "{}", w.name());
            } else {
                assert!(metric(&report, "core.oracle.err_over_eps_max").1 <= 1.0);
                // Every message kind the protocol sends has its own meter
                // metric: a renamed or new kind would land here.
                assert_eq!(metric(&report, "meter.other.words").1, 0.0, "{}", w.name());
                assert_eq!(
                    metric(&report, "meter.other.messages").1,
                    0.0,
                    "{}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn deterministic_workloads_repeat_their_words_exactly() {
    for w in [Workload::IngestQuantileDet, Workload::MonitorAllqDet] {
        let a = metric(&tiny(w, 3, false), "words_per_item").1;
        let b = metric(&tiny(w, 3, false), "words_per_item").1;
        assert_eq!(a.to_bits(), b.to_bits(), "{}", w.name());
    }
}

#[test]
fn traced_layers_account_for_the_deterministic_wall_time() {
    // One traced set, so each reported share is that set's own.
    let report = tiny_sets(Workload::IngestQuantileDet, 5, true, 1);
    let share = |name: &str| metric(&report, name).1;
    let total = share("core.site.self_share")
        + share("core.coord.self_share")
        + share("core.query.self_share")
        + share("runtime.unattributed_share");
    // One thread: the layers and the remainder partition the wall time.
    assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    assert_eq!(share("core.site.items"), 12_000.0);
    assert_eq!(share("flow.backoffs"), 0.0);
}
