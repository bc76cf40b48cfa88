//! End-to-end and per-layer benchmark of dtrack's `Tracker` facade.
//!
//! One binary runs one workload for a fixed time and prints every metric
//! by name with its unit; see `README.md` in this directory for the
//! workloads, the metrics and how the layers map onto them.

pub mod check;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use std::io::{self, Write};

use json::Json;
use run::Report;
use trace::Span;

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, plus `details` (the runner script moves it into the
/// result file).
pub fn result_json(report: &Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", Json::Obj(metrics)),
        ("details", report.details.clone()),
    ])
}

/// The human-readable metric table printed above the result line.
pub fn table(report: &Report) -> String {
    let mut out = String::new();
    for (name, value, unit) in &report.metrics {
        out.push_str(&format!("{name:<36} {value:>16.6} {unit}\n"));
    }
    out
}

/// Write `spans` as a Chrome `trace_event` file (open in Perfetto or
/// chrome://tracing), one event per line.
pub fn write_chrome_trace(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let event = Json::obj([
            ("name", Json::str(s.op.as_str())),
            ("cat", Json::str(format!("{:?}", s.layer))),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(u64::from(s.lane))),
            (
                "args",
                Json::obj([
                    ("id", Json::Int(u64::from(s.id))),
                    ("parent", Json::Int(u64::from(s.parent))),
                    ("round", Json::Int(u64::from(s.round))),
                    ("items", Json::Int(u64::from(s.items))),
                    ("out", Json::Int(u64::from(s.out))),
                ]),
            ),
        ]);
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(out, "{event}{sep}")?;
    }
    writeln!(out, "]}}")
}
