//! The metric registry: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! crate's tests hold the two together.

/// End-to-end metrics, from untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("items_per_s", "items/s"),
    ("words_per_item", "words/item"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("round_p50_ms", "ms"),
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
    ("ok_op_share", "share"),
];

/// Per-layer metrics other than the meter breakdown, from traced runs.
pub const LAYER: [(&str, &str); 27] = [
    ("tracker.build_us", "us"),
    ("tracker.feed_batch.busy_s", "s"),
    ("tracker.ingest.busy_s", "s"),
    ("tracker.ingest.blocked_p90_us", "us"),
    ("tracker.settle.busy_s", "s"),
    ("tracker.settle.p50_us", "us"),
    ("tracker.query.p50_us", "us"),
    ("core.site.items", "count"),
    ("core.site.on_items.busy_s", "s"),
    ("core.site.on_message.calls", "count"),
    ("core.site.on_message.busy_s", "s"),
    ("core.site.ups", "count"),
    ("core.site.self_share", "share"),
    ("core.coord.on_message.calls", "count"),
    ("core.coord.on_message.busy_s", "s"),
    ("core.coord.downs", "count"),
    ("core.coord.self_share", "share"),
    ("core.query.p50_us", "us"),
    ("core.query.self_share", "share"),
    // The worst checked answer error in units of εn, over every set of the
    // run. A maximum depends on the stream more than on the code, so it is
    // reported here rather than bounded as an end-to-end metric.
    ("core.oracle.err_over_eps_max", "eps_n"),
    ("sketch.insert_ns_per_item", "ns/item"),
    ("flow.drift_events", "count"),
    ("flow.backoffs", "count"),
    ("flow.mean_window", "items"),
    ("runtime.unattributed_share", "share"),
    ("twin.det_items_per_s", "items/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Message kinds of the three protocols the workloads run, for the
/// `meter.<kind>.words` / `meter.<kind>.messages` breakdown. Kinds not
/// listed here are summed under `meter.other`.
pub const METER_KINDS: [&str; 33] = [
    "hh/raw",
    "hh/all",
    "hh/item",
    "hh/count-reply",
    "hh/start",
    "hh/sync-poll",
    "hh/new-count",
    "q/raw",
    "q/interval-delta",
    "q/side-delta",
    "q/full-summary",
    "q/interval-counts",
    "q/side-counts",
    "q/range-count",
    "q/range-summary",
    "q/split-counts",
    "q/summary-poll",
    "q/install",
    "q/side-poll",
    "q/range-poll",
    "q/set-pivot",
    "q/range-summary-poll",
    "q/split-install",
    "aq/raw",
    "aq/node-delta",
    "aq/full-summary",
    "aq/node-counts",
    "aq/range-summary",
    "aq/subtree-counts",
    "aq/summary-poll",
    "aq/install-tree",
    "aq/range-summary-poll",
    "aq/replace-subtree",
];

/// The metric-name stem of a message kind (`hh/all` → `meter.hh.all`).
pub fn meter_stem(kind: &str) -> String {
    format!("meter.{}", kind.replace('/', "."))
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for stem in METER_KINDS
        .iter()
        .map(|k| meter_stem(k))
        .chain([String::from("meter.other")])
    {
        out.push((format!("{stem}.words"), "words"));
        out.push((format!("{stem}.messages"), "count"));
    }
    out
}
