//! The driver: runs sets of one workload through the `Tracker` facade
//! from a single thread, checks every answer, and reduces the samples to
//! the registered metrics.
//!
//! A *set* builds a tracker, feeds one stream round by round with its
//! queries, and tears the tracker down. The sets of a run cycle through
//! [`STREAMS`] streams derived from the seed, each generated before its
//! set's clock starts. A run first plays one warm-up set, then plays sets
//! until `seconds` have passed and the minimum sample counts are met, and
//! reports medians over the sets. Oracle checks happen between timed
//! calls, never inside them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dtrack_sim::{Answer, BackendKind, FlowControlStats, KindCost, Query, SiteId};

use crate::check::{Checker, Memo};
use crate::json::Json;
use crate::mem;
use crate::metrics::{self, END_TO_END, METER_KINDS};
use crate::stats::{covered_within, median, percentile};
use crate::trace::{Layer, Op, Recorder, Span};
use crate::workload::{self, Feed, Workload, POOL_WORKERS};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measuring loop runs (after the warm-up set).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Items per set.
    pub n: usize,
    /// Items per round.
    pub round: usize,
    /// Fewest measured sets (per kind, in a traced run).
    pub min_sets: usize,
}

/// Fewest query latency samples in an untraced run, so that p90 has at
/// least 10 samples beyond it.
const MIN_QUERY_SAMPLES: usize = 100;

/// The measuring loop stops here whatever the minimums say, well inside
/// the 180 s a run may take.
const MAX_SECONDS: f64 = 150.0;

impl RunConfig {
    /// The full-size configuration of `workload`.
    pub fn standard(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let (n, round) = workload.standard_size();
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            n,
            round,
            min_sets: STREAMS,
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every operation succeeded and every check passed.
    pub correct: bool,
    /// Feed/ingest calls and answers checked, over every set.
    pub attempted: u64,
    /// Of those, the ones that failed or gave an answer that failed its
    /// check.
    pub failed: u64,
    /// `(name, value, unit)`, in registry order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts, sizes and per-set values behind the metrics.
    pub details: Json,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// The first [`SPANS_KEPT`] spans, by start time, of the first traced
    /// set (traced runs only).
    pub spans: Vec<Span>,
}

/// Spans of the first traced set kept for the trace file.
pub const SPANS_KEPT: usize = 20_000;

/// Distinct streams a run cycles through, set `i` replaying stream
/// `i mod STREAMS` of the seed. Every run covers all of them, so its
/// figures average over several realisations of the workload's stream
/// instead of hanging on one.
pub const STREAMS: usize = 4;

/// One set's stream, generated before any clock starts.
struct Input {
    /// Which of the run's [`STREAMS`] this is.
    index: usize,
    stream: Vec<(SiteId, u64)>,
}

impl Input {
    fn new(cfg: &RunConfig, index: usize) -> Input {
        Input {
            index,
            stream: workload::stream(cfg.workload, cfg.seed, index as u64, cfg.n),
        }
    }
}

/// Samples and outcomes of one set.
#[derive(Debug, Default)]
struct SetOutcome {
    /// The [`Input::index`] the set replayed.
    stream: usize,
    build_s: f64,
    /// Most heap bytes live in the tracker's blocks from the build to the
    /// end of `finish`.
    heap_peak_bytes: f64,
    /// Sum of every timed call from the first item to quiescence after
    /// the last (queries issued between rounds included).
    wall_s: f64,
    items: u64,
    words: u64,
    kinds: Vec<(String, KindCost)>,
    rounds_ms: Vec<f64>,
    queries_us: Vec<f64>,
    /// Calls and answers attempted, and the ones that succeeded.
    attempted: u64,
    ok: u64,
    /// Answers checked, and the ones that passed (within the above).
    checked: u64,
    passed: u64,
    err_max: f64,
    failures: Vec<String>,
    /// Rendered answers, in order, for the transparency check.
    answers: Vec<String>,
    flow: Option<FlowControlStats>,
    driver_spans: Vec<Span>,
    /// Protocol spans, one vector per recorder lane.
    protocol_spans: Vec<Vec<Span>>,
}

impl SetOutcome {
    fn items_per_s(&self) -> f64 {
        self.items as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn words_per_item(&self) -> f64 {
        self.words as f64 / self.items.max(1) as f64
    }

    /// Tally one feed or ingest call; false if it failed.
    fn op(&mut self, res: Result<(), dtrack_sim::SimError>, what: &str) -> bool {
        match res {
            Ok(()) => {
                self.attempted += 1;
                self.ok += 1;
                true
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                false
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Times the driver's public `Tracker` calls, recording a span per call
/// when tracing.
struct Driver {
    rec: Option<Arc<Recorder>>,
    spans: Vec<Span>,
    round: u32,
}

impl Driver {
    fn call<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.rec.as_ref().map(|r| {
            r.set_call(id, self.round);
            r.now_ns()
        });
        let start = Instant::now();
        let value = mem::tracker_call(f);
        let secs = start.elapsed().as_secs_f64();
        if let (Some(rec), Some(start_ns)) = (&self.rec, start_ns) {
            let end_ns = rec.now_ns();
            rec.set_call(0, self.round);
            self.spans.push(Span {
                op,
                layer: Layer::Tracker,
                lane: 0,
                id,
                parent: 0,
                round: self.round,
                start_ns,
                end_ns,
                items: 0,
                out: 0,
            });
        }
        (value, secs)
    }
}

/// Issue `queries` (timed one by one), then check the answers against
/// the prefix `checker` holds. Returns the total query time.
fn query_burst(
    w: Workload,
    d: &mut Driver,
    tracker: &mut dtrack_sim::Tracker,
    queries: &[Query],
    checker: &Checker,
    memo: &mut Memo,
    out: &mut SetOutcome,
) -> f64 {
    let mut answers = Vec::with_capacity(queries.len());
    let mut total = 0.0;
    for &q in queries {
        let (answer, secs) = d.call(Op::Query, || tracker.query(q));
        out.queries_us.push(secs * 1e6);
        total += secs;
        answers.push((q, answer));
    }
    for (q, answer) in answers {
        out.checked += 1;
        match answer {
            Ok(a) => {
                let v = checker.check(memo, q, &a, w.epsilon(), w.tracked_phi());
                out.attempted += 1;
                out.ok += u64::from(v.ok);
                out.passed += u64::from(v.ok);
                out.err_max = out.err_max.max(v.err);
                out.answers.push(a.to_string());
            }
            Err(e) => out.fail(format!("{q}: {e}")),
        }
    }
    total
}

fn run_set(
    w: Workload,
    cfg: &RunConfig,
    input: &Input,
    backend: BackendKind,
    rec: Option<Arc<Recorder>>,
    memo: &mut Memo,
) -> SetOutcome {
    let mut out = SetOutcome {
        stream: input.index,
        ..SetOutcome::default()
    };
    // The `ingest` calls' runs, made before the clock starts.
    let mut runs = match w.feed() {
        Feed::Ingest => workload::site_runs(&input.stream, cfg.round, w.sites()),
        Feed::Batch => Vec::new(),
    }
    .into_iter();
    let mut d = Driver {
        rec: rec.clone(),
        spans: Vec::new(),
        round: 0,
    };
    let heap_base = mem::live_bytes();
    mem::reset_peak();
    let (built, build_s) = d.call(Op::Build, || w.build(backend, rec.as_ref()));
    out.build_s = build_s;
    let mut tracker = match built {
        Ok(t) => t,
        Err(e) => {
            out.fail(format!("build: {e}"));
            return out;
        }
    };
    let mut checker = Checker::new(input.index);
    let round_queries = w.round_queries();
    for (r, chunk) in input.stream.chunks(cfg.round).enumerate() {
        d.round = r as u32;
        let mut round_s = 0.0;
        let fed = match w.feed() {
            Feed::Batch => {
                let (res, secs) = d.call(Op::FeedBatch, || tracker.feed_batch(chunk));
                round_s += secs;
                out.op(res, "feed_batch")
            }
            Feed::Ingest => runs
                .next()
                .unwrap_or_default()
                .into_iter()
                .all(|(site, items)| {
                    let (res, secs) = d.call(Op::Ingest, || tracker.ingest(site, items));
                    round_s += secs;
                    out.op(res, "ingest")
                }),
        };
        if !fed {
            break;
        }
        out.items += chunk.len() as u64;
        if !round_queries.is_empty() {
            checker.advance(chunk.iter().map(|&(_, x)| x));
            // Queries go to a tracker a separate, separately timed settle
            // has made quiescent.
            let ((), secs) = d.call(Op::Settle, || tracker.settle());
            round_s += secs;
            round_s += query_burst(
                w,
                &mut d,
                &mut tracker,
                &round_queries,
                &checker,
                memo,
                &mut out,
            );
        }
        out.wall_s += round_s;
        out.rounds_ms.push(round_s * 1e3);
    }
    let ((), secs) = d.call(Op::Settle, || tracker.settle());
    out.wall_s += secs;
    if round_queries.is_empty() {
        // Only now: free-running ingest keeps the workers busy between the
        // driver's calls, so oracle work there would run off the clock.
        checker.advance(input.stream[..out.items as usize].iter().map(|&(_, x)| x));
    }
    let final_queries = w.final_queries();
    query_burst(
        w,
        &mut d,
        &mut tracker,
        &final_queries,
        &checker,
        memo,
        &mut out,
    );
    let meter = tracker.cost();
    out.words = meter.total_words();
    out.kinds = meter.report().by_kind;
    if rec.is_some() {
        if let Ok(Answer::FlowControl(stats)) = tracker.query(Query::FlowControl) {
            out.flow = Some(stats);
        }
    }
    if let Err(e) = mem::tracker_call(|| tracker.finish()) {
        out.fail(format!("finish: {e}"));
    }
    out.heap_peak_bytes = (mem::peak_bytes() - heap_base) as f64;
    if let Some(rec) = rec {
        // `finish` joined every worker, so every span is in.
        out.protocol_spans = rec.take_lanes();
        out.driver_spans = d.spans;
    }
    out
}

/// Correctness tallies over every set of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    checked: u64,
    passed: u64,
    err_max: f64,
    failures: Vec<String>,
}

impl Tally {
    /// The lower of two shares: feed/ingest calls that returned `Ok`,
    /// and answers that returned `Ok` and passed their check. Taken apart
    /// so that one failed answer shows even among thousands of calls.
    fn ok_op_share(&self) -> f64 {
        let share = |ok: u64, all: u64| {
            if all == 0 {
                1.0
            } else {
                ok as f64 / all as f64
            }
        };
        let calls = share(self.ok - self.passed, self.attempted - self.checked);
        calls.min(share(self.passed, self.checked))
    }

    fn add(&mut self, set: &SetOutcome) {
        self.attempted += set.attempted;
        self.ok += set.ok;
        self.checked += set.checked;
        self.passed += set.passed;
        self.err_max = self.err_max.max(set.err_max);
        self.failures.extend(set.failures.iter().cloned());
    }
}

/// Run one workload as `cfg` says.
pub fn run(cfg: &RunConfig) -> Report {
    let w = cfg.workload;
    mem::bench_thread();
    let mut memo = Memo::default();
    let mut tally = Tally::default();
    let warm_up = run_set(w, cfg, &Input::new(cfg, 0), w.backend(), None, &mut memo);
    tally.add(&warm_up);

    let start = Instant::now();
    let mut plain: Vec<SetOutcome> = Vec::new();
    let mut traced: Vec<SetOutcome> = Vec::new();
    // Per-layer figures of each traced set. Spans are dropped once a set's
    // figures are taken (one set of a workload here records up to a few
    // million), except the first SPANS_KEPT of the first traced set.
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let samples: usize = plain.iter().map(|s| s.queries_us.len()).sum();
        let done = elapsed >= cfg.seconds
            && plain.len() >= cfg.min_sets
            && (cfg.trace || samples >= MIN_QUERY_SAMPLES);
        if done || elapsed >= MAX_SECONDS {
            break;
        }
        let input = Input::new(cfg, plain.len() % STREAMS);
        let set = run_set(w, cfg, &input, w.backend(), None, &mut memo);
        tally.add(&set);
        plain.push(set);
        if cfg.trace {
            let mut set = run_set(
                w,
                cfg,
                &input,
                w.backend(),
                Some(Recorder::new()),
                &mut memo,
            );
            tally.add(&set);
            layers.push(set_layers(&set));
            if traced.is_empty() {
                spans = std::mem::take(&mut set.driver_spans);
                // A lane records its calls one after another, so the
                // earliest SPANS_KEPT overall are among each lane's first.
                spans.extend(
                    set.protocol_spans
                        .iter()
                        .flat_map(|lane| lane.iter().take(SPANS_KEPT)),
                );
                spans.sort_by_key(|s| (s.start_ns, s.lane));
                spans.truncate(SPANS_KEPT);
            }
            set.driver_spans = Vec::new();
            set.protocol_spans = Vec::new();
            traced.push(set);
        }
    }

    let mut details = vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(cfg.seed)),
        ("trace", Json::Bool(cfg.trace)),
        ("sites", Json::Int(u64::from(w.sites()))),
        ("epsilon", Json::Num(w.epsilon())),
        ("backend", Json::str(w.backend().to_string())),
        (
            "workers",
            Json::Int(match w.backend() {
                BackendKind::Deterministic => 0,
                _ => POOL_WORKERS as u64,
            }),
        ),
        ("n_per_set", Json::Int(cfg.n as u64)),
        ("round_items", Json::Int(cfg.round as u64)),
        ("measured_s", Json::Num(start.elapsed().as_secs_f64())),
        ("sets", Json::Int(plain.len() as u64)),
        (
            "items_per_s_by_set",
            Json::nums(
                &plain
                    .iter()
                    .map(SetOutcome::items_per_s)
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    let metrics = if cfg.trace {
        layer_metrics(
            cfg,
            &plain,
            &traced,
            &layers,
            &mut memo,
            &mut tally,
            &mut details,
        )
    } else {
        end_to_end_metrics(&plain, &tally, &mut details)
    };
    let mut failures = tally.failures;
    failures.extend(memo.failures.iter().cloned());
    let failed = tally.attempted - tally.ok;
    Report {
        correct: failed == 0 && failures.is_empty() && tally.attempted > 0,
        attempted: tally.attempted,
        failed,
        metrics,
        details: Json::obj(details),
        failures,
        spans,
    }
}

/// Mean over the run's streams of each stream's median of `f`. On the
/// deterministic backend every replay of a stream gives the same words
/// and the same heap peak, so this repeats exactly from run to run.
fn stream_mean(sets: &[SetOutcome], f: impl Fn(&SetOutcome) -> f64) -> f64 {
    let mut by_stream: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in sets {
        by_stream.entry(s.stream).or_default().push(f(s));
    }
    by_stream.values().map(|v| median(v)).sum::<f64>() / by_stream.len().max(1) as f64
}

fn end_to_end_metrics(
    sets: &[SetOutcome],
    tally: &Tally,
    details: &mut Vec<(&'static str, Json)>,
) -> Vec<(String, f64, &'static str)> {
    let queries: Vec<f64> = sets.iter().flat_map(|s| s.queries_us.clone()).collect();
    let rounds: Vec<f64> = sets.iter().flat_map(|s| s.rounds_ms.clone()).collect();
    let words: Vec<f64> = sets.iter().map(SetOutcome::words_per_item).collect();
    // One build per set, each after the set's stream was generated. Builds
    // made back to back instead get faster with every repetition (on the
    // pool 500, 420, 260, 210 µs), and a median over such a mix moved with
    // the mix.
    let builds: Vec<f64> = sets.iter().map(|s| s.build_s).collect();
    let heap_mib: Vec<f64> = sets
        .iter()
        .map(|s| s.heap_peak_bytes / (1024.0 * 1024.0))
        .collect();
    let words_per_item = stream_mean(sets, SetOutcome::words_per_item);
    // A heap peak steps with the containers' capacity doublings, which
    // land differently on each stream: a median over the mixed sets
    // jumped between the streams' values (6.97 to 7.95 MiB on
    // monitor-allq-det).
    let mem_mb = stream_mean(sets, |s| s.heap_peak_bytes / (1024.0 * 1024.0));
    details.push(("query_samples", Json::Int(queries.len() as u64)));
    details.push(("round_samples", Json::Int(rounds.len() as u64)));
    details.push(("setup_samples", Json::Int(builds.len() as u64)));
    details.push(("words_per_item_by_set", Json::nums(&words)));
    details.push(("mem_mb_by_set", Json::nums(&heap_mib)));
    details.push(("answers_checked", Json::Int(tally.checked)));
    details.push(("err_over_eps_max", Json::Num(tally.err_max)));
    let value = |name: &str| -> f64 {
        match name {
            "items_per_s" => median(&sets.iter().map(SetOutcome::items_per_s).collect::<Vec<_>>()),
            "words_per_item" => words_per_item,
            "query_p50_us" => percentile(&queries, 0.5).unwrap_or(0.0),
            "query_p90_us" => percentile(&queries, 0.9).unwrap_or(0.0),
            "round_p50_ms" => median(&rounds),
            "setup_s" => median(&builds),
            "mem_mb" => mem_mb,
            "ok_op_share" => tally.ok_op_share(),
            other => unreachable!("unregistered end-to-end metric {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_owned(), value(name), unit))
        .collect()
}

/// Calls, busy time and work of one kind of protocol span.
#[derive(Debug, Default)]
struct Load {
    calls: u64,
    busy_ns: u64,
    items: u64,
    out: u64,
}

/// The per-layer numbers of one traced set.
fn set_layers(set: &SetOutcome) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let secs = |ns: u64| ns as f64 / 1e9;
    let calls = |op: Op| -> Vec<&Span> { set.driver_spans.iter().filter(|s| s.op == op).collect() };
    let busy = |spans: &[&Span]| secs(spans.iter().map(|s| s.dur_ns()).sum());
    let p_us = |spans: &[&Span], p: f64| {
        let us: Vec<f64> = spans.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
        percentile(&us, p).unwrap_or(0.0)
    };
    m.insert("tracker.build_us".into(), set.build_s * 1e6);
    for op in [Op::FeedBatch, Op::Ingest, Op::Settle] {
        m.insert(format!("tracker.{}.busy_s", op.as_str()), busy(&calls(op)));
    }
    m.insert(
        "tracker.ingest.blocked_p90_us".into(),
        p_us(&calls(Op::Ingest), 0.9),
    );
    m.insert(
        "tracker.settle.p50_us".into(),
        p_us(&calls(Op::Settle), 0.5),
    );
    m.insert("tracker.query.p50_us".into(), p_us(&calls(Op::Query), 0.5));

    let (mut on_items, mut site_msg, mut coord, mut query) = Default::default();
    let mut query_us = Vec::new();
    for span in set.protocol_spans.iter().flatten() {
        let load: &mut Load = match (span.layer, span.op) {
            (Layer::Site, Op::OnMessage) => &mut site_msg,
            (Layer::Site, _) => &mut on_items,
            (Layer::Coord, _) => &mut coord,
            (Layer::Query, _) => {
                query_us.push(span.dur_ns() as f64 / 1e3);
                &mut query
            }
            (Layer::Tracker, _) => continue,
        };
        load.calls += 1;
        load.busy_ns += span.dur_ns();
        load.items += u64::from(span.items);
        load.out += u64::from(span.out);
    }
    let secs_of = |load: &Load| secs(load.busy_ns);
    m.insert("core.site.items".into(), on_items.items as f64);
    m.insert("core.site.on_items.busy_s".into(), secs_of(&on_items));
    m.insert("core.site.on_message.calls".into(), site_msg.calls as f64);
    m.insert("core.site.on_message.busy_s".into(), secs_of(&site_msg));
    m.insert("core.site.ups".into(), (on_items.out + site_msg.out) as f64);
    m.insert("core.coord.on_message.calls".into(), coord.calls as f64);
    m.insert("core.coord.on_message.busy_s".into(), secs_of(&coord));
    m.insert("core.coord.downs".into(), coord.out as f64);
    m.insert(
        "core.query.p50_us".into(),
        percentile(&query_us, 0.5).unwrap_or(0.0),
    );

    // Wall time: every driver call but the build. Protocol spans have no
    // children, so a layer's self time is the sum of its spans.
    let mut wall: Vec<(u64, u64)> = set
        .driver_spans
        .iter()
        .filter(|s| s.op != Op::Build)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    wall.sort_unstable();
    let wall_ns = wall.iter().map(|(s, e)| e - s).sum::<u64>().max(1) as f64;
    let site_ns = on_items.busy_ns + site_msg.busy_ns;
    for (name, own) in [
        ("site", site_ns),
        ("coord", coord.busy_ns),
        ("query", query.busy_ns),
    ] {
        m.insert(format!("core.{name}.self_share"), own as f64 / wall_ns);
    }
    let mut inner: Vec<(u64, u64)> = set
        .protocol_spans
        .iter()
        .flatten()
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    m.insert(
        "runtime.unattributed_share".into(),
        1.0 - covered_within(&mut inner, &wall) as f64 / wall_ns,
    );

    // The deterministic backend has no flow controller: zeros.
    let (drift, backoffs, window) = set.flow.as_ref().map_or((0.0, 0.0, 0.0), |f| {
        let sum: f64 = f.windows.iter().map(|&w| f64::from(w)).sum();
        (
            f.drift_events as f64,
            f.backoffs as f64,
            sum / f.windows.len().max(1) as f64,
        )
    });
    m.insert("flow.drift_events".into(), drift);
    m.insert("flow.backoffs".into(), backoffs);
    m.insert("flow.mean_window".into(), window);

    for (kind, cost) in &set.kinds {
        let stem = if METER_KINDS.contains(&kind.as_str()) {
            metrics::meter_stem(kind)
        } else {
            "meter.other".to_owned()
        };
        *m.entry(format!("{stem}.words")).or_default() += cost.words as f64;
        *m.entry(format!("{stem}.messages")).or_default() += cost.messages as f64;
    }
    m
}

fn layer_metrics(
    cfg: &RunConfig,
    plain: &[SetOutcome],
    traced: &[SetOutcome],
    layers: &[BTreeMap<String, f64>],
    memo: &mut Memo,
    tally: &mut Tally,
    details: &mut Vec<(&'static str, Json)>,
) -> Vec<(String, f64, &'static str)> {
    let w = cfg.workload;

    // Transparency: on the deterministic backend the wrapper must leave
    // words and answers bit-identical to the untraced sets'.
    if w.backend() == BackendKind::Deterministic {
        // Set i of each kind replayed the same stream.
        for (reference, set) in plain.iter().zip(traced) {
            if set.words != reference.words
                || set.kinds != reference.kinds
                || set.answers != reference.answers
            {
                tally.failures.push(format!(
                    "traced set diverged from untraced on stream {}: {} vs {} words, answers equal: {}",
                    set.stream,
                    set.words,
                    reference.words,
                    set.answers == reference.answers
                ));
            }
        }
    }

    // The twin is defined for the pool only: 0 on the deterministic
    // backend, which would just repeat its own untraced throughput.
    let twin_ips = if w.backend() == BackendKind::Deterministic {
        Vec::new()
    } else {
        // The same job, single-threaded.
        (0..3)
            .map(|i| {
                let input = Input::new(cfg, i % STREAMS);
                let set = run_set(w, cfg, &input, BackendKind::Deterministic, None, memo);
                tally.add(&set);
                set.items_per_s()
            })
            .collect()
    };
    let stream = Input::new(cfg, 0).stream;
    let sketch: Vec<f64> = (0..3)
        .map(|_| w.sketch_replay_ns_per_item(&stream))
        .collect();
    let wall = |sets: &[SetOutcome]| median(&sets.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let overhead = wall(traced) / wall(plain).max(f64::MIN_POSITIVE);
    details.push(("traced_sets", Json::Int(traced.len() as u64)));
    details.push(("twin_items_per_s_by_set", Json::nums(&twin_ips)));

    metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "sketch.insert_ns_per_item" => median(&sketch),
                "twin.det_items_per_s" => median(&twin_ips),
                "trace.overhead_ratio" => overhead,
                "core.oracle.err_over_eps_max" => tally.err_max,
                _ => median(
                    &layers
                        .iter()
                        .map(|m| m.get(&name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            (name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::Tally;

    #[test]
    fn one_failed_answer_shows_among_many_calls() {
        // 7 900 ingest calls, all Ok, and 20 answers of which one failed.
        let tally = Tally {
            attempted: 7_920,
            ok: 7_919,
            checked: 20,
            passed: 19,
            ..Tally::default()
        };
        assert_eq!(tally.ok_op_share(), 0.95);
        let calls_only = Tally {
            attempted: 10,
            ok: 9,
            ..Tally::default()
        };
        assert_eq!(calls_only.ok_op_share(), 0.9);
    }
}
