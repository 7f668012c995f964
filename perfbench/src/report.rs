//! What a workload run hands back, and how it is printed.
//!
//! Every workload reports the same five headline metrics (the ones
//! `BENCHMARK.json` gates) plus a longer list of named end-to-end metrics
//! that apply to it, each with its unit and sample count. The traced run
//! adds the per-layer metrics; a layer a workload does not exercise
//! reports 0.

use crate::stats::{Ops, Samples};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Measured phase length.
    pub seconds: f64,
    pub trace: bool,
    /// Where spans, journals and other run output go (inside the checkout).
    pub out_dir: std::path::PathBuf,
}

impl Ctx {
    /// The measured phase of a traced run is split in two: an untraced
    /// half (the baseline for tracing overhead) and a traced half.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// How long a phase runs: measured time (extended until the tail has
/// enough samples beyond it, up to three times as long), or
/// exactly the op count of an earlier phase, so a traced phase replays
/// the input of the untraced one.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Steps(usize),
}

impl Limit {
    pub fn more(self, elapsed_s: f64, done: usize, min_samples: usize) -> bool {
        match self {
            Limit::Seconds(s) => (elapsed_s < s || done < min_samples) && elapsed_s < 3.0 * s,
            Limit::Steps(n) => done < n,
        }
    }
}

/// Write a traced run's spans to `<out_dir>/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(ctx: &Ctx, tracer: &crate::trace::Tracer, workload: &str, out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => {
            out.notes.push(format!("{} spans written to {}", tracer.spans().len(), path.display()))
        }
        Err(e) => out.notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Set up the workload at least 5 times and until 1 s has gone into set-up
/// (at most 200 times); `setup_s` is the median. Each set-up is handed to
/// `discard` before the next one starts, so only one is live at a time;
/// the last is returned.
pub fn repeat_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Option<T> {
    let mut last = None;
    let mut spent = 0.0;
    let mut n = 0;
    while (n < 5 || spent < 1.0) && n < 200 {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let started = Instant::now();
        let result = setup();
        let s = started.elapsed().as_secs_f64();
        spent += s;
        n += 1;
        match result {
            Ok(ready) => {
                out.setup_s.push(s);
                last = Some(ready);
            }
            Err(e) => {
                out.check(false, || format!("setup: {e}"));
                return None;
            }
        }
    }
    last
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (None for counters and single readings).
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: Option<usize>) -> Self {
        Metric { name: name.to_string(), value, unit, n }
    }

    pub fn count(name: &str, value: f64) -> Self {
        Metric::new(name, value, "count", None)
    }

    pub fn ratio(name: &str, num: f64, den: f64) -> Self {
        Metric::new(name, if den > 0.0 { num / den } else { 0.0 }, "ratio", None)
    }

    pub fn pct(name: &str, samples: &mut Samples, q: f64, unit: &'static str) -> Self {
        Metric::new(name, samples.percentile(q), unit, Some(samples.len()))
    }
}

/// End-to-end figures of an operation stream over every operation of the
/// measured phase: `[p50, tail, rate]` under the given names.
pub fn op_metrics(ops: &Ops, tail_q: f64, names: [&str; 3]) -> Vec<Metric> {
    let mut ms = ops.ms();
    let n = Some(ms.len());
    vec![
        Metric::new(names[0], ms.median(), "ms", n),
        Metric::new(names[1], ms.percentile(tail_q), "ms", n),
        Metric::new(names[2], ops.per_s(), "1/s", n),
    ]
}

/// Median latency of an operation stream.
pub fn op_p50(ops: &Ops) -> f64 {
    ops.ms().median()
}

/// The gated tail of the gesture workloads. Their p99 is reported (as
/// `gesture_p99_ms`) but not gated: on `fleet-mix` one stall of the shared
/// host delays every request that arrives during it, and one such stall
/// in a run moved the p99 from 8 ms to 134 ms between seeds.
pub const GESTURE_TAIL_Q: f64 = 0.95;

/// The workload's user-visible operation: gesture→patch on the
/// interaction workloads, a cold generate on `generate-cold`.
#[derive(Debug, Clone, Default)]
pub struct Headline {
    pub ops: Ops,
    /// The gated tail percentile: [`GESTURE_TAIL_Q`] for gestures, 0.90
    /// for generation, whose samples are fewer.
    pub tail_q: f64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    pub setup_s: Samples,
    pub headline: Headline,
    /// Named end-to-end metrics that apply to this workload.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Per-layer metric names, in the order `BENCHMARK.json` lists them.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("session.dispatch_us_p50", "us"),
    ("session.dispatch_us_p99", "us"),
    ("session.result_cache_hit_ratio", "ratio"),
    ("session.query_memo_hit_ratio", "ratio"),
    ("session.charts_skipped", "count"),
    ("engine.exec_us_p50", "us"),
    ("engine.blocks_scanned", "count"),
    ("engine.blocks_pruned", "count"),
    ("engine.prune_ratio", "ratio"),
    ("engine.delta_hit_ratio", "ratio"),
    ("engine.catalog_build_s", "s"),
    ("engine.columnar_build_s", "s"),
    ("engine.bytes_per_row", "B"),
    ("scene.sync_us_p50", "us"),
    ("scene.sync_us_p99", "us"),
    ("scene.encode_us_p50", "us"),
    ("scene.patch_rows_p50", "count"),
    ("scene.empty_deltas", "count"),
    ("difftree.lower_us_p50", "us"),
    ("difftree.merge_us_p50", "us"),
    ("interface.map_us_p50", "us"),
    ("cost.phase_ms", "ms"),
    ("cost.memo_hit_ratio", "ratio"),
    ("mcts.phase_ms", "ms"),
    ("mcts.iterations", "count"),
    ("mcts.reward_cache_hit_ratio", "ratio"),
    ("sql.parse_us_p50", "us"),
    ("server.self_us_p50", "us"),
    ("server.coalesced_ratio", "ratio"),
    ("server.overloaded", "count"),
    ("server.resyncs", "count"),
    ("driver.lag_ms_p99", "ms"),
    ("journal.bytes_per_op", "B"),
    ("journal.frames", "count"),
    ("journal.checkpoints", "count"),
    ("recovery.frames_replayed", "count"),
    ("fleet.hit_ratio", "ratio"),
    ("fleet.rebinds", "count"),
    ("fleet.misses", "count"),
    ("trace.path_self_us_p50", "us"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_op_ms", "ms"),
];

/// The headline values of an outcome: the end-to-end metrics
/// `BENCHMARK.json` gates, in its order.
pub fn headline_metrics(o: &mut Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let mut metrics =
        op_metrics(&o.headline.ops, o.headline.tail_q, ["op_p50_ms", "op_tail_ms", "ops_per_s"]);
    metrics.push(Metric::new("setup_s", o.setup_s.median(), "s", Some(o.setup_s.len())));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB", None));
    metrics
}

/// The per-layer metrics of an outcome, in [`LAYER_METRICS`] order, with
/// every layer the workload did not touch reported as 0.
pub fn layer_metrics(o: &Outcome) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            o.layers
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, Some(0)))
        })
        .collect()
}

pub fn format_metric(m: &Metric) -> String {
    let mut line = format!("{:<34} {:>14.4} {:<6}", m.name, m.value, m.unit);
    if let Some(n) = m.n {
        let _ = write!(line, " n={n}");
    }
    line
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let mut map = serde_json::Map::new();
    for m in metrics {
        map.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(map),
    })
}
