//! `sdss-stream`: the paper's Figure 1 session over the server's SDSS
//! scenario (5k rows) through `LocalClient`, one closed-loop client.
//!
//! Each step sends one pan or zoom as a `gesture`, then `render_delta`
//! from the client's scene version; the op time runs from sending the
//! gesture to holding the patch frames. The client applies every frame
//! to its own scene copy, which must equal a full snapshot at seeded
//! checkpoints and at the end.

use crate::core_path::{self, CorePath, DISPATCH, ENCODE, SYNC};
use crate::gen_layers::{self, GenLayers};
use crate::report::{
    op_metrics, op_p50, repeat_setup, write_spans, Ctx, Limit, Metric, Outcome, GESTURE_TAIL_Q,
};
use crate::stats::{samples_for_tail, Ops, Rng, Samples};
use crate::trace::{durations_us, layer_self_us, path_self_us, Tracer};
use pi2_core::prelude::{Event, Pi2, SearchStrategy};
use pi2_core::scene::{delta_from_json, scene_from_json, SceneGraph};
use pi2_server::LocalClient;
use serde_json::{json, Value};
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Server round trips on the blocking path, then the mirrored core calls.
const GESTURE: &str = "server.gesture";
const RENDER: &str = "server.render_delta";
pub const PATH: &[&str] = &[GESTURE, RENDER, DISPATCH, SYNC, ENCODE];

/// One checkpoint (full-snapshot comparison) per this many steps, on
/// average, at seeded positions.
const CHECKPOINT_EVERY: f64 = 64.0;

/// A seeded pan/zoom walk over a fine grid of windows inside the first
/// Figure 1 cluster, where the sky is evenly populated: centres within
/// 0.2° of the cluster centre on a 1/256° grid, three zoom levels (1°, 2°
/// and 4° wide). That is 103 × 103 × 3 windows, far more than the
/// session's 256-entry result cache holds. Half the steps pan back to one
/// of the 32 most recent windows at the current zoom. A fresh step zooms
/// one level (one time in three) or pans up to 1/16° each way; the walk
/// mixes over the region many times in a run, so every run sees windows
/// of the same sizes whatever the seed.
#[derive(Debug, Clone)]
pub struct Walk {
    rng: Rng,
    chart: usize,
    pos: Cell,
    recent: VecDeque<Cell>,
    seen: HashSet<Cell>,
    pub revisits: u64,
    pub steps: u64,
}

/// A window: centre offsets in `STEP_DEG` steps from (179.5, -0.5), and
/// zoom level (window width 2^(z+1) degrees). Moves use the same type.
type Cell = (i32, i32, i32);

const X_RANGE: (i32, i32) = (-51, 51);
const Y_RANGE: (i32, i32) = (-51, 51);
const Z_RANGE: (i32, i32) = (-1, 1);
const STEP_DEG: f64 = 1.0 / 256.0;
/// Largest pan of a fresh step, in grid steps per axis.
const MAX_PAN: i32 = 16;
/// A revisit pans back to one of this many most recent windows.
const RECENT: usize = 32;

fn inside(p: Cell) -> bool {
    (X_RANGE.0..=X_RANGE.1).contains(&p.0)
        && (Y_RANGE.0..=Y_RANGE.1).contains(&p.1)
        && (Z_RANGE.0..=Z_RANGE.1).contains(&p.2)
}

fn add(a: Cell, b: Cell) -> Cell {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

impl Walk {
    pub fn new(seed: u64, chart: usize) -> Self {
        let mut seen = HashSet::new();
        seen.insert((0, 0, 0));
        let recent = VecDeque::from([(0, 0, 0)]);
        Walk { rng: Rng::new(seed), chart, pos: (0, 0, 0), recent, seen, revisits: 0, steps: 0 }
    }

    fn event(&self, d: Cell) -> Event {
        match d.2 {
            0 => Event::Pan {
                chart: self.chart,
                dx: d.0 as f64 * STEP_DEG,
                dy: d.1 as f64 * STEP_DEG,
            },
            z => Event::Zoom { chart: self.chart, factor: if z > 0 { 2.0 } else { 0.5 } },
        }
    }

    /// A random zoom or pan that stays inside the grid.
    fn fresh_move(&mut self) -> Cell {
        loop {
            let d = if self.rng.chance(1.0 / 3.0) {
                (0, 0, if self.rng.chance(0.5) { 1 } else { -1 })
            } else {
                let span = (2 * MAX_PAN + 1) as usize;
                let dx = self.rng.below(span) as i32 - MAX_PAN;
                let dy = self.rng.below(span) as i32 - MAX_PAN;
                (dx, dy, 0)
            };
            if d != (0, 0, 0) && inside(add(self.pos, d)) {
                return d;
            }
        }
    }

    pub fn next_event(&mut self) -> Event {
        let z = self.pos.2;
        let back: Vec<Cell> =
            self.recent.iter().copied().filter(|c| c.2 == z && *c != self.pos).collect();
        let d = if !back.is_empty() && self.rng.chance(0.5) {
            let c = *self.rng.pick(&back);
            (c.0 - self.pos.0, c.1 - self.pos.1, 0)
        } else {
            self.fresh_move()
        };
        self.pos = add(self.pos, d);
        self.steps += 1;
        if !self.seen.insert(self.pos) {
            self.revisits += 1;
        }
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(self.pos);
        self.event(d)
    }

    pub fn distinct_windows(&self) -> usize {
        self.seen.len()
    }
}

fn ok(v: &Value) -> bool {
    v["ok"].as_bool() == Some(true)
}

fn demo_sql() -> Vec<String> {
    pi2_datasets::sdss::demo_queries().iter().map(|q| q.to_string()).collect()
}

/// A server-side session with its streaming client attached.
struct Live {
    client: LocalClient,
    session: u64,
    chart: usize,
    graph: SceneGraph,
    version: u64,
}

impl Live {
    fn open() -> Result<Live, String> {
        let client = LocalClient::standalone();
        let opened = client.request(json!({"cmd": "open", "scenario": "sdss"}));
        let session = opened["session"].as_u64().ok_or_else(|| format!("open: {opened}"))?;
        for sql in demo_sql() {
            let r = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
            if !ok(&r) {
                return Err(format!("run_cell: {r}"));
            }
        }
        let g = client.request(json!({"cmd": "generate", "session": session}));
        if !ok(&g) || g["degradation"].as_str() != Some("full") {
            return Err(format!("generate: {g}"));
        }
        let (graph, version) = snapshot(&client, session)?;
        let chart = graph.charts.first().map(|c| c.chart).ok_or("no chart in the SDSS scene")?;
        Ok(Live { client, session, chart, graph, version })
    }

    /// The session's coalesced and enqueued events and the server's
    /// `overloaded` refusals so far.
    fn server_counters(&self) -> (f64, f64, f64) {
        let s = self.client.request(json!({"cmd": "stats", "session": self.session}));
        let all = self.client.request(json!({"cmd": "stats"}));
        let f = |v: &Value| v.as_f64().unwrap_or(0.0);
        (f(&s["coalesced"]), f(&s["enqueued"]), f(&all["stats"]["overloaded"]))
    }
}

fn snapshot(client: &LocalClient, session: u64) -> Result<(SceneGraph, u64), String> {
    let r = client.request(json!({"cmd": "render_delta", "session": session}));
    if !ok(&r) {
        return Err(format!("render_delta snapshot: {r}"));
    }
    let graph = scene_from_json(&r["scene"])?;
    Ok((graph, r["scene_version"].as_u64().unwrap_or(0)))
}

#[derive(Default)]
struct Phase {
    ops: Ops,
    patch_bytes: Samples,
    resyncs: u64,
}

/// Drive the walk against `live` until `limit`, mirroring each step
/// through `mirror` when one is given.
fn drive(
    ctx: &Ctx,
    limit: Limit,
    live: &mut Live,
    mut mirror: Option<&mut CorePath>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut walk = Walk::new(ctx.seed, live.chart);
    let mut checks = Rng::new(ctx.seed ^ 0xC0FF_EE00);
    let mut phase = Phase::default();
    let min_steps = samples_for_tail(0.99);
    let started = Instant::now();
    // Time spent in checks is taken off the op timeline.
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while limit.more((started.elapsed() - paused).as_secs_f64(), k as usize, min_steps) {
        k += 1;
        let event = walk.next_event();
        let wire = pi2_server::protocol::event_to_json(&event);
        let t0 = Instant::now();
        let g = live
            .client
            .request(json!({"cmd": "gesture", "session": live.session, "events": [wire]}));
        let t1 = Instant::now();
        let rd = live.client.request(
            json!({"cmd": "render_delta", "session": live.session, "since": live.version}),
        );
        let t2 = Instant::now();
        out.attempted += 1;
        if !ok(&g) || !ok(&rd) {
            out.failed += 1;
            continue;
        }
        phase.ops.push(t2 - t0, started.elapsed() - paused);
        if let Some(m) = mirror.as_deref_mut() {
            let sg = tracer.record(GESTURE, None, k, t0, t1);
            let sr = tracer.record(RENDER, None, k, t1, t2);
            // The mirror must produce the very frame the server sent.
            let served: Vec<String> = rd["frames"]
                .as_array()
                .map(|f| f.iter().map(|v| serde_json::to_string(v).unwrap_or_default()).collect())
                .unwrap_or_default();
            match m.step(event, tracer, Some(sg), Some(sr), k) {
                Ok(frame) => out.check(frame.into_iter().collect::<Vec<_>>() == served, || {
                    format!("step {k}: mirror frame differs from the server's")
                }),
                Err(e) => out.check(false, || format!("mirror step {k}: {e}")),
            }
            if let Err(e) = m.probe_engine(tracer, k) {
                out.check(false, || format!("engine probe {k}: {e}"));
            }
        }
        if let Err(e) = apply(live, &rd, &mut phase) {
            out.check(false, || format!("step {k}: {e}"));
        }
        if checks.chance(1.0 / CHECKPOINT_EVERY) {
            let c0 = Instant::now();
            check_snapshot(live, out, k);
            paused += c0.elapsed();
        }
    }
    check_snapshot(live, out, k);
    out.notes.push(format!(
        "walk: {} steps, {} distinct windows, revisit ratio {:.3}",
        walk.steps,
        walk.distinct_windows(),
        walk.revisits as f64 / walk.steps.max(1) as f64
    ));
    phase
}

/// Apply a `render_delta` response to the client's scene copy.
fn apply(live: &mut Live, rd: &Value, phase: &mut Phase) -> Result<(), String> {
    if rd["resync"].as_bool() == Some(true) {
        phase.resyncs += 1;
        live.graph = scene_from_json(&rd["scene"])?;
    } else if let Some(frames) = rd["frames"].as_array() {
        let mut bytes = 0usize;
        for frame in frames {
            bytes += serde_json::to_string(frame).map(|s| s.len()).unwrap_or(0);
            let delta = delta_from_json(frame)?;
            live.graph.apply(&delta).map_err(|e| e.to_string())?;
        }
        if !frames.is_empty() {
            phase.patch_bytes.push(bytes as f64);
        }
    }
    live.version = rd["scene_version"].as_u64().unwrap_or(live.version);
    Ok(())
}

fn check_snapshot(live: &Live, out: &mut Outcome, k: u64) {
    out.attempted += 1;
    match snapshot(&live.client, live.session) {
        Ok((graph, version)) => out.check(graph == live.graph && version == live.version, || {
            format!("step {k}: patched client scene differs from the full snapshot")
        }),
        Err(e) => out.check(false, || e),
    }
}

/// The core-API mirror of the server session, built the way the server
/// builds it (same catalog, same log, full merge).
fn build_mirror(
    tracer: &mut Tracer,
    gen: &mut GenLayers,
    layers: &mut Vec<Metric>,
) -> Result<CorePath, String> {
    let config = pi2_datasets::sdss::Config::default();
    let (catalog, catalog_metrics) =
        core_path::timed_catalog(config.objects, || pi2_datasets::sdss::catalog(&config));
    layers.extend(catalog_metrics);
    let log: Vec<_> =
        demo_sql().iter().map(|s| gen_layers::parse(tracer, s, 0)).collect::<Result<_, _>>()?;
    let pi2 = Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).build();
    let generated = tracer
        .span("pipeline.generate", None, 0, || pi2.generate(&log))
        .map_err(|e| e.to_string())?;
    gen.absorb(&generated.stats);
    gen_layers::probe(tracer, &catalog, &log, 0)?;
    CorePath::new(generated, catalog)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let Some(mut live) = repeat_setup(&mut out, Live::open, drop) else { return out };
    let mut idle = Tracer::new(false);
    let mut base =
        drive(ctx, Limit::Seconds(ctx.phase_seconds()), &mut live, None, &mut idle, &mut out);
    out.headline.tail_q = GESTURE_TAIL_Q;
    out.e2e = op_metrics(&base.ops, 0.99, ["gesture_p50_ms", "gesture_p99_ms", "gestures_per_s"]);
    out.e2e.extend([Metric::pct("patch_bytes_p50", &mut base.patch_bytes, 0.5, "B")]);
    if ctx.trace {
        traced(ctx, &mut out, &mut base);
    }
    out.headline.ops = base.ops;
    out
}

/// The traced half: a fresh server session plus its core-API mirror, the
/// same seeded walk, spans around every call.
fn traced(ctx: &Ctx, out: &mut Outcome, base: &mut Phase) {
    let mut tracer = Tracer::new(true);
    let mut gen = GenLayers::default();
    let mut layers = Vec::new();
    let mut live = match Live::open() {
        Ok(l) => l,
        Err(e) => return out.check(false, || format!("traced setup: {e}")),
    };
    let mut mirror = match build_mirror(&mut tracer, &mut gen, &mut layers) {
        Ok(m) => m,
        Err(e) => return out.check(false, || format!("mirror setup: {e}")),
    };
    match mirror.session.scene_snapshot() {
        Ok((g, _)) => {
            out.check(g == live.graph, || "mirror scene differs from the server's".into())
        }
        Err(e) => out.check(false, || format!("mirror snapshot: {e}")),
    }
    mirror.reset_counters();
    let (c0, e0, o0) = live.server_counters();
    let steps = Limit::Steps(base.ops.len());
    let phase = drive(ctx, steps, &mut live, Some(&mut mirror), &mut tracer, out);
    let (c1, e1, o1) = live.server_counters();

    let spans = tracer.spans();
    let mut path = path_self_us(spans, PATH);
    let mut selfs = layer_self_us(spans, PATH);
    let untraced_p50 = op_p50(&base.ops);
    layers.extend(mirror.counter_metrics());
    layers.extend(gen.metrics(&tracer));
    layers.extend([
        Metric::pct("session.dispatch_us_p50", &mut durations_us(spans, DISPATCH), 0.5, "us"),
        Metric::pct("session.dispatch_us_p99", &mut durations_us(spans, DISPATCH), 0.99, "us"),
        Metric::pct("scene.sync_us_p50", &mut durations_us(spans, SYNC), 0.5, "us"),
        Metric::pct("scene.sync_us_p99", &mut durations_us(spans, SYNC), 0.99, "us"),
        Metric::pct("scene.encode_us_p50", &mut durations_us(spans, ENCODE), 0.5, "us"),
        Metric::pct("difftree.lower_us_p50", &mut durations_us(spans, "difftree.lower"), 0.5, "us"),
        Metric::pct("engine.exec_us_p50", &mut durations_us(spans, "engine.exec"), 0.5, "us"),
        Metric::pct("server.self_us_p50", selfs.entry("server").or_default(), 0.5, "us"),
        Metric::ratio("server.coalesced_ratio", c1 - c0, e1 - e0),
        Metric::count("server.overloaded", o1 - o0),
        Metric::count("server.resyncs", phase.resyncs as f64),
        Metric::pct("trace.path_self_us_p50", &mut path, 0.5, "us"),
        Metric::new(
            "trace.residual_ms",
            untraced_p50 - path.percentile(0.5) / 1e3,
            "ms",
            Some(path.len()),
        ),
        Metric::new(
            "trace.overhead_op_ms",
            op_p50(&phase.ops) - untraced_p50,
            "ms",
            Some(phase.ops.len()),
        ),
    ]);
    out.notes.push(format!(
        "traced gesture_p50_ms {:.4} vs untraced {:.4}; blocking-path self time p50 {:.1} us",
        op_p50(&phase.ops),
        untraced_p50,
        path.percentile(0.5)
    ));
    out.layers = layers;
    write_spans(ctx, &tracer, "sdss-stream", out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<Event> {
        let mut w = Walk::new(seed, 0);
        (0..n).map(|_| w.next_event()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        assert_eq!(stream(3, 500), stream(3, 500));
        assert_ne!(stream(3, 500), stream(4, 500));
    }

    #[test]
    fn walk_revisits_about_half_and_outgrows_the_result_cache() {
        let mut w = Walk::new(11, 0);
        for _ in 0..5000 {
            w.next_event();
        }
        let ratio = w.revisits as f64 / w.steps as f64;
        assert!((0.45..0.6).contains(&ratio), "revisit ratio {ratio}");
        assert!(w.distinct_windows() > 256, "{} windows", w.distinct_windows());
        assert!((X_RANGE.0..=X_RANGE.1).contains(&w.pos.0));
        assert!((Z_RANGE.0..=Z_RANGE.1).contains(&w.pos.2));
    }
}
