//! `sdss-scan-1m`: an interface generated from a two-query
//! `SELECT class, count(*) … GROUP BY class` log over a 1M-row SDSS
//! catalog, driven in process by one closed-loop client.
//!
//! Each step moves one of the generated range sliders to a seeded, mostly
//! fresh window and runs `InterfaceSession::dispatch` + `scene_sync` +
//! `delta_to_json` and stringify; the op time covers all three. Results
//! are at most three rows, so the engine's zone-map scans and delta masks
//! dominate. Sampled steps are re-executed on the reference interpreter
//! outside the timed region and must match.

use crate::core_path::{self, CorePath, DISPATCH, ENCODE, SYNC};
use crate::gen_layers::{self, GenLayers};
use crate::report::{
    op_metrics, op_p50, repeat_setup, write_spans, Ctx, Limit, Metric, Outcome, GESTURE_TAIL_Q,
};
use crate::stats::{samples_for_tail, Ops, Rng};
use crate::trace::{durations_us, path_self_us, Tracer};
use pi2_core::prelude::{Catalog, Event, Pi2, SearchStrategy, WidgetKind, WidgetValue};
use pi2_engine::ResultSet;
use std::time::{Duration, Instant};

pub const ROWS: usize = 1_000_000;

/// The two-query log whose windows become the range sliders.
pub const LOG: &[&str] = &[
    "SELECT class, count(*) FROM photoobj \
     WHERE ra BETWEEN 178.5 AND 180.5 AND dec BETWEEN -1.5 AND 0.5 GROUP BY class",
    "SELECT class, count(*) FROM photoobj \
     WHERE ra BETWEEN 184.0 AND 186.0 AND dec BETWEEN 1.0 AND 3.0 GROUP BY class",
];

/// Reference-interpreter checks per run, at seeded steps.
const REFERENCE_CHECKS: usize = 3;

const PATH: &[&str] = &[DISPATCH, SYNC, ENCODE];

/// A range slider the stream moves: widget id and its domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slider {
    pub widget: usize,
    pub min: f64,
    pub max: f64,
}

/// Seeded slider moves: sliders take turns; each move sets a window of
/// 1%–10% of the domain, on a 0.01 grid. Widths and positions follow
/// additive (Weyl) sequences from seeded starting points, so every run
/// covers widths and positions evenly and only the seed's offsets differ
/// between runs. Windows rarely repeat, so nearly every move misses the
/// session's result cache.
#[derive(Debug, Clone)]
pub struct Moves {
    sliders: Vec<Slider>,
    k: usize,
    width: f64,
    pos: f64,
}

/// Irrational steps of the width and position sequences.
const WIDTH_STEP: f64 = 0.618_033_988_749_894_9;
const POS_STEP: f64 = 0.414_213_562_373_095_1;

impl Moves {
    pub fn new(seed: u64, sliders: Vec<Slider>) -> Self {
        let mut rng = Rng::new(seed);
        Moves { sliders, k: 0, width: rng.unit(), pos: rng.unit() }
    }

    pub fn next_event(&mut self) -> Event {
        let s = self.sliders[self.k % self.sliders.len()];
        self.k += 1;
        self.width = (self.width + WIDTH_STEP).fract();
        self.pos = (self.pos + POS_STEP).fract();
        let span = s.max - s.min;
        let width = span * (0.01 + 0.09 * self.width);
        let lo = s.min + (span - width) * self.pos;
        let q = |v: f64| (v * 100.0).round() / 100.0;
        Event::SetWidget { widget: s.widget, value: WidgetValue::Range(q(lo), q(lo + width)) }
    }
}

struct Setup {
    core: CorePath,
    sliders: Vec<Slider>,
    catalog: Catalog,
    layers: Vec<Metric>,
}

fn setup(tracer: &mut Tracer, gen: &mut GenLayers) -> Result<Setup, String> {
    let config = pi2_datasets::sdss::Config::sized(ROWS);
    let (catalog, layers) = core_path::timed_catalog(ROWS, || pi2_datasets::sdss::catalog(&config));
    let log: Vec<_> =
        LOG.iter().map(|s| gen_layers::parse(tracer, s, 0)).collect::<Result<_, _>>()?;
    let pi2 = Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).build();
    let generated = tracer
        .span("pipeline.generate", None, 0, || pi2.generate(&log))
        .map_err(|e| e.to_string())?;
    gen.absorb(&generated.stats);
    if tracer.enabled() {
        gen_layers::probe(tracer, &catalog, &log, 0)?;
    }
    let sliders: Vec<Slider> = generated
        .interface
        .widgets
        .iter()
        .filter_map(|w| match w.kind {
            WidgetKind::RangeSlider { min, max, .. } => Some(Slider { widget: w.id, min, max }),
            _ => None,
        })
        .collect();
    if sliders.is_empty() {
        return Err("the generated interface has no range slider".into());
    }
    let core = CorePath::new(generated, catalog.clone())?;
    Ok(Setup { core, sliders, catalog, layers })
}

#[derive(Default)]
struct Phase {
    ops: Ops,
}

fn drive(ctx: &Ctx, limit: Limit, s: &mut Setup, tracer: &mut Tracer, out: &mut Outcome) -> Phase {
    let mut moves = Moves::new(ctx.seed, s.sliders.clone());
    let mut checks = Rng::new(ctx.seed ^ 0x5CA1_AB1E);
    let mut phase = Phase::default();
    let min_steps = samples_for_tail(0.99);
    let mut checked = 0usize;
    let started = Instant::now();
    // Time spent in reference checks is taken off the op timeline.
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while limit.more((started.elapsed() - paused).as_secs_f64(), k as usize, min_steps) {
        k += 1;
        let event = moves.next_event();
        out.attempted += 1;
        let t0 = Instant::now();
        let step = s.core.step(event, tracer, None, None, k);
        let elapsed = t0.elapsed();
        if let Err(e) = step {
            out.failed += 1;
            out.notes.push(format!("step {k}: {e}"));
            continue;
        }
        phase.ops.push(elapsed, started.elapsed() - paused);
        if tracer.enabled() {
            if let Err(e) = s.core.probe_engine(tracer, k) {
                out.check(false, || format!("engine probe {k}: {e}"));
            }
        }
        if checked < REFERENCE_CHECKS && checks.chance(1.0 / 500.0) {
            checked += 1;
            let c0 = Instant::now();
            check_reference(s, out, k);
            paused += c0.elapsed();
        }
    }
    check_reference(s, out, k);
    phase
}

/// Every chart's current result (from the session's cache) must equal the
/// reference interpreter's answer for the chart's current query.
fn check_reference(s: &Setup, out: &mut Outcome, k: u64) {
    let updates = match s.core.session.refresh_all() {
        Ok(u) => u,
        Err(e) => return out.check(false, || format!("step {k}: refresh: {e}")),
    };
    for u in updates {
        out.attempted += 1;
        match s.catalog.execute_reference(&u.query) {
            Ok(reference) => out.check(same_rows(&u.result, &reference), || {
                format!("step {k}: chart {} differs from the reference for {}", u.chart, u.query)
            }),
            Err(e) => out.check(false, || format!("step {k}: reference: {e}")),
        }
    }
}

fn same_rows(a: &ResultSet, b: &ResultSet) -> bool {
    let key = |r: &ResultSet| {
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    };
    a.schema.fields.len() == b.schema.fields.len() && key(a) == key(b)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut gen = GenLayers::default();
    let mut catalog_metrics = Vec::new();
    let built = repeat_setup(
        &mut out,
        || {
            let mut s = setup(&mut tracer, &mut gen)?;
            // Later builds reuse the memory the first one freed, so only
            // the first shows the catalog's resident bytes.
            if catalog_metrics.is_empty() {
                catalog_metrics = std::mem::take(&mut s.layers);
            }
            Ok(s)
        },
        // Dropped before the next build: one 1M-row copy is live at a time.
        drop,
    );
    let Some(mut s) = built else { return out };
    out.notes.push(format!("{} range sliders over {ROWS} rows", s.sliders.len()));
    let mut idle = Tracer::new(false);
    let base = drive(ctx, Limit::Seconds(ctx.phase_seconds()), &mut s, &mut idle, &mut out);
    let n = base.ops.len();
    out.headline.tail_q = GESTURE_TAIL_Q;
    out.e2e = op_metrics(&base.ops, 0.99, ["gesture_p50_ms", "gesture_p99_ms", "gestures_per_s"]);
    out.e2e.extend([Metric::pct("patch_bytes_p50", &mut s.core.patch_bytes.clone(), 0.5, "B")]);
    if ctx.trace {
        s.core.reset_counters();
        let phase = drive(ctx, Limit::Steps(n), &mut s, &mut tracer, &mut out);
        let spans = tracer.spans();
        let mut path = path_self_us(spans, PATH);
        let untraced_p50 = op_p50(&base.ops);
        let mut layers = catalog_metrics;
        layers.extend(s.core.counter_metrics());
        layers.extend(gen.metrics(&tracer));
        layers.extend([
            Metric::pct("session.dispatch_us_p50", &mut durations_us(spans, DISPATCH), 0.5, "us"),
            Metric::pct("session.dispatch_us_p99", &mut durations_us(spans, DISPATCH), 0.99, "us"),
            Metric::pct("scene.sync_us_p50", &mut durations_us(spans, SYNC), 0.5, "us"),
            Metric::pct("scene.sync_us_p99", &mut durations_us(spans, SYNC), 0.99, "us"),
            Metric::pct("scene.encode_us_p50", &mut durations_us(spans, ENCODE), 0.5, "us"),
            Metric::pct(
                "difftree.lower_us_p50",
                &mut durations_us(spans, "difftree.lower"),
                0.5,
                "us",
            ),
            Metric::pct("engine.exec_us_p50", &mut durations_us(spans, "engine.exec"), 0.5, "us"),
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
        out.layers = layers;
        write_spans(ctx, &tracer, "sdss-scan-1m", &mut out);
    }
    out.headline.ops = base.ops;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sliders() -> Vec<Slider> {
        vec![
            Slider { widget: 0, min: 140.0, max: 220.0 },
            Slider { widget: 1, min: -5.0, max: 35.0 },
        ]
    }

    #[test]
    fn same_seed_same_moves_other_seed_differs() {
        let run = |seed| {
            let mut m = Moves::new(seed, sliders());
            (0..300).map(|_| m.next_event()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn moves_stay_inside_the_slider_domains_and_are_mostly_fresh() {
        let mut m = Moves::new(2, sliders());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let Event::SetWidget { widget, value: WidgetValue::Range(lo, hi) } = m.next_event()
            else {
                panic!("not a range move")
            };
            let s = sliders()[widget];
            assert!(s.min - 0.01 <= lo && lo < hi && hi <= s.max + 0.01, "{lo}..{hi}");
            seen.insert((widget, (lo * 100.0) as i64, (hi * 100.0) as i64));
        }
        assert!(seen.len() > 950, "{} distinct windows", seen.len());
    }
}
