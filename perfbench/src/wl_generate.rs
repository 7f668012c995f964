//! `generate-cold`: cold `Pi2::generate` with no fleet handle and a fresh
//! `Pi2` per call, over seeded literal-variant logs of 3–5 queries from the
//! covid, sp500 and sdss scenarios. Search is MCTS at a fixed iteration
//! budget (no deadline) on one worker, so a log's interface — and its
//! cost — is a function of the seed alone. (One worker measured faster and
//! steadier than two on a shared 2-core host.)
//!
//! Every interface must express its whole log at `DegradationLevel::Full`.

use crate::gen_layers::{self, GenLayers};
use crate::logs::{self, Scenario};
use crate::report::{op_metrics, op_p50, repeat_setup, write_spans, Ctx, Limit, Metric, Outcome};
use crate::stats::{samples_for_tail, Ops, Rng, Samples};
use crate::trace::{path_self_us, Tracer};
use pi2_core::prelude::{
    Catalog, DegradationLevel, GeneratedInterface, GenerationBudget, MctsConfig, Pi2, Query,
    SearchStrategy,
};
use std::time::Instant;

pub const SCENARIOS: &[Scenario] = &[Scenario::Covid, Scenario::Sp500, Scenario::Sdss];
/// MCTS iterations per worker tree, and worker trees.
pub const ITERATIONS: usize = 10;
pub const WORKERS: usize = 1;

const GENERATE: &str = "pipeline.generate";

pub fn strategy() -> SearchStrategy {
    SearchStrategy::Mcts(MctsConfig {
        iterations: ITERATIONS,
        workers: WORKERS,
        ..Default::default()
    })
}

/// The seeded stream of logs: scenario index and SQL text. The sequence of
/// log structures (scenario, 3–5 templates) is the same in every run, so
/// every run generates the same mix; the seed picks the literals.
pub struct Logs {
    rng: Rng,
    k: u64,
}

impl Logs {
    pub fn new(seed: u64) -> Self {
        Logs { rng: Rng::new(seed), k: 0 }
    }

    pub fn next_log(&mut self) -> (usize, Vec<String>) {
        let mut shape = Rng::new(0x005E_ED0F_1065 ^ self.k);
        let s = self.k as usize % SCENARIOS.len();
        self.k += 1;
        let len = 3 + shape.below(3);
        let log: logs::Log = (0..len)
            .map(|_| (shape.below(logs::KINDS), 1 + self.rng.next_u64() % 1_000_000))
            .collect();
        (s, logs::log_sql(SCENARIOS[s], &log))
    }
}

struct Phase {
    ops: Ops,
    costs: Samples,
}

fn generate(catalog: &Catalog, log: &[Query]) -> Result<GeneratedInterface, String> {
    let pi2 = Pi2::builder(catalog.clone())
        .strategy(strategy())
        .budget(GenerationBudget::default())
        .build();
    pi2.generate(log).map_err(|e| e.to_string())
}

fn drive(
    ctx: &Ctx,
    limit: Limit,
    catalogs: &[Catalog],
    tracer: &mut Tracer,
    gen: &mut GenLayers,
    out: &mut Outcome,
) -> Phase {
    let mut stream = Logs::new(ctx.seed);
    let mut phase = Phase { ops: Ops::default(), costs: Samples::new() };
    let min_ops = samples_for_tail(0.90);
    let started = Instant::now();
    let mut k = 0u64;
    while limit.more(started.elapsed().as_secs_f64(), k as usize, min_ops) {
        k += 1;
        let (s, sql) = stream.next_log();
        out.attempted += 1;
        let log: Result<Vec<Query>, String> =
            sql.iter().map(|q| gen_layers::parse(tracer, q, k)).collect();
        let log = match log {
            Ok(l) => l,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("log {k}: {e}"));
                continue;
            }
        };
        let span = tracer.begin(GENERATE, None, k);
        let t0 = Instant::now();
        let generated = generate(&catalogs[s], &log);
        let elapsed = t0.elapsed();
        tracer.end(span);
        let g = match generated {
            Ok(g) => g,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("log {k}: {e}"));
                continue;
            }
        };
        phase.ops.push(elapsed, started.elapsed());
        phase.costs.push(g.cost.total);
        if tracer.enabled() {
            gen.absorb(&g.stats);
            if let Err(e) = gen_layers::probe(tracer, &catalogs[s], &log, k) {
                out.check(false, || format!("log {k}: layer probe: {e}"));
            }
        }
        out.check(
            g.stats.degradation == DegradationLevel::Full
                && g.cost.expressive
                && g.forest.expresses_all(&log),
            || {
                format!(
                    "log {k} ({}): interface does not express its log at full quality",
                    SCENARIOS[s].name()
                )
            },
        );
    }
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let build = || Ok::<Vec<Catalog>, String>(SCENARIOS.iter().map(|s| s.catalog()).collect());
    let Some(catalogs) = repeat_setup(&mut out, build, drop) else { return out };
    let mut gen = GenLayers::default();
    let mut idle = Tracer::new(false);
    let base =
        drive(ctx, Limit::Seconds(ctx.phase_seconds()), &catalogs, &mut idle, &mut gen, &mut out);
    let n = base.ops.len();
    out.headline.tail_q = 0.90;
    out.e2e =
        op_metrics(&base.ops, 0.90, ["generate_p50_ms", "generate_p90_ms", "generates_per_s"]);
    out.e2e.extend([Metric::new(
        "interface_cost",
        base.costs.mean(),
        "cost",
        Some(base.costs.len()),
    )]);
    if ctx.trace {
        let mut tracer = Tracer::new(true);
        let phase = drive(ctx, Limit::Steps(n), &catalogs, &mut tracer, &mut gen, &mut out);
        let untraced_p50 = op_p50(&base.ops);
        let mut path = path_self_us(tracer.spans(), &[GENERATE]);
        let mut layers = gen.metrics(&tracer);
        layers.extend([
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
        out.check(phase.costs.mean() == base.costs.mean(), || {
            "the traced pass generated interfaces of another cost".into()
        });
        out.layers = layers;
        write_spans(ctx, &tracer, "generate-cold", &mut out);
    }
    out.headline.ops = base.ops;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_logs_other_seed_differs() {
        let take = |seed| {
            let mut l = Logs::new(seed);
            (0..40).map(|_| l.next_log()).collect::<Vec<_>>()
        };
        assert_eq!(take(4), take(4));
        assert_ne!(take(4), take(5));
        assert!(take(6).iter().all(|(_, sql)| (3..=5).contains(&sql.len())));
    }

    #[test]
    fn generation_is_deterministic_and_full() {
        let catalog = Scenario::Covid.catalog();
        let sql = logs::log_sql(Scenario::Covid, &vec![(0, 1), (0, 2), (1, 3)]);
        let log: Vec<Query> = sql.iter().map(|s| pi2_sql::parse_query(s).unwrap()).collect();
        let a = generate(&catalog, &log).unwrap();
        let b = generate(&catalog, &log).unwrap();
        assert_eq!(a.cost.total, b.cost.total);
        assert_eq!(a.stats.degradation, DegradationLevel::Full);
        assert!(a.forest.expresses_all(&log));
    }
}
