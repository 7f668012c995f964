//! Generation-side layers (sql, difftree merge, interface mapper, cost,
//! mcts): spans around the benchmark's own calls into each layer's public
//! function, plus the phase timings and memo counters `Pi2::generate`
//! reports in its `GenerationStats`.

use crate::report::Metric;
use crate::stats::Samples;
use crate::trace::{durations_us, Tracer};
use pi2_core::prelude::{Catalog, GenerationStats, Query};
use pi2_difftree::DiffForest;
use pi2_interface::MapperConfig;

pub const PARSE: &str = "sql.parse";
pub const MERGE: &str = "difftree.merge";
pub const MAP: &str = "interface.map";

#[derive(Debug, Default)]
pub struct GenLayers {
    cost_ms: Samples,
    search_ms: Samples,
    iterations: Samples,
    reward_hits: u64,
    reward_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// Parse one SQL text inside a `sql.parse` span.
pub fn parse(tracer: &mut Tracer, sql: &str, req: u64) -> Result<Query, String> {
    tracer.span(PARSE, None, req, || pi2_sql::parse_query(sql)).map_err(|e| e.to_string())
}

/// Merge the log into one DiffTree and map the fully merged forest, each
/// inside its span. Only called when tracing: it repeats work that
/// `Pi2::generate` does internally, to time the layer on the same input.
pub fn probe(
    tracer: &mut Tracer,
    catalog: &Catalog,
    log: &[Query],
    req: u64,
) -> Result<(), String> {
    let indexed: Vec<(usize, &Query)> = log.iter().enumerate().collect();
    tracer.span(MERGE, None, req, || pi2_difftree::merge_queries(&indexed));
    let forest = DiffForest::fully_merged(log);
    tracer
        .span(MAP, None, req, || {
            pi2_interface::map_forest(&forest, catalog, log, &MapperConfig::default())
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}

impl GenLayers {
    pub fn absorb(&mut self, stats: &GenerationStats) {
        self.cost_ms.push_ms(stats.phase("cost"));
        self.search_ms.push_ms(stats.phase("search"));
        self.memo_hits += stats.memo_hits;
        self.memo_misses += stats.memo_misses;
        match &stats.search {
            Some(s) => {
                self.iterations.push(s.iterations as f64);
                self.reward_hits += s.cache_hits;
                self.reward_misses += s.cache_misses;
            }
            None => self.iterations.push(0.0),
        }
    }

    pub fn metrics(&mut self, tracer: &Tracer) -> Vec<Metric> {
        let spans = tracer.spans();
        vec![
            Metric::pct("sql.parse_us_p50", &mut durations_us(spans, PARSE), 0.5, "us"),
            Metric::pct("difftree.merge_us_p50", &mut durations_us(spans, MERGE), 0.5, "us"),
            Metric::pct("interface.map_us_p50", &mut durations_us(spans, MAP), 0.5, "us"),
            Metric::pct("cost.phase_ms", &mut self.cost_ms, 0.5, "ms"),
            Metric::ratio(
                "cost.memo_hit_ratio",
                self.memo_hits as f64,
                (self.memo_hits + self.memo_misses) as f64,
            ),
            Metric::pct("mcts.phase_ms", &mut self.search_ms, 0.5, "ms"),
            Metric::pct("mcts.iterations", &mut self.iterations, 0.5, "count"),
            Metric::ratio(
                "mcts.reward_cache_hit_ratio",
                self.reward_hits as f64,
                (self.reward_hits + self.reward_misses) as f64,
            ),
        ]
    }
}
