//! The core gesture→patch path through the public API: dispatch, scene
//! sync, and patch encoding. `sdss-scan-1m` times it directly;
//! `sdss-stream` replays its stream through it as the mirror of the
//! server session. In a traced run it also records the spans and
//! differences the session and engine counters around the blocking calls.

use crate::report::Metric;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use pi2_core::prelude::{Catalog, Event, GeneratedInterface, InterfaceSession, SessionStats};
use pi2_core::scene::delta_to_json;
use pi2_engine::DeltaCache;
use std::time::Instant;

/// Span names on the blocking path of one gesture.
pub const DISPATCH: &str = "session.dispatch";
pub const SYNC: &str = "scene.sync";
pub const ENCODE: &str = "scene.encode";

pub struct CorePath {
    pub session: InterfaceSession,
    generated: GeneratedInterface,
    catalog: Catalog,
    /// The engine probe's own delta cache: the probe re-executes each
    /// gesture's lowered queries without touching the session's caches.
    probe_delta: DeltaCache,
    stats_before: SessionStats,
    blocks: (u64, u64),
    pub empty_deltas: u64,
    pub patch_rows: Samples,
    /// Encoded frame bytes of every non-empty delta.
    pub patch_bytes: Samples,
}

impl CorePath {
    pub fn new(generated: GeneratedInterface, catalog: Catalog) -> Result<Self, String> {
        let session = generated.session(&catalog);
        // Attach the streaming client: the first sync builds the scene.
        session.scene_sync().map_err(|e| e.to_string())?;
        let stats_before = session.stats();
        Ok(CorePath {
            session,
            generated,
            catalog,
            probe_delta: DeltaCache::new(),
            stats_before,
            blocks: (0, 0),
            empty_deltas: 0,
            patch_rows: Samples::new(),
            patch_bytes: Samples::new(),
        })
    }

    /// Restart counter differencing (call when the measured phase starts).
    pub fn reset_counters(&mut self) {
        self.stats_before = self.session.stats();
        self.blocks = (0, 0);
        self.empty_deltas = 0;
        self.patch_rows = Samples::new();
        self.patch_bytes = Samples::new();
    }

    /// Dispatch `event`, sync the scene and encode the delta. With a live
    /// tracer, `gesture_parent` parents the dispatch and sync spans and
    /// `render_parent` the encode span: the server requests doing that
    /// work when this is a mirror (`gesture` dispatches and syncs the
    /// scene, `render_delta` encodes the frames). Returns the encoded
    /// frame, `None` when the gesture changed nothing.
    pub fn step(
        &mut self,
        event: Event,
        tracer: &mut Tracer,
        gesture_parent: Option<SpanId>,
        render_parent: Option<SpanId>,
        req: u64,
    ) -> Result<Option<String>, String> {
        let traced = tracer.enabled();
        let before = if traced { self.catalog.scan_counts() } else { (0, 0) };
        let span = tracer.begin(DISPATCH, gesture_parent, req);
        let dispatched = self.session.dispatch(event);
        tracer.end(span);
        dispatched.map_err(|e| e.to_string())?;
        let span = tracer.begin(SYNC, gesture_parent, req);
        let delta = self.session.scene_sync();
        tracer.end(span);
        let delta = delta.map_err(|e| e.to_string())?;
        if traced {
            let after = self.catalog.scan_counts();
            self.blocks.0 += after.0 - before.0;
            self.blocks.1 += after.1 - before.1;
        }
        let span = tracer.begin(ENCODE, render_parent, req);
        let frame = delta.as_ref().map(|d| serde_json::to_string(&delta_to_json(d)));
        tracer.end(span);
        let frame = frame.transpose().map_err(|e| format!("{e:?}"))?;
        match &delta {
            None => self.empty_deltas += 1,
            Some(d) => {
                self.patch_bytes.push(frame.as_ref().map_or(0, String::len) as f64);
                let rows: usize =
                    d.charts.iter().filter_map(|c| c.data.as_ref()).map(|p| p.payload_rows()).sum();
                self.patch_rows.push(rows as f64);
            }
        }
        Ok(frame)
    }

    /// Lower every chart's query from its bindings and execute it the way
    /// a session cache miss would (delta path, else full columnar), on
    /// the probe's own delta cache. Off the blocking path: call it after
    /// the timed step, and only when tracing.
    pub fn probe_engine(&mut self, tracer: &mut Tracer, req: u64) -> Result<(), String> {
        for chart in &self.generated.interface.charts {
            let Some(bindings) = self.session.bindings(chart.tree) else { continue };
            let tree = &self.generated.forest.trees[chart.tree];
            let query = tracer
                .span("difftree.lower", None, req, || pi2_difftree::lower_query(tree, bindings))
                .map_err(|e| e.to_string())?;
            let span = tracer.begin("engine.exec", None, req);
            let result = match self.catalog.execute_delta(&query, &mut self.probe_delta) {
                Some((r, _)) => r,
                None => self.catalog.execute_uncached(&query),
            };
            tracer.end(span);
            result.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Session and engine counters differenced since the last reset.
    pub fn counter_metrics(&mut self) -> Vec<Metric> {
        let now = self.session.stats();
        let b = &self.stats_before;
        let hits = (now.cache_hits - b.cache_hits) as f64;
        let misses = (now.cache_misses - b.cache_misses) as f64;
        let memo_hits = (now.query_memo_hits - b.query_memo_hits) as f64;
        let memo_misses = (now.query_memo_misses - b.query_memo_misses) as f64;
        let delta_hits = (now.delta_hits - b.delta_hits) as f64;
        let (scanned, pruned) = (self.blocks.0 as f64, self.blocks.1 as f64);
        vec![
            Metric::ratio("session.result_cache_hit_ratio", hits, hits + misses),
            Metric::ratio("session.query_memo_hit_ratio", memo_hits, memo_hits + memo_misses),
            Metric::count("session.charts_skipped", (now.charts_skipped - b.charts_skipped) as f64),
            Metric::count("engine.blocks_scanned", scanned),
            Metric::count("engine.blocks_pruned", pruned),
            Metric::ratio("engine.prune_ratio", pruned, scanned + pruned),
            Metric::ratio("engine.delta_hit_ratio", delta_hits, misses),
            Metric::count("scene.empty_deltas", self.empty_deltas as f64),
            Metric::pct("scene.patch_rows_p50", &mut self.patch_rows, 0.5, "count"),
        ]
    }
}

/// Build a catalog and report how long it took, how long its columnar
/// mirrors took, and the resident bytes it added per row.
pub fn timed_catalog(rows: usize, build: impl FnOnce() -> Catalog) -> (Catalog, Vec<Metric>) {
    let rss_before = crate::stats::rss_bytes().unwrap_or(0.0);
    let started = Instant::now();
    let catalog = build();
    let build_s = started.elapsed().as_secs_f64();
    let rss_after = crate::stats::rss_bytes().unwrap_or(0.0);
    let metrics = vec![
        Metric::new("engine.catalog_build_s", build_s, "s", Some(1)),
        Metric::new(
            "engine.columnar_build_s",
            catalog.columnar_build_nanos() as f64 / 1e9,
            "s",
            Some(1),
        ),
        Metric::new(
            "engine.bytes_per_row",
            (rss_after - rss_before).max(0.0) / rows as f64,
            "B",
            None,
        ),
    ];
    (catalog, metrics)
}
