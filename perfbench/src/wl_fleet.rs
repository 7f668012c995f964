//! `fleet-mix`: a journaled `Server` over real TCP with one reactor
//! worker, driven by a single-threaded nonblocking driver on two
//! connections that multiplexes many toy/covid/sp500 sessions.
//!
//! A seeded open-loop schedule issues requests at a fixed rate
//! (`RATE_PER_S`, about half of the rate that saturates the server on a
//! 2-core host) whether or not earlier ones have been answered:
//! - reads (70%): a burst of 1–4 widget events as one `gesture`, then
//!   `render_delta`; the op time runs from when the burst was due to the
//!   patch frames in hand;
//! - writes (20%): a journaled `run_cell` of a one-row aggregate on a live
//!   session;
//! - churn (10%): `open` → `run_cell`s → `generate` → `close` on a log
//!   whose structure the fleet cache already holds, with the base
//!   literals (a cache hit) or fresh ones (a rebind).
//!
//! After the storm the server is dropped without a clean close, recovered
//! from its journal (journal defaults: no fsync per append, checkpoints
//! fsynced), and every live session is resumed by token; each must render
//! byte-identical to its pre-crash control.

use crate::logs::{self, Scenario};
use crate::report::{
    op_metrics, op_p50, repeat_setup, write_spans, Ctx, Metric, Outcome, GESTURE_TAIL_Q,
};
use crate::stats::{Ops, Rng, Samples};
use crate::trace::Tracer;
use pi2_core::prelude::{Event, FleetConfig, GenerationBudget, Pi2, SearchStrategy, Widget};
use pi2_server::{JournalConfig, Server, ServerConfig, ServerState};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, requests of any kind per second: about half the rate at
/// which this mix saturates the one reactor worker on a 2-core host
/// (latency stays bounded at 1000/s and runs away at 1300/s).
pub const RATE_PER_S: f64 = 600.0;
/// Long-lived sessions, spread evenly over the three scenarios.
pub const SESSIONS: usize = 24;
pub const CONNECTIONS: usize = 2;
pub const SCENARIOS: &[Scenario] = &[Scenario::Toy, Scenario::Covid, Scenario::Sp500];
/// Unmeasured storm before the measured one.
const WARM_UP_S: f64 = 1.0;
/// How long a request may stay unanswered before the run gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// The base log of each scenario: the structure every session and every
/// churn log shares, so the fleet cache holds it after set-up.
fn base_log(s: Scenario) -> logs::Log {
    // Covid's date windows map to a brush on the chart; its per-state
    // template gives a widget like the others.
    let kind = if s == Scenario::Covid { 1 } else { 0 };
    vec![(kind, 0), (kind, 1), (kind, 2)]
}

/// Sessions search with MCTS at its default iteration budget and no
/// deadline, so every generation is full quality (and cacheable) and
/// deterministic.
fn open_request(s: Scenario) -> Value {
    json!({"cmd": "open", "scenario": s.name(), "strategy": "mcts", "deadline_ms": 0})
}

/// The interface the server generates for `s`'s base log, built through
/// the core API the way the server builds it, for picking valid events.
fn local_widgets(s: Scenario) -> Result<Vec<Widget>, String> {
    let sql = logs::log_sql(s, &base_log(s));
    let log: Vec<_> = sql
        .iter()
        .map(|q| pi2_sql::parse_query(q).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let pi2 = Pi2::builder(s.catalog())
        .strategy(SearchStrategy::default())
        .budget(GenerationBudget::default())
        .build();
    let g = pi2.generate(&log).map_err(|e| e.to_string())?;
    if g.interface.widgets.is_empty() {
        return Err(format!("{} base log generated no widget", s.name()));
    }
    Ok(g.interface.widgets)
}

// ---- the schedule ----------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Read { slot: usize, events: Vec<Event> },
    Write { slot: usize, sql: String },
    Churn { scenario: usize, sql: Vec<String> },
}

/// Arrivals at `RATE_PER_S` over `seconds`, evenly spaced with a seeded
/// jitter of up to a quarter interval: (due offset in s, op). Even spacing
/// keeps the offered rate fixed at every scale, so queueing comes from
/// the server's service times rather than from bursts in the schedule.
pub fn schedule(seed: u64, seconds: f64, widgets: &[Vec<Widget>]) -> Vec<(f64, Op)> {
    let mut rng = Rng::new(seed ^ 0xF1EE_7000);
    let interval = 1.0 / RATE_PER_S;
    let mut ops = Vec::new();
    for i in 0.. {
        let t = (i as f64 + 0.5 + 0.25 * (rng.unit() - 0.5)) * interval;
        if t >= seconds {
            return ops;
        }
        let roll = rng.unit();
        let op = if roll < 0.7 {
            let slot = rng.below(SESSIONS);
            let ws = &widgets[slot % SCENARIOS.len()];
            let n = 1 + rng.below(4);
            let events = (0..n)
                .filter_map(|_| {
                    let w = &ws[rng.below(ws.len())];
                    logs::widget_event(&mut rng, w)
                })
                .collect();
            Op::Read { slot, events }
        } else if roll < 0.9 {
            let slot = rng.below(SESSIONS);
            Op::Write { slot, sql: write_sql(SCENARIOS[slot % SCENARIOS.len()], &mut rng) }
        } else {
            let scenario = rng.below(SCENARIOS.len());
            let s = SCENARIOS[scenario];
            let mut log = base_log(s);
            if rng.chance(0.5) {
                for q in &mut log {
                    q.1 = 1000 + rng.next_u64() % 1_000_000;
                }
            }
            Op::Churn { scenario, sql: logs::log_sql(s, &log) }
        };
        ops.push((t, op));
    }
    ops
}

/// A notebook cell a live session runs as a write: a one-row aggregate,
/// so the cells its notebook keeps stay small.
fn write_sql(s: Scenario, rng: &mut Rng) -> String {
    match s {
        Scenario::Covid => {
            let state = rng.pick(pi2_datasets::covid::STATES).0;
            format!("SELECT sum(cases) FROM covid WHERE state = '{state}'")
        }
        Scenario::Sp500 => {
            let ticker = rng.pick(pi2_datasets::sp500::COMPANIES).0;
            format!("SELECT avg(close) FROM prices WHERE ticker = '{ticker}'")
        }
        _ => format!("SELECT count(*) FROM t WHERE a = {}", rng.below(5)),
    }
}

// ---- the nonblocking driver --------------------------------------------------

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, wbuf: Vec::new(), rbuf: Vec::new() })
    }

    /// Write what the socket takes, read what it has; returns complete
    /// response lines.
    fn pump(&mut self, lines: &mut Vec<Vec<u8>>) -> std::io::Result<bool> {
        let mut progress = false;
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            lines.push(line);
        }
        Ok(progress)
    }
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Gesture,
    /// A session's render_delta, answering the reads in its `rendering`.
    Render {
        slot: usize,
    },
    Write,
    ChurnOpen {
        chain: usize,
    },
    ChurnCell,
    ChurnGenerate {
        chain: usize,
        sent: Instant,
    },
    ChurnClose,
    Call,
}

struct InFlight {
    kind: Pending,
    endpoint: &'static str,
    sent: Instant,
}

struct Driver {
    conns: Vec<Conn>,
    next_id: u64,
    pending: HashMap<u64, InFlight>,
}

struct Done {
    kind: Pending,
    endpoint: &'static str,
    sent: Instant,
    at: Instant,
    response: Value,
}

impl Driver {
    fn connect(addr: std::net::SocketAddr) -> Result<Driver, String> {
        let conns = (0..CONNECTIONS).map(|_| Conn::connect(addr)).collect::<Result<_, _>>();
        Ok(Driver {
            conns: conns.map_err(|e| format!("connect: {e}"))?,
            next_id: 0,
            pending: HashMap::new(),
        })
    }

    fn send(&mut self, conn: usize, mut request: Value, kind: Pending) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        // The request's span name in a traced run.
        let endpoint = match request["cmd"].as_str() {
            Some("gesture") => "server.gesture",
            Some("render_delta") => "server.render_delta",
            Some("run_cell") => "server.run_cell",
            Some("open") => "server.open",
            Some("generate") => "server.generate",
            Some("close") => "server.close",
            _ => "server.other",
        };
        request["id"] = json!(id);
        let n = self.conns.len();
        let c = &mut self.conns[conn % n];
        c.wbuf.extend_from_slice(serde_json::to_string(&request).unwrap_or_default().as_bytes());
        c.wbuf.push(b'\n');
        self.pending.insert(id, InFlight { kind, endpoint, sent: Instant::now() });
        id
    }

    /// Move bytes on every connection; returns the completed requests.
    fn pump(&mut self) -> Result<(bool, Vec<Done>), String> {
        let mut lines = Vec::new();
        let mut progress = false;
        for c in &mut self.conns {
            progress |= c.pump(&mut lines).map_err(|e| format!("connection: {e}"))?;
        }
        let at = Instant::now();
        let mut done = Vec::with_capacity(lines.len());
        for line in lines {
            let text = String::from_utf8_lossy(&line);
            let response = serde_json::from_str(text.trim_end())
                .map_err(|e| format!("bad response: {e:?}"))?;
            let id =
                response["id"].as_u64().ok_or_else(|| format!("response without id: {text}"))?;
            let f =
                self.pending.remove(&id).ok_or_else(|| format!("unexpected response id {id}"))?;
            done.push(Done { kind: f.kind, endpoint: f.endpoint, sent: f.sent, at, response });
        }
        Ok((progress, done))
    }

    /// A blocking round trip (set-up and checks only).
    fn call(&mut self, conn: usize, request: Value) -> Result<Value, String> {
        let id = self.send(conn, request, Pending::Call);
        let started = Instant::now();
        loop {
            let (progress, done) = self.pump()?;
            if let Some(d) = done.into_iter().find(|d| d.response["id"].as_u64() == Some(id)) {
                return Ok(d.response);
            }
            if started.elapsed() > REQUEST_TIMEOUT {
                return Err("request timed out".into());
            }
            if !progress {
                std::thread::yield_now();
            }
        }
    }

    fn call_ok(&mut self, conn: usize, request: Value) -> Result<Value, String> {
        let r = self.call(conn, request.clone())?;
        if r["ok"].as_bool() == Some(true) {
            Ok(r)
        } else {
            Err(format!("{request} -> {r}"))
        }
    }
}

// ---- set-up -------------------------------------------------------------------

struct Slot {
    id: u64,
    token: String,
    conn: usize,
    version: u64,
    /// Reads (due, gesture sent) the in-flight render_delta will answer.
    rendering: Vec<(Instant, Instant)>,
    /// Reads whose gesture went out while a render_delta was in flight;
    /// the next one answers them. Like a streaming client, a session
    /// keeps one render_delta outstanding.
    waiting: Vec<(Instant, Instant)>,
}

impl Slot {
    /// Ask for the frames of every waiting read, unless a render_delta is
    /// already in flight (its response triggers the next request).
    fn render(&mut self, slot: usize, d: &mut Driver, out: &mut Outcome) {
        if self.rendering.is_empty() && !self.waiting.is_empty() {
            self.rendering = std::mem::take(&mut self.waiting);
            let request = json!({"cmd": "render_delta", "session": self.id, "since": self.version});
            d.send(self.conn, request, Pending::Render { slot });
            out.attempted += 1;
        }
    }
}

struct Fleet {
    server: Server,
    state: Arc<ServerState>,
    driver: Driver,
    slots: Vec<Slot>,
    dir: PathBuf,
}

fn start(dir: &Path) -> Result<(Server, Arc<ServerState>, pi2_server::RecoveryReport), String> {
    let (state, report) =
        ServerState::with_journal(FleetConfig::default(), JournalConfig::new(dir))
            .map_err(|e| format!("journal: {e}"))?;
    let state = Arc::new(state);
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&state), ServerConfig::new().workers(1))
            .map_err(|e| format!("bind: {e}"))?;
    Ok((server, state, report))
}

fn setup(dir: PathBuf, widgets: &[Vec<Widget>]) -> Result<Fleet, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let (server, state, _) = start(&dir)?;
    let mut driver = Driver::connect(server.local_addr())?;
    let mut slots = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let scenario = SCENARIOS[i % SCENARIOS.len()];
        let conn = i % CONNECTIONS;
        let opened = driver.call_ok(conn, open_request(scenario))?;
        let id = opened["session"].as_u64().ok_or("open without session")?;
        let token = opened["session_token"].as_str().ok_or("open without token")?.to_string();
        for sql in logs::log_sql(scenario, &base_log(scenario)) {
            driver.call_ok(conn, json!({"cmd": "run_cell", "session": id, "sql": sql}))?;
        }
        let g = driver.call_ok(conn, json!({"cmd": "generate", "session": id}))?;
        if g["degradation"].as_str() != Some("full") {
            return Err(format!("generate: {g}"));
        }
        let snap = driver.call_ok(conn, json!({"cmd": "render_delta", "session": id}))?;
        let served: Vec<u64> = snap["scene"]["widgets"]
            .as_array()
            .map(|ws| ws.iter().filter_map(|w| w["widget"].as_u64()).collect())
            .unwrap_or_default();
        let expected: Vec<u64> = widgets[i % SCENARIOS.len()].iter().map(|w| w.id as u64).collect();
        if served != expected {
            return Err(format!(
                "{} session widgets {served:?}, expected {expected:?}",
                scenario.name()
            ));
        }
        let version = snap["scene_version"].as_u64().unwrap_or(0);
        slots.push(Slot { id, token, conn, version, rendering: Vec::new(), waiting: Vec::new() });
    }
    Ok(Fleet { server, state, driver, slots, dir })
}

// ---- the measured storm ---------------------------------------------------------

/// One open → run_cell → generate → close chain.
struct Chain {
    due: Instant,
    sql: Vec<String>,
    session: u64,
}

struct Storm {
    start: Instant,
    /// Reads: due → patch frames in hand.
    ops: Ops,
    patch_bytes: Samples,
    generate_ms: Samples,
    open_ms: Samples,
    lag_ms: Samples,
    /// Gesture sent → render_delta answered, per read.
    pair_rt_us: Samples,
    resyncs: u64,
    outcomes: HashMap<String, u64>,
    elapsed_s: f64,
}

fn storm(
    fleet: &mut Fleet,
    ops: &[(f64, Op)],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Storm, String> {
    let start = Instant::now();
    let mut st = Storm {
        start,
        ops: Ops::default(),
        patch_bytes: Samples::new(),
        generate_ms: Samples::new(),
        open_ms: Samples::new(),
        lag_ms: Samples::new(),
        pair_rt_us: Samples::new(),
        resyncs: 0,
        outcomes: HashMap::new(),
        elapsed_s: 0.0,
    };
    let mut churn: Vec<Chain> = Vec::new();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while next < ops.len() && start + Duration::from_secs_f64(ops[next].0) <= now {
            let due = start + Duration::from_secs_f64(ops[next].0);
            st.lag_ms.push_ms(now - due);
            issue(fleet, &ops[next].1, due, &mut churn, out);
            next += 1;
        }
        let (progress, done) = fleet.driver.pump()?;
        for d in done {
            let id = d.response["id"].as_u64().unwrap_or(0);
            tracer.record(d.endpoint, None, id, d.sent, d.at);
            complete(fleet, d, &mut st, &mut churn, tracer, out);
        }
        if next == ops.len() && fleet.driver.pending.is_empty() {
            break;
        }
        if now.duration_since(start).as_secs_f64()
            > ops.last().map_or(0.0, |o| o.0) + REQUEST_TIMEOUT.as_secs_f64()
        {
            out.failed += fleet.driver.pending.len() as u64;
            return Err(format!("{} requests unanswered", fleet.driver.pending.len()));
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    st.elapsed_s = start.elapsed().as_secs_f64();
    Ok(st)
}

fn issue(fleet: &mut Fleet, op: &Op, due: Instant, churn: &mut Vec<Chain>, out: &mut Outcome) {
    let d = &mut fleet.driver;
    match op {
        Op::Read { slot, events } => {
            let s = &mut fleet.slots[*slot];
            let wire: Vec<Value> = events.iter().map(pi2_server::protocol::event_to_json).collect();
            d.send(
                s.conn,
                json!({"cmd": "gesture", "session": s.id, "events": wire}),
                Pending::Gesture,
            );
            out.attempted += 1;
            s.waiting.push((due, Instant::now()));
            s.render(*slot, d, out);
        }
        Op::Write { slot, sql } => {
            let s = &fleet.slots[*slot];
            d.send(s.conn, json!({"cmd": "run_cell", "session": s.id, "sql": sql}), Pending::Write);
            out.attempted += 1;
        }
        Op::Churn { scenario, sql } => {
            let chain = churn.len();
            churn.push(Chain { due, sql: sql.clone(), session: 0 });
            d.send(chain, open_request(SCENARIOS[*scenario]), Pending::ChurnOpen { chain });
            out.attempted += 1;
        }
    }
}

fn complete(
    fleet: &mut Fleet,
    d: Done,
    st: &mut Storm,
    churn: &mut [Chain],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let r = &d.response;
    if r["ok"].as_bool() != Some(true) {
        out.failed += 1;
        out.notes.push(format!("{} failed: {r}", d.endpoint));
        if let Pending::Render { slot } = d.kind {
            // Its reads got no frames; the session's next reads still will.
            let s = &mut fleet.slots[slot];
            s.rendering.clear();
            s.render(slot, &mut fleet.driver, out);
        }
        return;
    }
    match d.kind {
        Pending::Render { slot } => {
            let s = &mut fleet.slots[slot];
            for (due, sent) in s.rendering.drain(..) {
                st.ops.push(d.at - due, d.at - st.start);
                st.pair_rt_us.push_us(d.at - sent);
            }
            s.version = s.version.max(r["scene_version"].as_u64().unwrap_or(0));
            s.render(slot, &mut fleet.driver, out);
            if r["resync"].as_bool() == Some(true) {
                st.resyncs += 1;
            }
            if let Some(frames) = r["frames"].as_array().filter(|f| !f.is_empty()) {
                let bytes: usize =
                    frames.iter().map(|f| serde_json::to_string(f).map_or(0, |s| s.len())).sum();
                st.patch_bytes.push(bytes as f64);
            }
        }
        Pending::ChurnOpen { chain } => {
            let Some(id) = r["session"].as_u64() else { return };
            let conn = chain;
            churn[chain].session = id;
            for sql in churn[chain].sql.clone() {
                if tracer.enabled() {
                    if let Err(e) = crate::gen_layers::parse(tracer, &sql, id) {
                        out.check(false, || format!("churn log: {e}"));
                    }
                }
                fleet.driver.send(
                    conn,
                    json!({"cmd": "run_cell", "session": id, "sql": sql}),
                    Pending::ChurnCell,
                );
                out.attempted += 1;
            }
            fleet.driver.send(
                conn,
                json!({"cmd": "generate", "session": id}),
                Pending::ChurnGenerate { chain, sent: Instant::now() },
            );
            out.attempted += 1;
        }
        Pending::ChurnGenerate { chain, sent } => {
            st.generate_ms.push_ms(d.at - sent);
            st.open_ms.push_ms(d.at - churn[chain].due);
            let outcome = r["fleet"].as_str().unwrap_or("none").to_string();
            *st.outcomes.entry(outcome).or_default() += 1;
            out.check(r["degradation"].as_str() == Some("full"), || format!("churn generate: {r}"));
            let id = churn[chain].session;
            fleet.driver.send(chain, json!({"cmd": "close", "session": id}), Pending::ChurnClose);
            out.attempted += 1;
        }
        Pending::Gesture
        | Pending::Write
        | Pending::ChurnCell
        | Pending::ChurnClose
        | Pending::Call => {}
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let widgets: Vec<Vec<Widget>> = match SCENARIOS.iter().map(|s| local_widgets(*s)).collect() {
        Ok(w) => w,
        Err(e) => {
            out.check(false, || format!("interfaces: {e}"));
            return out;
        }
    };
    let mut i = 0;
    let build = || {
        i += 1;
        setup(ctx.out_dir.join(format!("journal-{}-{i}", std::process::id())), &widgets)
    };
    let Some(mut fleet) = repeat_setup(&mut out, build, stop) else { return out };
    let mut idle = Tracer::new(false);
    // Warm-up: the first storm after set-up stalls for tens of ms while
    // every session takes its first checkpoints and caches fill; it is
    // run, checked and not measured.
    let warm = schedule(ctx.seed ^ 0x3A53, WARM_UP_S, &widgets);
    if let Err(e) = storm(&mut fleet, &warm, &mut idle, &mut out) {
        out.check(false, || format!("warm-up storm: {e}"));
        stop(fleet);
        return out;
    }
    let ops = schedule(ctx.seed, ctx.phase_seconds(), &widgets);
    let mut base = match storm(&mut fleet, &ops, &mut idle, &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("storm: {e}"));
            stop(fleet);
            return out;
        }
    };
    out.headline.tail_q = GESTURE_TAIL_Q;
    out.e2e = op_metrics(&base.ops, 0.99, ["gesture_p50_ms", "gesture_p99_ms", "gestures_per_s"]);
    out.e2e.extend([
        Metric::pct("patch_bytes_p50", &mut base.patch_bytes, 0.5, "B"),
        Metric::pct("generate_p50_ms", &mut base.generate_ms, 0.5, "ms"),
        Metric::pct("generate_p90_ms", &mut base.generate_ms, 0.9, "ms"),
        Metric::pct("open_p50_ms", &mut base.open_ms, 0.5, "ms"),
        // How late the open-loop driver sent requests.
        Metric::pct("driver_lag_p99_ms", &mut base.lag_ms.clone(), 0.99, "ms"),
    ]);
    out.notes.push(format!(
        "offered {RATE_PER_S}/s over {SESSIONS} sessions on {CONNECTIONS} connections; {} ops in {:.2} s; fleet outcomes {:?}",
        ops.len(),
        base.elapsed_s,
        base.outcomes
    ));
    if ctx.trace {
        traced(ctx, &mut fleet, &ops, &mut base, &mut out);
    }
    crash_and_recover(fleet, &mut out);
    out.headline.ops = base.ops;
    out
}

fn stats(fleet: &mut Fleet) -> Value {
    fleet.driver.call(0, json!({"cmd": "stats"})).map(|v| v["stats"].clone()).unwrap_or(Value::Null)
}

fn traced(ctx: &Ctx, fleet: &mut Fleet, ops: &[(f64, Op)], base: &mut Storm, out: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let before = stats(fleet);
    let journal = fleet.state.journal().cloned();
    let (lsn0, bytes0) = journal.as_ref().map_or((0, 0), |j| (j.last_lsn(), j.bytes()));
    let mut phase = match storm(fleet, ops, &mut tracer, out) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("traced storm: {e}")),
    };
    let after = stats(fleet);
    let (lsn1, bytes1) = journal.as_ref().map_or((0, 0), |j| (j.last_lsn(), j.bytes()));
    let delta = |path: &[&str]| {
        let get = |v: &Value| path.iter().fold(v, |v, k| &v[*k]).as_f64().unwrap_or(0.0);
        get(&after) - get(&before)
    };
    // Server self time of a read: the gesture + render_delta round trip
    // minus the core time the server reports for those endpoints (p50 of
    // its cumulative `stats` histograms; they cannot be differenced).
    // What remains is protocol, reactor, queueing and the socket.
    let core_us: f64 = ["gesture", "render_delta"]
        .iter()
        .map(|e| after["endpoints"][*e]["p50_us"].as_f64().unwrap_or(0.0))
        .sum();
    let self_us = (phase.pair_rt_us.median() - core_us).max(0.0);
    let hits = delta(&["fleet", "hits"]);
    let rebinds = delta(&["fleet", "rebinds"]);
    let misses = delta(&["fleet", "misses"]);
    let frames = (lsn1 - lsn0) as f64;
    let checkpoints = std::fs::read_dir(&fleet.dir)
        .map(|d| {
            d.flatten().filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-")).count()
        })
        .unwrap_or(0);
    let untraced_p50 = op_p50(&base.ops);
    let layers = vec![
        Metric::new("server.self_us_p50", self_us, "us", Some(phase.pair_rt_us.len())),
        // session_totals sums live sessions only (closed sessions drop
        // out); reported as the server gives it.
        Metric::ratio(
            "server.coalesced_ratio",
            delta(&["session_totals", "coalesced"]),
            delta(&["session_totals", "enqueued"]),
        ),
        Metric::count("server.overloaded", delta(&["overloaded"])),
        Metric::count("server.resyncs", phase.resyncs as f64),
        Metric::pct("driver.lag_ms_p99", &mut phase.lag_ms, 0.99, "ms"),
        Metric::new(
            "journal.bytes_per_op",
            bytes1.saturating_sub(bytes0) as f64 / frames.max(1.0),
            "B",
            None,
        ),
        Metric::count("journal.frames", frames),
        Metric::count("journal.checkpoints", checkpoints as f64),
        Metric::ratio(
            "fleet.hit_ratio",
            hits,
            hits + rebinds + misses + delta(&["fleet", "joins"]),
        ),
        Metric::count("fleet.rebinds", rebinds),
        Metric::count("fleet.misses", misses),
        Metric::pct(
            "sql.parse_us_p50",
            &mut crate::trace::durations_us(tracer.spans(), crate::gen_layers::PARSE),
            0.5,
            "us",
        ),
        Metric::new(
            "trace.overhead_op_ms",
            op_p50(&phase.ops) - untraced_p50,
            "ms",
            Some(phase.ops.len()),
        ),
        // The blocking path of a read is the two round trips.
        Metric::pct("trace.path_self_us_p50", &mut phase.pair_rt_us, 0.5, "us"),
        Metric::new(
            "trace.residual_ms",
            untraced_p50 - phase.pair_rt_us.median() / 1e3,
            "ms",
            Some(phase.pair_rt_us.len()),
        ),
    ];
    out.notes.push(format!(
        "stats.session_totals counts live sessions only (known defect): {}",
        after["session_totals"]
    ));
    out.layers = layers;
    write_spans(ctx, &tracer, "fleet-mix", out);
}

/// Render every live session as its control, drop the server without a
/// clean close, recover from the journal, resume every session by token
/// and compare its render with the control.
fn crash_and_recover(mut fleet: Fleet, out: &mut Outcome) {
    let mut controls = Vec::with_capacity(fleet.slots.len());
    for s in &fleet.slots {
        match fleet.driver.call_ok(s.conn, json!({"cmd": "render", "session": s.id})) {
            Ok(r) => controls.push(r["text"].as_str().unwrap_or_default().to_string()),
            Err(e) => return out.check(false, || format!("control render: {e}")),
        }
    }
    let Fleet { server, state, driver, slots, dir } = fleet;
    // Crash: stop serving and drop the server without `join`, which would
    // write the clean-shutdown checkpoints and marker.
    state.begin_drain();
    drop(driver);
    drop(server);
    drop(state);
    let started = Instant::now();
    let recovered = start(&dir);
    let recover_s = started.elapsed().as_secs_f64();
    let (server, state, report) = match recovered {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("recovery: {e}")),
    };
    out.e2e.push(Metric::new("recover_s", recover_s, "s", Some(1)));
    out.layers.push(Metric::count("recovery.frames_replayed", report.frames_replayed as f64));
    let mut identical = 0usize;
    match Driver::connect(server.local_addr()) {
        Ok(mut driver) => {
            for (s, control) in slots.iter().zip(&controls) {
                out.attempted += 1;
                let resumed = driver.call_ok(0, json!({"cmd": "resume", "token": s.token}));
                let rendered = driver.call_ok(0, json!({"cmd": "render", "session": s.id}));
                match (resumed, rendered) {
                    (Ok(r), Ok(t))
                        if r["session"].as_u64() == Some(s.id)
                            && t["text"].as_str() == Some(control) =>
                    {
                        identical += 1
                    }
                    (r, t) => {
                        out.check(false, || format!("session {} after recovery: {r:?} {t:?}", s.id))
                    }
                }
            }
        }
        Err(e) => out.check(false, || e),
    }
    out.notes.push(format!(
        "recovery: {} sessions, {} frames replayed, {identical}/{} renders identical",
        report.sessions_recovered,
        report.frames_replayed,
        slots.len()
    ));
    state.begin_drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stop a set-up fleet that will not be measured.
fn stop(fleet: Fleet) {
    fleet.state.begin_drain();
    drop(fleet.driver);
    fleet.server.join();
    let _ = std::fs::remove_dir_all(&fleet.dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widgets() -> Vec<Vec<Widget>> {
        SCENARIOS.iter().map(|s| local_widgets(*s).unwrap()).collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let w = widgets();
        let a = schedule(7, 2.0, &w);
        assert_eq!(a, schedule(7, 2.0, &w));
        assert_ne!(a, schedule(8, 2.0, &w));
        // Evenly spaced arrivals at the fixed rate.
        let n = a.len() as f64;
        assert!((n - 2.0 * RATE_PER_S).abs() <= 1.0, "{n} arrivals");
        assert!(a.windows(2).all(|p| p[0].0 <= p[1].0));
        let reads = a.iter().filter(|(_, op)| matches!(op, Op::Read { .. })).count() as f64;
        assert!((reads / n - 0.7).abs() < 0.05, "read share {}", reads / n);
    }
}
