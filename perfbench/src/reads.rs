//! The read side: socket requests through the paced client, the traced
//! in-process replay (`build_plan` → `execute` → `to_string_compact` →
//! `compress` → `Router::dispatch` on the cache-off twin), and the
//! correctness references.

use crate::ledger::Ledger;
use crate::pace::{Exchange, PacedClient};
use crate::stats::{ratio, Failures, Metrics};
use crate::world::ReadSide;
use monster_builder::{build_plan, execute, BuilderRequest};
use monster_http::Request;
use monster_sim::NetModel;
use monster_tsdb::Db;
use monster_util::NodeId;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer accumulators over replayed requests (traced runs only) and
/// cache dispositions over socket requests (every run).
#[derive(Default)]
pub struct ReadLayers {
    pub socket: usize,
    pub hits: usize,
    pub coalesced: usize,
    pub rejected: usize,
    /// Replayed requests, and of those the misses (executed in replay).
    pub replayed: usize,
    pub executed: usize,
    plan_s: f64,
    execute_s: f64,
    json_s: f64,
    raw_bytes: f64,
    compressed: usize,
    compress_s: f64,
    compress_in: f64,
    compress_out: f64,
    dispatch_s: f64,
    http_overhead_s: f64,
    points_scanned: f64,
    blocks_summarized: f64,
    blocks_decoded: f64,
    query_vtime_s: f64,
    transfer_vtime_s: f64,
}

impl ReadLayers {
    /// Count one socket response's disposition.
    pub fn observe(&mut self, ex: &Exchange) {
        self.socket += 1;
        match ex.cache.as_deref() {
            Some("hit") => self.hits += 1,
            Some("coalesced") => self.coalesced += 1,
            _ => {}
        }
        if ex.status == 429 {
            self.rejected += 1;
        }
    }

    /// Account one replayed request's served-path figures.
    fn served(&mut self, ex: &Exchange, dispatch_s: f64) {
        self.replayed += 1;
        self.dispatch_s += dispatch_s;
        self.http_overhead_s += ex.latency_s() - dispatch_s;
        self.transfer_vtime_s +=
            NetModel::GIGABIT_LAN.transfer_cost(ex.wire_bytes as u64).as_secs_f64();
    }

    pub fn put(&self, m: &mut Metrics) {
        // Execution figures per replayed miss; served-path ones per
        // replayed request.
        let n = self.executed as f64;
        let per = |x: f64| ratio(x, n) * 1e3;
        let per_served = |x: f64| ratio(x, self.replayed as f64) * 1e3;
        m.put("tsdb.points_scanned", ratio(self.points_scanned, n), "count");
        m.put(
            "tsdb.summary_hit_ratio",
            ratio(self.blocks_summarized, self.blocks_summarized + self.blocks_decoded),
            "ratio",
        );
        m.put("tsdb.query_vtime_ms", per(self.query_vtime_s), "ms");
        m.put("builder.plan_ms", per(self.plan_s), "ms");
        m.put("builder.execute_ms", per(self.execute_s), "ms");
        m.put("builder.dispatch_ms", per_served(self.dispatch_s), "ms");
        m.put("builder.cache_hit_ratio", ratio(self.hits as f64, self.socket as f64), "ratio");
        m.put("builder.coalesced", self.coalesced as f64, "count");
        m.put("builder.rejected", self.rejected as f64, "count");
        m.put("json.serialize_ms", per(self.json_s), "ms");
        m.put("json.raw_bytes", ratio(self.raw_bytes, n), "B");
        m.put("compress.ms", ratio(self.compress_s, self.compressed as f64) * 1e3, "ms");
        m.put("compress.mb_per_s", ratio(self.compress_in / 1e6, self.compress_s), "MB/s");
        m.put("compress.ratio", ratio(self.compress_out, self.compress_in), "ratio");
        m.put("http.overhead_ms", per_served(self.http_overhead_s), "ms");
        m.put("net.transfer_vtime_ms", per_served(self.transfer_vtime_s), "ms");
    }
}

/// Classify a socket outcome; `Some` when the exchange succeeded with 2xx.
pub fn classify(
    outcome: std::io::Result<Exchange>,
    failures: &mut Failures,
    layers: &mut ReadLayers,
) -> Option<Exchange> {
    failures.attempted += 1;
    match outcome {
        Err(_) => {
            failures.transport += 1;
            None
        }
        Ok(ex) => {
            layers.observe(&ex);
            if ex.status == 429 {
                failures.rejected += 1;
                None
            } else if !(200..300).contains(&ex.status) {
                failures.status += 1;
                None
            } else {
                Some(ex)
            }
        }
    }
}

/// The decoded body of a 2xx exchange.
pub fn decoded(ex: &Exchange) -> Option<Vec<u8>> {
    if ex.compressed {
        monster_compress::decompress(&ex.body).ok()
    } else {
        Some(ex.body.clone())
    }
}

/// The in-process reference body for `req`: what the service serializes
/// before any compression.
pub fn reference(db: &Arc<Db>, rs: &ReadSide, nodes: &[NodeId], req: &BuilderRequest) -> String {
    let plan = build_plan(rs.config.schema, nodes, req);
    match execute(db, &plan, rs.config.exec) {
        Ok(outcome) => outcome.document.to_string_compact(),
        Err(e) => format!("reference execution failed: {e}"),
    }
}

/// Replay one socket request in-process, off the clock, recording the
/// ledger spans of its layers under a unit whose stopwatch is the socket
/// latency. A miss replays what the server executed: `build_plan` →
/// `execute` → `to_string_compact` → `compress` → `Router::dispatch` on
/// the cache-off twin; it returns the uncompressed reference body. A hit
/// times `Router::dispatch` on the cached twin once it holds the entry.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    db: &Arc<Db>,
    rs: &ReadSide,
    nodes: &[NodeId],
    url: &str,
    req: &BuilderRequest,
    ex: &Exchange,
    ledger: &mut Ledger,
    layers: &mut ReadLayers,
) -> Option<String> {
    if ex.cache.as_deref() == Some("hit") {
        let request = Request::get(url);
        drop(rs.cached_twin.dispatch(&request));
        let t = Instant::now();
        let resp = rs.cached_twin.dispatch(&request);
        let dispatch_s = t.elapsed().as_secs_f64();
        drop(resp);
        ledger.external_unit(ex.latency_s());
        ledger.record("builder.service", dispatch_s, None);
        ledger.record("net.read", ex.read_s(), None);
        ledger.close_unit();
        layers.served(ex, dispatch_s);
        return None;
    }
    let t = Instant::now();
    let plan = build_plan(rs.config.schema, nodes, req);
    let plan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = execute(db, &plan, rs.config.exec);
    let execute_s = t.elapsed().as_secs_f64();
    let Ok(outcome) = outcome else {
        return Some("reference execution failed".into());
    };
    let (cost, query_time) = (outcome.cost, outcome.query_time);
    let t = Instant::now();
    let json = outcome.document.to_string_compact();
    let json_s = t.elapsed().as_secs_f64();
    drop(outcome);
    let (compress_s, packed) = if req.compress {
        let t = Instant::now();
        let packed = monster_compress::compress(json.as_bytes(), rs.config.level);
        (t.elapsed().as_secs_f64(), packed.len())
    } else {
        (0.0, json.len())
    };
    let t = Instant::now();
    let resp = rs.twin.dispatch(&Request::get(url));
    let dispatch_s = t.elapsed().as_secs_f64();
    drop(resp);

    ledger.external_unit(ex.latency_s());
    let dispatch = ledger.record("builder.service", dispatch_s, None);
    ledger.record("builder.plan", plan_s, Some(dispatch));
    ledger.record("builder.execute", execute_s, Some(dispatch));
    ledger.record("json", json_s, Some(dispatch));
    if req.compress {
        ledger.record("compress", compress_s, Some(dispatch));
    }
    ledger.record("net.read", ex.read_s(), None);
    ledger.close_unit();

    layers.served(ex, dispatch_s);
    layers.executed += 1;
    layers.plan_s += plan_s;
    layers.execute_s += execute_s;
    layers.json_s += json_s;
    layers.raw_bytes += json.len() as f64;
    if req.compress {
        layers.compressed += 1;
        layers.compress_s += compress_s;
        layers.compress_in += json.len() as f64;
        layers.compress_out += packed as f64;
    }
    layers.points_scanned += cost.points as f64;
    layers.blocks_summarized += cost.blocks_summarized as f64;
    layers.blocks_decoded += cost.blocks as f64;
    layers.query_vtime_s += query_time.as_secs_f64();
    Some(json)
}

/// Open the paced connection to the served router.
pub fn connect(rs: &ReadSide) -> std::io::Result<PacedClient> {
    PacedClient::connect(rs.server.addr(), crate::pace::GIGABIT)
}
