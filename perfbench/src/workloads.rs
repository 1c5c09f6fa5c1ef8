//! The three workloads. Each sets up several times (`setup_s` is the
//! median), measures its main phase for `--seconds`, restarts the store
//! with `Db::recover` (`fleet_history` only when traced), and ends with a
//! short read probe, so that every end-to-end metric is measured on every
//! workload (see README.md for which phase supplies which metric).

use crate::gen::{self, mix, HistoryRequest};
use crate::ledger::{Folded, Ledger};
use crate::pace::{Exchange, PacedClient};
use crate::reads::{self, ReadLayers};
use crate::stats::{mean, median, percentile, ratio, rss_peak_mb, Failures, Metrics};
use crate::world::{self, DataDir, Interval, ReadSide, World, INTERVAL_SECS};
use monster_bench::storm::{self, Panel};
use monster_builder::service::ServiceConfig;
use monster_builder::{Admission, AdmissionConfig, AdmissionController};
use monster_http::Request;
use monster_tsdb::Db;
use monster_util::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run, per workload; `setup_s` is their median. A
/// `live_ingest` set-up is a fraction of a second, so it takes many; the
/// read workloads' bulk loads of every set-up are pooled into their
/// `ingest_pts_per_s`.
const LIVE_SETUPS: usize = 9;
const FLEET_SETUPS: usize = 3;
const DASH_SETUPS: usize = 9;
/// Scheduler workload pre-generated per world (longer than any run).
const HORIZON_SECS: i64 = 2 * 86_400;
/// Live intervals run during set-up before anything is timed.
const WARMUP_INTERVALS: usize = 3;
/// `fleet_history`: hours of 467-node history.
const FLEET_HISTORY_SECS: i64 = 6 * 3600;
/// `dashboard_live`: hours of 467-node history.
const DASH_HISTORY_SECS: i64 = 3600;
/// `dashboard_live`: one live interval (`INTERVAL_SECS` modelled) per
/// this many wall milliseconds; the dashboards' clock runs at that pace.
/// Each interval makes every sliding panel miss once, and at 467 nodes
/// those misses take about 2.6 s on the one connection; a tick this long
/// lets them drain, where a 4 s tick keeps the connection queued.
const DASH_TICK_MS: u64 = 12_000;
/// `dashboard_live`: `bench::storm` subscribers `0..80` poll the panels,
/// about 115 refreshes per modelled minute. Every sliding panel has a
/// subscriber, so each misses once per interval, and the reader stays
/// under half busy.
const DASH_SUBSCRIBERS: usize = 80;
/// Passes over the panel catalog in the closing dashboard probe.
const PROBE_DASH_PASSES: usize = 3;
/// History requests in the closing probe.
const PROBE_HISTORY: usize = 31;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub started: Instant,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub failures: Failures,
}

/// Write-side accumulators over measured intervals.
#[derive(Default)]
struct WriteSide {
    points: usize,
    /// Per-interval wall seconds of collect plus write.
    busy: Vec<f64>,
    collect: Vec<f64>,
    writes: Vec<f64>,
    advance: Vec<f64>,
    sweep_vtime: Vec<f64>,
    retries: usize,
    sweep_failures: usize,
    wal_bytes: u64,
    wal_syncs: u64,
}

impl WriteSide {
    fn observe(&mut self, iv: &Interval) {
        self.points += iv.points;
        self.busy.push(iv.busy_s());
        self.collect.push(iv.collect_s);
        self.writes.extend(&iv.write_s);
        self.advance.push(iv.advance_s);
        if let Some(s) = &iv.sweep {
            self.sweep_vtime.push(s.makespan.as_secs_f64());
            self.retries += s.retries();
            self.sweep_failures += s.failures();
        }
    }

    /// DataPoints collected and written per wall second of collect plus
    /// write, over every measured interval. A ratio of totals rather than
    /// a median of per-interval rates: the host's speed switches between
    /// a fast and a slow level for seconds at a time, and the median of a
    /// two-level mixture jumps between the levels as their shares cross,
    /// where the ratio moves in proportion to them.
    fn ingest(&self, m: &mut Metrics) {
        m.put("ingest_pts_per_s", ratio(self.points as f64, self.busy.iter().sum()), "1/s");
    }

    fn interval_p95(&self, m: &mut Metrics) {
        m.put("interval_p95_ms", percentile(&self.busy, 0.95) * 1e3, "ms");
    }

    fn layers(&self, m: &mut Metrics) {
        m.put("sim.advance_ms", mean(&self.advance) * 1e3, "ms");
        m.put("collector.interval_p50_ms", median(&self.collect) * 1e3, "ms");
        m.put("collector.interval_p95_ms", percentile(&self.collect, 0.95) * 1e3, "ms");
        m.put("collector.points", self.points as f64, "count");
        m.put("redfish.sweep_vtime_s", mean(&self.sweep_vtime), "s");
        m.put("redfish.retries", self.retries as f64, "count");
        m.put("redfish.failures", self.sweep_failures as f64, "count");
        m.put("tsdb.write_batch_p50_ms", median(&self.writes) * 1e3, "ms");
        m.put("tsdb.write_batch_p95_ms", percentile(&self.writes, 0.95) * 1e3, "ms");
        m.put("tsdb.wal_bytes_per_point", ratio(self.wal_bytes as f64, self.points as f64), "B");
        m.put("tsdb.wal_syncs", self.wal_syncs as f64, "count");
    }
}

/// WAL byte and sync counters from the process-wide registry (the same
/// instruments `/metrics` exposes).
fn wal_counters() -> (u64, u64) {
    (
        monster_obs::counter("monster_tsdb_wal_bytes_total").get(),
        monster_obs::counter("monster_tsdb_wal_syncs_total").get(),
    )
}

/// One measured phase of writes: adds its WAL counter deltas to `ws`.
fn with_wal_deltas<T>(ws: &mut WriteSide, f: impl FnOnce(&mut WriteSide) -> T) -> T {
    let (b0, s0) = wal_counters();
    let out = f(ws);
    let (b1, s1) = wal_counters();
    ws.wal_bytes += b1 - b0;
    ws.wal_syncs += s1 - s0;
    out
}

/// A store opened, its world advanced to `history_secs` on the bulk path.
struct Store {
    world: World,
    db: Arc<Db>,
    dir: DataDir,
    /// DataPoints written to `db` so far.
    written: usize,
}

fn build_store(
    args: &Args,
    history_secs: i64,
    warmup: usize,
    bulk: &mut WriteSide,
    ledger: &mut Ledger,
    failures: &mut Failures,
) -> Result<Store, String> {
    let mut world = World::new(args.seed, HORIZON_SECS);
    let dir = DataDir::new(&args.workload);
    let (db, _) = world::open_db(dir.path())?;
    let db = Arc::new(db);
    let mut written = 0;
    with_wal_deltas(bulk, |bulk| -> Result<(), String> {
        for _ in 0..history_secs / INTERVAL_SECS {
            failures.attempted += 1;
            let iv = world.bulk_interval(&db, ledger).inspect_err(|_| failures.storage += 1)?;
            written += iv.points;
            bulk.observe(&iv);
        }
        Ok(())
    })?;
    for _ in 0..warmup {
        failures.attempted += 1;
        let iv = world.live_interval(&db, &mut Ledger::new(false)).inspect_err(|_| {
            failures.storage += 1;
        })?;
        written += iv.points;
    }
    db.wal_sync().map_err(|e| format!("sync: {e}"))?;
    Ok(Store { world, db, dir, written })
}

/// Build the store `setups` times (once in traced runs, which print no
/// `setup_s`); keep the last. Returns it, the median set-up seconds, and
/// the bulk-load accounting of every set-up pooled.
fn setup(
    args: &Args,
    setups: usize,
    history_secs: i64,
    warmup: usize,
    ledger: &mut Ledger,
    failures: &mut Failures,
) -> Result<(Store, f64, WriteSide), String> {
    let setups = if args.trace { 1 } else { setups };
    let mut times = Vec::with_capacity(setups);
    let mut bulk = WriteSide::default();
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let t = Instant::now();
        let store = build_store(args, history_secs, warmup, &mut bulk, ledger, failures)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(store);
    }
    let store = last.ok_or("no set-up")?;
    Ok((store, median(&times), bulk))
}

/// Measure the store's bytes on disk; when `reopen`, close the store and
/// reopen it with `Db::recover`, checking that the statistics survive and
/// no acknowledged batch is lost.
fn restart(
    store: &mut Store,
    reopen: bool,
    ledger: &mut Ledger,
    failures: &mut Failures,
    m: &mut Metrics,
) -> Result<(), String> {
    store.db.wal_sync().map_err(|e| format!("sync: {e}"))?;
    let disk = store.dir.bytes();
    m.put("disk_bytes_per_point", ratio(disk as f64, store.written as f64), "B");
    if !reopen {
        return Ok(());
    }
    let before = store.db.stats();
    let acked = store.db.wal_status().map(|s| s.acked_records).unwrap_or(0);
    // Connection threads may still hold the router (and its `Arc<Db>`)
    // for a moment after their client hangs up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&store.db) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let placeholder = Arc::new(Db::new(world::db_config()));
    let old = std::mem::replace(&mut store.db, placeholder);
    drop(Arc::try_unwrap(old).map_err(|_| "store still shared at restart".to_string())?);

    failures.attempted += 1;
    let unit = ledger.begin_unit();
    let t = Instant::now();
    let recovered = ledger.span("tsdb.recover", || world::open_db(store.dir.path()));
    let recover_s = t.elapsed().as_secs_f64();
    ledger.end_unit(unit);
    let (db, report) = recovered.inspect_err(|_| failures.storage += 1)?;
    let after = db.stats();
    if after != before || report.replayed_records < acked {
        failures.storage += 1;
        eprintln!(
            "recovery check failed: stats {before:?} -> {after:?}, acked {acked}, replayed {}",
            report.replayed_records
        );
    }
    store.db = Arc::new(db);
    let replayed = report.replayed_points as f64;
    m.put("recover_pts_per_s", ratio(replayed, recover_s), "1/s");
    m.put("tsdb.recover_ms", recover_s * 1e3, "ms");
    m.put("tsdb.replayed_points", replayed, "count");
    Ok(())
}

/// Shipped service configuration (cache, coalescing), with admission
/// admitting everything. Both read workloads use it: `fleet_history` so a
/// closed loop does not measure a wall-clock token bucket, and
/// `dashboard_live` because the shipped thresholds turn away fleet-scale
/// panels (see [`panels_over_shipped_budget`]) and no data-derived
/// calibration separates a panel from a rogue request on a 1-hour store.
fn admit_all() -> ServiceConfig {
    let admission = AdmissionConfig { enabled: false, ..AdmissionConfig::default() };
    ServiceConfig { admission, ..ServiceConfig::default() }
}

/// How many of `panels` the shipped admission thresholds would reject,
/// each judged against a full token bucket: at 467 nodes a panel's
/// modelled cost is above the tenant burst. Reported as
/// `builder.panels_over_shipped_budget`.
fn panels_over_shipped_budget(
    db: &Db,
    nodes: &[NodeId],
    panels: &[Panel],
    origin: i64,
    now: i64,
) -> usize {
    let shipped = AdmissionController::new(AdmissionConfig::default());
    (0..panels.len())
        .filter(|&i| {
            let req = gen::panel_request(&panels[i], origin, now).builder_request();
            let cost = storm::modelled_secs(db, nodes, &req);
            matches!(shipped.admit(&format!("panel-{i}"), cost), Admission::Rejected { .. })
        })
        .count()
}

/// Closed-loop history requests on one paced connection, each checked
/// against the in-process reference off the clock. Runs whole groups of
/// requests, at least `min_groups`, until the clock — socket time only —
/// reaches `budget_s`. In traced runs odd groups are traced.
#[allow(clippy::too_many_arguments)]
fn history_loop(
    db: &Arc<Db>,
    nodes: &[NodeId],
    rs: &ReadSide,
    group: impl Fn(usize) -> Vec<HistoryRequest>,
    min_groups: usize,
    budget_s: f64,
    ledger: &mut Ledger,
    layers: &mut ReadLayers,
    failures: &mut Failures,
    overhead: &mut Overhead,
) -> Result<Vec<f64>, String> {
    let mut client = reads::connect(rs).map_err(|e| format!("connect: {e}"))?;
    let mut latencies = Vec::new();
    let mut clock = 0.0;
    for g in 0.. {
        let traced = overhead.pick(ledger, g);
        for r in group(g) {
            let url = r.url();
            let Some(ex) = reads::classify(client.get(&url), failures, layers) else {
                client = reads::connect(rs).map_err(|e| format!("reconnect: {e}"))?;
                continue;
            };
            clock += ex.latency_s();
            latencies.push(ex.latency_s());
            overhead.observe(traced, ex.latency_s());
            let req = r.builder_request();
            let replayed =
                traced.then(|| reads::replay(db, rs, nodes, &url, &req, &ex, ledger, layers));
            let reference =
                replayed.flatten().unwrap_or_else(|| reads::reference(db, rs, nodes, &req));
            if reads::decoded(&ex).as_deref() != Some(reference.as_bytes()) {
                failures.mismatch += 1;
            }
        }
        if g + 1 >= min_groups && clock >= budget_s {
            break;
        }
    }
    Ok(latencies)
}

/// Dashboard body checks: closed panels byte-equal a reference taken
/// before the loop; sliding panels parse with the full node set. The hot
/// loop only hashes each body and keeps the first copy of each distinct
/// one; [`DashCheck::mismatches`] verifies them afterwards.
struct DashCheck {
    closed: HashMap<String, Vec<u8>>,
    nodes: HashSet<String>,
    bodies: HashMap<u64, (String, Vec<u8>)>,
    observed: Vec<u64>,
}

impl DashCheck {
    fn new(rs: &ReadSide, panels: &[Panel], origin: i64, nodes: &[NodeId]) -> DashCheck {
        let closed = panels
            .iter()
            .filter(|p| p.fixed_end.is_some())
            .map(|p| {
                let url = gen::panel_request(p, origin, 0).url();
                let body = rs.twin.dispatch(&Request::get(&url)).body.to_vec();
                (url, body)
            })
            .collect();
        DashCheck {
            closed,
            nodes: nodes.iter().map(NodeId::bmc_addr).collect(),
            bodies: HashMap::new(),
            observed: Vec::new(),
        }
    }

    fn note(&mut self, url: &str, body: &[u8]) {
        let mut h = DefaultHasher::new();
        url.hash(&mut h);
        body.hash(&mut h);
        let key = h.finish();
        self.bodies.entry(key).or_insert_with(|| (url.to_string(), body.to_vec()));
        self.observed.push(key);
    }

    fn verify(&self, url: &str, body: &[u8]) -> bool {
        if let Some(reference) = self.closed.get(url) {
            return reference.as_slice() == body;
        }
        let Ok(text) = std::str::from_utf8(body) else { return false };
        let Ok(doc) = monster_json::parse(text) else { return false };
        let Some(obj) = doc.as_object() else { return false };
        obj.len() == self.nodes.len() && obj.keys().all(|k| self.nodes.contains(k))
    }

    /// Responses whose body failed its check.
    fn mismatches(&self) -> u64 {
        let bad: HashSet<u64> = self
            .bodies
            .iter()
            .filter(|(_, (url, body))| !self.verify(url, body))
            .map(|(k, _)| *k)
            .collect();
        self.observed.iter().filter(|k| bad.contains(k)).count() as u64
    }
}

/// Traced runs alternate untraced and traced operations (intervals, pairs
/// of history blocks) and compare their on-clock medians:
/// `trace.overhead_frac`.
#[derive(Default)]
struct Overhead {
    enabled: bool,
    traced: Vec<f64>,
    plain: Vec<f64>,
}

impl Overhead {
    fn new(enabled: bool) -> Overhead {
        Overhead { enabled, ..Overhead::default() }
    }

    fn pick(&mut self, ledger: &mut Ledger, i: usize) -> bool {
        let on = self.enabled && i % 2 == 1;
        ledger.set_on(on);
        on
    }

    fn observe(&mut self, traced: bool, secs: f64) {
        if self.enabled {
            if traced { &mut self.traced } else { &mut self.plain }.push(secs);
        }
    }

    fn frac(&self) -> f64 {
        if self.traced.is_empty() || self.plain.is_empty() {
            return 0.0;
        }
        median(&self.traced) / median(&self.plain) - 1.0
    }
}

/// What the dashboard loops share.
struct Dash<'a> {
    db: &'a Arc<Db>,
    nodes: &'a [NodeId],
    rs: &'a ReadSide,
    panels: Vec<Panel>,
    origin: i64,
    check: DashCheck,
}

impl<'a> Dash<'a> {
    fn new(db: &'a Arc<Db>, nodes: &'a [NodeId], rs: &'a ReadSide, origin: i64) -> Dash<'a> {
        let panels = gen::dashboard_panels(DASH_HISTORY_SECS);
        let check = DashCheck::new(rs, &panels, origin, nodes);
        Dash { db, nodes, rs, panels, origin, check }
    }

    /// One dashboard request; `Some` on a 2xx.
    fn fire(
        &mut self,
        client: &mut PacedClient,
        panel: usize,
        now: i64,
        layers: &mut ReadLayers,
        failures: &mut Failures,
    ) -> Result<Option<(HistoryRequest, Exchange)>, String> {
        let r = gen::panel_request(&self.panels[panel], self.origin, now);
        let url = r.url();
        let Some(ex) = reads::classify(client.get(&url), failures, layers) else {
            *client = reads::connect(self.rs).map_err(|e| format!("reconnect: {e}"))?;
            return Ok(None);
        };
        self.check.note(&url, &ex.body);
        Ok(Some((r, ex)))
    }

    /// Replay traced requests in-process, after the open loop so the
    /// replays do not shift its schedule.
    fn replay(
        &self,
        traced: &[(HistoryRequest, Exchange)],
        ledger: &mut Ledger,
        layers: &mut ReadLayers,
    ) {
        ledger.set_on(true);
        for (r, ex) in traced {
            let req = r.builder_request();
            reads::replay(self.db, self.rs, self.nodes, &r.url(), &req, ex, ledger, layers);
        }
    }
}

/// Traced requests kept for replay after the loop.
type Traced = Vec<(HistoryRequest, Exchange)>;

/// Open-loop dashboard refreshes over one paced connection, each due at
/// its arrival's modelled time on the dashboards' clock (`DASH_TICK_MS`
/// of wall time per live interval) and timed from then, until `window_s`
/// of wall time. Sliding panels end at the newest live interval, `now`.
/// Returns latencies and lateness, in seconds, and — when `trace` — every
/// request for replay.
#[allow(clippy::too_many_arguments)]
fn dash_open_loop(
    dash: &mut Dash<'_>,
    client: &mut PacedClient,
    arrivals: &[gen::Arrival],
    now: &AtomicI64,
    window_s: f64,
    trace: bool,
    layers: &mut ReadLayers,
    failures: &mut Failures,
) -> Result<(Vec<f64>, Vec<f64>, Traced), String> {
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    let wall_per_modelled_s = DASH_TICK_MS as f64 / 1e3 / INTERVAL_SECS as f64;
    for a in arrivals {
        let offset = a.at as f64 * wall_per_modelled_s;
        if offset >= window_s {
            break;
        }
        let due = t0 + Duration::from_secs_f64(offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late.push(Instant::now().duration_since(due).as_secs_f64());
        let now = now.load(Ordering::Acquire);
        if let Some((r, ex)) = dash.fire(client, a.panel, now, layers, failures)? {
            latencies.push(ex.done.duration_since(due).as_secs_f64());
            if trace {
                traced.push((r, ex));
            }
        }
    }
    Ok((latencies, late, traced))
}

/// The closing read probe on the recovered, quiescent store, closed-loop
/// and untraced: `PROBE_HISTORY` history requests over the last hour (see
/// [`gen::probe_requests`]), and/or every dashboard panel
/// `PROBE_DASH_PASSES` times in seeded order (the first touch of each
/// panel misses the cache, the rest hit). Each part runs only when its
/// flag is set.
fn probe(
    args: &Args,
    store: &Store,
    history: bool,
    dash: bool,
    failures: &mut Failures,
    m: &mut Metrics,
) -> Result<(), String> {
    let now = store.world.now.as_secs();
    let mut off = Ledger::new(false);
    let mut layers = ReadLayers::default();
    let mut overhead = Overhead::new(false);
    let nodes = store.world.node_ids();
    if history {
        let rs = ReadSide::new(&store.db, &nodes, admit_all())?;
        let requests = gen::probe_requests(args.seed, PROBE_HISTORY, now - 3600, now);
        let lat = history_loop(
            &store.db,
            &nodes,
            &rs,
            |_| requests.clone(),
            1,
            0.0,
            &mut off,
            &mut layers,
            failures,
            &mut overhead,
        )?;
        m.put("history_p50_ms", median(&lat) * 1e3, "ms");
        m.put("history_p90_ms", percentile(&lat, 0.9) * 1e3, "ms");
    }
    if dash {
        let origin = now - DASH_HISTORY_SECS;
        let panels = gen::dashboard_panels(DASH_HISTORY_SECS);
        let over_budget = panels_over_shipped_budget(&store.db, &nodes, &panels, origin, now);
        m.put("builder.panels_over_shipped_budget", over_budget as f64, "count");
        let rs = ReadSide::new(&store.db, &nodes, admit_all())?;
        let mut dash = Dash::new(&store.db, &nodes, &rs, origin);
        let mut client = reads::connect(&rs).map_err(|e| format!("connect: {e}"))?;
        let mut rng = gen::Rng::new(mix(args.seed, 31));
        let mut lat = Vec::new();
        for _ in 0..PROBE_DASH_PASSES {
            for panel in rng.permutation(dash.panels.len()) {
                if let Some((_, ex)) = dash.fire(&mut client, panel, now, &mut layers, failures)? {
                    lat.push(ex.latency_s());
                }
            }
        }
        failures.mismatch += dash.check.mismatches();
        m.put("dash_p50_ms", median(&lat) * 1e3, "ms");
        m.put("dash_p99_ms", percentile(&lat, 0.99) * 1e3, "ms");
    }
    Ok(())
}

/// Every workload's closing metrics.
fn finish(
    m: &mut Metrics,
    f: &Failures,
    layers: &ReadLayers,
    late: &[f64],
    folds: &[Folded],
    overhead: &Overhead,
) {
    layers.put(m);
    m.put("client.late_ms", mean(late) * 1e3, "ms");
    const LAYERS: [&str; 9] = [
        "collector",
        "tsdb.write",
        "tsdb.recover",
        "builder.service",
        "builder.plan",
        "builder.execute",
        "json",
        "compress",
        "net.read",
    ];
    for layer in LAYERS {
        let ms: f64 = folds.iter().filter_map(|f| f.layers.get(layer)).sum();
        m.put(&format!("ledger.{layer}.self_ms"), ms, "ms");
    }
    m.put("ledger.stopwatch_ms", folds.iter().map(|f| f.stopwatch_ms).sum(), "ms");
    m.put("ledger.unattributed_ms", folds.iter().map(|f| f.unattributed_ms).sum(), "ms");
    m.put("trace.overhead_frac", overhead.frac(), "ratio");
    m.put("rss_peak_mb", rss_peak_mb(), "MiB");
    m.put("failed_frac", f.frac(), "ratio");
    m.put("fail.transport", f.transport as f64, "count");
    m.put("fail.status", f.status as f64, "count");
    m.put("fail.rejected_429", f.rejected as f64, "count");
    m.put("fail.mismatch", f.mismatch as f64, "count");
    m.put("fail.storage", f.storage as f64, "count");
}

/// Progress on stderr: seconds since the run started.
fn phase(args: &Args, what: &str) {
    eprintln!("{}: {what} at {:.2}s", args.workload, args.started.elapsed().as_secs_f64());
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "live_ingest" => live_ingest(args),
        "fleet_history" => fleet_history(args),
        "dashboard_live" => dashboard_live(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// 467 nodes, closed loop on one thread: `collect_interval` then
/// `write_batch` in 10 000-point chunks, back to back.
fn live_ingest(args: &Args) -> Result<Outcome, String> {
    let mut f = Failures::default();
    let mut m = Metrics::default();
    let mut ledger = Ledger::new(false);
    let (mut store, setup_s, _) =
        setup(args, LIVE_SETUPS, 0, WARMUP_INTERVALS, &mut ledger, &mut f)?;
    m.put("setup_s", setup_s, "s");
    phase(args, "set-up done");

    let mut ws = WriteSide::default();
    let mut overhead = Overhead::new(args.trace);
    with_wal_deltas(&mut ws, |ws| -> Result<(), String> {
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed().as_secs_f64() < args.seconds {
            let traced = overhead.pick(&mut ledger, i);
            f.attempted += 1;
            let iv = store.world.live_interval(&store.db, &mut ledger).inspect_err(|_| {
                f.storage += 1;
            })?;
            store.written += iv.points;
            overhead.observe(traced, iv.busy_s());
            ws.observe(&iv);
            i += 1;
        }
        Ok(())
    })?;
    ws.ingest(&mut m);
    ws.interval_p95(&mut m);
    ws.layers(&mut m);
    phase(args, "main phase done");

    ledger.set_on(args.trace);
    restart(&mut store, true, &mut ledger, &mut f, &mut m)?;
    phase(args, "restart done");
    // The dashboard probe feeds only per-layer metrics: traced runs only.
    probe(args, &store, true, args.trace, &mut f, &mut m)?;
    finish(&mut m, &f, &ReadLayers::default(), &[], &[ledger.fold()], &overhead);
    Ok(Outcome { metrics: m, failures: f })
}

/// 6 h of 467-node history, then one client on one paced connection runs
/// fleet-wide requests in a closed loop; every key distinct.
fn fleet_history(args: &Args) -> Result<Outcome, String> {
    let mut f = Failures::default();
    let mut m = Metrics::default();
    let mut ledger = Ledger::new(false);
    let (mut store, setup_s, bulk) =
        setup(args, FLEET_SETUPS, FLEET_HISTORY_SECS, 0, &mut ledger, &mut f)?;
    m.put("setup_s", setup_s, "s");
    // The write path runs only in set-up here: the bulk loads' figures.
    bulk.ingest(&mut m);
    bulk.interval_p95(&mut m);
    bulk.layers(&mut m);
    phase(args, "set-up done");

    let (lo, hi) = (store.world.start.as_secs(), store.world.now.as_secs());
    // Groups are pairs of blocks, the unit whose composition is fixed.
    let pair = |g: usize| {
        let block = |b| gen::history_block(args.seed, b, lo, hi, 900, FLEET_HISTORY_SECS);
        [block(2 * g), block(2 * g + 1)].concat()
    };
    let mut layers = ReadLayers::default();
    let mut overhead = Overhead::new(args.trace);
    {
        let nodes = store.world.node_ids();
        let rs = ReadSide::new(&store.db, &nodes, admit_all())?;
        // A traced run needs an untraced and a traced pair.
        let min_groups = if args.trace { 2 } else { 1 };
        let lat = history_loop(
            &store.db,
            &nodes,
            &rs,
            pair,
            min_groups,
            args.seconds,
            &mut ledger,
            &mut layers,
            &mut f,
            &mut overhead,
        )?;
        m.put("history_p50_ms", median(&lat) * 1e3, "ms");
        m.put("history_p90_ms", percentile(&lat, 0.9) * 1e3, "ms");
        eprintln!("fleet_history: {} requests", lat.len());
    }
    phase(args, "main phase done");

    ledger.set_on(args.trace);
    // Recovery is `live_ingest`'s measurement. Reopening 6 h takes 9–11 s,
    // so here it runs in traced runs only, for the per-layer figures.
    restart(&mut store, args.trace, &mut ledger, &mut f, &mut m)?;
    phase(args, "restart done");
    // The dashboard probe feeds only per-layer metrics: traced runs only.
    probe(args, &store, false, args.trace, &mut f, &mut m)?;
    finish(&mut m, &f, &layers, &[], &[ledger.fold()], &overhead);
    Ok(Outcome { metrics: m, failures: f })
}

/// 1 h of history; one thread collects live at one interval per wall
/// tick while another serves `bench::storm` subscribers' refreshes
/// open-loop on the same clock.
fn dashboard_live(args: &Args) -> Result<Outcome, String> {
    let mut f = Failures::default();
    let mut m = Metrics::default();
    let mut ledger = Ledger::new(false);
    let (mut store, setup_s, bulk) =
        setup(args, DASH_SETUPS, DASH_HISTORY_SECS, WARMUP_INTERVALS, &mut ledger, &mut f)?;
    m.put("setup_s", setup_s, "s");
    // The writer lands one interval per tick, a sample too small for a
    // steady rate: `ingest_pts_per_s` is the set-ups' bulk loads, as on
    // `fleet_history`; the writer's intervals supply everything else.
    bulk.ingest(&mut m);
    phase(args, "set-up done");

    let origin = store.world.start.as_secs();
    let nodes = store.world.node_ids();
    let panels = gen::dashboard_panels(DASH_HISTORY_SECS);
    let over_budget =
        panels_over_shipped_budget(&store.db, &nodes, &panels, origin, store.world.now.as_secs());
    m.put("builder.panels_over_shipped_budget", over_budget as f64, "count");
    let modelled_s = (args.seconds * 1e3 / DASH_TICK_MS as f64).ceil() as i64 * INTERVAL_SECS;
    let arrivals = gen::dashboard_arrivals(
        args.seed,
        DASH_SUBSCRIBERS,
        panels.len(),
        store.world.now.as_secs(),
        modelled_s,
    );
    let mut layers = ReadLayers::default();
    // Replays run after the open loop, so nothing traced is on its clock:
    // the traced loop is the untraced one, and its overhead reads 0.
    let overhead = Overhead::new(false);
    let mut ws = WriteSide::default();
    let mut wledger = Ledger::new(args.trace);
    let mut wf = Failures::default();
    let dash_now = AtomicI64::new(store.world.now.as_secs());
    let (lat, late) = {
        let rs = ReadSide::new(&store.db, &nodes, admit_all())?;
        // The writer needs the world mutably while the reader borrows the
        // store: split the borrows.
        let Store { world, db, written, .. } = &mut store;
        let mut dash = Dash::new(db, &nodes, &rs, origin);
        // Fetch every panel once before the clock starts, so the cache
        // holds the current panels and misses come from new intervals.
        let mut client = reads::connect(&rs).map_err(|e| format!("connect: {e}"))?;
        let mut warm = ReadLayers::default();
        for panel in 0..panels.len() {
            let now = dash_now.load(Ordering::Acquire);
            dash.fire(&mut client, panel, now, &mut warm, &mut f)?;
        }
        let out = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                with_wal_deltas(&mut ws, |ws| {
                    let t0 = Instant::now();
                    let tick = Duration::from_millis(DASH_TICK_MS);
                    for k in 1u32.. {
                        let due = t0 + tick * (k - 1);
                        if due.duration_since(t0).as_secs_f64() >= args.seconds {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        wf.attempted += 1;
                        match world.live_interval(db, &mut wledger) {
                            Ok(iv) => {
                                *written += iv.points;
                                ws.observe(&iv);
                                dash_now.store(world.now.as_secs(), Ordering::Release);
                            }
                            Err(e) => {
                                wf.storage += 1;
                                eprintln!("dashboard_live writer: {e}");
                                break;
                            }
                        }
                    }
                })
            });
            let reads = dash_open_loop(
                &mut dash,
                &mut client,
                &arrivals,
                &dash_now,
                args.seconds,
                args.trace,
                &mut layers,
                &mut f,
            );
            writer.join().expect("writer thread panicked");
            reads
        })?;
        f.mismatch += dash.check.mismatches();
        let (lat, late, traced) = out;
        dash.replay(&traced, &mut ledger, &mut layers);
        (lat, late)
    };
    f.attempted += wf.attempted;
    f.storage += wf.storage;
    ws.interval_p95(&mut m);
    ws.layers(&mut m);
    m.put("dash_p50_ms", median(&lat) * 1e3, "ms");
    m.put("dash_p99_ms", percentile(&lat, 0.99) * 1e3, "ms");
    eprintln!("dashboard_live: {} requests, {} intervals", lat.len(), ws.busy.len());
    phase(args, "main phase done");

    ledger.set_on(args.trace);
    restart(&mut store, true, &mut ledger, &mut f, &mut m)?;
    phase(args, "restart done");
    probe(args, &store, true, false, &mut f, &mut m)?;
    finish(&mut m, &f, &layers, &late, &[ledger.fold(), wledger.fold()], &overhead);
    Ok(Outcome { metrics: m, failures: f })
}
