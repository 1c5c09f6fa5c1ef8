//! The database: write path, shard management, query execution, stats.
//!
//! # Locking hierarchy (sharded-lock engine)
//!
//! The engine holds three kinds of locks, ordered **shard-map → index →
//! shard**; a thread may only acquire a lock *later* in that order while
//! holding an earlier one, so cycles are impossible:
//!
//! * the **shard map** (`RwLock<BTreeMap<i64, Arc<RwLock<Shard>>>>`) — a
//!   short-critical-section outer lock guarding only the map of shard
//!   handles, never shard data;
//! * the **series index** (`RwLock<SeriesIndex>`) — series and field-name
//!   resolution; writers resolve every id *up front* under one read (or,
//!   for new series, one write) acquisition per batch;
//! * the **per-shard locks** (`RwLock<Shard>`) — actual column data.
//!   Writers never hold two shard locks at once: `write_batch` pre-groups
//!   its points by shard and visits the shards one at a time, so writers
//!   to different time shards append fully in parallel and readers only
//!   contend with writers on the shards they actually scan.
//!
//! Write-level statistics (`points`, `encoded_bytes`, …) are maintained
//! incrementally in atomics on the write/seal/retention paths, making
//! [`Db::stats`] O(1) instead of a walk over every column.

use crate::column::{AggScan, ScanItem, ScanStats};
use crate::cost::{CostParams, QueryCost};
use crate::point::DataPoint;
use crate::query::exec::WindowAggregator;
use crate::query::{parse_query, Aggregation, Query, ResultSet, SeriesResult};
use crate::retention::{TierConfig, TierReport};
use crate::series::{FieldId, SeriesId, SeriesIndex, SeriesKey};
use crate::shard::Shard;
use crate::watermark::{MeasurementMark, WatermarkRegistry};
use monster_sim::DiskModel;
use monster_util::pool::ThreadPool;
use monster_util::{Error, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Database configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Shard length in seconds (default one day, like InfluxDB's default
    /// shard group duration for short retention policies).
    pub shard_duration: i64,
    /// Storage device model charged for reads (Figs. 12/14 swap this).
    pub disk: DiskModel,
    /// Simulated-cost conversion constants.
    pub cost: CostParams,
    /// Worker threads a single query may fan its overlapping-shard scans
    /// across (1 = scan sequentially on the calling thread). Results are
    /// byte-identical either way: per-shard scan output is collected in
    /// deterministic order and merged on the calling thread.
    pub scan_workers: usize,
    /// Aggregation pushdown: when a sealed block is fully contained in one
    /// aggregation window (and the query range), answer it from its
    /// zone-map summary instead of decompressing. Results are bit-identical
    /// either way (the forced-decode path folds the same per-block partial
    /// from decoded points); `false` exists as the benchmark baseline.
    pub pushdown: bool,
    /// Write-ahead-log tuning: group-commit thresholds and segment size.
    /// The WAL itself is enabled by opening the database against a
    /// directory via [`Db::recover`]; [`Db::new`] stays memory-only and
    /// these knobs are inert.
    pub wal: crate::wal::WalTuning,
    /// Age-based storage tiering (`None` = single-tier, the historical
    /// behavior): shards older than [`TierConfig::hot_secs`] are compacted
    /// into immutable segment files and their scans priced by
    /// [`TierConfig::cold_disk`] instead of [`DbConfig::disk`]. See
    /// [`Db::tier_cold_shards`].
    pub tiering: Option<TierConfig>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            shard_duration: 86_400,
            disk: DiskModel::HDD,
            cost: CostParams::default(),
            scan_workers: 4,
            pushdown: true,
            wal: crate::wal::WalTuning::default(),
            tiering: None,
        }
    }
}

/// Database statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Points currently stored (one per field value; drops and retention
    /// reduce this).
    pub points: usize,
    /// Raw line-protocol bytes as received.
    pub wire_bytes: usize,
    /// Encoded at-rest bytes.
    pub encoded_bytes: usize,
    /// Series cardinality.
    pub cardinality: usize,
    /// Number of measurements.
    pub measurements: usize,
    /// Number of shards.
    pub shards: usize,
    /// Write batches accepted.
    pub batches: usize,
}

/// An embedded time-series database. Cloneable across threads via `Arc`;
/// all methods take `&self` (interior locking, sharded as described in the
/// module docs).
pub struct Db {
    config: DbConfig,
    /// Series/field-name resolution. Lock order: after the shard map,
    /// before any shard.
    index: RwLock<SeriesIndex>,
    /// Outer shard map: `shard start → shard handle`. Critical sections on
    /// this lock only clone/insert `Arc`s — never touch shard data.
    shards: RwLock<BTreeMap<i64, Arc<RwLock<Shard>>>>,
    /// Incremental statistics (kept exact by the write/seal/retention/drop
    /// paths; see [`Db::recompute_stats`] for the walking cross-check).
    points: AtomicUsize,
    wire_bytes: AtomicUsize,
    encoded_bytes: AtomicI64,
    batches: AtomicUsize,
    /// Per-measurement ingest watermarks (see [`crate::watermark`]);
    /// updated after each batch applies, read by cache-validity checks.
    watermarks: WatermarkRegistry,
    /// Bumped whenever retention or a measurement drop removes data
    /// without advancing any watermark; cache snapshots taken before the
    /// bump must be considered invalid.
    retention_epoch: AtomicU64,
    /// Pre-resolved lock instrumentation handles (`monster_tsdb_lock_*`),
    /// updated lock-free outside critical sections.
    lock_wait: Arc<monster_obs::Histo>,
    lock_hold: Arc<monster_obs::Histo>,
    /// Write-ahead log, present when the database was opened against a
    /// directory ([`Db::recover`]). Appended *before* batches publish;
    /// its mutex is independent of the engine's lock hierarchy (taken
    /// while holding no engine lock).
    wal: Option<crate::wal::Wal>,
}

impl Db {
    /// Create an empty database.
    pub fn new(config: DbConfig) -> Db {
        assert!(config.shard_duration > 0);
        assert!(config.scan_workers > 0, "scan_workers must be at least 1");
        Db {
            config,
            index: RwLock::new(SeriesIndex::new()),
            shards: RwLock::new(BTreeMap::new()),
            points: AtomicUsize::new(0),
            wire_bytes: AtomicUsize::new(0),
            encoded_bytes: AtomicI64::new(0),
            batches: AtomicUsize::new(0),
            watermarks: WatermarkRegistry::default(),
            retention_epoch: AtomicU64::new(0),
            lock_wait: monster_obs::histo("monster_tsdb_lock_wait_seconds"),
            lock_hold: monster_obs::histo("monster_tsdb_lock_hold_seconds"),
            wal: None,
        }
    }

    /// Attach the write-ahead log after recovery replay (replay must not
    /// re-log the records it is applying).
    pub(crate) fn set_wal(&mut self, wal: crate::wal::Wal) {
        self.wal = Some(wal);
    }

    /// The write-ahead log, when this database is durable (recovery tests
    /// hand-frame records through it).
    #[cfg(test)]
    pub(crate) fn wal(&self) -> Option<&crate::wal::Wal> {
        self.wal.as_ref()
    }

    /// True when writes are logged to a write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Appender state of the write-ahead log, if one is attached.
    pub fn wal_status(&self) -> Option<crate::wal::WalStatus> {
        self.wal.as_ref().map(crate::wal::Wal::status)
    }

    /// Force a WAL group commit: every accepted batch is durable when this
    /// returns. No-op without a WAL.
    pub fn wal_sync(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Record one lock acquisition: how long we queued for it and how long
    /// we held it. Histogram updates are lock-free and happen after the
    /// guard is dropped (the PR 1 "outside critical sections" convention).
    pub(crate) fn observe_lock(&self, wait_start: Instant, acquired: Instant) {
        // The wait histogram parks an exemplar pointing at whichever trace
        // was stalled, so a lock-contention spike links to the sweep or
        // query that suffered it.
        self.lock_wait.observe_traced(
            acquired.duration_since(wait_start).as_secs_f64(),
            monster_obs::trace::current(),
        );
        self.lock_hold.observe(acquired.elapsed().as_secs_f64());
    }

    /// Fetch the shard covering `start`, creating it if needed. Only the
    /// shard-map lock is touched; the returned handle is locked by the
    /// caller.
    pub(crate) fn shard_for(&self, start: i64) -> Arc<RwLock<Shard>> {
        let wait = Instant::now();
        {
            let map = self.shards.read();
            let acquired = Instant::now();
            if let Some(s) = map.get(&start) {
                let s = Arc::clone(s);
                drop(map);
                self.observe_lock(wait, acquired);
                return s;
            }
        }
        let wait = Instant::now();
        let mut map = self.shards.write();
        let acquired = Instant::now();
        let duration = self.config.shard_duration;
        let s = Arc::clone(
            map.entry(start)
                .or_insert_with(|| Arc::new(RwLock::new(Shard::new(start, start + duration)))),
        );
        drop(map);
        self.observe_lock(wait, acquired);
        s
    }

    /// Snapshot the current shard handles in time order (short shard-map
    /// read; no shard data touched).
    fn shard_handles(&self) -> Vec<Arc<RwLock<Shard>>> {
        let wait = Instant::now();
        let map = self.shards.read();
        let acquired = Instant::now();
        let out = map.values().cloned().collect();
        drop(map);
        self.observe_lock(wait, acquired);
        out
    }

    /// Write one point.
    pub fn write(&self, point: DataPoint) -> Result<()> {
        self.write_batch(&[point])
    }

    /// Write a batch of points atomically per shard with respect to
    /// readers.
    ///
    /// The paper's collector batches ~10 000 points per interval because
    /// that is "the ideal batch size for InfluxDB" (§III-C); here batching
    /// amortizes id resolution (one index acquisition) and shard lookup
    /// (one shard-lock acquisition per distinct shard). The batch is
    /// pre-grouped by shard *before* any shard lock is taken, and all
    /// series/field ids are resolved up front, so the per-point critical
    /// section is a pure `(u32, u32)`-keyed append — no string hashing, no
    /// allocation, and never more than one shard lock held at a time.
    pub fn write_batch(&self, points: &[DataPoint]) -> Result<()> {
        // Joins the collector's interval trace when one is installed on
        // this thread, so "shard 7 write" hangs off "sweep 812". Untraced
        // writes skip the span: steady-state ingest stays allocation-free.
        let mut span = monster_obs::trace::current().map(|ctx| {
            let mut s = monster_obs::Span::child_of("tsdb.write_batch", ctx);
            s.set_attr("points", points.len().to_string());
            s
        });
        Self::validate_points(points)?;

        // --- write-ahead: log the batch before any of it becomes visible --
        // An I/O failure rejects the batch wholesale (nothing applied, so
        // nothing unlogged is readable). One render allocation per batch —
        // the same order of overhead as the pre-grouping below.
        if let Some(wal) = &self.wal {
            let wire_estimate: usize = points.iter().map(DataPoint::wire_size).sum();
            let mut payload = String::with_capacity(wire_estimate + points.len());
            let mut max_ts = i64::MIN;
            for p in points {
                crate::lineproto::encode_into(p, &mut payload);
                payload.push('\n');
                max_ts = max_ts.max(p.time.as_secs());
            }
            wal.append(payload.as_bytes(), max_ts)?;
        }

        // --- resolve all series & field ids up front ---------------------
        let total_fields: usize = points.iter().map(|p| p.fields.len()).sum();
        let mut sids: Vec<Option<SeriesId>> = Vec::with_capacity(points.len());
        let mut fids: Vec<Option<FieldId>> = Vec::with_capacity(total_fields);
        self.resolve_ids(points, &mut sids, &mut fids);

        // --- pre-group by shard (no locks held) --------------------------
        let duration = self.config.shard_duration;
        let mut groups: BTreeMap<i64, Vec<(SeriesId, FieldId, i64, &crate::FieldValue)>> =
            BTreeMap::new();
        let mut fi = 0usize;
        // Per-measurement [min, max] timestamp spans for the watermark
        // registry; batches touch a handful of measurements, so a linear
        // scan beats a map.
        let mut spans: Vec<(&str, i64, i64)> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let ts = p.time.as_secs();
            let shard_start = ts.div_euclid(duration) * duration;
            let sid = sids[i].expect("series id resolved above");
            match spans.iter_mut().find(|(m, _, _)| *m == p.measurement) {
                Some((_, lo, hi)) => {
                    *lo = (*lo).min(ts);
                    *hi = (*hi).max(ts);
                }
                None => spans.push((&p.measurement, ts, ts)),
            }
            // Capacity for the whole batch: nearly every batch lands in one
            // shard (collector intervals share a timestamp), and the map is
            // batch-lived, so over-reserving beats reallocating.
            let group =
                groups.entry(shard_start).or_insert_with(|| Vec::with_capacity(total_fields));
            for (_, value) in &p.fields {
                group.push((sid, fids[fi].expect("field id resolved above"), ts, value));
                fi += 1;
            }
        }

        // --- apply, one shard lock at a time -----------------------------
        let mut applied = 0usize;
        let mut encoded_delta = 0i64;
        let mut shard_gauges: Vec<(i64, i64)> = Vec::with_capacity(groups.len());
        let mut result: Result<()> = Ok(());
        'groups: for (start, group) in &groups {
            // Retry loop: a retention pass may tombstone the shard between
            // the map lookup and our lock acquisition; appending to such an
            // orphan would silently lose the points, so re-fetch (the map
            // no longer holds it, and a fresh shard is created).
            loop {
                let shard_arc = self.shard_for(*start);
                let wait = Instant::now();
                let mut shard = shard_arc.write();
                let acquired = Instant::now();
                if shard.is_dropped() {
                    drop(shard);
                    self.observe_lock(wait, acquired);
                    continue;
                }
                let bytes_before = shard.encoded_bytes();
                // Walk maximal consecutive same-(series, field) spans: one
                // column lookup per span instead of per point, in exactly
                // the original batch order.
                let mut i = 0usize;
                while i < group.len() {
                    let (sid, fid, _, _) = group[i];
                    let mut j = i + 1;
                    while j < group.len() && group[j].0 == sid && group[j].1 == fid {
                        j += 1;
                    }
                    if let Err(e) = shard.append_span(sid, fid, &group[i..j], &mut applied) {
                        result = Err(e);
                        break;
                    }
                    i = j;
                }
                encoded_delta += shard.encoded_bytes() as i64 - bytes_before as i64;
                shard_gauges.push((*start, shard.point_count() as i64));
                drop(shard);
                self.observe_lock(wait, acquired);
                if result.is_err() {
                    break 'groups;
                }
                break;
            }
        }

        // --- incremental statistics & self-monitoring --------------------
        self.batches.fetch_add(1, Ordering::Relaxed);
        if result.is_ok() {
            let wire: usize = points.iter().map(DataPoint::wire_size).sum();
            self.wire_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        self.points.fetch_add(applied, Ordering::Relaxed);
        self.encoded_bytes.fetch_add(encoded_delta, Ordering::Relaxed);
        monster_obs::counter("monster_tsdb_points_written_total").add(applied as u64);
        // Watermarks advance only after shard data is visible to readers
        // (a concurrent cache-validity snapshot may go spuriously stale,
        // never stale-but-valid). A failed batch may still have applied a
        // prefix, so note the spans unconditionally — over-invalidation is
        // safe.
        self.watermarks.note_spans(&spans);

        monster_obs::counter("monster_tsdb_write_batches_total").inc();
        monster_obs::histo("monster_tsdb_write_batch_points").observe(points.len() as f64);
        self.update_topology_gauges();
        for (start, count) in &shard_gauges {
            monster_obs::gauge(&format!("monster_tsdb_shard_points{{shard=\"{start}\"}}"))
                .set(*count);
        }
        if let Some(mut span) = span.take() {
            span.set_attr("applied", applied.to_string());
            span.set_attr("shards", shard_gauges.len().to_string());
            span.finish();
        }
        result
    }

    /// Reject batches containing field-less points — whole-batch, before
    /// any state changes.
    fn validate_points(points: &[DataPoint]) -> Result<()> {
        for p in points {
            if !p.is_valid() {
                return Err(Error::invalid(format!(
                    "point for measurement {:?} has no fields",
                    p.measurement
                )));
            }
        }
        Ok(())
    }

    /// Resolve every series and field id for `points` into the
    /// caller-provided buffers (cleared first; `fids` gets one entry per
    /// field in point order). One index read-lock acquisition on the fast
    /// path, plus one write acquisition only when new series or field names
    /// appear.
    fn resolve_ids(
        &self,
        points: &[DataPoint],
        sids: &mut Vec<Option<SeriesId>>,
        fids: &mut Vec<Option<FieldId>>,
    ) {
        sids.clear();
        sids.resize(points.len(), None);
        fids.clear();
        let mut missing = false;
        {
            // Fast path: everything already known — a shared read lock.
            let wait = Instant::now();
            let idx = self.index.read();
            let acquired = Instant::now();
            for (i, p) in points.iter().enumerate() {
                sids[i] = idx.id_of_point(p);
                missing |= sids[i].is_none();
                for (name, _) in &p.fields {
                    let f = idx.field_id(name);
                    missing |= f.is_none();
                    fids.push(f);
                }
            }
            drop(idx);
            self.observe_lock(wait, acquired);
        }
        if missing {
            // Slow path: register new series/fields under the write lock.
            let wait = Instant::now();
            let mut idx = self.index.write();
            let acquired = Instant::now();
            let mut fi = 0usize;
            for (i, p) in points.iter().enumerate() {
                if sids[i].is_none() {
                    sids[i] = Some(idx.get_or_create(&SeriesKey::of(p)));
                }
                for (name, _) in &p.fields {
                    if fids[fi].is_none() {
                        fids[fi] = Some(idx.intern_field(name));
                    }
                    fi += 1;
                }
            }
            drop(idx);
            self.observe_lock(wait, acquired);
        }
    }

    /// Current ingest watermark for `measurement` (default mark if never
    /// written). A shared-lock map lookup — cheap enough to call once per
    /// covered measurement on every cache probe.
    pub fn measurement_mark(&self, measurement: &str) -> MeasurementMark {
        self.watermarks.get(measurement)
    }

    /// Every measurement's current ingest watermark, sorted by name.
    /// Recovery must republish these exactly (the builder's response cache
    /// keys on them); tests compare whole tables. Not a hot-path call.
    pub fn measurement_marks(&self) -> Vec<(String, MeasurementMark)> {
        self.watermarks.snapshot()
    }

    /// Monotone counter bumped whenever retention or a measurement drop
    /// removes data. Cache-validity snapshots record it; a mismatch means
    /// data disappeared without any watermark advancing.
    pub fn retention_epoch(&self) -> u64 {
        self.retention_epoch.load(Ordering::Acquire)
    }

    /// Estimate a query's physical cost *without executing it* — the
    /// planning-time input to cost-based admission. Index cardinality and
    /// series selection are exact (one index read); points/blocks/bytes
    /// are scaled from the incremental statistics by the selected-series
    /// and overlapping-shard fractions. Deterministic for a given database
    /// state, monotone in range width and series count, and intentionally
    /// conservative rather than precise — admission thresholds are set
    /// relative to the same model.
    pub fn estimate_cost(&self, q: &Query) -> QueryCost {
        let mut cost = QueryCost { queries: 1, ..QueryCost::default() };
        if q.validate().is_err() {
            return cost;
        }
        let (card, series) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.select(&q.measurement, &q.predicates).len())
        };
        cost.index_entries = card;
        cost.series = series;
        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
        let duration = self.config.shard_duration;
        // Prorate each overlapping shard by how much of it the range
        // actually covers, so a 30-minute window prices below a
        // whole-shard scan even when every shard spans a day.
        let (overlap, covered, total_shards) = {
            let map = self.shards.read();
            let mut overlap = 0usize;
            let mut covered = 0.0f64;
            for &start in map.keys() {
                let lo = qs.max(start);
                let hi = qe.min(start + duration);
                if lo < hi {
                    overlap += 1;
                    covered += (hi - lo) as f64 / duration as f64;
                }
            }
            (overlap, covered, map.len())
        };
        cost.shards_scanned = overlap;
        if series == 0 || overlap == 0 {
            return cost;
        }
        let series_frac = series as f64 / card.max(1) as f64;
        let shard_frac = covered / total_shards.max(1) as f64;
        let total_points = self.points.load(Ordering::Relaxed) as f64;
        let total_bytes = self.encoded_bytes.load(Ordering::Relaxed).max(0) as f64;
        cost.points = (total_points * series_frac * shard_frac).ceil() as usize;
        // One partial block per (series, shard) plus the sealed interior.
        cost.blocks = cost.points / crate::column::BLOCK_SIZE + series * overlap;
        cost.bytes = (total_bytes * series_frac * shard_frac).ceil() as usize;
        cost
    }

    /// Refresh the series/shard-count gauges (short index + shard-map
    /// reads; no shard data touched).
    pub(crate) fn update_topology_gauges(&self) {
        let series = self.index.read().cardinality() as i64;
        let shard_count = self.shards.read().len() as i64;
        monster_obs::gauge("monster_tsdb_series").set(series);
        monster_obs::gauge("monster_tsdb_shards").set(shard_count);
    }

    /// Parse and run a query string.
    pub fn query_str(&self, text: &str) -> Result<(ResultSet, QueryCost)> {
        let q = parse_query(text)?;
        self.query(&q)
    }

    /// Run a query, returning results plus the physical cost incurred.
    ///
    /// Scans of the overlapping shards fan out across up to
    /// [`DbConfig::scan_workers`] threads; per-(series, shard) scan output
    /// is collected in deterministic order and merged on the calling
    /// thread, so results are byte-identical to a sequential execution.
    pub fn query(&self, q: &Query) -> Result<(ResultSet, QueryCost)> {
        q.validate()?;
        let mut span = monster_obs::Span::enter("tsdb.query_scan");
        span.set_attr("measurement", q.measurement.clone());
        let span_ctx = span.context();
        let mut cost = QueryCost { queries: 1, ..QueryCost::default() };

        // Planning under the index read lock: the index work scales with
        // total cardinality — the series-cardinality tax the paper's
        // schema redesign attacks.
        let (ids, keys, fid) = {
            let wait = Instant::now();
            let idx = self.index.read();
            let acquired = Instant::now();
            cost.index_entries = idx.cardinality();
            let ids: Vec<SeriesId> = idx.select(&q.measurement, &q.predicates);
            let keys: Vec<SeriesKey> = ids.iter().map(|&id| idx.key_of(id).clone()).collect();
            let fid = idx.field_id(&q.field);
            drop(idx);
            self.observe_lock(wait, acquired);
            (ids, keys, fid)
        };

        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());

        // Snapshot the overlapping shard handles (shard starts are the map
        // keys and every shard spans `shard_duration`, so overlap is
        // decided without touching any shard lock).
        let duration = self.config.shard_duration;
        let shards: Vec<Arc<RwLock<Shard>>> = {
            let wait = Instant::now();
            let map = self.shards.read();
            let acquired = Instant::now();
            let out = map
                .iter()
                .filter(|(&start, _)| start < qe && qs < start + duration)
                .map(|(_, s)| Arc::clone(s))
                .collect();
            drop(map);
            self.observe_lock(wait, acquired);
            out
        };
        let ns = shards.len();
        cost.shards_scanned = ns;

        // Fan the (series × shard) scans out. Each item buffers its
        // matching points (or zone-map partials, for eligible sealed blocks
        // under an aggregation); the merge below runs in series-major,
        // shard-time order, which is exactly the order a sequential scan
        // produces.
        let agg_spec = q.agg.map(|agg| AggScan {
            start: qs,
            end: qe,
            window: q.group_by,
            countable: agg == Aggregation::Count,
            decode_all: !self.config.pushdown,
        });
        let items: Vec<(SeriesId, Arc<RwLock<Shard>>)> =
            ids.iter().flat_map(|&sid| shards.iter().map(move |s| (sid, Arc::clone(s)))).collect();
        type ScanOut = (Vec<ScanItem>, ScanStats, bool);
        let scan_one = |(sid, shard_arc): (SeriesId, Arc<RwLock<Shard>>)| -> Result<ScanOut> {
            let mut buf: Vec<ScanItem> = Vec::new();
            let wait = Instant::now();
            let shard = shard_arc.read();
            let acquired = Instant::now();
            let stats = match (fid, agg_spec) {
                (Some(f), Some(spec)) => shard.scan_agg(sid, f, spec, |item| buf.push(item))?,
                (Some(f), None) => {
                    shard.scan(sid, f, qs, qe, |t, v| buf.push(ScanItem::Point(t, v)))?
                }
                (None, _) => ScanStats::default(),
            };
            let cold = shard.is_cold();
            drop(shard);
            self.observe_lock(wait, acquired);
            Ok((buf, stats, cold))
        };
        let workers = self.config.scan_workers.min(items.len().max(1));
        let outputs: Vec<Result<ScanOut>> = if workers > 1 && items.len() > 1 {
            ThreadPool::new(workers).scope_map(items, scan_one)
        } else {
            items.into_iter().map(scan_one).collect()
        };
        let mut outputs: Vec<ScanOut> = outputs.into_iter().collect::<Result<_>>()?;

        // Deterministic merge.
        let mut series_out: Vec<SeriesResult> = Vec::with_capacity(ids.len());
        for (s, key) in keys.into_iter().enumerate() {
            let mut scanned = false;
            let mut points: Vec<(monster_util::EpochSecs, crate::FieldValue)>;
            let slots = &mut outputs[s * ns..(s + 1) * ns];
            match q.agg {
                Some(agg) => {
                    let mut w = WindowAggregator::new(agg, q.group_by, qs);
                    for (buf, stats, cold) in slots.iter_mut() {
                        for item in buf.drain(..) {
                            match item {
                                ScanItem::Point(t, v) => w.push(t, &v),
                                ScanItem::Partial(s) => w.push_partial(&s),
                            }
                        }
                        if stats.points > 0 || stats.blocks_summarized > 0 {
                            scanned = true;
                        }
                        cost.blocks += stats.blocks;
                        cost.blocks_summarized += stats.blocks_summarized;
                        cost.points += stats.points;
                        cost.bytes += stats.bytes;
                        if *cold {
                            cost.blocks_cold += stats.blocks;
                            cost.bytes_cold += stats.bytes;
                        }
                    }
                    points = w.finish_filled(q.fill, qs, qe);
                }
                None => {
                    points = Vec::new();
                    for (buf, stats, cold) in slots.iter_mut() {
                        points.extend(buf.drain(..).map(|item| match item {
                            ScanItem::Point(t, v) => (monster_util::EpochSecs::new(t), v),
                            // Raw selects never carry an AggScan spec.
                            ScanItem::Partial(_) => unreachable!("partial in raw scan"),
                        }));
                        if stats.points > 0 {
                            scanned = true;
                        }
                        cost.blocks += stats.blocks;
                        cost.points += stats.points;
                        cost.bytes += stats.bytes;
                        if *cold {
                            cost.blocks_cold += stats.blocks;
                            cost.bytes_cold += stats.bytes;
                        }
                    }
                    points.sort_by_key(|(t, _)| *t);
                }
            }
            if scanned {
                cost.series += 1;
            }
            if let Some(limit) = q.limit {
                points.truncate(limit);
            }
            if !points.is_empty() {
                series_out.push(SeriesResult { key, points });
            }
        }
        series_out.sort_by(|a, b| a.key.cmp(&b.key));

        // Self-monitoring: query cost translated to simulated seconds, so
        // `/metrics` shows where query time goes (`monster_tsdb_*` series).
        monster_obs::counter("monster_tsdb_queries_total").inc();
        monster_obs::counter("monster_tsdb_query_points_total").add(cost.points as u64);
        monster_obs::counter("monster_tsdb_blocks_decoded_total").add(cost.blocks as u64);
        monster_obs::counter("monster_tsdb_blocks_summarized_total")
            .add(cost.blocks_summarized as u64);
        let elapsed = self.simulate_elapsed(&cost);
        monster_obs::histo("monster_tsdb_query_seconds")
            .observe_vdur_traced(elapsed, Some(span_ctx));
        span.set_attr("shards_scanned", cost.shards_scanned.to_string());
        span.set_attr("points", cost.points.to_string());
        // Queries overlap other pipeline work in virtual time, so the scan
        // span covers its simulated cost without advancing the clock.
        span.finish_spanning(elapsed);
        Ok((ResultSet { series: series_out }, cost))
    }

    /// Simulated elapsed time for a cost under this database's disk and
    /// cost parameters. With tiering configured, the cold share of the
    /// cost (`blocks_cold`/`bytes_cold`) is priced against the archive
    /// device instead of the hot disk.
    pub fn simulate_elapsed(&self, cost: &QueryCost) -> monster_sim::VDuration {
        match &self.config.tiering {
            Some(tier) => self.config.cost.elapsed_tiered(cost, &self.config.disk, &tier.cold_disk),
            None => self.config.cost.elapsed(cost, &self.config.disk),
        }
    }

    /// Snapshot of write-path statistics. O(1): every field is either an
    /// incrementally-maintained atomic or a constant-time index/map read —
    /// no shard or column walk (contrast [`Db::recompute_stats`]).
    pub fn stats(&self) -> DbStats {
        let (cardinality, measurements) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.measurement_count())
        };
        DbStats {
            points: self.points.load(Ordering::Relaxed),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            encoded_bytes: self.encoded_bytes.load(Ordering::Relaxed).max(0) as usize,
            cardinality,
            measurements,
            shards: self.shards.read().len(),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Recompute the statistics the slow way — walking every live shard
    /// and column — as a cross-check that the incremental counters behind
    /// [`Db::stats`] are exact. Intended for tests and debugging; it takes
    /// every shard's read lock in turn.
    pub fn recompute_stats(&self) -> DbStats {
        let mut points = 0usize;
        let mut encoded = 0usize;
        let mut shards = 0usize;
        for handle in self.shard_handles() {
            let shard = handle.read();
            if shard.is_dropped() {
                continue;
            }
            points += shard.point_count();
            encoded += shard.encoded_bytes();
            shards += 1;
        }
        let (cardinality, measurements) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.measurement_count())
        };
        DbStats {
            points,
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            encoded_bytes: encoded,
            cardinality,
            measurements,
            shards,
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Visit every stored point (one callback per field value) across all
    /// shards, in shard order. Holds the index read lock for the duration
    /// and each shard's read lock in turn (index-before-shard is the
    /// sanctioned nesting).
    pub fn export(
        &self,
        mut f: impl FnMut(&SeriesKey, &str, i64, crate::FieldValue),
    ) -> Result<()> {
        let handles = self.shard_handles();
        let idx = self.index.read();
        for handle in handles {
            let shard = handle.read();
            shard.export(|sid, fid, ts, v| {
                f(idx.key_of(sid), idx.field_name(fid), ts, v);
            })?;
        }
        Ok(())
    }

    /// Drop every shard whose time range ends at or before `horizon`.
    /// Returns the number of shards dropped. (Series index entries are
    /// retained — like InfluxDB, series stay defined until explicitly
    /// dropped — but their data is gone.)
    pub fn drop_shards_before(&self, horizon: monster_util::EpochSecs) -> usize {
        self.drop_shards_before_counted(horizon).0
    }

    /// Like [`Db::drop_shards_before`], but also returns the exact number
    /// of points removed — the same quantity subtracted from the
    /// incremental statistics, so callers (retention accounting,
    /// conservation tests) never have to infer it from racing
    /// [`Db::stats`] snapshots.
    pub fn drop_shards_before_counted(&self, horizon: monster_util::EpochSecs) -> (usize, usize) {
        // Split the map under the outer lock (shards end at
        // `start + shard_duration`, so the cut is a key comparison);
        // tombstone and account the victims after releasing it.
        let cut = horizon.as_secs() - self.config.shard_duration + 1;
        let removed: Vec<(i64, Arc<RwLock<Shard>>)> = {
            let wait = Instant::now();
            let mut map = self.shards.write();
            let acquired = Instant::now();
            let kept = map.split_off(&cut);
            let removed = std::mem::replace(&mut *map, kept).into_iter().collect();
            drop(map);
            self.observe_lock(wait, acquired);
            removed
        };
        let count = removed.len();
        let mut points_removed = 0usize;
        for (start, handle) in removed {
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            shard.mark_dropped();
            let (p, b) = (shard.point_count(), shard.encoded_bytes());
            drop(shard);
            self.observe_lock(wait, acquired);
            points_removed += p;
            self.points.fetch_sub(p, Ordering::Relaxed);
            self.encoded_bytes.fetch_sub(b as i64, Ordering::Relaxed);
            monster_obs::gauge(&format!("monster_tsdb_shard_points{{shard=\"{start}\"}}")).set(0);
            // A dropped shard's cold-tier segment file must go with it, or
            // recovery would resurrect data retention already removed. (WAL
            // records of dropped shards that were never tiered can still
            // replay; the collector re-enforces retention after recovery.)
            if let Some(wal) = &self.wal {
                let _ = std::fs::remove_file(wal.dir().join(format!("shard-{start}.seg")));
            }
        }
        if count > 0 {
            self.retention_epoch.fetch_add(1, Ordering::AcqRel);
        }
        (count, points_removed)
    }

    /// Compact the database: seal all raw tails into compressed blocks.
    ///
    /// A column's tail self-seals at [`crate::column::BLOCK_SIZE`] points,
    /// but slow series (health codes, job metadata) can sit in raw form for
    /// days; periodic compaction — InfluxDB's TSM compaction cycle — trades
    /// a little CPU for at-rest volume. Returns (columns sealed, bytes
    /// saved). Shards are compacted one lock at a time, so ingest and
    /// queries on other shards proceed concurrently.
    pub fn compact(&self) -> (usize, i64) {
        let mut sealed = 0usize;
        let mut saved = 0i64;
        for handle in self.shard_handles() {
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            let mut delta = 0i64;
            if !shard.is_dropped() {
                let before = shard.encoded_bytes() as i64;
                sealed += shard.compact();
                delta = shard.encoded_bytes() as i64 - before;
            }
            drop(shard);
            self.observe_lock(wait, acquired);
            self.encoded_bytes.fetch_add(delta, Ordering::Relaxed);
            saved -= delta;
        }
        (sealed, saved)
    }

    /// Migrate shards older than the tiering threshold to the cold tier.
    ///
    /// For every shard whose range lies entirely before
    /// `now - tiering.hot_secs` (rounded down to a shard boundary), the
    /// pass compacts the shard, renders it to an immutable segment file
    /// (`shard-<start>.seg`, compressed line protocol) next to the WAL,
    /// and marks it cold so scans are priced by the cold-tier disk model.
    /// Once every such shard is durable as a segment, WAL segments whose
    /// records all predate the cut are reclaimed — the tiered data no
    /// longer needs replay.
    ///
    /// Without a WAL the pass only re-prices (marks cold, writes nothing).
    /// No-op unless [`DbConfig::tiering`] is set. The pass holds each
    /// shard's write lock across its segment-file write, so a racing
    /// writer to that shard cannot slip points between the export and the
    /// cold mark; out-of-order ingest older than the hot horizon that
    /// arrives *after* a shard was tiered is not re-exported and survives
    /// only as long as its WAL segment (live deployments ingest current
    /// data, so the horizon — days — dwarfs collector skew — seconds).
    pub fn tier_cold_shards(&self, now: monster_util::EpochSecs) -> Result<TierReport> {
        let Some(tier) = self.config.tiering else {
            return Ok(TierReport::default());
        };
        let dur = self.config.shard_duration;
        let cut = (now.as_secs() - tier.hot_secs).div_euclid(dur) * dur;
        let mut report = TierReport::default();
        let candidates: Vec<(i64, Arc<RwLock<Shard>>)> = {
            let wait = Instant::now();
            let map = self.shards.read();
            let acquired = Instant::now();
            let out = map.range(..cut).map(|(k, v)| (*k, Arc::clone(v))).collect();
            drop(map);
            self.observe_lock(wait, acquired);
            out
        };
        for (start, handle) in candidates {
            // Index read before shard write: the sanctioned nesting. The
            // index lock is only needed while rendering; the shard lock is
            // held through the durable segment write (see above).
            let idx = self.index.read();
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            if shard.is_dropped() || shard.is_cold() {
                drop(shard);
                drop(idx);
                self.observe_lock(wait, acquired);
                continue;
            }
            let before = shard.encoded_bytes() as i64;
            shard.compact();
            let delta = shard.encoded_bytes() as i64 - before;
            let mut text = String::new();
            shard.export(|sid, fid, ts, v| {
                let key = idx.key_of(sid);
                let mut p = DataPoint::new(&key.measurement, monster_util::EpochSecs::new(ts));
                for (k, val) in &key.tags {
                    p = p.tag(k, val);
                }
                p = p.field(idx.field_name(fid), v);
                crate::lineproto::encode_into(&p, &mut text);
                text.push('\n');
            })?;
            drop(idx);
            if let Some(wal) = &self.wal {
                let bytes = crate::recover::encode_segment(&text);
                let path = wal.dir().join(format!("shard-{start}.seg"));
                let tmp = wal.dir().join(format!("shard-{start}.seg.tmp"));
                let res = (|| -> Result<()> {
                    let mut f = std::fs::File::create(&tmp)?;
                    std::io::Write::write_all(&mut f, &bytes)?;
                    f.sync_all()?;
                    std::fs::rename(&tmp, &path)?;
                    Ok(())
                })();
                if let Err(e) = res {
                    // Leave the shard hot: a later pass retries, and the
                    // WAL keeps covering it (reclaim below never runs).
                    drop(shard);
                    self.observe_lock(wait, acquired);
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                report.segment_bytes_written += bytes.len() as u64;
            }
            let pts = shard.point_count();
            shard.mark_cold();
            drop(shard);
            self.observe_lock(wait, acquired);
            self.encoded_bytes.fetch_add(delta, Ordering::Relaxed);
            report.shards_tiered += 1;
            report.points_tiered += pts;
        }
        if report.shards_tiered > 0 {
            monster_obs::counter("monster_tsdb_shards_tiered_total")
                .add(report.shards_tiered as u64);
        }
        // Every point in a cold shard has ts < cut, so WAL segments whose
        // max record timestamp predates the cut replay nothing that is not
        // already durable in a segment file.
        if let Some(wal) = &self.wal {
            report.wal_segments_reclaimed = wal.reclaim_before(cut)?;
        }
        Ok(report)
    }

    /// Raw (unsealed) points awaiting compaction.
    pub fn tail_points(&self) -> usize {
        self.shard_handles().iter().map(|h| h.read().tail_points()).sum()
    }

    /// Drop a measurement: its columns disappear from every shard and its
    /// series from the index. The operational escape hatch for schema
    /// accidents like the per-job measurements of the previous layout.
    /// Returns the number of series removed.
    pub fn drop_measurement(&self, measurement: &str) -> usize {
        let victims: std::collections::HashSet<SeriesId> = {
            let wait = Instant::now();
            let mut idx = self.index.write();
            let acquired = Instant::now();
            let victims: std::collections::HashSet<SeriesId> =
                idx.select(measurement, &[]).into_iter().collect();
            if !victims.is_empty() {
                idx.drop_measurement(measurement);
            }
            drop(idx);
            self.observe_lock(wait, acquired);
            victims
        };
        if victims.is_empty() {
            return 0;
        }
        for handle in self.shard_handles() {
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            if shard.is_dropped() {
                continue;
            }
            let (p, b) = shard.drop_series(&victims);
            drop(shard);
            self.observe_lock(wait, acquired);
            self.points.fetch_sub(p, Ordering::Relaxed);
            self.encoded_bytes.fetch_sub(b as i64, Ordering::Relaxed);
        }
        self.retention_epoch.fetch_add(1, Ordering::AcqRel);
        victims.len()
    }

    /// Series keys, optionally scoped to one measurement (rendered as
    /// `measurement,tag=value,...`).
    pub fn series_keys(&self, measurement: Option<&str>) -> Vec<String> {
        let idx = self.index.read();
        let mut out = Vec::new();
        for id in 0..idx.id_space() {
            let key = idx.key_of(SeriesId(id as u32));
            if key.measurement.is_empty() {
                continue; // tombstone
            }
            if measurement.map(|m| m == key.measurement).unwrap_or(true) {
                out.push(key.to_string());
            }
        }
        out
    }

    /// Distinct tag keys used within a measurement, sorted.
    pub fn tag_keys(&self, measurement: &str) -> Vec<String> {
        let idx = self.index.read();
        let mut keys: Vec<String> = Vec::new();
        for id in 0..idx.id_space() {
            let key = idx.key_of(SeriesId(id as u32));
            if key.measurement == measurement {
                for (k, _) in &key.tags {
                    if !keys.contains(k) {
                        keys.push(k.clone());
                    }
                }
            }
        }
        keys.sort();
        keys
    }

    /// Distinct values of `tag` within a measurement, sorted.
    pub fn tag_values(&self, measurement: &str, tag: &str) -> Vec<String> {
        let idx = self.index.read();
        let mut values: Vec<String> = Vec::new();
        for id in 0..idx.id_space() {
            let key = idx.key_of(SeriesId(id as u32));
            if key.measurement == measurement {
                if let Some(v) = key.tag(tag) {
                    if !values.iter().any(|x| x == v) {
                        values.push(v.to_string());
                    }
                }
            }
        }
        values.sort();
        values
    }

    /// Distinct field keys written to a measurement, sorted.
    pub fn field_keys(&self, measurement: &str) -> Vec<String> {
        let ids: std::collections::HashSet<SeriesId> =
            self.index.read().select(measurement, &[]).into_iter().collect();
        let mut fids: std::collections::HashSet<FieldId> = std::collections::HashSet::new();
        for handle in self.shard_handles() {
            let shard = handle.read();
            for (sid, fid) in shard.column_keys() {
                if ids.contains(&sid) {
                    fids.insert(fid);
                }
            }
        }
        let idx = self.index.read();
        let mut keys: Vec<String> =
            fids.into_iter().map(|f| idx.field_name(f).to_string()).collect();
        keys.sort();
        keys
    }

    /// All measurement names, sorted.
    pub fn measurements(&self) -> Vec<String> {
        let mut m: Vec<String> = self.index.read().measurements().map(str::to_string).collect();
        m.sort();
        m
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;
    use crate::FieldValue;
    use monster_util::EpochSecs;

    fn power_point(node: &str, ts: i64, reading: f64) -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(ts))
            .tag("NodeId", node)
            .tag("Label", "NodePower")
            .field_f64("Reading", reading)
    }

    /// Two nodes, two hours of 60 s samples starting 2020-04-20T12:00Z.
    fn seeded_db() -> Db {
        let db = Db::new(DbConfig::default());
        let mut batch = Vec::new();
        for node in ["10.101.1.1", "10.101.1.2"] {
            for i in 0..120 {
                batch.push(power_point(node, 1_587_384_000 + i * 60, 250.0 + i as f64));
            }
        }
        db.write_batch(&batch).unwrap();
        db
    }

    /// One node, three days of 5-minute samples (spans multiple shards).
    fn multi_day_db() -> Db {
        let db = Db::new(DbConfig::default());
        let mut batch = Vec::new();
        for i in 0..(3 * 288) {
            batch.push(power_point("10.101.1.1", 1_587_340_800 + i * 300, 250.0));
        }
        db.write_batch(&batch).unwrap();
        db
    }

    #[test]
    fn write_then_query_max_per_window() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_000 + 7200),
        )
        .aggregate(Aggregation::Max)
        .where_tag("NodeId", "10.101.1.1")
        .group_by_time(300);
        let (rs, cost) = db.query(&q).unwrap();
        assert_eq!(rs.series.len(), 1);
        // 2 hours / 5 min = 24 windows.
        assert_eq!(rs.series[0].points.len(), 24);
        // First window covers samples 0..5 → max reading 254.
        assert_eq!(rs.series[0].points[0].1.as_f64(), Some(254.0));
        assert!(cost.points >= 120);
        assert_eq!(cost.series, 1);
        assert_eq!(cost.queries, 1);
    }

    #[test]
    fn query_without_predicates_fans_across_series() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_000 + 3600),
        )
        .aggregate(Aggregation::Mean);
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.series.len(), 2);
        assert!(rs.series_with_tag("NodeId", "10.101.1.2").is_some());
    }

    #[test]
    fn raw_select_returns_original_points_sorted() {
        let db = Db::new(DbConfig::default());
        // Write out of order.
        for ts in [300i64, 100, 200] {
            db.write(DataPoint::new("m", EpochSecs::new(ts)).tag("n", "a").field_i64("v", ts))
                .unwrap();
        }
        let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(1000));
        let (rs, _) = db.query(&q).unwrap();
        let ts: Vec<i64> = rs.series[0].points.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn shards_partition_by_time() {
        let db = Db::new(DbConfig { shard_duration: 3600, ..DbConfig::default() });
        for i in 0..10 {
            db.write(power_point("n", i * 3600, 1.0)).unwrap();
        }
        assert_eq!(db.stats().shards, 10);
        // A one-hour query touches one shard's blocks only.
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(3600))
            .aggregate(Aggregation::Count);
        let (rs, cost) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 1);
        assert_eq!(cost.blocks, 1);
    }

    #[test]
    fn longer_ranges_cost_more() {
        let db = multi_day_db();
        let mk = |hours: i64| {
            Query::select(
                "Power",
                "Reading",
                EpochSecs::new(1_587_340_800),
                EpochSecs::new(1_587_340_800 + hours * 3600),
            )
            .aggregate(Aggregation::Max)
            .group_by_time(300)
        };
        let (_, c1) = db.query(&mk(24)).unwrap();
        let (_, c2) = db.query(&mk(48)).unwrap();
        assert!(c2.points > c1.points, "c1={c1:?} c2={c2:?}");
        assert!(db.simulate_elapsed(&c2) > db.simulate_elapsed(&c1));
    }

    #[test]
    fn query_str_end_to_end() {
        let db = seeded_db();
        let (rs, _) = db
            .query_str(
                "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
                 Label='NodePower' AND time >= '2020-04-20T12:00:00Z' AND \
                 time < '2020-04-21T12:00:00Z' GROUP BY time(5m)",
            )
            .unwrap();
        assert_eq!(rs.series.len(), 1);
        assert!(rs.point_count() > 0);
    }

    #[test]
    fn unknown_measurement_is_empty_not_error() {
        let db = seeded_db();
        let q = Query::select("Nope", "x", EpochSecs::new(0), EpochSecs::new(10));
        let (rs, cost) = db.query(&q).unwrap();
        assert!(rs.series.is_empty());
        assert_eq!(cost.series, 0);
    }

    #[test]
    fn invalid_points_rejected_whole_batch() {
        let db = Db::new(DbConfig::default());
        let good = power_point("n", 0, 1.0);
        let bad = DataPoint::new("m", EpochSecs::new(0)); // no fields
        assert!(db.write_batch(&[good, bad]).is_err());
        assert_eq!(db.stats().points, 0);
    }

    #[test]
    fn stats_track_volume_and_cardinality() {
        let db = seeded_db();
        let s = db.stats();
        assert_eq!(s.points, 240);
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.measurements, 1);
        assert!(s.wire_bytes > 0);
        assert!(s.encoded_bytes > 0);
        assert_eq!(s.batches, 1);
        // Encoded storage beats raw wire size for regular data.
        assert!(s.encoded_bytes < s.wire_bytes);
    }

    #[test]
    fn type_conflict_surfaces_from_write() {
        let db = Db::new(DbConfig::default());
        db.write(DataPoint::new("m", EpochSecs::new(0)).tag("n", "a").field_f64("v", 1.0)).unwrap();
        let err = db
            .write(DataPoint::new("m", EpochSecs::new(1)).tag("n", "a").field_str("v", "x"))
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = std::sync::Arc::new(Db::new(DbConfig::default()));
        std::thread::scope(|s| {
            for w in 0..4 {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..200 {
                        db.write(power_point(&format!("n{w}"), i * 60, i as f64)).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move || {
                    for _ in 0..50 {
                        let q = Query::select(
                            "Power",
                            "Reading",
                            EpochSecs::new(0),
                            EpochSecs::new(200 * 60),
                        )
                        .aggregate(Aggregation::Count);
                        let _ = db.query(&q).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.stats().points, 800);
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(200 * 60))
            .aggregate(Aggregation::Count);
        let (rs, _) = db.query(&q).unwrap();
        let total: f64 =
            rs.series.iter().flat_map(|s| s.points.iter()).filter_map(|(_, v)| v.as_f64()).sum();
        assert_eq!(total, 800.0);
    }

    #[test]
    fn stats_match_recompute_after_churn() {
        let db = Db::new(DbConfig { shard_duration: 3600, ..DbConfig::default() });
        for i in 0..48 {
            db.write(power_point("a", i * 1800, i as f64)).unwrap();
            db.write(power_point("b", i * 1800, i as f64)).unwrap();
        }
        assert_eq!(db.stats(), db.recompute_stats());
        db.compact();
        assert_eq!(db.stats(), db.recompute_stats());
        let dropped = db.drop_shards_before(EpochSecs::new(6 * 3600));
        assert!(dropped > 0);
        assert_eq!(db.stats(), db.recompute_stats());
        db.drop_measurement("Power");
        assert_eq!(db.stats(), db.recompute_stats());
        assert_eq!(db.stats().points, 0);
    }

    #[test]
    fn scan_worker_count_does_not_change_results() {
        let mk = |workers: usize| {
            let db = Db::new(DbConfig {
                shard_duration: 3600,
                scan_workers: workers,
                ..DbConfig::default()
            });
            let mut batch = Vec::new();
            for node in ["n1", "n2", "n3"] {
                for i in 0..240 {
                    batch.push(power_point(node, i * 300, 0.1 + i as f64 * 0.7));
                }
            }
            db.write_batch(&batch).unwrap();
            db
        };
        let serial = mk(1);
        let fanned = mk(8);
        for agg in [None, Some(Aggregation::Mean), Some(Aggregation::Count)] {
            let mut q =
                Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(240 * 300));
            q.agg = agg;
            if agg.is_some() {
                q = q.group_by_time(900);
            }
            let (rs1, c1) = serial.query(&q).unwrap();
            let (rs8, c8) = fanned.query(&q).unwrap();
            assert_eq!(rs1, rs8, "agg {agg:?}");
            assert_eq!(c1, c8, "agg {agg:?}");
            assert_eq!(c1.shards_scanned, 20);
        }
    }

    #[test]
    fn pushdown_summarizes_contained_blocks_and_matches_forced_decode() {
        let mk = |pushdown: bool| {
            let db = Db::new(DbConfig { pushdown, ..DbConfig::default() });
            let mut batch = Vec::new();
            for i in 0..4096i64 {
                batch.push(power_point("n1", i, 250.0 + (i % 97) as f64 * 0.37));
            }
            db.write_batch(&batch).unwrap();
            db.compact();
            db
        };
        let push = mk(true);
        let full = mk(false);
        for agg in [
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::Max,
            Aggregation::Min,
            Aggregation::First,
            Aggregation::Last,
        ] {
            let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(4096))
                .aggregate(agg)
                .group_by_time(4096);
            let (rs_p, c_p) = push.query(&q).unwrap();
            let (rs_f, c_f) = full.query(&q).unwrap();
            assert_eq!(rs_p, rs_f, "agg {agg:?}");
            // All four sealed blocks land inside the single window: the
            // pushdown run probes zone maps, the baseline decodes.
            assert_eq!(c_p.blocks_summarized, 4, "agg {agg:?}");
            assert_eq!(c_p.blocks, 0);
            assert_eq!(c_p.points, 0);
            assert_eq!(c_f.blocks_summarized, 0);
            assert_eq!(c_f.blocks, 4);
            assert_eq!(c_f.points, 4096);
            // The series still counts as scanned on the summary-only path.
            assert_eq!(c_p.series, 1);
            assert!(push.simulate_elapsed(&c_p) < full.simulate_elapsed(&c_f));
        }
        // A window narrower than a block forces decoding in both modes.
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(4096))
            .aggregate(Aggregation::Mean)
            .group_by_time(256);
        let (rs_p, c_p) = push.query(&q).unwrap();
        let (rs_f, c_f) = full.query(&q).unwrap();
        assert_eq!(rs_p, rs_f);
        assert_eq!(c_p, c_f);
        assert_eq!(c_p.blocks_summarized, 0);
    }

    #[test]
    fn field_value_reexport_used_in_results() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_060),
        );
        let (rs, _) = db.query(&q).unwrap();
        assert!(matches!(rs.series[0].points[0].1, FieldValue::Float(_)));
    }
}
