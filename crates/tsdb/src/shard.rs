//! Time-partitioned shards.
//!
//! The database splits the timeline into fixed-duration shards (default one
//! day, like InfluxDB's retention-policy shard groups). A query only opens
//! the shards overlapping its time range — the reason query time grows with
//! time range in Fig. 10.
//!
//! Since the sharded-lock engine rework, each shard lives behind its own
//! `RwLock` inside [`crate::db::Db`]: writers to different shards append in
//! parallel, and a query's overlapping-shard scans fan out across a worker
//! pool. Columns are keyed by `(SeriesId, FieldId)` — both dense `u32` ids
//! resolved up front in the series index — so the append hot path does no
//! string hashing and no key allocation.

use crate::column::{AggScan, Column, ScanItem, ScanStats};
use crate::field::FieldValue;
use crate::series::{FieldId, SeriesId};
use monster_util::Result;
use std::collections::HashMap;

/// One shard: `[start, end)` on the epoch-seconds timeline.
#[derive(Debug)]
pub struct Shard {
    /// Inclusive start (epoch seconds).
    pub start: i64,
    /// Exclusive end (epoch seconds).
    pub end: i64,
    /// Per-series, per-field columns.
    columns: HashMap<(SeriesId, FieldId), Column>,
    point_count: usize,
    /// Incrementally-maintained sum of the columns' encoded bytes, so the
    /// engine's size accounting is O(1) per operation.
    encoded: usize,
    /// Tombstone set by retention when the shard leaves the shard map. A
    /// writer that raced the removal (it fetched the `Arc` from the map
    /// before the drop) sees the flag after acquiring the shard lock and
    /// re-fetches instead of appending into an orphan.
    dropped: bool,
    /// Set once tiering has exported this shard to an immutable segment
    /// file: scans of a cold shard are priced by the cold-tier disk model
    /// and its WAL records are reclaimable. Data stays readable in place.
    cold: bool,
}

impl Shard {
    /// An empty shard covering `[start, end)`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(end > start);
        Shard {
            start,
            end,
            columns: HashMap::new(),
            point_count: 0,
            encoded: 0,
            dropped: false,
            cold: false,
        }
    }

    /// True when `ts` belongs to this shard.
    pub fn covers(&self, ts: i64) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Whether the shard overlaps the query range `[qs, qe)`.
    pub fn overlaps(&self, qs: i64, qe: i64) -> bool {
        self.start < qe && qs < self.end
    }

    /// Append one field value for a series. The `(series, field)` key is
    /// two `Copy` ids — zero allocations in the steady state (the column
    /// exists and its tail has capacity).
    pub fn append(
        &mut self,
        series: SeriesId,
        field: FieldId,
        ts: i64,
        value: &FieldValue,
    ) -> Result<()> {
        debug_assert!(self.covers(ts));
        let col = self.columns.entry((series, field)).or_insert_with(|| Column::new(value));
        let before = col.encoded_bytes();
        col.append(ts, value)?;
        self.encoded = self.encoded + col.encoded_bytes() - before;
        self.point_count += 1;
        Ok(())
    }

    /// Append a span of same-`(series, field)` points from the write path's
    /// sorted batch: one column lookup for the whole span, then per-point
    /// appends (values are heterogeneously typed `FieldValue`s, so the type
    /// check stays per point, preserving partial-apply error semantics).
    /// `applied` counts points that landed before any error.
    pub fn append_span(
        &mut self,
        series: SeriesId,
        field: FieldId,
        pts: &[(SeriesId, FieldId, i64, &FieldValue)],
        applied: &mut usize,
    ) -> Result<()> {
        let Some(first) = pts.first() else { return Ok(()) };
        debug_assert!(pts
            .iter()
            .all(|&(s, f, ts, _)| (s, f) == (series, field) && self.covers(ts)));
        let col = self.columns.entry((series, field)).or_insert_with(|| Column::new(first.3));
        let before = col.encoded_bytes();
        let mut res = Ok(());
        for &(_, _, ts, value) in pts {
            if let Err(e) = col.append(ts, value) {
                res = Err(e);
                break;
            }
            self.point_count += 1;
            *applied += 1;
        }
        self.encoded = self.encoded + col.encoded_bytes() - before;
        res
    }

    /// Scan one series' field within `[start, end)`.
    pub fn scan(
        &self,
        series: SeriesId,
        field: FieldId,
        start: i64,
        end: i64,
        f: impl FnMut(i64, FieldValue),
    ) -> Result<ScanStats> {
        match self.columns.get(&(series, field)) {
            Some(col) => col.scan(start, end, f),
            None => Ok(ScanStats::default()),
        }
    }

    /// Aggregation-aware scan of one series' field (zone-map pushdown):
    /// fully contained sealed blocks are emitted as summary partials
    /// without decompression. See [`Column::scan_agg`].
    pub fn scan_agg(
        &self,
        series: SeriesId,
        field: FieldId,
        spec: AggScan,
        emit: impl FnMut(ScanItem),
    ) -> Result<ScanStats> {
        match self.columns.get(&(series, field)) {
            Some(col) => col.scan_agg(spec, emit),
            None => Ok(ScanStats::default()),
        }
    }

    /// Visit every stored (series, field, timestamp, value) in the shard.
    pub fn export(&self, mut f: impl FnMut(SeriesId, FieldId, i64, FieldValue)) -> Result<()> {
        for ((series, field), col) in &self.columns {
            col.scan(i64::MIN, i64::MAX, |ts, v| f(*series, *field, ts, v))?;
        }
        Ok(())
    }

    /// Field values appended in this shard (counts each field write once).
    pub fn point_count(&self) -> usize {
        self.point_count
    }

    /// Encoded at-rest bytes across all columns (O(1), maintained
    /// incrementally on append/seal/drop).
    pub fn encoded_bytes(&self) -> usize {
        self.encoded
    }

    /// Compact: seal every column's raw tail into compressed blocks.
    /// Returns the number of columns sealed.
    pub fn compact(&mut self) -> usize {
        let mut sealed = 0usize;
        for col in self.columns.values_mut() {
            let before = col.encoded_bytes();
            if col.seal_now() {
                sealed += 1;
            }
            self.encoded = self.encoded + col.encoded_bytes() - before;
        }
        sealed
    }

    /// Raw (unsealed) points across all columns.
    pub fn tail_points(&self) -> usize {
        self.columns.values().map(Column::tail_len).sum()
    }

    /// Remove every column belonging to the given series. Returns the
    /// `(points, encoded bytes)` removed, so the engine's incremental
    /// statistics stay exact.
    pub fn drop_series(&mut self, victims: &std::collections::HashSet<SeriesId>) -> (usize, usize) {
        let (points_before, encoded_before) = (self.point_count, self.encoded);
        self.columns.retain(|(sid, _), _| !victims.contains(sid));
        // point_count/encoded track appends; recompute from survivors.
        self.point_count = self.columns.values().map(Column::point_count).sum();
        self.encoded = self.columns.values().map(Column::encoded_bytes).sum();
        (points_before - self.point_count, encoded_before - self.encoded)
    }

    /// Mark the shard as removed from the shard map (see `dropped`).
    pub fn mark_dropped(&mut self) {
        self.dropped = true;
    }

    /// True once retention has removed this shard from the shard map.
    pub fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// Mark the shard as tiered to cold storage (see `cold`).
    pub fn mark_cold(&mut self) {
        self.cold = true;
    }

    /// True once tiering has exported this shard to an immutable segment
    /// file on the cold tier.
    pub fn is_cold(&self) -> bool {
        self.cold
    }

    /// The (series, field) keys of every column in this shard.
    pub fn column_keys(&self) -> Vec<(SeriesId, FieldId)> {
        self.columns.keys().copied().collect()
    }

    /// Number of (series, field) columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_and_overlaps() {
        let s = Shard::new(0, 86_400);
        assert!(s.covers(0));
        assert!(s.covers(86_399));
        assert!(!s.covers(86_400));
        assert!(s.overlaps(-100, 1));
        assert!(s.overlaps(86_399, 100_000));
        assert!(!s.overlaps(86_400, 100_000));
        assert!(!s.overlaps(-100, 0));
    }

    #[test]
    fn append_routes_to_columns() {
        let mut s = Shard::new(0, 1000);
        let sid = SeriesId(0);
        let (reading, other) = (FieldId(0), FieldId(1));
        s.append(sid, reading, 10, &FieldValue::Float(1.0)).unwrap();
        s.append(sid, reading, 20, &FieldValue::Float(2.0)).unwrap();
        s.append(sid, other, 10, &FieldValue::Int(5)).unwrap();
        assert_eq!(s.point_count(), 3);
        assert_eq!(s.column_count(), 2);
        let mut seen = Vec::new();
        s.scan(sid, reading, 0, 1000, |t, v| seen.push((t, v))).unwrap();
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn scan_of_missing_column_is_empty() {
        let s = Shard::new(0, 1000);
        let stats = s.scan(SeriesId(9), FieldId(7), 0, 1000, |_, _| panic!("no data")).unwrap();
        assert_eq!(stats, ScanStats::default());
    }

    #[test]
    fn drop_series_reports_exact_deltas() {
        let mut s = Shard::new(0, 1000);
        for i in 0..10 {
            s.append(SeriesId(0), FieldId(0), i, &FieldValue::Float(i as f64)).unwrap();
            s.append(SeriesId(1), FieldId(0), i, &FieldValue::Float(i as f64)).unwrap();
        }
        let (points_before, encoded_before) = (s.point_count(), s.encoded_bytes());
        let victims = std::collections::HashSet::from([SeriesId(0)]);
        let (dp, db) = s.drop_series(&victims);
        assert_eq!(dp, 10);
        assert_eq!(s.point_count(), points_before - dp);
        assert_eq!(s.encoded_bytes(), encoded_before - db);
        // Incremental byte counter matches a fresh walk.
        let walked: usize = s.column_keys().len(); // survivors only
        assert_eq!(walked, 1);
    }

    #[test]
    fn append_span_counts_partial_applies() {
        let mut s = Shard::new(0, 1000);
        let sid = SeriesId(0);
        let fid = FieldId(0);
        let good = FieldValue::Float(1.0);
        let bad = FieldValue::Int(2);
        let pts = vec![(sid, fid, 1i64, &good), (sid, fid, 2, &good), (sid, fid, 3, &bad)];
        let mut applied = 0usize;
        let err = s.append_span(sid, fid, &pts, &mut applied).unwrap_err();
        assert!(err.to_string().contains("type conflict"));
        assert_eq!(applied, 2);
        assert_eq!(s.point_count(), 2);
    }

    #[test]
    fn compact_keeps_encoded_counter_consistent() {
        let mut s = Shard::new(0, 100_000);
        for i in 0..500 {
            s.append(SeriesId(0), FieldId(0), i, &FieldValue::Float(250.0)).unwrap();
        }
        let raw = s.encoded_bytes();
        assert_eq!(s.compact(), 1);
        assert!(s.encoded_bytes() < raw, "sealing should shrink at-rest bytes");
        assert_eq!(s.tail_points(), 0);
    }
}
