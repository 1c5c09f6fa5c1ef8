//! Per-measurement ingest watermarks: the validity surface the builder's
//! response cache keys on.
//!
//! Every applied batch advances, per measurement it touched, a triple of
//! `(version, max_ts, backfills)`:
//!
//! * `version` — bumped once per batch that touched the measurement. A
//!   cache entry whose covered measurements all show an unchanged version
//!   is trivially still byte-valid.
//! * `max_ts` — the monotone high watermark of data timestamps. In-order
//!   appends land strictly above it, so a cached window whose `end` is at
//!   or below the watermark the entry was built against can only be
//!   changed by *backfill* writes — new versions alone don't invalidate a
//!   closed historical window.
//! * `backfills` — bumped whenever a batch lands at or below the
//!   then-current `max_ts`. Any change here means history was rewritten
//!   and closed windows over this measurement must be re-read.
//!
//! Marks are updated *after* shard data is applied (end of
//! `Db::write_batch`) and snapshotted by readers *before* they execute a
//! query, so a concurrent write can at worst cause a spurious
//! invalidation — never a stale entry that still validates.
//!
//! Retention and measurement drops remove data without advancing any
//! watermark, so they bump a coarse [`Db::retention_epoch`] counter that
//! invalidates every snapshot taken before the drop.

use parking_lot::RwLock;
use std::collections::HashMap;

/// One measurement's ingest watermark. `Default` describes a measurement
/// that has never been written (`version == 0`, empty time range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementMark {
    /// Batches that have touched this measurement.
    pub version: u64,
    /// High watermark of applied data timestamps (`i64::MIN` when empty).
    pub max_ts: i64,
    /// Batches that landed at or below the then-current `max_ts`.
    pub backfills: u64,
}

impl Default for MeasurementMark {
    fn default() -> Self {
        MeasurementMark { version: 0, max_ts: i64::MIN, backfills: 0 }
    }
}

/// The per-database mark table. Reads are a shared-lock `HashMap` lookup
/// by `&str` (no allocation); writes happen once per applied batch.
#[derive(Default)]
pub(crate) struct WatermarkRegistry {
    marks: RwLock<HashMap<String, MeasurementMark>>,
}

impl WatermarkRegistry {
    /// Current mark for `measurement` (default mark if never written).
    pub fn get(&self, measurement: &str) -> MeasurementMark {
        self.marks.read().get(measurement).copied().unwrap_or_default()
    }

    /// Every measurement's current mark, sorted by name. Recovery
    /// equivalence tests compare a replayed database's whole mark table
    /// against an uninterrupted twin's; not on any hot path (allocates,
    /// holds the read lock for the full walk).
    pub fn snapshot(&self) -> Vec<(String, MeasurementMark)> {
        let marks = self.marks.read();
        let mut out: Vec<(String, MeasurementMark)> =
            marks.iter().map(|(m, mark)| (m.clone(), *mark)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Fold one applied batch's per-measurement `[min_ts, max_ts]` spans
    /// into the table. Spans with `lo > hi` are empty sentinels and are
    /// skipped, so callers can keep reusable scratch entries around.
    pub fn note_spans<S: AsRef<str>>(&self, spans: &[(S, i64, i64)]) {
        if spans.iter().all(|(_, lo, hi)| lo > hi) {
            return;
        }
        let mut marks = self.marks.write();
        for (m, lo, hi) in spans {
            if lo > hi {
                continue;
            }
            match marks.get_mut(m.as_ref()) {
                Some(mark) => {
                    mark.version = mark.version.wrapping_add(1);
                    if *lo <= mark.max_ts {
                        mark.backfills = mark.backfills.wrapping_add(1);
                    }
                    if *hi > mark.max_ts {
                        mark.max_ts = *hi;
                    }
                }
                None => {
                    let mark = MeasurementMark { version: 1, max_ts: *hi, backfills: 0 };
                    marks.insert(m.as_ref().to_string(), mark);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_measurement_has_default_mark() {
        let reg = WatermarkRegistry::default();
        assert_eq!(reg.get("Power"), MeasurementMark::default());
    }

    #[test]
    fn in_order_appends_advance_version_and_watermark_only() {
        let reg = WatermarkRegistry::default();
        reg.note_spans(&[("Power", 100i64, 160i64)]);
        assert_eq!(reg.get("Power"), MeasurementMark { version: 1, max_ts: 160, backfills: 0 });
        reg.note_spans(&[("Power", 220i64, 220i64)]);
        assert_eq!(reg.get("Power"), MeasurementMark { version: 2, max_ts: 220, backfills: 0 });
    }

    #[test]
    fn landing_at_or_below_watermark_counts_as_backfill() {
        let reg = WatermarkRegistry::default();
        reg.note_spans(&[("Power", 100i64, 160i64)]);
        // Exactly at the watermark: duplicate timestamps rewrite history.
        reg.note_spans(&[("Power", 160i64, 200i64)]);
        assert_eq!(reg.get("Power"), MeasurementMark { version: 2, max_ts: 200, backfills: 1 });
        // Strictly below.
        reg.note_spans(&[("Power", 40i64, 50i64)]);
        assert_eq!(reg.get("Power"), MeasurementMark { version: 3, max_ts: 200, backfills: 2 });
    }

    #[test]
    fn spans_are_per_measurement_and_sentinels_skipped() {
        let reg = WatermarkRegistry::default();
        reg.note_spans(&[("Power", 100i64, 160i64), ("Thermal", i64::MAX, i64::MIN)]);
        assert_eq!(reg.get("Power").version, 1);
        assert_eq!(reg.get("Thermal"), MeasurementMark::default());
    }
}
