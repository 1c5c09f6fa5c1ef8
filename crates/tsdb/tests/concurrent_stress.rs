//! Stress test for the sharded-lock engine: concurrent writers, queriers,
//! retention enforcement, and full-database export walks all running against one
//! database, with point-count conservation checked at the end.
//!
//! The conservation invariant: every point a writer successfully wrote is
//! either still queryable or was removed by a retention pass —
//! `written == stats().points + dropped-by-retention` — and the O(1)
//! incremental statistics agree exactly with a full walk of the shards
//! ([`Db::recompute_stats`]).

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query};
use monster_util::EpochSecs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SHARD: i64 = 300; // 5-minute shards → many shards, much churn
const WRITERS: usize = 4;
const POINTS_PER_WRITER: usize = 1500;

fn point(writer: usize, i: usize) -> DataPoint {
    let ts = (i as i64) * 20; // writers cover the same timeline in lockstep
    DataPoint::new("Power", EpochSecs::new(ts))
        .tag("NodeId", format!("10.101.1.{writer}"))
        .field_f64("Reading", 200.0 + (i % 97) as f64)
}

#[test]
fn writers_queriers_retention_and_exports_conserve_points() {
    let db = Arc::new(Db::new(DbConfig {
        shard_duration: SHARD,
        scan_workers: 4,
        ..DbConfig::default()
    }));
    // Points retention removed, per its own exact accounting (shards
    // dropped while writers were still filling them stay conserved because
    // `drop_shards_before_counted` reports exactly what each shard held at
    // tombstone time, and tombstoned shards are never appended to).
    let retained_away = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // Writers: mixed batch sizes, all to the same measurement.
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let mut i = 0usize;
                while i < POINTS_PER_WRITER {
                    let batch_len = (1 + i % 37).min(POINTS_PER_WRITER - i);
                    let batch: Vec<DataPoint> = (i..i + batch_len).map(|j| point(w, j)).collect();
                    db.write_batch(&batch).unwrap();
                    i += batch_len;
                }
            });
        }
        // Queriers: windowed aggregations racing the writers.
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..60 {
                    let q = Query::select(
                        "Power",
                        "Reading",
                        EpochSecs::new(0),
                        EpochSecs::new(POINTS_PER_WRITER as i64 * 20),
                    )
                    .aggregate(Aggregation::Count)
                    .group_by_time(SHARD);
                    let (_rs, cost) = db.query(&q).unwrap();
                    // Bound by the whole timeline's shard count (the map
                    // churns underneath us, so only the static bound holds).
                    assert!(cost.shards_scanned <= (POINTS_PER_WRITER * 20) / SHARD as usize + 1);
                }
            });
        }
        // Retention: repeatedly drop everything older than a rising
        // horizon, recording how many points each pass removed.
        {
            let db = Arc::clone(&db);
            let away = Arc::clone(&retained_away);
            s.spawn(move || {
                for step in 1..=10i64 {
                    let horizon = step * 2 * SHARD;
                    let (_shards, points) = db.drop_shards_before_counted(EpochSecs::new(horizon));
                    away.fetch_add(points, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        // Exporter: full-database walks while everything churns.
        {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..5 {
                    // The walk must complete without deadlock or panic
                    // while shards churn; its point count is a moving
                    // target, so only the final (quiesced) walk is checked.
                    db.export(|_, _, _, _| {}).unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    // Conservation: written == live + removed-by-retention. The write and
    // retention paths account independently (atomic deltas vs per-shard
    // subtraction), so any double-count or leak shows up here.
    let written = WRITERS * POINTS_PER_WRITER;
    let live = db.stats().points;
    let away = retained_away.load(Ordering::Relaxed);
    assert_eq!(live + away, written, "live {live} + retained-away {away} != {written}");

    // The O(1) counters must agree exactly with a full shard walk.
    assert_eq!(db.stats(), db.recompute_stats());

    // Quiesced: a count over the whole timeline sees exactly the live set.
    let q = Query::select(
        "Power",
        "Reading",
        EpochSecs::new(0),
        EpochSecs::new(POINTS_PER_WRITER as i64 * 20),
    )
    .aggregate(Aggregation::Count)
    .group_by_time(SHARD);
    let (rs, _) = db.query(&q).unwrap();
    let counted: f64 =
        rs.series.iter().flat_map(|s| s.points.iter()).filter_map(|(_, v)| v.as_f64()).sum();
    assert_eq!(counted as usize, live);

    // A final export walk sees the same live set too.
    let mut exported = 0usize;
    db.export(|_, _, _, _| exported += 1).unwrap();
    assert_eq!(exported, live);
}
