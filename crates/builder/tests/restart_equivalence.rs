//! Restart equivalence at the HTTP boundary: a Metrics Builder serving
//! from a crash-recovered database must answer `/v1/metrics` with the
//! exact bytes an uninterrupted deployment would produce.
//!
//! The tsdb-level crash tests (`crates/tsdb/tests/wal_crash.rs`) prove
//! the engine replays a consistent prefix; this test proves nothing is
//! lost in translation through the whole serving stack — planner,
//! executor, response assembly, JSON rendering, and the compressed
//! variant — because dashboards diff documents, not shard contents.

use monster_builder::service::{router, ServiceConfig};
use monster_http::{Request, Response, Router, Status};
use monster_tsdb::recover::{copy_dir_killed_at, wal_extent};
use monster_tsdb::{DataPoint, Db, DbConfig};
use monster_util::{EpochSecs, NodeId};
use std::sync::Arc;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("monster-restart-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One collection interval of the standard two-node Power fleet.
fn batch_at(ids: &[NodeId], i: i64) -> Vec<DataPoint> {
    ids.iter()
        .map(|n| {
            DataPoint::new("Power", EpochSecs::new(i * 60))
                .tag("NodeId", n.bmc_addr())
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + (i % 37) as f64)
        })
        .collect()
}

fn get(router: &Router, url: &str) -> Response {
    router.dispatch(&Request::get(url))
}

#[test]
fn recovered_service_serves_byte_identical_documents() {
    let dir = fresh_dir("main");
    let config = DbConfig::default();
    let ids = NodeId::enumerate(2, 4);

    // The deployment that will crash: WAL-backed, fed one `write_batch`
    // per interval like a real collector, synced, then killed hard — the
    // process image is gone, only the directory remains. `copy_dir_killed_at`
    // at the full extent models a kill after the final group commit.
    let (db, _) = Db::recover(config, &dir).unwrap();
    // The uninterrupted twin: same writes, never restarted.
    let twin = Arc::new(Db::new(config));
    for i in 0..60i64 {
        let b = batch_at(&ids, i);
        db.write_batch(&b).unwrap();
        twin.write_batch(&b).unwrap();
    }
    db.wal_sync().unwrap();
    drop(db);

    let killed = fresh_dir("killed");
    let extent = wal_extent(&dir).unwrap();
    copy_dir_killed_at(&dir, &killed, extent).unwrap();
    let (recovered, report) = Db::recover(config, &killed).unwrap();
    assert_eq!(report.records_failed, 0);
    assert!(report.replayed_points > 0);

    let service_recovered = router(Arc::new(recovered), ids.clone(), ServiceConfig::default());
    let service_twin = router(Arc::clone(&twin), ids, ServiceConfig::default());

    let urls = [
        "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m",
        "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=10m&aggregation=mean",
        "/v1/metrics?start=1970-01-01T00:30:00Z&end=1970-01-01T01:00:00Z&interval=1m&aggregation=min",
        "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m&compress=true",
    ];
    for url in urls {
        let a = get(&service_recovered, url);
        let b = get(&service_twin, url);
        assert_eq!(a.status, Status::OK, "{url}");
        assert_eq!(b.status, Status::OK, "{url}");
        assert_eq!(
            a.body, b.body,
            "recovered service diverged from the uninterrupted twin on {url}"
        );
        // And each side's cache hit re-serves those same bytes.
        let again = get(&service_recovered, url);
        assert_eq!(again.headers.get("X-Cache"), Some("hit"));
        assert_eq!(again.body, b.body, "{url}");
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&killed).ok();
}

/// A kill *before* the final group commit serves a consistent — possibly
/// shorter — history: the recovered service must still agree byte-for-byte
/// with a twin fed the replayed prefix, and never 500 or serve a torn
/// document.
#[test]
fn torn_tail_service_serves_a_consistent_prefix() {
    let dir = fresh_dir("torn");
    let config = DbConfig::default();
    let ids = NodeId::enumerate(2, 4);

    let (db, _) = Db::recover(config, &dir).unwrap();
    let batches: Vec<Vec<DataPoint>> = (0..60).map(|i| batch_at(&ids, i)).collect();
    for b in &batches {
        db.write_batch(b).unwrap();
    }
    // No explicit sync: the tail of the log is fair game for the kill.
    drop(db);

    let killed = fresh_dir("torn-killed");
    let extent = wal_extent(&dir).unwrap();
    // Cut mid-record at ~70% of the log.
    copy_dir_killed_at(&dir, &killed, extent * 7 / 10).unwrap();
    let (recovered, report) = Db::recover(config, &killed).unwrap();
    let k = report.replayed_records as usize;
    assert!(k < batches.len(), "cut at 70% must lose some unsynced tail");

    let twin = Arc::new(Db::new(config));
    for b in &batches[..k] {
        twin.write_batch(b).unwrap();
    }

    let service_recovered = router(Arc::new(recovered), ids.clone(), ServiceConfig::default());
    let service_twin = router(Arc::clone(&twin), ids, ServiceConfig::default());
    let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
    let a = get(&service_recovered, url);
    let b = get(&service_twin, url);
    assert_eq!(a.status, Status::OK);
    assert_eq!(a.body, b.body, "torn-tail recovery must serve the twin's prefix document");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&killed).ok();
}
