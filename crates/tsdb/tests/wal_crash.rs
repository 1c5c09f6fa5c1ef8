//! Crash-matrix tests: kill the WAL byte stream at *any* offset and the
//! database must recover to a consistent prefix — never panic, never lose
//! an acknowledged batch, never resurrect half a batch.
//!
//! The kill model is `recover::copy_dir_killed_at`: cold-tier segment
//! files survive intact (fsync-then-rename is atomic), the WAL byte
//! stream — segments concatenated in sequence order — is cut at an
//! arbitrary offset. Offsets below the last group-commit boundary model
//! data the OS never flushed; the contract is that everything **acked**
//! (covered by a completed fsync) is at or below any legal kill offset.

use monster_tsdb::recover::{copy_dir_killed_at, wal_extent};
use monster_tsdb::{DataPoint, Db, DbConfig, Query, TierConfig, WalTuning};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("monster-wal-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mk_batch(pts: &[(i64, f64)]) -> Vec<DataPoint> {
    pts.iter()
        .enumerate()
        .map(|(i, &(t, v))| {
            DataPoint::new("m", EpochSecs::new(t))
                .tag("n", if i % 3 == 0 { "a" } else { "b" })
                .field_f64("v", v)
        })
        .collect()
}

fn query_all(db: &Db) -> monster_tsdb::ResultSet {
    let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(10_000));
    db.query(&q).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property. For an arbitrary batch sequence, explicit
    /// sync cadence, and kill offset anywhere in the WAL byte stream:
    ///
    /// * recovery succeeds and replays a *record-aligned* prefix — exactly
    ///   the first `k` batches for some `k`, no partial batch;
    /// * point accounting is exact: the recovered database is
    ///   indistinguishable (stats, watermarks, query results) from a fresh
    ///   twin fed the same `k` batches;
    /// * if the kill offset is at or past the durable boundary (the bytes
    ///   covered by the last group commit), `k` covers every acknowledged
    ///   batch — fsynced data is never lost.
    #[test]
    fn kill_at_any_byte_offset_recovers_a_consistent_prefix(
        batches in prop::collection::vec(
            prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..20),
            1..12,
        ),
        sync_every in 1usize..5,
        cut_per_mille in 0u64..=1000,
    ) {
        let dir = fresh_dir("prop");
        let config = DbConfig {
            shard_duration: 1000,
            // Tiny segments exercise rolling; explicit-sync-only tuning
            // makes the ack boundary deterministic per case.
            wal: WalTuning {
                segment_bytes: 2048,
                sync_bytes: usize::MAX,
                sync_interval: Duration::from_secs(3600),
            },
            ..DbConfig::default()
        };
        let (db, _) = Db::recover(config, &dir).unwrap();
        for (i, b) in batches.iter().enumerate() {
            db.write_batch(&mk_batch(b)).unwrap();
            if (i + 1) % sync_every == 0 {
                db.wal_sync().unwrap();
            }
        }
        let status = db.wal_status().unwrap();
        let acked = status.acked_records;
        let unsynced = status.unsynced_bytes as u64;
        drop(db);

        let extent = wal_extent(&dir).unwrap();
        let durable = extent - unsynced;
        let cut = extent * cut_per_mille / 1000;
        let copy = fresh_dir("prop-copy");
        copy_dir_killed_at(&dir, &copy, cut).unwrap();

        let (recovered, report) = Db::recover(config, &copy).unwrap();
        prop_assert_eq!(report.records_failed, 0);
        let k = report.replayed_records as usize;
        prop_assert!(k <= batches.len());
        if cut >= durable {
            prop_assert!(
                k as u64 >= acked,
                "kill at {} >= durable boundary {} lost acked batches: {} < {}",
                cut, durable, k, acked
            );
        }

        // Record-aligned prefix, bit-for-bit: stats, watermarks, results.
        let twin = Db::new(config);
        for b in &batches[..k] {
            twin.write_batch(&mk_batch(b)).unwrap();
        }
        prop_assert_eq!(recovered.stats().points, twin.stats().points);
        prop_assert_eq!(recovered.stats().cardinality, twin.stats().cardinality);
        prop_assert_eq!(recovered.measurement_marks(), twin.measurement_marks());
        prop_assert_eq!(query_all(&recovered), query_all(&twin));

        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
}

/// Out-of-order, mixed-type ingest replays bit-for-bit: each
/// `write_batch` is one WAL record, re-grouped at replay exactly as it was
/// grouped live — so a recovered database answers queries byte-identically
/// to an uninterrupted twin fed the same batches.
#[test]
fn out_of_order_mixed_ingest_survives_restart_bit_for_bit() {
    let dir = fresh_dir("mixed");
    let config = DbConfig { shard_duration: 1000, ..DbConfig::default() };
    let (db, _) = Db::recover(config, &dir).unwrap();
    let twin = Db::new(config);
    for i in 0..300i64 {
        let batch = vec![
            DataPoint::new("Power", EpochSecs::new(i * 13 % 5000))
                .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                .field_f64("Reading", 250.0 + i as f64)
                .field_i64("Health", i % 3),
            DataPoint::new("NodeJobs", EpochSecs::new(i * 13 % 5000))
                .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                .field_str("JobList", format!("['{}']", 1_290_000 + i)),
        ];
        db.write_batch(&batch).unwrap();
        twin.write_batch(&batch).unwrap();
    }
    db.wal_sync().unwrap();
    drop(db);

    let (recovered, report) = Db::recover(config, &dir).unwrap();
    assert!(!report.torn_tail);
    assert_eq!(recovered.stats().points, twin.stats().points);
    assert_eq!(recovered.stats().cardinality, twin.stats().cardinality);
    assert_eq!(recovered.measurement_marks(), twin.measurement_marks());
    for (m, f) in [("Power", "Reading"), ("Power", "Health"), ("NodeJobs", "JobList")] {
        let q = Query::select(m, f, EpochSecs::new(0), EpochSecs::new(10_000));
        let (a, _) = recovered.query(&q).unwrap();
        let (b, _) = twin.query(&q).unwrap();
        assert_eq!(a, b, "recovered {m}.{f} diverged from the uninterrupted twin");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL format guard: one `write_batch` on a durable database appends
/// exactly one record, and its payload is the batch rendered one
/// line-protocol line per point (`lineproto::encode` plus a newline). The
/// benchmark's `disk_bytes_per_point` is this format's size; a change to
/// it must show up here first.
#[test]
fn one_write_batch_appends_one_line_per_point_record() {
    use monster_tsdb::wal::{FRAME_HEADER, SEGMENT_MAGIC};
    let dir = fresh_dir("format");
    let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
    // A collector-shaped interval: many nodes, several fields per point,
    // tags and a string field that need escaping.
    let batch: Vec<DataPoint> = (0..40)
        .map(|n| {
            DataPoint::new("Thermal", EpochSecs::new(1_587_340_800))
                .tag("NodeId", format!("10.101.{}.{}", n / 10 + 1, n % 10 + 1))
                .tag("Label", "CPU1 Temp")
                .field_f64("Reading", 40.0 + n as f64 * 0.5)
                .field_i64("Health", n % 3)
                .field_str("Status", "OK, \"nominal\"")
        })
        .collect();
    let before = db.wal_status().unwrap();
    db.write_batch(&batch).unwrap();
    let after = db.wal_status().unwrap();
    assert_eq!(after.appended_records, before.appended_records + 1);

    let expected: String =
        batch.iter().map(|p| monster_tsdb::lineproto::encode(p) + "\n").collect();
    let lines_len: usize = batch.iter().map(|p| monster_tsdb::lineproto::encode(p).len() + 1).sum();
    assert_eq!(expected.len(), lines_len);
    assert_eq!(
        after.active_segment_bytes - before.active_segment_bytes,
        FRAME_HEADER + lines_len,
        "one frame header plus one line per point"
    );

    db.wal_sync().unwrap();
    let wal_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("a WAL segment file");
    let bytes = std::fs::read(wal_file).unwrap();
    assert_eq!(bytes.len(), SEGMENT_MAGIC.len() + FRAME_HEADER + lines_len);
    let at = SEGMENT_MAGIC.len();
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    assert_eq!(len, lines_len);
    assert_eq!(&bytes[at + FRAME_HEADER..], expected.as_bytes());
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Tiering + WAL reclamation + crash: cold shards come back from their
/// immutable segment files, hot shards from WAL replay, and the reclaimed
/// WAL bytes are genuinely not needed.
#[test]
fn tiering_then_crash_recovers_both_tiers() {
    let dir = fresh_dir("tiering");
    let config = DbConfig {
        shard_duration: 86_400,
        disk: monster_sim::DiskModel::SSD,
        tiering: Some(TierConfig::days(2)),
        // Small segments so daily history spans several sealed WAL files
        // and reclamation has something to delete.
        wal: WalTuning { segment_bytes: 32 << 10, ..WalTuning::default() },
        ..DbConfig::default()
    };
    let (db, _) = Db::recover(config, &dir).unwrap();
    for day in 0..5i64 {
        let batch: Vec<DataPoint> = (0..1440)
            .map(|i| {
                DataPoint::new("Power", EpochSecs::new(day * 86_400 + i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .field_f64("Reading", 200.0 + (i % 100) as f64)
            })
            .collect();
        db.write_batch(&batch).unwrap();
    }
    db.wal_sync().unwrap();

    let report = db.tier_cold_shards(EpochSecs::new(5 * 86_400)).unwrap();
    assert_eq!(report.shards_tiered, 3);
    assert!(report.segment_bytes_written > 0);
    assert!(report.wal_segments_reclaimed >= 1, "{report:?}");
    for day in 0..3i64 {
        assert!(
            dir.join(format!("shard-{}.seg", day * 86_400)).exists(),
            "missing segment file for day {day}"
        );
    }
    let whole = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(5 * 86_400))
        .aggregate(monster_tsdb::Aggregation::Mean)
        .group_by_time(3600);
    let (before, _) = db.query(&whole).unwrap();
    drop(db);

    let (recovered, rec) = Db::recover(config, &dir).unwrap();
    assert_eq!(rec.segment_files_loaded, 3);
    assert_eq!(rec.segment_points, 3 * 1440);
    assert_eq!(recovered.stats().points, 5 * 1440);
    let (after, cost) = recovered.query(&whole).unwrap();
    assert_eq!(before, after, "tiered + recovered answers diverged");
    // Cold shards come back cold: history is still priced by the archive
    // device after a restart.
    assert!(cost.bytes_cold > 0 && cost.bytes_cold < cost.bytes, "{cost:?}");
    // And the recovered database keeps logging.
    recovered
        .write(
            DataPoint::new("Power", EpochSecs::new(5 * 86_400))
                .tag("NodeId", "10.101.1.1")
                .field_f64("Reading", 199.0),
        )
        .unwrap();
    recovered.wal_sync().unwrap();
    assert!(recovered.wal_status().unwrap().acked_records >= 1);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Dropped shards do not come back: retention deletes the cold-tier
/// segment file along with the shard, so recovery cannot resurrect data
/// the operator already aged out.
#[test]
fn retention_after_tiering_does_not_resurrect_on_recovery() {
    let dir = fresh_dir("retention");
    let config = DbConfig {
        shard_duration: 86_400,
        tiering: Some(TierConfig::days(1)),
        // Small segments so the dropped day's WAL records live in sealed
        // segments that tiering reclaims; records still in the active
        // segment would replay (and rely on the collector re-enforcing
        // retention, the documented fallback).
        wal: WalTuning { segment_bytes: 4 << 10, ..WalTuning::default() },
        ..DbConfig::default()
    };
    let (db, _) = Db::recover(config, &dir).unwrap();
    for day in 0..3i64 {
        let batch: Vec<DataPoint> = (0..100)
            .map(|i| {
                DataPoint::new("Power", EpochSecs::new(day * 86_400 + i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .field_f64("Reading", i as f64)
            })
            .collect();
        db.write_batch(&batch).unwrap();
    }
    db.tier_cold_shards(EpochSecs::new(3 * 86_400)).unwrap();
    assert!(dir.join("shard-0.seg").exists());
    // Drop day 0 entirely.
    assert_eq!(db.drop_shards_before(EpochSecs::new(86_400)), 1);
    assert!(!dir.join("shard-0.seg").exists(), "retention must delete the segment file");
    drop(db);
    let (recovered, _) = Db::recover(config, &dir).unwrap();
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400));
    let (rs, _) = recovered.query(&q).unwrap();
    assert_eq!(rs.point_count(), 0, "dropped day resurrected by recovery");
    assert_eq!(recovered.stats().points, 200);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
