//! Crash recovery: rebuild a [`Db`] from a durability directory.
//!
//! [`Db::recover`] is the single entry point for durable databases. The
//! directory holds two kinds of files, both written by the engine:
//!
//! * `shard-<start>.seg` — immutable cold-tier segment files (compressed
//!   line protocol behind an `MSEG1` header, see `encode_segment`),
//!   written by tiering with an fsync-then-rename protocol. Loaded first;
//!   a corrupt segment file is a hard error, not a torn tail.
//! * `wal-<seq>.log` — write-ahead-log segments ([`crate::wal`]). Replayed
//!   in sequence order after the cold shards load. Points whose shard is
//!   already covered by a segment file are skipped (their WAL segment
//!   simply outlived its reclamation).
//!
//! # The torn tail
//!
//! Appends are strictly sequential, so on an unclean shutdown exactly one
//! suffix of the byte stream can be missing or torn. Replay stops at the
//! first frame that fails validation — short header, absurd length, short
//! payload, or CRC mismatch — truncates that file back to the last valid
//! frame boundary, and deletes any later WAL files (they can only hold
//! records appended *after* the torn one, which the ack boundary never
//! covered). Everything before the tear — in particular every acknowledged
//! batch — replays exactly; recovery never panics on torn bytes.
//!
//! A frame whose CRC validates but whose payload fails to parse is
//! different: the bytes were written intact, so this is a writer bug, not
//! a crash artifact. Such records are counted ([`RecoveryReport::records_failed`])
//! and skipped; replay continues.
//!
//! Replay goes through [`Db::write_batch`] with no WAL attached (the log is
//! only attached afterwards, via the resumed appender), so recovered points
//! are not re-logged, per-measurement watermarks republish exactly as live
//! writes would, and recovered query results are byte-identical to an
//! uninterrupted twin fed the same prefix.

use crate::db::{Db, DbConfig};
use crate::lineproto;
use crate::point::DataPoint;
use crate::wal::{self, Wal, FRAME_HEADER, MAX_RECORD_BYTES, SEGMENT_MAGIC};
use monster_compress::Level;
use monster_util::{Error, Result};
use std::collections::HashSet;
use std::path::Path;

/// What [`Db::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Cold-tier segment files loaded.
    pub segment_files_loaded: usize,
    /// Points restored from segment files.
    pub segment_points: usize,
    /// WAL segment files scanned (surviving, including the truncated one).
    pub wal_segments_scanned: usize,
    /// WAL records replayed into the database.
    pub replayed_records: u64,
    /// Points applied from WAL records.
    pub replayed_points: usize,
    /// Points skipped because a segment file already covered their shard.
    pub skipped_points: usize,
    /// CRC-valid records that failed to parse or apply (writer bugs —
    /// counted, skipped, replay continues).
    pub records_failed: u64,
    /// Bytes discarded from the torn tail (truncated frame bytes plus any
    /// whole later files deleted).
    pub truncated_bytes: u64,
    /// Whether a torn tail was found (and truncated) at all.
    pub torn_tail: bool,
}

/// Magic bytes opening an immutable per-shard segment file (`shard-<start>.seg`),
/// written by tiering ([`Db::tier_cold_shards`]) and loaded first during
/// recovery.
const SEG_MAGIC: &[u8] = b"MSEG1\n";

/// Encode line-protocol `text` as an immutable segment file body.
pub(crate) fn encode_segment(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len() / 4 + SEG_MAGIC.len());
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&monster_compress::compress(text.as_bytes(), Level::default()));
    out
}

/// Decode an immutable segment file back into points. Segment files are
/// written with an fsync-then-rename protocol, so corruption here is real
/// data loss and surfaces as an error (unlike a torn WAL tail).
fn decode_segment(bytes: &[u8]) -> Result<Vec<DataPoint>> {
    let body = bytes
        .strip_prefix(SEG_MAGIC)
        .ok_or_else(|| Error::Corrupt("not a MSEG1 segment file".into()))?;
    let text = monster_compress::decompress(body)?;
    let text = String::from_utf8(text)
        .map_err(|_| Error::Corrupt("segment payload is not UTF-8".into()))?;
    lineproto::parse_batch(&text)
}

/// Parse `shard-<start>.seg` file names.
fn parse_seg_name(name: &str) -> Option<i64> {
    name.strip_prefix("shard-")?.strip_suffix(".seg")?.parse().ok()
}

impl Db {
    /// Open a durable database from `dir`, replaying its history, and
    /// attach a resumed WAL appender so subsequent writes keep logging.
    ///
    /// An empty (or absent) directory yields a fresh database and an
    /// all-zero report — this is also how a durable deployment starts.
    pub fn recover(config: DbConfig, dir: impl AsRef<Path>) -> Result<(Db, RecoveryReport)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let db = Db::new(config);
        let mut report = RecoveryReport::default();

        // --- inventory ---------------------------------------------------
        let mut seg_starts: Vec<i64> = Vec::new();
        let mut wal_seqs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(start) = parse_seg_name(name) {
                seg_starts.push(start);
            } else if let Some(seq) = wal::parse_segment_name(name) {
                wal_seqs.push(seq);
            }
            // Anything else (tmp files from an interrupted tiering pass,
            // stray artifacts) is ignored: a `.seg.tmp` never renamed is a
            // migration that never happened, and its WAL bytes still exist.
        }
        seg_starts.sort_unstable();
        wal_seqs.sort_unstable();

        // --- cold shards from immutable segment files --------------------
        let mut covered: HashSet<i64> = HashSet::new();
        for &start in &seg_starts {
            let bytes = std::fs::read(dir.join(format!("shard-{start}.seg")))?;
            let points = decode_segment(&bytes)?;
            for chunk in points.chunks(10_000) {
                db.write_batch(chunk)?;
            }
            if !points.is_empty() {
                db.shard_for(start).write().mark_cold();
            }
            covered.insert(start);
            report.segment_files_loaded += 1;
            report.segment_points += points.len();
        }

        // --- WAL replay to the longest consistent prefix ------------------
        let duration = config.shard_duration;
        let mut sealed: Vec<(u64, i64)> = Vec::new();
        let mut torn_at: Option<usize> = None; // index into wal_seqs
        for (file_idx, &seq) in wal_seqs.iter().enumerate() {
            let path = wal::segment_path(dir, seq);
            let bytes = std::fs::read(&path)?;
            report.wal_segments_scanned += 1;
            if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                // A segment whose very magic is short or wrong can only be
                // the tail file torn at creation; nothing in it was ever
                // acknowledged. Drop the whole file.
                report.truncated_bytes += bytes.len() as u64;
                report.torn_tail = true;
                std::fs::remove_file(&path)?;
                report.wal_segments_scanned -= 1;
                torn_at = Some(file_idx + 1);
                break;
            }
            let mut offset = SEGMENT_MAGIC.len();
            let mut seg_max_ts = i64::MIN;
            let mut torn_here = false;
            while offset < bytes.len() {
                if offset + FRAME_HEADER > bytes.len() {
                    torn_here = true; // short header
                    break;
                }
                let len =
                    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
                if len > MAX_RECORD_BYTES || offset + FRAME_HEADER + len > bytes.len() {
                    torn_here = true; // absurd length or short payload
                    break;
                }
                let payload = &bytes[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
                if wal::crc32(payload) != crc {
                    torn_here = true; // torn payload (or header)
                    break;
                }
                offset += FRAME_HEADER + len;
                // CRC says the record is exactly what the writer framed:
                // parse/apply failures from here on are counted, not torn.
                match std::str::from_utf8(payload)
                    .map_err(|_| Error::Corrupt("WAL record is not UTF-8".into()))
                    .and_then(lineproto::parse_batch)
                {
                    Ok(points) => {
                        for p in &points {
                            seg_max_ts = seg_max_ts.max(p.time.as_secs());
                        }
                        let fresh: Vec<DataPoint> = points
                            .into_iter()
                            .filter(|p| {
                                let start = p.time.as_secs().div_euclid(duration) * duration;
                                if covered.contains(&start) {
                                    report.skipped_points += 1;
                                    false
                                } else {
                                    true
                                }
                            })
                            .collect();
                        let fresh_count = fresh.len();
                        match db.write_batch(&fresh) {
                            Ok(()) => {
                                report.replayed_records += 1;
                                report.replayed_points += fresh_count;
                            }
                            // Same contract as live ingest: a batch that
                            // partially applies (e.g. a type conflict)
                            // errors but keeps its applied prefix.
                            Err(_) => report.records_failed += 1,
                        }
                    }
                    Err(_) => report.records_failed += 1,
                }
            }
            if torn_here {
                report.truncated_bytes += (bytes.len() - offset) as u64;
                report.torn_tail = true;
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset as u64)?;
                f.sync_all()?;
                torn_at = Some(file_idx + 1);
                sealed.push((seq, seg_max_ts)); // the truncated file stays
                break;
            }
            sealed.push((seq, seg_max_ts));
        }
        if let Some(stop) = torn_at {
            // Files after the tear hold only records appended after it —
            // never acknowledged, unreachable by sequential replay.
            for &seq in &wal_seqs[stop..] {
                let path = wal::segment_path(dir, seq);
                if let Ok(meta) = std::fs::metadata(&path) {
                    report.truncated_bytes += meta.len();
                }
                std::fs::remove_file(&path)?;
            }
        }

        monster_obs::counter_help(
            "monster_tsdb_wal_replayed_records_total",
            "WAL records replayed during crash recovery.",
        )
        .add(report.replayed_records);
        monster_obs::counter_help(
            "monster_tsdb_wal_truncated_bytes_total",
            "Torn-tail bytes discarded during crash recovery.",
        )
        .add(report.truncated_bytes);

        // --- resume the appender -----------------------------------------
        let next_seq = sealed.iter().map(|&(s, _)| s + 1).max().unwrap_or(0);
        let wal = Wal::resume(dir, config.wal, next_seq, &sealed)?;
        let mut db = db;
        db.set_wal(wal);
        Ok((db, report))
    }
}

/// Copy a durability directory as a simulated kill would leave it: segment
/// files intact (they are fsync-renamed, hence atomic), and the WAL byte
/// stream — segments concatenated in sequence order — cut at `wal_offset`
/// bytes. Crash-matrix tests and the `crash_recovery` bench sweep
/// `wal_offset` over `[0, wal_extent]`; every offset must recover to a
/// consistent prefix. Returns the number of WAL bytes actually copied.
pub fn copy_dir_killed_at(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    wal_offset: u64,
) -> Result<u64> {
    let (src, dst) = (src.as_ref(), dst.as_ref());
    std::fs::create_dir_all(dst)?;
    let mut wal_seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = wal::parse_segment_name(name) {
            wal_seqs.push(seq);
        } else if parse_seg_name(name).is_some() {
            std::fs::copy(entry.path(), dst.join(name))?;
        }
    }
    wal_seqs.sort_unstable();
    let mut budget = wal_offset;
    let mut copied = 0u64;
    for seq in wal_seqs {
        if budget == 0 {
            break; // later files never came to exist
        }
        let bytes = std::fs::read(wal::segment_path(src, seq))?;
        let take = (bytes.len() as u64).min(budget);
        std::fs::write(wal::segment_path(dst, seq), &bytes[..take as usize])?;
        budget -= take;
        copied += take;
    }
    Ok(copied)
}

/// Total bytes across the WAL segment files in `dir` (the kill-offset
/// domain for [`copy_dir_killed_at`]).
pub fn wal_extent(dir: impl AsRef<Path>) -> Result<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir.as_ref())? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if wal::parse_segment_name(name).is_some() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregation, Query};
    use crate::wal::WalTuning;
    use monster_util::EpochSecs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monster-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn point(i: i64) -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(i * 60))
            .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
            .field_f64("Reading", 250.0 + i as f64)
    }

    #[test]
    fn empty_directory_recovers_to_fresh_db() {
        let dir = tmp_dir("empty");
        let (db, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert!(db.wal_enabled());
        assert_eq!(db.stats().points, 0);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_shutdown_replays_everything() {
        let dir = tmp_dir("clean");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        let batch: Vec<DataPoint> = (0..100).map(point).collect();
        db.write_batch(&batch).unwrap();
        db.wal_sync().unwrap();
        let stats = db.stats();
        drop(db);
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert_eq!(db2.stats().points, stats.points);
        assert_eq!(db2.stats().cardinality, stats.cardinality);
        assert_eq!(report.replayed_points, 100);
        assert!(!report.torn_tail);
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_payload_truncates_to_last_whole_record() {
        let dir = tmp_dir("torn-payload");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        db.write_batch(&[point(1)]).unwrap();
        db.write_batch(&[point(2)]).unwrap();
        db.wal_sync().unwrap();
        drop(db);
        // Tear 3 bytes off the end of the only WAL file.
        let path = wal::segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(db2.stats().points, 1);
        // Idempotent: the truncation was persisted, a third open is clean.
        drop(db2);
        let (_db3, report3) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert!(!report3.torn_tail);
        assert_eq!(report3.replayed_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_and_flipped_crc_truncate() {
        for (tag, damage) in [
            ("torn-header", 0usize), // leave 4 of the 8 header bytes
            ("bad-crc", 1),
        ] {
            let dir = tmp_dir(tag);
            let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
            db.write_batch(&[point(1)]).unwrap();
            db.wal_sync().unwrap();
            let whole = std::fs::metadata(wal::segment_path(&dir, 0)).unwrap().len();
            db.write_batch(&[point(2)]).unwrap();
            db.wal_sync().unwrap();
            drop(db);
            let path = wal::segment_path(&dir, 0);
            if damage == 0 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(whole + 4)
                    .unwrap();
            } else {
                let mut bytes = std::fs::read(&path).unwrap();
                let crc_at = whole as usize + 4;
                bytes[crc_at] ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
            }
            let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
            assert!(report.torn_tail, "{tag}");
            assert_eq!(db2.stats().points, 1, "{tag}");
            drop(db2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corruption_mid_log_discards_later_segments() {
        let dir = tmp_dir("later-segs");
        let config = DbConfig {
            wal: WalTuning { segment_bytes: 256, ..WalTuning::default() },
            ..DbConfig::default()
        };
        let (db, _) = Db::recover(config, &dir).unwrap();
        for i in 0..50 {
            db.write_batch(&[point(i)]).unwrap();
        }
        db.wal_sync().unwrap();
        let segs = db.wal_status().unwrap().segments;
        assert!(segs > 2, "need several segments, got {segs}");
        drop(db);
        // Flip a byte early in segment 1: segment 0 replays whole, the
        // rest of segment 1 and all later files are discarded.
        let path = wal::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = SEGMENT_MAGIC.len() + FRAME_HEADER + 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (db2, report) = Db::recover(config, &dir).unwrap();
        assert!(report.torn_tail);
        assert!(report.truncated_bytes > 0);
        // Segment 0 (whole) and 1 (truncated) survive; every later
        // pre-crash file is gone; resume opened a fresh active segment 2.
        let mut survivors: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| wal::parse_segment_name(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1, 2], "pre-crash segments past the tear must be deleted");
        assert!(db2.stats().points > 0);
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_valid_garbage_records_are_skipped_not_torn() {
        let dir = tmp_dir("garbage");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        db.write_batch(&[point(1)]).unwrap();
        // Hand-frame a record whose payload is valid CRC but invalid line
        // protocol, then a good record after it.
        if let Some(w) = db.wal() {
            w.append(b"not line protocol at all,,,", 0).unwrap();
        }
        db.write_batch(&[point(2)]).unwrap();
        db.wal_sync().unwrap();
        drop(db);
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert_eq!(report.records_failed, 1);
        assert!(!report.torn_tail);
        assert_eq!(db2.stats().points, 2, "the record after the bad one still replays");
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A durable database with two measurements (float and string
    /// fields) spread over nine one-hour shards, every shard then tiered
    /// into a `shard-*.seg` file.
    fn tiered(dir: &Path) -> (Db, DbConfig) {
        let config = DbConfig {
            shard_duration: 3600,
            tiering: Some(crate::TierConfig {
                hot_secs: 3600,
                cold_disk: monster_sim::DiskModel::HDD,
            }),
            ..DbConfig::default()
        };
        let (db, _) = Db::recover(config, dir).unwrap();
        let mut batch = Vec::new();
        for i in 0..500i64 {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + (i % 37) as f64),
            );
            if i % 10 == 0 {
                batch.push(
                    DataPoint::new("NodeJobs", EpochSecs::new(i * 60))
                        .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                        .field_str("JobList", format!("['{}']", 1_290_000 + i)),
                );
            }
        }
        db.write_batch(&batch).unwrap();
        let report = db.tier_cold_shards(EpochSecs::new(40_000)).unwrap();
        assert_eq!(report.shards_tiered, 9);
        assert_eq!(report.points_tiered, db.stats().points);
        (db, config)
    }

    fn seg_files(dir: &Path) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().and_then(|n| n.to_str()).and_then(parse_seg_name).is_some())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn tiered_segments_restore_float_and_string_fields() {
        let dir = tmp_dir("seg-types");
        let (db, config) = tiered(&dir);
        assert_eq!(seg_files(&dir).len(), 9);
        let (restored, report) = Db::recover(config, &dir).unwrap();
        assert_eq!(report.segment_files_loaded, 9);
        assert_eq!(report.segment_points, db.stats().points);
        assert_eq!(report.replayed_points, 0, "every WAL point is covered by a segment");
        assert_eq!(restored.stats().points, db.stats().points);
        assert_eq!(restored.stats().cardinality, db.stats().cardinality);
        for (m, f) in [("Power", "Reading"), ("NodeJobs", "JobList")] {
            let q = Query::select(m, f, EpochSecs::new(0), EpochSecs::new(500 * 60));
            assert_eq!(restored.query(&q).unwrap().0, db.query(&q).unwrap().0, "{m}.{f}");
        }
        drop((db, restored));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Zone-map summaries are rebuilt on restore: a restored-and-compacted
    /// engine answers windowed aggregations from summaries, identically.
    #[test]
    fn summaries_rebuild_after_restore_from_segments() {
        let dir = tmp_dir("seg-summaries");
        let (db, config) = tiered(&dir);
        let (restored, _) = Db::recover(config, &dir).unwrap();
        restored.compact();
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(500 * 60))
            .aggregate(Aggregation::Mean)
            .group_by_time(3600);
        let (rs_a, cost_a) = db.query(&q).unwrap();
        let (rs_b, cost_b) = restored.query(&q).unwrap();
        assert_eq!(rs_a, rs_b);
        assert!(cost_b.blocks_summarized > 0, "{cost_b:?}");
        assert_eq!(cost_a.blocks_summarized, cost_b.blocks_summarized);
        drop((db, restored));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Segment files are fsync-renamed, so damage to one is real data
    /// loss: recovery fails instead of truncating like a torn WAL tail.
    #[test]
    fn corrupt_segment_fails_recovery() {
        let dir = tmp_dir("seg-corrupt");
        let (db, config) = tiered(&dir);
        drop(db);
        let victim = seg_files(&dir)[4].clone();
        let good = std::fs::read(&victim).unwrap();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&victim, &flipped).unwrap();
        assert!(Db::recover(config, &dir).is_err(), "flipped byte must fail recovery");

        std::fs::write(&victim, b"garbage").unwrap();
        assert!(Db::recover(config, &dir).is_err(), "bad magic must fail recovery");

        std::fs::write(&victim, &good).unwrap();
        assert!(Db::recover(config, &dir).is_ok(), "the intact file recovers again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_copy_recovers_prefix_at_any_cut() {
        let dir = tmp_dir("killcopy");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        for i in 0..20 {
            db.write_batch(&[point(i)]).unwrap();
        }
        db.wal_sync().unwrap();
        drop(db);
        let extent = wal_extent(&dir).unwrap();
        for cut in [0, 1, extent / 3, extent - 1, extent] {
            let copy = tmp_dir(&format!("killcopy-at-{cut}"));
            let copied = copy_dir_killed_at(&dir, &copy, cut).unwrap();
            assert_eq!(copied, cut);
            let (db2, _) = Db::recover(DbConfig::default(), &copy).unwrap();
            assert!(db2.stats().points <= 20);
            drop(db2);
            std::fs::remove_dir_all(&copy).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
