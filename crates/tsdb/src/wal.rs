//! Write-ahead log: CRC32-framed, length-prefixed segments with group
//! commit.
//!
//! Every accepted batch is rendered as line-protocol text and appended to
//! the active segment **before** it becomes visible to readers:
//!
//! ```text
//! wal-<seq>.log := "MWALSEG1" record*
//! record        := len:u32le crc32:u32le payload[len]
//! payload       := line-protocol text, one line per point
//! ```
//!
//! The CRC (IEEE 802.3, the `cksum`/zlib polynomial) covers the payload
//! only; the length prefix is validated by bounds-checking against the
//! remaining file. A record torn anywhere — header, payload, or CRC —
//! makes that record and everything after it unrecoverable *by design*:
//! appends are strictly sequential, so a torn frame can only be the
//! unsynced tail (see [`crate::recover`]).
//!
//! # Group commit
//!
//! `write_all` lands every record in the OS page cache immediately;
//! `fdatasync` is deferred until either [`WalTuning::sync_bytes`] of
//! unsynced records accumulate or the oldest unsynced record is older than
//! [`WalTuning::sync_interval`]. One flush durably commits every record
//! written since the last — batches from all writers share the fsync, which
//! is what keeps per-batch durability overhead near zero at collector
//! cadence. A batch counts as **acknowledged** only once a sync covering it
//! completes ([`WalStatus::acked_records`]); [`Wal::sync`] forces the
//! boundary for tests and benches.
//!
//! The appender takes one private mutex, reuses one frame buffer, and
//! performs zero heap allocations in the steady state: a durable
//! `Db::write_batch` allocates no more per point than a memory-only one
//! (`tests/alloc_steady_state.rs`).
//!
//! # Segments and reclamation
//!
//! The active segment rolls at [`WalTuning::segment_bytes`] (synced, then
//! sealed). Sealed segments remember the maximum data timestamp they
//! contain; once tiering has compacted every shard that could hold those
//! timestamps into immutable segment files ([`crate::db::Db::tier_cold_shards`]),
//! [`Wal::reclaim_before`] deletes them. The active segment is never
//! reclaimed.

use monster_util::Result;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MWALSEG1";

/// Frame header size: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one record's payload; a length prefix above this is
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

// --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ----------------------
// Hand-rolled: the workspace deliberately has no external dependencies.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum framing every WAL record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Group-commit and segment-rolling knobs ([`crate::DbConfig::wal`]). The
/// WAL itself is enabled by opening the database with a directory
/// ([`crate::db::Db::recover`]); these only tune it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTuning {
    /// Roll the active segment once it exceeds this many bytes.
    pub segment_bytes: usize,
    /// Group-commit size threshold: fsync once this many unsynced record
    /// bytes accumulate.
    pub sync_bytes: usize,
    /// Group-commit age threshold: fsync when the oldest unsynced record
    /// is older than this (checked on append; callers with latency
    /// deadlines use [`Wal::sync`]).
    pub sync_interval: Duration,
}

impl Default for WalTuning {
    fn default() -> Self {
        WalTuning {
            segment_bytes: 8 << 20,
            sync_bytes: 512 << 10,
            sync_interval: Duration::from_millis(50),
        }
    }
}

/// Appender state snapshot (observability and test assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Sealed segments plus the active one.
    pub segments: usize,
    /// Records appended since open (durable or not).
    pub appended_records: u64,
    /// Records covered by a completed fsync — the acknowledgment
    /// boundary: these survive any crash.
    pub acked_records: u64,
    /// Bytes written to the active segment (including its magic).
    pub active_segment_bytes: usize,
    /// Bytes written since the last fsync.
    pub unsynced_bytes: usize,
}

/// One sealed (rolled, fully synced) segment.
#[derive(Debug, Clone, Copy)]
struct SealedSegment {
    seq: u64,
    /// Maximum data timestamp of any record in the segment (`i64::MIN`
    /// when it holds no points).
    max_ts: i64,
}

struct WalInner {
    file: File,
    seq: u64,
    seg_bytes: usize,
    seg_max_ts: i64,
    sealed: Vec<SealedSegment>,
    unsynced_bytes: usize,
    dirty_since: Option<Instant>,
    appended: u64,
    acked: u64,
    /// Reusable frame scratch (header + payload), cleared not shrunk.
    frame: Vec<u8>,
}

/// The write-ahead log appender. One per database; interior mutex, shared
/// by every writer. See the [module docs](self) for format and semantics.
pub struct Wal {
    dir: PathBuf,
    tuning: WalTuning,
    inner: Mutex<WalInner>,
    appends: Arc<monster_obs::Counter>,
    bytes: Arc<monster_obs::Counter>,
    syncs: Arc<monster_obs::Counter>,
    segments_gauge: Arc<monster_obs::Gauge>,
    reclaimed: Arc<monster_obs::Counter>,
}

/// Path of segment `seq` inside `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Parse a segment sequence number out of a file name (`wal-<seq>.log`).
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

impl Wal {
    /// Open a fresh WAL in `dir`, starting at segment 0. Fails if segment
    /// 0 already exists — recovery ([`crate::db::Db::recover`]) is the
    /// entry point for directories with history.
    pub fn create(dir: impl Into<PathBuf>, tuning: WalTuning) -> Result<Wal> {
        Wal::open_at(dir, tuning, 0, Vec::new())
    }

    /// Open the appender with an explicit next segment sequence and the
    /// sealed segments that survived recovery.
    fn open_at(
        dir: impl Into<PathBuf>,
        tuning: WalTuning,
        next_seq: u64,
        sealed: Vec<SealedSegment>,
    ) -> Result<Wal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut file =
            OpenOptions::new().write(true).create_new(true).open(segment_path(&dir, next_seq))?;
        file.write_all(SEGMENT_MAGIC)?;
        let wal = Wal {
            dir,
            tuning,
            inner: Mutex::new(WalInner {
                file,
                seq: next_seq,
                seg_bytes: SEGMENT_MAGIC.len(),
                seg_max_ts: i64::MIN,
                sealed,
                unsynced_bytes: SEGMENT_MAGIC.len(),
                dirty_since: Some(Instant::now()),
                appended: 0,
                acked: 0,
                frame: Vec::new(),
            }),
            appends: monster_obs::counter_help(
                "monster_tsdb_wal_appends_total",
                "Records appended to the write-ahead log.",
            ),
            bytes: monster_obs::counter_help(
                "monster_tsdb_wal_bytes_total",
                "Framed bytes written to the write-ahead log.",
            ),
            syncs: monster_obs::counter_help(
                "monster_tsdb_wal_syncs_total",
                "Group commits (fdatasync calls) on the write-ahead log.",
            ),
            segments_gauge: monster_obs::gauge_help(
                "monster_tsdb_wal_segments",
                "Live write-ahead-log segment files (sealed + active).",
            ),
            reclaimed: monster_obs::counter_help(
                "monster_tsdb_wal_reclaimed_segments_total",
                "Sealed WAL segments deleted after their shards were tiered.",
            ),
        };
        wal.segments_gauge.set(wal.inner.lock().sealed.len() as i64 + 1);
        Ok(wal)
    }

    /// Re-open the appender after recovery: `sealed_segments` are the
    /// `(seq, max_ts)` pairs of surviving segment files; the active
    /// segment is created at `next_seq`.
    pub(crate) fn resume(
        dir: impl Into<PathBuf>,
        tuning: WalTuning,
        next_seq: u64,
        sealed_segments: &[(u64, i64)],
    ) -> Result<Wal> {
        let sealed =
            sealed_segments.iter().map(|&(seq, max_ts)| SealedSegment { seq, max_ts }).collect();
        Wal::open_at(dir, tuning, next_seq, sealed)
    }

    /// Append one record (an already-rendered line-protocol batch) to the
    /// active segment. `max_ts` is the maximum data timestamp in the
    /// payload, tracked per segment for reclamation. Returns whether this
    /// append triggered a group commit (the record — and every earlier one
    /// — is durable iff so).
    pub fn append(&self, payload: &[u8], max_ts: i64) -> Result<bool> {
        if payload.is_empty() {
            return Ok(false);
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.frame.clear();
        inner.frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        inner.frame.extend_from_slice(&crc32(payload).to_le_bytes());
        inner.frame.extend_from_slice(payload);
        inner.file.write_all(&inner.frame)?;
        let frame_len = inner.frame.len();
        inner.seg_bytes += frame_len;
        inner.unsynced_bytes += frame_len;
        inner.dirty_since.get_or_insert_with(Instant::now);
        inner.appended += 1;
        inner.seg_max_ts = inner.seg_max_ts.max(max_ts);
        self.appends.inc();
        self.bytes.add(frame_len as u64);

        if inner.seg_bytes >= self.tuning.segment_bytes {
            self.roll(inner)?;
            return Ok(true);
        }
        let due = inner.unsynced_bytes >= self.tuning.sync_bytes
            || inner.dirty_since.map(|t| t.elapsed() >= self.tuning.sync_interval).unwrap_or(false);
        if due {
            self.sync_inner(inner)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Force a group commit: every appended record becomes durable (and
    /// acknowledged) before this returns.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_inner(&mut inner)
    }

    fn sync_inner(&self, inner: &mut WalInner) -> Result<()> {
        if inner.unsynced_bytes > 0 {
            inner.file.sync_data()?;
            self.syncs.inc();
        }
        inner.unsynced_bytes = 0;
        inner.dirty_since = None;
        inner.acked = inner.appended;
        Ok(())
    }

    /// Seal the active segment (sync first, so sealed ⇒ durable) and open
    /// the next one.
    fn roll(&self, inner: &mut WalInner) -> Result<()> {
        self.sync_inner(inner)?;
        inner.sealed.push(SealedSegment { seq: inner.seq, max_ts: inner.seg_max_ts });
        inner.seq += 1;
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(&self.dir, inner.seq))?;
        file.write_all(SEGMENT_MAGIC)?;
        inner.file = file;
        inner.seg_bytes = SEGMENT_MAGIC.len();
        inner.seg_max_ts = i64::MIN;
        inner.unsynced_bytes = SEGMENT_MAGIC.len();
        inner.dirty_since = Some(Instant::now());
        self.segments_gauge.set(inner.sealed.len() as i64 + 1);
        Ok(())
    }

    /// Delete every sealed segment whose maximum data timestamp is below
    /// `cut_ts` — safe once all shards that can contain those timestamps
    /// have been compacted into immutable segment files. The active
    /// segment is never touched. Returns the number of segments deleted.
    pub fn reclaim_before(&self, cut_ts: i64) -> Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0usize;
        let mut kept = Vec::with_capacity(inner.sealed.len());
        for seg in inner.sealed.drain(..) {
            if seg.max_ts < cut_ts {
                match std::fs::remove_file(segment_path(&self.dir, seg.seq)) {
                    Ok(()) | Err(_) => {} // already gone is as good as gone
                }
                removed += 1;
            } else {
                kept.push(seg);
            }
        }
        inner.sealed = kept;
        self.segments_gauge.set(inner.sealed.len() as i64 + 1);
        self.reclaimed.add(removed as u64);
        Ok(removed)
    }

    /// Current appender state.
    pub fn status(&self) -> WalStatus {
        let inner = self.inner.lock();
        WalStatus {
            segments: inner.sealed.len() + 1,
            appended_records: inner.appended,
            acked_records: inner.acked,
            active_segment_bytes: inner.seg_bytes,
            unsynced_bytes: inner.unsynced_bytes,
        }
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    /// Best-effort final group commit so an orderly shutdown acknowledges
    /// everything it accepted.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monster-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn append_frames_and_rolls_segments() {
        let dir = tmp_dir("roll");
        let tuning = WalTuning { segment_bytes: 64, ..WalTuning::default() };
        let wal = Wal::create(&dir, tuning).unwrap();
        for i in 0..10i64 {
            wal.append(format!("m v={i} {i}").as_bytes(), i).unwrap();
        }
        let status = wal.status();
        assert_eq!(status.appended_records, 10);
        assert!(status.segments > 1, "64-byte segments must roll: {status:?}");
        // Every segment file on disk starts with the magic.
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let bytes = std::fs::read(entry.unwrap().path()).unwrap();
            assert_eq!(&bytes[..8], SEGMENT_MAGIC);
            files += 1;
        }
        assert_eq!(files, status.segments);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_advances_ack_boundary() {
        let dir = tmp_dir("ack");
        // Huge thresholds: nothing syncs implicitly.
        let tuning = WalTuning {
            segment_bytes: usize::MAX,
            sync_bytes: usize::MAX,
            sync_interval: Duration::from_secs(3600),
        };
        let wal = Wal::create(&dir, tuning).unwrap();
        assert!(!wal.append(b"m v=1 1", 1).unwrap());
        assert!(!wal.append(b"m v=2 2", 2).unwrap());
        assert_eq!(wal.status().acked_records, 0);
        wal.sync().unwrap();
        assert_eq!(wal.status().acked_records, 2);
        assert_eq!(wal.status().unsynced_bytes, 0);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_threshold_triggers_group_commit() {
        let dir = tmp_dir("group");
        let tuning = WalTuning {
            segment_bytes: usize::MAX,
            sync_bytes: 64,
            sync_interval: Duration::from_secs(3600),
        };
        let wal = Wal::create(&dir, tuning).unwrap();
        let mut synced = false;
        for i in 0..20i64 {
            synced |= wal.append(format!("m v={i} {i}").as_bytes(), i).unwrap();
        }
        assert!(synced, "64 sync_bytes must trip within 20 records");
        assert!(wal.status().acked_records > 0);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_deletes_only_old_sealed_segments() {
        let dir = tmp_dir("reclaim");
        let tuning = WalTuning { segment_bytes: 48, ..WalTuning::default() };
        let wal = Wal::create(&dir, tuning).unwrap();
        for i in 0..8i64 {
            wal.append(format!("m v={i} {}", i * 100).as_bytes(), i * 100).unwrap();
        }
        let before = wal.status().segments;
        assert!(before > 2);
        // Cut below everything: nothing reclaimable.
        assert_eq!(wal.reclaim_before(0).unwrap(), 0);
        // Cut above everything: all sealed segments go, active survives.
        let removed = wal.reclaim_before(i64::MAX).unwrap();
        assert_eq!(removed, before - 1);
        assert_eq!(wal.status().segments, 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Appends continue on the active segment.
        wal.append(b"m v=9 900", 900).unwrap();
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_names_round_trip() {
        let p = segment_path(Path::new("/x"), 42);
        assert_eq!(p.file_name().unwrap().to_str().unwrap(), "wal-00000042.log");
        assert_eq!(parse_segment_name("wal-00000042.log"), Some(42));
        assert_eq!(parse_segment_name("wal-7.log"), Some(7));
        assert_eq!(parse_segment_name("shard-100.seg"), None);
        assert_eq!(parse_segment_name("wal-x.log"), None);
    }
}
