//! Steady-state ingest must not allocate per point.
//!
//! Before the sharded-lock rework, `Shard::append` built a
//! `(SeriesId, String)` column key per point — one heap allocation per
//! field value written, forever. With interned `FieldId`s the key is two
//! `Copy` u32s, so once series/fields/columns/tails are warm, a
//! `write_batch` allocates only its O(log n) grouping buffers.
//!
//! A counting `#[global_allocator]` proves it. The tests in this file
//! share the counter, so they serialize on `GATE` — nothing else may run
//! while a counting window is open.

use monster_tsdb::{DataPoint, Db, DbConfig};
use monster_util::EpochSecs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const NODES: usize = 50;

fn batch_at(ts: i64) -> Vec<DataPoint> {
    (0..NODES)
        .map(|n| {
            DataPoint::new("Power", EpochSecs::new(ts))
                .tag("NodeId", format!("10.101.1.{n}"))
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + n as f64)
                .field_i64("Health", ts % 3)
        })
        .collect()
}

/// Warm up `db`, then count allocations across 20 more batches of the
/// same series. Returns `(allocations, points written)`.
fn count_steady_state_allocs(db: &Db) -> (usize, usize) {
    // Warm-up: create series, intern fields, materialize the shard and
    // every column, and grow each column tail past the batch sizes below.
    for i in 0..40 {
        db.write_batch(&batch_at(i * 60)).unwrap();
    }

    // Steady state: same series, same shard, pre-built batches.
    let batches: Vec<Vec<DataPoint>> = (40..60).map(|i| batch_at(i * 60)).collect();
    let points_written: usize = batches.iter().map(Vec::len).sum::<usize>() * 2; // 2 fields

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    for b in &batches {
        db.write_batch(b).unwrap();
    }
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), points_written)
}

#[test]
fn steady_state_ingest_does_not_allocate_per_point() {
    let _gate = GATE.lock().unwrap();
    let db = Db::new(DbConfig::default());
    let (allocs, points_written) = count_steady_state_allocs(&db);

    // The old engine allocated a String key per field value — at least
    // one allocation per point (2000 here). The new hot path allocates
    // only per-batch bookkeeping (id vectors, the shard-group buffer, obs
    // lookups): a small constant per batch, far below one per point.
    assert!(
        allocs < points_written / 10,
        "steady-state ingest allocated {allocs} times for {points_written} points"
    );
}

/// Durability does not cost per-point allocation: with the WAL on, each
/// batch renders its record into one payload buffer and the WAL frames it
/// through reusable scratch, so the bound is the in-memory test's.
/// (Group-commit syncs and segment rolls are syscall-only; the default
/// 8 MiB segment never rolls on this volume.)
#[test]
fn steady_state_ingest_with_wal_does_not_allocate_per_point() {
    let _gate = GATE.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("monster-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
    let (allocs, points_written) = count_steady_state_allocs(&db);
    assert!(
        allocs < points_written / 10,
        "WAL-backed steady-state ingest allocated {allocs} times for {points_written} points"
    );
    assert_eq!(db.wal_status().unwrap().appended_records, 60);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-stage proof: resolution, append, and wire accounting are each
/// individually allocation-free once warm (the batch-level test above
/// bounds what's left: grouping buffers and obs bookkeeping).
#[test]
fn warm_engine_stages_do_not_allocate() {
    let _gate = GATE.lock().unwrap();
    // Stage bisect with public engine parts.
    use monster_tsdb::series::{SeriesIndex, SeriesKey};
    use monster_tsdb::shard::Shard;
    let mut idx = SeriesIndex::new();
    let warm = batch_at(0);
    for p in &warm {
        idx.get_or_create(&SeriesKey::of(p));
        for (name, _) in &p.fields {
            idx.intern_field(name);
        }
    }
    let b3 = batch_at(42 * 60);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let mut n = 0usize;
    for p in &b3 {
        if idx.id_of_point(p).is_some() {
            n += 1;
        }
        for (name, _) in &p.fields {
            let _ = idx.field_id(name);
        }
    }
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(n, b3.len());
    assert_eq!(ALLOCS.load(Ordering::Relaxed), 0, "warm id resolution allocated");

    let mut shard = Shard::new(0, i64::MAX);
    for i in 0..40 {
        for (j, p) in batch_at(i * 60).iter().enumerate() {
            for (fi, (_, v)) in p.fields.iter().enumerate() {
                shard
                    .append(
                        monster_tsdb::SeriesId(j as u32),
                        monster_tsdb::FieldId(fi as u32),
                        p.time.as_secs(),
                        v,
                    )
                    .unwrap();
            }
        }
    }
    let b4 = batch_at(43 * 60);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    for (j, p) in b4.iter().enumerate() {
        for (fi, (_, v)) in p.fields.iter().enumerate() {
            shard
                .append(
                    monster_tsdb::SeriesId(j as u32),
                    monster_tsdb::FieldId(fi as u32),
                    p.time.as_secs(),
                    v,
                )
                .unwrap();
        }
    }
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(ALLOCS.load(Ordering::Relaxed), 0, "warm shard append allocated");

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let wire: usize = b4.iter().map(DataPoint::wire_size).sum();
    COUNTING.store(false, Ordering::Relaxed);
    assert!(wire > 0);
    assert_eq!(ALLOCS.load(Ordering::Relaxed), 0, "wire-size accounting allocated");
}
