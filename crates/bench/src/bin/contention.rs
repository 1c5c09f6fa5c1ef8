//! Ingest contention benchmark: the sharded-lock engine (each writer calls
//! [`monster_tsdb::Db::write_batch`]) vs a single global lock, swept across
//! writer counts on pinned OS threads. Writes machine-readable
//! `BENCH_tsdb.json` for cross-PR perf tracking.
//!
//! Two families of numbers are recorded side by side, and they answer
//! different questions:
//!
//! * **Wall-clock** throughput — what this box actually did, with real
//!   threads pinned to distinct cores (best effort; the JSON says whether
//!   pinning took). On a single-core runner 4 writer threads cannot beat 1
//!   no matter how the locks are arranged, so wall-clock alone cannot show
//!   the sharding win there — such runs are marked `"degraded": true` and
//!   the wall gate records `"skipped_insufficient_cores"`.
//! * **Modelled makespan** — the repo's standard simulated-time method
//!   (cf. the Fig. 15 harness in `monster_tsdb::concurrent`): measure each
//!   batch's real critical-section time, then compose. A single global
//!   write lock serializes every batch regardless of thread count
//!   (makespan = sum over all writers); per-shard locks let writers on
//!   disjoint shards proceed independently (makespan = max over writers).
//!   The composition is exact for this workload because each writer
//!   backfills its own day — its own shard — so the sharded engine gives
//!   them no lock in common.
//!
//! The CI bar is on the **wall** numbers where the hardware can express
//! them: at 4 writers on ≥4 cores, p50 sharded wall throughput must be
//! ≥2× the global-lock baseline. The modelled ≥2× bar is enforced
//! everywhere (it is hardware-independent).
//!
//! Usage: `contention [--quick]` — quick mode shrinks the workload and
//! trial count for CI smoke runs; the committed `BENCH_tsdb.json` comes
//! from a full run.

use monster_bench::storm::percentile;
use monster_json::{jobj, Value};
use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query};
use monster_util::EpochSecs;
use std::sync::RwLock;
use std::time::Instant;

const DAY: i64 = 86_400;
/// Writer counts swept; the gate applies at [`GATE_WRITERS`].
const WRITER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const GATE_WRITERS: usize = 4;
const GATE_MIN_SPEEDUP: f64 = 2.0;

struct Workload {
    batches_per_writer: usize,
    batch_size: usize,
    queries: usize,
    /// Wall-clock runs per (writer count, engine); the JSON records p50.
    trials: usize,
}

/// Pin the calling thread to `cpu`, best effort; returns whether the
/// kernel accepted the mask. The workspace has no libc dependency, so this
/// issues the raw `sched_setaffinity` syscall (pid 0 = calling thread).
/// Elsewhere it is a no-op returning `false`, which the JSON surfaces as
/// `"pinned": false` so readers know scheduler placement was unmanaged.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    let mut mask = [0u64; 16]; // 1024 cpus
    mask[(cpu / 64) % mask.len()] = 1u64 << (cpu % 64);
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_core(_cpu: usize) -> bool {
    false
}

/// One writer's batches: a day of per-node power samples, writer `w`
/// owning day `w` (disjoint shards under the default shard duration).
fn writer_batches(w: usize, wl: &Workload) -> Vec<Vec<DataPoint>> {
    let day_start = w as i64 * DAY;
    let total = wl.batches_per_writer * wl.batch_size;
    let step = (DAY - 1).max(1) / total as i64 + 1;
    (0..wl.batches_per_writer)
        .map(|b| {
            (0..wl.batch_size)
                .map(|i| {
                    let k = b * wl.batch_size + i;
                    DataPoint::new("Power", EpochSecs::new(day_start + k as i64 * step))
                        .tag("NodeId", format!("10.101.{}.{}", k % 117 + 1, k % 4 + 1))
                        .tag("Label", "NodePower")
                        .field_f64("Reading", 250.0 + (k % 40) as f64)
                })
                .collect()
        })
        .collect()
}

fn fresh_db() -> Db {
    Db::new(DbConfig::default())
}

/// Sequential single-writer ingest; returns (points/sec, per-batch secs).
fn run_single(db: &Db, batches: &[Vec<DataPoint>]) -> (f64, Vec<f64>) {
    let mut per_batch = Vec::with_capacity(batches.len());
    let start = Instant::now();
    for b in batches {
        let t = Instant::now();
        db.write_batch(b).unwrap();
        per_batch.push(t.elapsed().as_secs_f64());
    }
    let points: usize = batches.iter().map(Vec::len).sum();
    (points as f64 / start.elapsed().as_secs_f64(), per_batch)
}

/// One threaded multi-writer wall-clock trial. Each writer runs on its own
/// OS thread pinned to core `w % cores`. `global: true` simulates the
/// pre-rework engine (one write lock around every batch); `false` is the
/// shipped path — `write_batch` per batch straight into the sharded
/// engine. Returns (points/sec, per-writer wall secs, pinned).
fn run_multi_wall(
    all: &[Vec<Vec<DataPoint>>],
    cores: usize,
    global: bool,
) -> (f64, Vec<f64>, bool) {
    let db = fresh_db();
    let big_lock = RwLock::new(());
    let points: usize = all.iter().flatten().map(Vec::len).sum();
    let start = Instant::now();
    let per_thread: Vec<(f64, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .iter()
            .enumerate()
            .map(|(w, batches)| {
                let db = &db;
                let big_lock = &big_lock;
                s.spawn(move || {
                    let pinned = pin_to_core(w % cores);
                    let t = Instant::now();
                    for b in batches {
                        let _g = global.then(|| big_lock.write().unwrap());
                        db.write_batch(b).unwrap();
                    }
                    (t.elapsed().as_secs_f64(), pinned)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let pinned = per_thread.iter().all(|&(_, p)| p);
    (points as f64 / wall, per_thread.into_iter().map(|(s, _)| s).collect(), pinned)
}

/// One swept writer count's results, wall and modelled side by side.
struct SweepEntry {
    writers: usize,
    /// Fewer cores than writers: wall numbers measure time-slicing, not
    /// parallel contention.
    degraded: bool,
    /// Every trial thread's `sched_setaffinity` succeeded.
    pinned: bool,
    wall_pps_sharded: f64,
    wall_pps_global: f64,
    wall_speedup: f64,
    /// Per-writer wall seconds from the median sharded trial.
    per_writer_secs: Vec<f64>,
    modeled_global: f64,
    modeled_sharded: f64,
    modeled_speedup: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let wl = if quick {
        Workload { batches_per_writer: 10, batch_size: 500, queries: 40, trials: 2 }
    } else {
        Workload { batches_per_writer: 40, batch_size: 2_500, queries: 200, trials: 3 }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut single_pps = 0.0;
    let mut query_db = None;
    let mut sweep: Vec<SweepEntry> = Vec::with_capacity(WRITER_SWEEP.len());

    for &writers in &WRITER_SWEEP {
        let all: Vec<Vec<Vec<DataPoint>>> = (0..writers).map(|w| writer_batches(w, &wl)).collect();

        // --- sequential pass: per-batch critical-section profile for the
        // modelled composition (and the single-writer headline at W=1) ----
        let db = fresh_db();
        let mut crit: Vec<Vec<f64>> = Vec::with_capacity(writers);
        for (w, batches) in all.iter().enumerate() {
            let (pps, per_batch) = run_single(&db, batches);
            if writers == 1 && w == 0 {
                single_pps = pps;
            }
            crit.push(per_batch);
        }
        // Global lock: every batch serializes behind one lock → sum of all.
        // Sharded: each writer owns a shard; no shared lock → max over
        // writers.
        let writer_sums: Vec<f64> = crit.iter().map(|v| v.iter().sum()).collect();
        let modeled_global: f64 = writer_sums.iter().sum();
        let modeled_sharded: f64 = writer_sums.iter().cloned().fold(0.0, f64::max);

        // --- wall-clock trials, p50 over `trials` runs per engine --------
        let mut sharded: Vec<(f64, Vec<f64>, bool)> = Vec::with_capacity(wl.trials);
        let mut global: Vec<f64> = Vec::with_capacity(wl.trials);
        for _ in 0..wl.trials {
            sharded.push(run_multi_wall(&all, cores, false));
            global.push(run_multi_wall(&all, cores, true).0);
        }
        sharded.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        global.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = &sharded[sharded.len() / 2];
        let wall_pps_sharded = median.0;
        let wall_pps_global = percentile(&global, 0.50);

        if writers == GATE_WRITERS {
            query_db = Some(db);
        }
        sweep.push(SweepEntry {
            writers,
            degraded: cores < writers,
            pinned: sharded.iter().all(|t| t.2),
            wall_pps_sharded,
            wall_pps_global,
            wall_speedup: wall_pps_sharded / wall_pps_global,
            per_writer_secs: median.1.clone(),
            modeled_global,
            modeled_sharded,
            modeled_speedup: modeled_global / modeled_sharded,
        });
    }

    let gate_entry = sweep.iter().find(|e| e.writers == GATE_WRITERS).unwrap();
    let gate_status = if cores >= GATE_WRITERS { "enforced" } else { "skipped_insufficient_cores" };

    // --- query latency percentiles against the populated 4-writer db ----
    let db = query_db.unwrap();
    let mut lat_us: Vec<f64> = Vec::with_capacity(wl.queries);
    for i in 0..wl.queries {
        let day = (i % GATE_WRITERS) as i64 * DAY;
        let q = Query::select("Power", "Reading", EpochSecs::new(day), EpochSecs::new(day + DAY))
            .aggregate(Aggregation::Mean)
            .group_by_time(300);
        let t = Instant::now();
        let (rs, _) = db.query(&q).unwrap();
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(!rs.series.is_empty());
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));

    println!("== tsdb ingest contention ({cores} core(s), writers swept {WRITER_SWEEP:?}) ==");
    println!("single-writer ingest:        {single_pps:>12.0} points/s");
    for e in &sweep {
        println!(
            "{} writer(s): wall sharded {:>10.0} pps | wall global {:>10.0} pps | \
             wall {:>5.2}x | modelled {:>5.2}x{}{}",
            e.writers,
            e.wall_pps_sharded,
            e.wall_pps_global,
            e.wall_speedup,
            e.modeled_speedup,
            if e.degraded { " | DEGRADED (cores < writers)" } else { "" },
            if e.pinned { "" } else { " | unpinned" },
        );
    }
    println!(
        "wall gate at {GATE_WRITERS} writers:      {gate_status} \
         (wall {:.2}x, modelled {:.2}x, floor {GATE_MIN_SPEEDUP}x)",
        gate_entry.wall_speedup, gate_entry.modeled_speedup
    );
    println!("query latency ({} queries):  p50 {p50:.0} us, p99 {p99:.0} us", wl.queries);

    let sweep_json: Vec<Value> = sweep
        .iter()
        .map(|e| {
            jobj! {
                "writers" => e.writers as i64,
                "degraded" => e.degraded,
                "pinned" => e.pinned,
                "wall_pps_sharded" => e.wall_pps_sharded,
                "wall_pps_global_lock" => e.wall_pps_global,
                "wall_speedup_sharded_vs_global" => e.wall_speedup,
                "per_writer_wall_secs" => e.per_writer_secs.clone(),
                "modeled_makespan_secs_global_lock" => e.modeled_global,
                "modeled_makespan_secs_sharded" => e.modeled_sharded,
                "modeled_speedup_sharded_vs_global" => e.modeled_speedup,
            }
        })
        .collect();
    let doc = jobj! {
        "bench" => "tsdb_contention",
        "quick" => quick,
        "cores" => cores as i64,
        "trials" => wl.trials as i64,
        "ingest" => jobj! {
            "single_writer_pps" => single_pps,
        },
        "writers_sweep" => Value::Array(sweep_json),
        "wall_gate" => jobj! {
            "at_writers" => GATE_WRITERS as i64,
            "min_speedup" => GATE_MIN_SPEEDUP,
            "status" => gate_status,
            "wall_speedup" => gate_entry.wall_speedup,
            "modeled_speedup" => gate_entry.modeled_speedup,
        },
        "query" => jobj! {
            "count" => wl.queries as i64,
            "p50_us" => p50,
            "p99_us" => p99,
        },
    };
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_tsdb.json".into());
    std::fs::write(&out, doc.to_string_pretty() + "\n").unwrap();
    println!("wrote {out}");

    // The acceptance bars, checked after the artifact is on disk so a
    // failing run still leaves the numbers behind for inspection:
    //  * modelled ≥2× at 4 writers — hardware-independent, always on;
    //  * wall p50 ≥2× at 4 writers — only meaningful with ≥4 cores;
    //    on smaller boxes the JSON carries the explicit skip marker.
    assert!(
        gate_entry.modeled_speedup >= GATE_MIN_SPEEDUP,
        "modelled speedup {:.2}x < {GATE_MIN_SPEEDUP}x over global-lock baseline",
        gate_entry.modeled_speedup
    );
    if gate_status == "enforced" {
        assert!(
            gate_entry.wall_speedup >= GATE_MIN_SPEEDUP,
            "wall p50 sharded speedup {:.2}x < {GATE_MIN_SPEEDUP}x at {GATE_WRITERS} \
             writers on {cores} cores",
            gate_entry.wall_speedup
        );
    } else {
        println!(
            "wall gate skipped: {cores} core(s) < {GATE_WRITERS} writers \
             (recorded as skipped_insufficient_cores)"
        );
    }
}
