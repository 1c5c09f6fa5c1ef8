//! Aggregation-pushdown benchmark: zone-map summaries vs forced full
//! decode for windowed queries. Writes machine-readable
//! `BENCH_query.json` for cross-PR perf tracking.
//!
//! The workload is the dashboard shape the Metrics Builder serves:
//! hour-windowed `mean` over 7 simulated days of 1 Hz samples. At that
//! cadence a sealed block spans ~17 minutes, so most blocks land fully
//! inside one hourly window and are answered from their zone maps; only
//! the window-edge blocks decode. Two engines run the identical queries:
//!
//! * **pushdown** — `DbConfig::pushdown = true` (the default);
//! * **full decode** — `pushdown = false`, the pre-zone-map read path.
//!
//! Both return bit-identical results (asserted on every iteration); the
//! difference is pure read-path work, reported two ways:
//!
//! * **modelled** — `CostParams::elapsed` over the returned `QueryCost`,
//!   the repo's deterministic simulated-time method (decoded blocks pay
//!   decode CPU + block I/O, summarized blocks pay a flat probe);
//! * **wall-clock** — p50/p99 of real query latency on this box.
//!
//! Usage: `query_pushdown [--quick]` — quick mode shrinks the workload
//! for CI smoke runs; the committed `BENCH_query.json` comes from a full
//! run.

use monster_bench::storm::percentile;
use monster_json::jobj;
use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query, QueryCost};
use monster_util::EpochSecs;
use std::time::Instant;

const DAY: i64 = 86_400;

struct Workload {
    series: usize,
    days: i64,
    cadence_secs: i64,
    iterations: usize,
}

/// One node-day of samples at the workload cadence.
fn day_batch(series: usize, day: i64, wl: &Workload) -> Vec<DataPoint> {
    let samples = DAY / wl.cadence_secs;
    (0..samples)
        .map(|i| {
            let ts = day * DAY + i * wl.cadence_secs;
            DataPoint::new("Power", EpochSecs::new(ts))
                .tag("NodeId", format!("10.101.1.{}", series + 1))
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + ((ts + series as i64 * 13) % 359) as f64 * 0.25)
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let wl = if quick {
        Workload { series: 4, days: 1, cadence_secs: 1, iterations: 5 }
    } else {
        Workload { series: 16, days: 7, cadence_secs: 1, iterations: 12 }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // --- identical data in two engines, one per read path ---------------
    let push_db = Db::new(DbConfig { pushdown: true, ..DbConfig::default() });
    let full_db = Db::new(DbConfig { pushdown: false, ..DbConfig::default() });
    let ingest = Instant::now();
    let mut total_points = 0usize;
    for s in 0..wl.series {
        for d in 0..wl.days {
            let batch = day_batch(s, d, &wl);
            total_points += batch.len();
            push_db.write_batch(&batch).unwrap();
            full_db.write_batch(&batch).unwrap();
        }
    }
    // Seal every tail: the pushdown only applies to sealed blocks.
    push_db.compact();
    full_db.compact();
    let ingest_secs = ingest.elapsed().as_secs_f64();

    // --- the dashboard query: hourly mean over the whole range ----------
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(wl.days * DAY))
        .aggregate(Aggregation::Mean)
        .group_by_time(3600);

    let mut push_lat_us: Vec<f64> = Vec::with_capacity(wl.iterations);
    let mut full_lat_us: Vec<f64> = Vec::with_capacity(wl.iterations);
    let mut push_cost = QueryCost::default();
    let mut full_cost = QueryCost::default();
    for i in 0..wl.iterations {
        let t = Instant::now();
        let (rs_push, c_push) = push_db.query(&q).unwrap();
        push_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let (rs_full, c_full) = full_db.query(&q).unwrap();
        full_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        // The whole point: identical answers, bit for bit.
        assert_eq!(rs_push, rs_full, "pushdown diverged from full decode");
        assert_eq!(rs_push.series.len(), wl.series);
        if i == 0 {
            (push_cost, full_cost) = (c_push, c_full);
        }
    }
    push_lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    full_lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Every sealed block is either decoded or summarized, never both.
    assert_eq!(push_cost.blocks + push_cost.blocks_summarized, full_cost.blocks);
    assert_eq!(full_cost.blocks_summarized, 0);

    let modelled_push = push_db.simulate_elapsed(&push_cost).as_secs_f64();
    let modelled_full = full_db.simulate_elapsed(&full_cost).as_secs_f64();
    let modelled_speedup = modelled_full / modelled_push;
    let (push_p50, push_p99) = (percentile(&push_lat_us, 0.50), percentile(&push_lat_us, 0.99));
    let (full_p50, full_p99) = (percentile(&full_lat_us, 0.50), percentile(&full_lat_us, 0.99));
    let wall_speedup = full_p50 / push_p50;
    let summarized_frac = push_cost.blocks_summarized as f64 / full_cost.blocks.max(1) as f64;

    println!(
        "== tsdb aggregation pushdown ({cores} core(s), {} series x {} day(s) @ {}s, \
         {total_points} points, {:.1}s ingest) ==",
        wl.series, wl.days, wl.cadence_secs, ingest_secs
    );
    println!(
        "blocks: {} summarized / {} decoded ({:.0}% summary hits)",
        push_cost.blocks_summarized,
        push_cost.blocks,
        summarized_frac * 100.0
    );
    println!(
        "points decoded: {} (pushdown) vs {} (full decode)",
        push_cost.points, full_cost.points
    );
    println!("modelled: {modelled_push:.4}s vs {modelled_full:.4}s  ({modelled_speedup:.2}x)");
    println!(
        "wall p50: {push_p50:.0}us vs {full_p50:.0}us  ({wall_speedup:.2}x); \
         p99: {push_p99:.0}us vs {full_p99:.0}us"
    );

    let doc = jobj! {
        "bench" => "query_pushdown",
        "quick" => quick,
        "cores" => cores as i64,
        "series" => wl.series as i64,
        "days" => wl.days,
        "cadence_secs" => wl.cadence_secs,
        "total_points" => total_points as i64,
        "window_secs" => 3600,
        "aggregation" => "mean",
        "blocks" => jobj! {
            "summarized" => push_cost.blocks_summarized as i64,
            "decoded_pushdown" => push_cost.blocks as i64,
            "decoded_full" => full_cost.blocks as i64,
            "summary_hit_fraction" => summarized_frac,
        },
        "points_decoded" => jobj! {
            "pushdown" => push_cost.points as i64,
            "full" => full_cost.points as i64,
        },
        "modelled" => jobj! {
            "pushdown_secs" => modelled_push,
            "full_decode_secs" => modelled_full,
            "speedup" => modelled_speedup,
        },
        "wall" => jobj! {
            "iterations" => wl.iterations as i64,
            "pushdown_p50_us" => push_p50,
            "pushdown_p99_us" => push_p99,
            "full_decode_p50_us" => full_p50,
            "full_decode_p99_us" => full_p99,
            "speedup_p50" => wall_speedup,
        },
    };
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_query.json".into());
    std::fs::write(&out, doc.to_string_pretty() + "\n").unwrap();
    println!("wrote {out}");

    // Acceptance bars: >= 3x modelled on the full workload (window >>
    // block span), >= 2x in the CI quick run; the wall-clock win is only
    // asserted on the full run (quick workloads are noise-dominated).
    let bar = if quick { 2.0 } else { 3.0 };
    assert!(
        modelled_speedup >= bar,
        "modelled speedup {modelled_speedup:.2}x < {bar}x over forced full decode"
    );
    if !quick {
        assert!(
            wall_speedup > 1.2,
            "wall-clock p50 speedup {wall_speedup:.2}x <= 1.2x — pushdown must win on real CPU"
        );
    }
}
