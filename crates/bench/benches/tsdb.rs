//! Wall-clock benchmarks for the TSDB: codecs, ingest, query.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query};
use monster_util::EpochSecs;

fn batch(nodes: usize, samples: i64) -> Vec<DataPoint> {
    let mut out = Vec::new();
    for i in 0..samples {
        for n in 0..nodes {
            out.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{n}"))
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + (i % 40) as f64 * 1.3),
            );
        }
    }
    out
}

/// Encode/decode throughput of all five column codecs over one sealed
/// block's worth of realistic data (4096 elements).
fn bench_codecs(c: &mut Criterion) {
    const N: usize = 4096;
    let mut g = c.benchmark_group("tsdb/codecs");
    g.throughput(Throughput::Elements(N as u64));

    let ts: Vec<i64> = (0..N as i64).map(|i| 1_583_792_296 + i * 60).collect();
    g.bench_function("timestamps_encode", |b| {
        b.iter(|| monster_tsdb::encode::timestamps::encode(&ts))
    });
    let enc = monster_tsdb::encode::timestamps::encode(&ts);
    g.bench_function("timestamps_decode", |b| {
        b.iter(|| monster_tsdb::encode::timestamps::decode(&enc, ts.len()).unwrap())
    });

    let vals: Vec<f64> = (0..N).map(|i| 273.8 + (i % 60) as f64 * 0.1).collect();
    g.bench_function("floats_encode", |b| b.iter(|| monster_tsdb::encode::floats::encode(&vals)));
    let fenc = monster_tsdb::encode::floats::encode(&vals);
    g.bench_function("floats_decode", |b| {
        b.iter(|| monster_tsdb::encode::floats::decode(&fenc, vals.len()).unwrap())
    });

    // Slowly-drifting counters (sequence numbers, memory gauges).
    let ints: Vec<i64> = (0..N as i64).map(|i| 1_000_000 + i * 7 - (i % 5) * 3).collect();
    g.bench_function("ints_encode", |b| b.iter(|| monster_tsdb::encode::ints::encode(&ints)));
    let ienc = monster_tsdb::encode::ints::encode(&ints);
    g.bench_function("ints_decode", |b| {
        b.iter(|| monster_tsdb::encode::ints::decode(&ienc, ints.len()).unwrap())
    });

    // Mostly-healthy flags with occasional flips.
    let bools: Vec<bool> = (0..N).map(|i| i % 97 == 0).collect();
    g.bench_function("bools_encode", |b| b.iter(|| monster_tsdb::encode::bools::encode(&bools)));
    let benc = monster_tsdb::encode::bools::encode(&bools);
    g.bench_function("bools_decode", |b| {
        b.iter(|| monster_tsdb::encode::bools::decode(&benc, bools.len()).unwrap())
    });

    // Job lists cycling through a small vocabulary (dictionary-friendly).
    let strings: Vec<String> =
        (0..N).map(|i| format!("['131{}', '1318962', '1318307']", i % 23)).collect();
    g.bench_function("strings_encode", |b| {
        b.iter(|| monster_tsdb::encode::strings::encode(&strings))
    });
    let senc = monster_tsdb::encode::strings::encode(&strings);
    g.bench_function("strings_decode", |b| {
        b.iter(|| monster_tsdb::encode::strings::decode(&senc, strings.len()).unwrap())
    });
    g.finish();
}

/// Whole-block array decoding (`decode_into` into a reused buffer — the
/// path query scans ride) versus the streaming point-at-a-time `iter()`
/// reference decoder, for all five codecs over one sealed block's worth of
/// data. The spread between the two is the whole-block decode win.
fn bench_batch_codecs(c: &mut Criterion) {
    const N: usize = 4096;
    let mut g = c.benchmark_group("tsdb/batch_codecs");
    g.throughput(Throughput::Elements(N as u64));

    let ts: Vec<i64> = (0..N as i64).map(|i| 1_583_792_296 + i * 60).collect();
    let tenc = monster_tsdb::encode::timestamps::encode(&ts);
    let mut tbuf: Vec<i64> = Vec::new();
    g.bench_function("timestamps_array", |b| {
        b.iter(|| monster_tsdb::encode::timestamps::decode_into(&tenc, N, &mut tbuf).unwrap())
    });
    g.bench_function("timestamps_iter", |b| {
        b.iter(|| monster_tsdb::encode::timestamps::iter(&tenc, N).map(|r| r.unwrap()).sum::<i64>())
    });

    let vals: Vec<f64> = (0..N).map(|i| 273.8 + (i % 60) as f64 * 0.1).collect();
    let fenc = monster_tsdb::encode::floats::encode(&vals);
    let mut fbuf: Vec<f64> = Vec::new();
    g.bench_function("floats_array", |b| {
        b.iter(|| monster_tsdb::encode::floats::decode_into(&fenc, N, &mut fbuf).unwrap())
    });
    g.bench_function("floats_iter", |b| {
        b.iter(|| monster_tsdb::encode::floats::iter(&fenc, N).map(|r| r.unwrap()).sum::<f64>())
    });

    let ints: Vec<i64> = (0..N as i64).map(|i| 1_000_000 + i * 7 - (i % 5) * 3).collect();
    let ienc = monster_tsdb::encode::ints::encode(&ints);
    let mut ibuf: Vec<i64> = Vec::new();
    g.bench_function("ints_array", |b| {
        b.iter(|| monster_tsdb::encode::ints::decode_into(&ienc, N, &mut ibuf).unwrap())
    });
    g.bench_function("ints_iter", |b| {
        b.iter(|| monster_tsdb::encode::ints::iter(&ienc, N).map(|r| r.unwrap()).sum::<i64>())
    });

    let bools: Vec<bool> = (0..N).map(|i| i % 97 == 0).collect();
    let benc = monster_tsdb::encode::bools::encode(&bools);
    let mut bbuf: Vec<bool> = Vec::new();
    g.bench_function("bools_array", |b| {
        b.iter(|| monster_tsdb::encode::bools::decode_into(&benc, N, &mut bbuf).unwrap())
    });
    g.bench_function("bools_iter", |b| {
        b.iter(|| {
            monster_tsdb::encode::bools::iter(&benc, N).filter(|r| *r.as_ref().unwrap()).count()
        })
    });

    let strings: Vec<String> =
        (0..N).map(|i| format!("['131{}', '1318962', '1318307']", i % 23)).collect();
    let senc = monster_tsdb::encode::strings::encode(&strings);
    let mut sbuf: Vec<String> = Vec::new();
    g.bench_function("strings_array", |b| {
        b.iter(|| monster_tsdb::encode::strings::decode_into(&senc, N, &mut sbuf).unwrap())
    });
    g.bench_function("strings_iter", |b| {
        b.iter(|| {
            monster_tsdb::encode::strings::iter(&senc, N).map(|r| r.unwrap().len()).sum::<usize>()
        })
    });
    g.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb/ingest");
    g.sample_size(20);
    let points = batch(16, 600); // 9600 points ≈ one collection interval
    g.throughput(Throughput::Elements(points.len() as u64));
    g.bench_function("write_batch_10k", |b| {
        b.iter_batched(
            || (Db::new(DbConfig::default()), points.clone()),
            |(db, pts)| db.write_batch(&pts).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Ingest under write contention: 4 threads writing disjoint days (their
/// own shards) versus 4 threads forced through one global write lock —
/// the shape of the engine before per-shard locking. The `contention`
/// binary records the canonical numbers in `BENCH_tsdb.json`; this group
/// keeps the comparison visible in routine criterion runs.
fn bench_contention(c: &mut Criterion) {
    use std::sync::{Arc, RwLock};

    let mut g = c.benchmark_group("tsdb/contention");
    g.sample_size(10);
    const WRITERS: usize = 4;
    let per_writer: Vec<Vec<Vec<DataPoint>>> = (0..WRITERS)
        .map(|w| {
            (0..8)
                .map(|b| {
                    (0..500)
                        .map(|i| {
                            let k = b * 500 + i;
                            DataPoint::new(
                                "Power",
                                EpochSecs::new(w as i64 * 86_400 + k as i64 * 20),
                            )
                            .tag("NodeId", format!("10.101.1.{}", k % 16))
                            .tag("Label", "NodePower")
                            .field_f64("Reading", 250.0 + (k % 40) as f64)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let points: usize = per_writer.iter().flatten().map(Vec::len).sum();
    g.throughput(Throughput::Elements(points as u64));

    let run = |global: bool, batches: &[Vec<Vec<DataPoint>>]| {
        let db = Arc::new(Db::new(DbConfig::default()));
        let big_lock = Arc::new(RwLock::new(()));
        std::thread::scope(|s| {
            for writer in batches {
                let db = Arc::clone(&db);
                let big_lock = Arc::clone(&big_lock);
                s.spawn(move || {
                    for b in writer {
                        let _g = global.then(|| big_lock.write().unwrap());
                        db.write_batch(b).unwrap();
                    }
                });
            }
        });
        db
    };
    g.bench_function("4_writers_sharded", |b| b.iter(|| run(false, &per_writer)));
    g.bench_function("4_writers_global_lock", |b| b.iter(|| run(true, &per_writer)));
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb/query");
    g.sample_size(30);
    let db = Db::new(DbConfig::default());
    db.write_batch(&batch(16, 1440)).unwrap(); // one day
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
        .aggregate(Aggregation::Max)
        .where_tag("NodeId", "10.101.1.1")
        .group_by_time(300);
    g.bench_function("aggregate_one_node_day", |b| b.iter(|| db.query(&q).unwrap()));
    let q_all = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
        .aggregate(Aggregation::Mean)
        .group_by_time(300);
    g.bench_function("aggregate_fleet_day", |b| b.iter(|| db.query(&q_all).unwrap()));
    g.bench_function("parse_query_string", |b| {
        b.iter(|| {
            monster_tsdb::query::parse_query(
                "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
                 Label='NodePower' AND time >= '2020-04-20T12:00:00Z' AND \
                 time < '2020-04-21T12:00:00Z' GROUP BY time(5m)",
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_batch_codecs,
    bench_ingest,
    bench_contention,
    bench_query
);
criterion_main!(benches);
