//! Property tests across the TSDB stack: codecs, line protocol, and
//! query/aggregation invariants.

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, FieldValue, Query};
use monster_util::EpochSecs;
use proptest::prelude::*;

fn arb_field_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(FieldValue::Float),
        any::<i64>().prop_map(FieldValue::Int),
        any::<bool>().prop_map(FieldValue::Bool),
        "[ -~]{0,24}".prop_map(FieldValue::Str),
    ]
}

fn arb_point() -> impl Strategy<Value = DataPoint> {
    (
        "[a-zA-Z][a-zA-Z0-9_]{0,8}",
        prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,6}", "[a-zA-Z0-9._-]{1,10}"), 0..3),
        prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,6}", arb_field_value()), 1..4),
        -1_000_000_000i64..4_000_000_000i64,
    )
        .prop_map(|(m, tags, fields, ts)| {
            let mut p = DataPoint::new(m, EpochSecs::new(ts));
            // Dedup tag/field keys to keep points canonical.
            let mut seen = std::collections::HashSet::new();
            for (k, v) in tags {
                if seen.insert(k.clone()) {
                    p = p.tag(k, v);
                }
            }
            let mut seen = std::collections::HashSet::new();
            for (k, v) in fields {
                if seen.insert(k.clone()) {
                    p = p.field(k, v);
                }
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_protocol_round_trips(p in arb_point()) {
        let line = monster_tsdb::lineproto::encode(&p);
        let back = monster_tsdb::lineproto::parse(&line).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn timestamps_codec_round_trips(ts in prop::collection::vec(-4_000_000_000i64..4_000_000_000, 0..300)) {
        let enc = monster_tsdb::encode::timestamps::encode(&ts);
        prop_assert_eq!(monster_tsdb::encode::timestamps::decode(&enc, ts.len()).unwrap(), ts);
    }

    #[test]
    fn floats_codec_round_trips(vals in prop::collection::vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), 0..300)) {
        let enc = monster_tsdb::encode::floats::encode(&vals);
        let dec = monster_tsdb::encode::floats::decode(&enc, vals.len()).unwrap();
        prop_assert_eq!(dec, vals);
    }

    #[test]
    fn ints_codec_round_trips(vals in prop::collection::vec(any::<i64>(), 0..300)) {
        let enc = monster_tsdb::encode::ints::encode(&vals);
        prop_assert_eq!(monster_tsdb::encode::ints::decode(&enc, vals.len()).unwrap(), vals);
    }

    #[test]
    fn strings_codec_round_trips(vals in prop::collection::vec("\\PC{0,16}", 0..100)) {
        let enc = monster_tsdb::encode::strings::encode(&vals);
        prop_assert_eq!(monster_tsdb::encode::strings::decode(&enc, vals.len()).unwrap(), vals);
    }

    /// Whole-block array decoding (`decode_into`, reused dirty buffer) is
    /// bit-identical to the point-at-a-time streaming reference decoder,
    /// for every codec.
    #[test]
    fn timestamps_batch_decode_matches_streaming(ts in prop::collection::vec(-4_000_000_000i64..4_000_000_000, 0..300)) {
        use monster_tsdb::encode::timestamps;
        let enc = timestamps::encode(&ts);
        let mut arr = vec![i64::MIN; 7]; // dirty reused buffer
        timestamps::decode_into(&enc, ts.len(), &mut arr).unwrap();
        let streamed: Vec<i64> = timestamps::iter(&enc, ts.len()).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&arr, &streamed);
        prop_assert_eq!(arr, ts);
    }

    #[test]
    fn floats_batch_decode_matches_streaming(vals in prop::collection::vec(any::<f64>(), 0..300)) {
        use monster_tsdb::encode::floats;
        let enc = floats::encode(&vals);
        let mut arr = vec![f64::NAN; 7];
        floats::decode_into(&enc, vals.len(), &mut arr).unwrap();
        let streamed: Vec<f64> = floats::iter(&enc, vals.len()).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(arr.len(), vals.len());
        for i in 0..vals.len() {
            // Bit-identical, including NaN payloads and signed zeros.
            prop_assert_eq!(arr[i].to_bits(), streamed[i].to_bits());
            prop_assert_eq!(arr[i].to_bits(), vals[i].to_bits());
        }
    }

    #[test]
    fn ints_batch_decode_matches_streaming(vals in prop::collection::vec(any::<i64>(), 0..300)) {
        use monster_tsdb::encode::ints;
        let enc = ints::encode(&vals);
        let mut arr = vec![i64::MAX; 7];
        ints::decode_into(&enc, vals.len(), &mut arr).unwrap();
        let streamed: Vec<i64> = ints::iter(&enc, vals.len()).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&arr, &streamed);
        prop_assert_eq!(arr, vals);
    }

    #[test]
    fn bools_batch_decode_matches_streaming(vals in prop::collection::vec(any::<bool>(), 0..300)) {
        use monster_tsdb::encode::bools;
        let enc = bools::encode(&vals);
        let mut arr = vec![true; 7];
        bools::decode_into(&enc, vals.len(), &mut arr).unwrap();
        let streamed: Vec<bool> = bools::iter(&enc, vals.len()).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&arr, &streamed);
        prop_assert_eq!(arr, vals);
    }

    #[test]
    fn strings_batch_decode_matches_streaming(vals in prop::collection::vec("\\PC{0,16}", 0..100)) {
        use monster_tsdb::encode::strings;
        let enc = strings::encode(&vals);
        let mut arr = vec!["residue".to_string(); 3];
        strings::decode_into(&enc, vals.len(), &mut arr).unwrap();
        let streamed: Vec<String> = strings::iter(&enc, vals.len()).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&arr, &streamed);
        prop_assert_eq!(arr, vals);
    }

    /// Truncated or corrupted blocks fail identically (both error or both
    /// succeed with the same values) on the array and streaming paths.
    #[test]
    fn corrupt_blocks_agree_between_paths(
        vals in prop::collection::vec(any::<i64>(), 1..50),
        cut in 0usize..64,
    ) {
        use monster_tsdb::encode::ints;
        let enc = ints::encode(&vals);
        let cut = cut.min(enc.len());
        let data = &enc[..cut];
        let mut arr = Vec::new();
        let array = ints::decode_into(data, vals.len(), &mut arr);
        let streamed: Result<Vec<i64>, _> = ints::iter(data, vals.len()).collect();
        match (array, streamed) {
            (Ok(()), Ok(s)) => prop_assert_eq!(arr, s),
            (Err(_), Err(_)) => {}
            (a, s) => prop_assert!(false, "array={:?} streamed-ok={:?}", a.is_ok(), s.is_ok()),
        }
    }

    /// count() over any windowing equals the number of in-range points.
    #[test]
    fn windowed_count_conserves_points(
        times in prop::collection::vec(0i64..100_000, 1..200),
        window in 1i64..5_000,
    ) {
        let db = Db::new(DbConfig::default());
        for (i, &t) in times.iter().enumerate() {
            db.write(
                DataPoint::new("m", EpochSecs::new(t))
                    .tag("n", "x")
                    .field_f64("v", i as f64),
            ).unwrap();
        }
        let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(100_000))
            .aggregate(Aggregation::Count)
            .group_by_time(window);
        let (rs, _) = db.query(&q).unwrap();
        let total: f64 = rs.series.iter()
            .flat_map(|s| s.points.iter())
            .filter_map(|(_, v)| v.as_f64())
            .sum();
        prop_assert_eq!(total as usize, times.len());
    }

    /// max over windows == global max; min over windows == global min.
    #[test]
    fn window_extremes_bound_global(
        pts in prop::collection::vec((0i64..50_000, -1e6f64..1e6), 1..150),
        window in 1i64..10_000,
    ) {
        let db = Db::new(DbConfig::default());
        for &(t, v) in &pts {
            db.write(
                DataPoint::new("m", EpochSecs::new(t)).tag("n", "x").field_f64("v", v),
            ).unwrap();
        }
        let run = |agg| {
            let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(50_000))
                .aggregate(agg)
                .group_by_time(window);
            let (rs, _) = db.query(&q).unwrap();
            rs.series[0].points.iter().filter_map(|(_, v)| v.as_f64()).collect::<Vec<f64>>()
        };
        let global_max = pts.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
        let global_min = pts.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let maxes = run(Aggregation::Max);
        let mins = run(Aggregation::Min);
        let window_max = maxes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let window_min = mins.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(window_max, global_max);
        prop_assert_eq!(window_min, global_min);
    }

    /// Raw select returns exactly the in-range points, sorted by time.
    #[test]
    fn raw_select_filters_range(
        times in prop::collection::vec(0i64..10_000, 1..100),
        lo in 0i64..5_000,
        len in 1i64..5_000,
    ) {
        let db = Db::new(DbConfig::default());
        for &t in &times {
            db.write(
                DataPoint::new("m", EpochSecs::new(t)).tag("n", "x").field_i64("v", t),
            ).unwrap();
        }
        let hi = lo + len;
        let q = Query::select("m", "v", EpochSecs::new(lo), EpochSecs::new(hi));
        let (rs, _) = db.query(&q).unwrap();
        let got: Vec<i64> = rs.series.first()
            .map(|s| s.points.iter().map(|(t, _)| t.as_secs()).collect())
            .unwrap_or_default();
        let mut expect: Vec<i64> = times.iter().copied().filter(|&t| t >= lo && t < hi).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
