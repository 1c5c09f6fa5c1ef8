//! `monster-tsdb` — an embedded time-series database.
//!
//! MonSTer stores every collected metric in InfluxDB (§III-C of the paper);
//! this crate is the from-scratch substitute. It implements the same data
//! model and the mechanisms the paper's evaluation exercises:
//!
//! * **Data model** — measurements, indexed tags, typed fields, second-
//!   resolution timestamps ([`point`], [`field`]);
//! * **Line protocol** — the text ingest format ([`lineproto`]);
//! * **Series indexing** — series keys, inverted tag index, cardinality
//!   tracking ([`series`]); schema design shows up as series cardinality,
//!   which is what the Fig. 13/14 experiments manipulate;
//! * **Columnar compression** — Gorilla-style delta-of-delta timestamps and
//!   XOR floats, zig-zag varint integers, dictionary strings ([`encode`],
//!   [`mod@column`]);
//! * **Shards** — time-partitioned storage ([`shard`]);
//! * **Query engine** — a mini-InfluxQL parser and executor with
//!   aggregation and `GROUP BY time(...)` downsampling ([`query`]);
//! * **Cost accounting** — every query returns a [`cost::QueryCost`]
//!   alongside its results; converting that cost through a
//!   [`monster_sim::DiskModel`] yields the *simulated* elapsed time used to
//!   reproduce Figs. 10, 12, 14 and 15 deterministically;
//! * **Concurrent execution** — a worker-pool query runner
//!   ([`concurrent`]) that reproduces the 5.5–6.5× speedup of Fig. 15.
//!
//! # Quickstart
//!
//! ```
//! use monster_tsdb::{Db, DbConfig, DataPoint};
//! use monster_util::EpochSecs;
//!
//! let db = Db::new(DbConfig::default());
//! db.write(
//!     DataPoint::new("Power", EpochSecs::new(1_583_792_296))
//!         .tag("NodeId", "10.101.1.1")
//!         .tag("Label", "NodePower")
//!         .field_f64("Reading", 273.8),
//! ).unwrap();
//!
//! let (res, _cost) = db
//!     .query_str("SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' \
//!                 AND time >= '2020-03-09T00:00:00Z' AND time < '2020-03-10T00:00:00Z' \
//!                 GROUP BY time(5m)")
//!     .unwrap();
//! assert_eq!(res.series.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod concurrent;
pub mod cost;
pub mod db;
pub mod encode;
pub mod field;
pub mod http_api;
pub mod lineproto;
pub mod point;
pub mod query;
pub mod recover;
pub mod retention;
pub mod series;
pub mod shard;
pub mod wal;
pub mod watermark;

pub use column::{AggScan, BlockSummary, DecodeScratch, NumericSummary, ScanItem};
pub use cost::{CostParams, QueryCost, COST_WORDS};
pub use db::{Db, DbConfig, DbStats};
pub use field::FieldValue;
pub use point::DataPoint;
pub use query::{Aggregation, Fill, Query, ResultSet};
pub use recover::RecoveryReport;
pub use retention::{ContinuousQuery, RetentionPolicy, TierConfig, TierReport};
pub use series::{FieldId, SeriesId, SeriesKey};
pub use wal::{WalStatus, WalTuning};
pub use watermark::MeasurementMark;
