//! Per-series, per-field storage: sealed compressed blocks plus a raw tail.
//!
//! Mirrors the TSM/WAL split of a real TSDB: points append to an
//! uncompressed tail; when the tail reaches [`BLOCK_SIZE`] points it is
//! sealed into compressed timestamp+value blocks annotated with their time
//! range, so queries prune non-overlapping blocks without decoding them.
//! Each sealed block counts as one discrete storage access in the query
//! cost accounting.
//!
//! Every sealed block also carries a [`BlockSummary`] — a zone map captured
//! at seal time: time bounds, point count, and for numeric columns the
//! `min/max/sum/first/last` fold of the block's values. Windowed
//! aggregations use [`Column::scan_agg`] to answer *fully contained* blocks
//! from their summaries without decompressing them; only the partial blocks
//! at window edges are decoded. The summary fold uses exactly the same
//! arithmetic (and the same append order) as the per-point aggregation
//! accumulator, so summary-answered results are bit-identical to a full
//! decode.

use crate::encode::{bools, floats, ints, strings, timestamps};
use crate::field::FieldValue;
use monster_util::{Error, Result};

/// Points per sealed block.
pub const BLOCK_SIZE: usize = 1024;

/// The numeric fold of a sealed block's values, in append order — the same
/// fold the per-point aggregation accumulator performs, so merging it is
/// bit-identical to replaying the block's points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericSummary {
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Running sum in append order (float addition is not associative;
    /// preserving the fold order is what keeps pushdown exact).
    pub sum: f64,
    /// Timestamp of the earliest point (earliest appended wins ties).
    pub first_ts: i64,
    /// Value at `first_ts`.
    pub first: f64,
    /// Timestamp of the latest point (latest appended wins ties).
    pub last_ts: i64,
    /// Value at `last_ts`.
    pub last: f64,
}

impl NumericSummary {
    /// Fold `(ts, value)` pairs in append order with the accumulator's
    /// arithmetic. Mirrors `Acc::push` in `query::exec` exactly.
    pub fn fold(ts: &[i64], vals: impl Iterator<Item = f64>) -> NumericSummary {
        let mut s = NumericSummary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            first_ts: i64::MAX,
            first: 0.0,
            last_ts: i64::MIN,
            last: 0.0,
        };
        for (&t, v) in ts.iter().zip(vals) {
            s.sum += v;
            s.min = s.min.min(v);
            s.max = s.max.max(v);
            if t < s.first_ts {
                s.first_ts = t;
                s.first = v;
            }
            if t >= s.last_ts {
                s.last_ts = t;
                s.last = v;
            }
        }
        s
    }
}

/// Zone map attached to every sealed block at seal time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Points in the block.
    pub count: usize,
    /// Earliest timestamp.
    pub ts_min: i64,
    /// Latest timestamp.
    pub ts_max: i64,
    /// Value fold for numeric (float/int) columns; `None` for bool/string
    /// columns, whose blocks can still answer `count` from the header.
    pub numeric: Option<NumericSummary>,
}

impl BlockSummary {
    /// True when the block can be answered from this summary alone: fully
    /// inside the query range, fully inside one epoch-aligned aggregation
    /// window, and numerically summarized (or the aggregation only needs
    /// the point count).
    pub fn usable_for(&self, spec: &AggScan) -> bool {
        if self.ts_min < spec.start || self.ts_max >= spec.end {
            return false;
        }
        if self.numeric.is_none() && !spec.countable {
            return false;
        }
        match spec.window {
            Some(w) => self.ts_min.div_euclid(w) == self.ts_max.div_euclid(w),
            None => true,
        }
    }
}

/// Parameters for an aggregation-aware scan ([`Column::scan_agg`]).
#[derive(Debug, Clone, Copy)]
pub struct AggScan {
    /// Query range start (inclusive).
    pub start: i64,
    /// Query range end (exclusive).
    pub end: i64,
    /// `GROUP BY time` window in seconds; `None` = the whole range is one
    /// window. Windows are epoch-aligned, matching the aggregator.
    pub window: Option<i64>,
    /// The aggregation is `count`, which non-numeric blocks can answer
    /// from their summaries too (only the point count matters).
    pub countable: bool,
    /// Decode summary-eligible blocks anyway (the forced-full-decode
    /// baseline): the partial is recomputed from the decoded points and
    /// emitted, so the aggregation merge structure — and therefore every
    /// output bit — is identical to the pushdown path, but the full decode
    /// cost is charged.
    pub decode_all: bool,
}

/// One item produced by an aggregation-aware scan, in scan order.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanItem {
    /// A decoded point (edge blocks, raw tails).
    Point(i64, FieldValue),
    /// A whole block answered from its summary (or, in forced-decode mode,
    /// re-folded from decoded points — bit-identical by construction).
    Partial(BlockSummary),
}

/// Reusable whole-block decode buffers. One scratch serves a whole column
/// scan: each sealed block decodes into these contiguous arrays (cleared,
/// never shrunk), so a warm scan performs zero allocations per block for
/// numeric columns.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    ts: Vec<i64>,
    floats: Vec<f64>,
    ints: Vec<i64>,
    bools: Vec<bool>,
    strs: Vec<String>,
}

impl DecodeScratch {
    /// Fresh, empty scratch.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }
}

/// Value payload of a sealed block.
#[derive(Debug)]
enum BlockValues {
    Float(Vec<u8>),
    Int(Vec<u8>),
    Bool(Vec<u8>),
    Str(Vec<u8>),
}

/// A sealed, compressed block.
#[derive(Debug)]
struct SealedBlock {
    summary: BlockSummary,
    ts_bytes: Vec<u8>,
    values: BlockValues,
}

impl SealedBlock {
    fn encoded_bytes(&self) -> usize {
        let v = match &self.values {
            BlockValues::Float(b)
            | BlockValues::Int(b)
            | BlockValues::Bool(b)
            | BlockValues::Str(b) => b.len(),
        };
        self.ts_bytes.len() + v + 80 // block header: count + time bounds + zone map
    }

    /// Decode the whole block into `scratch`'s contiguous arrays — the
    /// vectorized path every read goes through. Timestamps always land in
    /// `scratch.ts`; values land in the matching typed buffer.
    fn decode_arrays(&self, scratch: &mut DecodeScratch) -> Result<()> {
        let count = self.summary.count;
        timestamps::decode_into(&self.ts_bytes, count, &mut scratch.ts)?;
        match &self.values {
            BlockValues::Float(b) => floats::decode_into(b, count, &mut scratch.floats),
            BlockValues::Int(b) => ints::decode_into(b, count, &mut scratch.ints),
            BlockValues::Bool(b) => bools::decode_into(b, count, &mut scratch.bools),
            BlockValues::Str(b) => strings::decode_into(b, count, &mut scratch.strs),
        }
    }

    /// Decode and emit every in-range point. The point-at-a-time shape the
    /// scan API exposes is built on top of [`Self::decode_arrays`]: one
    /// whole-block decode into reused scratch, then a filter over the
    /// arrays.
    fn decode_each(
        &self,
        start: i64,
        end: i64,
        scratch: &mut DecodeScratch,
        f: &mut impl FnMut(i64, FieldValue),
    ) -> Result<()> {
        self.decode_arrays(scratch)?;
        match &self.values {
            BlockValues::Float(_) => {
                for (&t, &v) in scratch.ts.iter().zip(&scratch.floats) {
                    if t >= start && t < end {
                        f(t, FieldValue::Float(v));
                    }
                }
            }
            BlockValues::Int(_) => {
                for (&t, &v) in scratch.ts.iter().zip(&scratch.ints) {
                    if t >= start && t < end {
                        f(t, FieldValue::Int(v));
                    }
                }
            }
            BlockValues::Bool(_) => {
                for (&t, &v) in scratch.ts.iter().zip(&scratch.bools) {
                    if t >= start && t < end {
                        f(t, FieldValue::Bool(v));
                    }
                }
            }
            BlockValues::Str(_) => {
                // Move the strings out (no per-value clone) while keeping
                // the outer vector's capacity for the next block.
                let mut vals = std::mem::take(&mut scratch.strs);
                for (&t, v) in scratch.ts.iter().zip(vals.drain(..)) {
                    if t >= start && t < end {
                        f(t, FieldValue::Str(v));
                    }
                }
                scratch.strs = vals;
            }
        }
        Ok(())
    }

    /// Recompute the summary from decoded points (forced-decode mode). The
    /// fold is identical to the one performed at seal time, so the result
    /// equals the stored summary bit for bit.
    fn recompute_summary(&self, scratch: &mut DecodeScratch) -> Result<BlockSummary> {
        self.decode_arrays(scratch)?;
        let numeric = match &self.values {
            BlockValues::Float(_) => {
                Some(NumericSummary::fold(&scratch.ts, scratch.floats.iter().copied()))
            }
            BlockValues::Int(_) => {
                Some(NumericSummary::fold(&scratch.ts, scratch.ints.iter().map(|&v| v as f64)))
            }
            BlockValues::Bool(_) | BlockValues::Str(_) => None,
        };
        Ok(BlockSummary {
            count: self.summary.count,
            ts_min: self.summary.ts_min,
            ts_max: self.summary.ts_max,
            numeric,
        })
    }
}

/// The raw tail, typed like the column.
#[derive(Debug)]
enum Tail {
    Float(Vec<f64>),
    Int(Vec<i64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
}

impl Tail {
    fn type_name(&self) -> &'static str {
        match self {
            Tail::Float(_) => "float",
            Tail::Int(_) => "integer",
            Tail::Bool(_) => "boolean",
            Tail::Str(_) => "string",
        }
    }
}

/// One field's data within one series within one shard.
#[derive(Debug)]
pub struct Column {
    sealed: Vec<SealedBlock>,
    tail_ts: Vec<i64>,
    tail: Tail,
    /// Incrementally-maintained [`encoded_bytes`](Self::encoded_bytes):
    /// updated on every append and seal so size accounting is O(1) instead
    /// of a walk over sealed blocks.
    encoded: usize,
}

impl Column {
    /// Create a column typed after its first value.
    pub fn new(first_value: &FieldValue) -> Self {
        let tail = match first_value {
            FieldValue::Float(_) => Tail::Float(Vec::new()),
            FieldValue::Int(_) => Tail::Int(Vec::new()),
            FieldValue::Bool(_) => Tail::Bool(Vec::new()),
            FieldValue::Str(_) => Tail::Str(Vec::new()),
        };
        Column { sealed: Vec::new(), tail_ts: Vec::new(), tail, encoded: 0 }
    }

    /// Append one (timestamp, value). Errors on a field-type conflict —
    /// the same hard error InfluxDB raises.
    pub fn append(&mut self, ts: i64, value: &FieldValue) -> Result<()> {
        let value_width = match (&mut self.tail, value) {
            (Tail::Float(v), FieldValue::Float(x)) => {
                v.push(*x);
                8
            }
            (Tail::Int(v), FieldValue::Int(x)) => {
                v.push(*x);
                8
            }
            (Tail::Bool(v), FieldValue::Bool(x)) => {
                v.push(*x);
                1
            }
            (Tail::Str(v), FieldValue::Str(x)) => {
                let w = x.len() + 8;
                v.push(x.clone());
                w
            }
            (tail, v) => {
                return Err(Error::invalid(format!(
                    "field type conflict: column is {}, point has {}",
                    tail.type_name(),
                    v.type_name()
                )))
            }
        };
        self.tail_ts.push(ts);
        self.encoded += 8 + value_width; // raw tail width: 8 B timestamp + value
        if self.tail_ts.len() >= BLOCK_SIZE {
            self.seal_tail();
        }
        Ok(())
    }

    /// Compress the tail into a sealed block. Encodes from the tail
    /// buffers in place and `clear()`s them afterwards (never `take`s), so
    /// a column that keeps ingesting reuses its tail capacity across seals
    /// instead of re-growing it from zero for every block.
    fn seal_tail(&mut self) {
        if self.tail_ts.is_empty() {
            return;
        }
        let tail_bytes = self.tail_bytes();
        let ts = &self.tail_ts;
        let ts_min = *ts.iter().min().expect("non-empty");
        let ts_max = *ts.iter().max().expect("non-empty");
        let ts_bytes = timestamps::encode(ts);
        let (values, count, numeric) = match &self.tail {
            Tail::Float(v) => {
                let numeric = NumericSummary::fold(ts, v.iter().copied());
                (BlockValues::Float(floats::encode(v)), v.len(), Some(numeric))
            }
            Tail::Int(v) => {
                let numeric = NumericSummary::fold(ts, v.iter().map(|&x| x as f64));
                (BlockValues::Int(ints::encode(v)), v.len(), Some(numeric))
            }
            Tail::Bool(v) => (BlockValues::Bool(bools::encode(v)), v.len(), None),
            Tail::Str(v) => (BlockValues::Str(strings::encode(v)), v.len(), None),
        };
        debug_assert_eq!(count, ts.len());
        let summary = BlockSummary { count, ts_min, ts_max, numeric };
        let block = SealedBlock { summary, ts_bytes, values };
        self.encoded = self.encoded - tail_bytes + block.encoded_bytes();
        self.sealed.push(block);
        self.tail_ts.clear();
        match &mut self.tail {
            Tail::Float(v) => v.clear(),
            Tail::Int(v) => v.clear(),
            Tail::Bool(v) => v.clear(),
            Tail::Str(v) => v.clear(),
        }
    }

    /// At-rest bytes of the raw tail at its in-memory width.
    fn tail_bytes(&self) -> usize {
        self.tail_ts.len() * 8
            + match &self.tail {
                Tail::Float(v) => v.len() * 8,
                Tail::Int(v) => v.len() * 8,
                Tail::Bool(v) => v.len(),
                Tail::Str(v) => v.iter().map(|s| s.len() + 8).sum(),
            }
    }

    /// Force-seal any raw tail into a compressed block (compaction):
    /// returns true if anything was sealed.
    pub fn seal_now(&mut self) -> bool {
        if self.tail_ts.is_empty() {
            return false;
        }
        self.seal_tail();
        true
    }

    /// Number of sealed blocks (compaction observability).
    pub fn sealed_blocks(&self) -> usize {
        self.sealed.len()
    }

    /// Raw (unsealed) points in the tail.
    pub fn tail_len(&self) -> usize {
        self.tail_ts.len()
    }

    /// Total points stored.
    pub fn point_count(&self) -> usize {
        self.sealed.iter().map(|b| b.summary.count).sum::<usize>() + self.tail_ts.len()
    }

    /// Encoded (at-rest) size in bytes: sealed blocks plus the raw tail at
    /// its in-memory width. O(1) — maintained incrementally on append/seal
    /// so stats and size-delta accounting never walk the blocks.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded
    }

    /// Walk-everything reference implementation of
    /// [`encoded_bytes`](Self::encoded_bytes), kept as a test cross-check.
    #[cfg(test)]
    fn recompute_encoded_bytes(&self) -> usize {
        self.sealed.iter().map(SealedBlock::encoded_bytes).sum::<usize>() + self.tail_bytes()
    }

    /// Scan all points overlapping `[start, end)`, invoking `f(ts, value)`.
    /// Returns scan accounting: (blocks touched, points decoded, bytes read).
    pub fn scan(&self, start: i64, end: i64, f: impl FnMut(i64, FieldValue)) -> Result<ScanStats> {
        self.scan_with(&mut DecodeScratch::new(), start, end, f)
    }

    /// [`Self::scan`] with caller-provided decode scratch, so a scan over
    /// many columns reuses one set of block buffers instead of allocating
    /// per column.
    pub fn scan_with(
        &self,
        scratch: &mut DecodeScratch,
        start: i64,
        end: i64,
        mut f: impl FnMut(i64, FieldValue),
    ) -> Result<ScanStats> {
        let mut stats = ScanStats::default();
        for block in &self.sealed {
            if block.summary.ts_max < start || block.summary.ts_min >= end {
                continue; // pruned without decoding
            }
            stats.blocks += 1;
            stats.bytes += block.encoded_bytes();
            stats.points += block.summary.count;
            block.decode_each(start, end, scratch, &mut f)?;
        }
        self.scan_tail(start, end, &mut stats, &mut f);
        Ok(stats)
    }

    /// Aggregation-aware scan of `[spec.start, spec.end)`.
    ///
    /// Emits a [`ScanItem::Partial`] — the stored zone map, no decode — for
    /// every sealed block fully contained in one aggregation window (and in
    /// the query range), and decoded [`ScanItem::Point`]s for edge blocks
    /// and the raw tail. In `spec.decode_all` mode eligible blocks are
    /// decoded and their partials re-folded, keeping the emitted item
    /// sequence identical while charging the full decode cost — the
    /// baseline the pushdown speedup is measured against.
    pub fn scan_agg(&self, spec: AggScan, emit: impl FnMut(ScanItem)) -> Result<ScanStats> {
        self.scan_agg_with(&mut DecodeScratch::new(), spec, emit)
    }

    /// [`Self::scan_agg`] with caller-provided decode scratch.
    pub fn scan_agg_with(
        &self,
        scratch: &mut DecodeScratch,
        spec: AggScan,
        mut emit: impl FnMut(ScanItem),
    ) -> Result<ScanStats> {
        let mut stats = ScanStats::default();
        for block in &self.sealed {
            let s = &block.summary;
            if s.ts_max < spec.start || s.ts_min >= spec.end {
                continue; // pruned without decoding
            }
            if s.usable_for(&spec) {
                if spec.decode_all {
                    stats.blocks += 1;
                    stats.bytes += block.encoded_bytes();
                    stats.points += s.count;
                    let recomputed = block.recompute_summary(scratch)?;
                    debug_assert_eq!(&recomputed, s, "stored zone map diverged from data");
                    emit(ScanItem::Partial(recomputed));
                } else {
                    stats.blocks_summarized += 1;
                    emit(ScanItem::Partial(*s));
                }
            } else {
                stats.blocks += 1;
                stats.bytes += block.encoded_bytes();
                stats.points += s.count;
                block.decode_each(spec.start, spec.end, scratch, &mut |t, v| {
                    emit(ScanItem::Point(t, v))
                })?;
            }
        }
        self.scan_tail(spec.start, spec.end, &mut stats, &mut |t, v| emit(ScanItem::Point(t, v)));
        Ok(stats)
    }

    /// Emit the raw tail's in-range points (shared by both scan flavours).
    fn scan_tail(
        &self,
        start: i64,
        end: i64,
        stats: &mut ScanStats,
        f: &mut impl FnMut(i64, FieldValue),
    ) {
        if self.tail_ts.is_empty() {
            return;
        }
        stats.blocks += 1;
        stats.points += self.tail_ts.len();
        stats.bytes += self.tail_ts.len() * 16;
        for (i, &t) in self.tail_ts.iter().enumerate() {
            if t < start || t >= end {
                continue;
            }
            let v = match &self.tail {
                Tail::Float(v) => FieldValue::Float(v[i]),
                Tail::Int(v) => FieldValue::Int(v[i]),
                Tail::Bool(v) => FieldValue::Bool(v[i]),
                Tail::Str(v) => FieldValue::Str(v[i].clone()),
            };
            f(t, v);
        }
    }
}

/// Accounting from one column scan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Discrete blocks decoded (≈ storage accesses; includes raw tails).
    pub blocks: usize,
    /// Points decoded.
    pub points: usize,
    /// Encoded bytes read.
    pub bytes: usize,
    /// Sealed blocks answered from their zone maps without decoding.
    pub blocks_summarized: usize,
}

impl ScanStats {
    /// Accumulate another scan's counters.
    pub fn absorb(&mut self, other: ScanStats) {
        self.blocks += other.blocks;
        self.points += other.points;
        self.bytes += other.bytes;
        self.blocks_summarized += other.blocks_summarized;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(col: &Column, start: i64, end: i64) -> Vec<(i64, FieldValue)> {
        let mut out = Vec::new();
        col.scan(start, end, |t, v| out.push((t, v))).unwrap();
        out
    }

    #[test]
    fn append_and_scan_small() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..10 {
            col.append(i * 60, &FieldValue::Float(i as f64)).unwrap();
        }
        assert_eq!(col.point_count(), 10);
        let pts = collect(&col, 120, 300);
        assert_eq!(pts.len(), 3); // 120, 180, 240
        assert_eq!(pts[0], (120, FieldValue::Float(2.0)));
    }

    #[test]
    fn sealing_happens_at_block_size() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64 * 2 + 5) {
            col.append(i, &FieldValue::Float(1.5)).unwrap();
        }
        assert_eq!(col.sealed.len(), 2);
        assert_eq!(col.tail_ts.len(), 5);
        assert_eq!(col.point_count(), BLOCK_SIZE * 2 + 5);
        // Scans see everything.
        assert_eq!(collect(&col, i64::MIN, i64::MAX).len(), BLOCK_SIZE * 2 + 5);
    }

    #[test]
    fn block_pruning_skips_disjoint_ranges() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64 * 4) {
            col.append(i * 60, &FieldValue::Float(0.0)).unwrap();
        }
        // Query only the first block's range.
        let mut out = 0;
        let stats = col.scan(0, 60 * (BLOCK_SIZE as i64 / 2), |_, _| out += 1).unwrap();
        assert_eq!(stats.blocks, 1, "pruning failed: {stats:?}");
        assert_eq!(out, BLOCK_SIZE / 2);
    }

    #[test]
    fn type_conflicts_error() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        col.append(0, &FieldValue::Float(1.0)).unwrap();
        let err = col.append(1, &FieldValue::Int(1)).unwrap_err();
        assert!(err.to_string().contains("type conflict"));
        // Column untouched by the failed append.
        assert_eq!(col.point_count(), 1);
    }

    #[test]
    fn all_types_round_trip_through_seal() {
        type Make = Box<dyn Fn(i64) -> FieldValue>;
        let cases: Vec<(FieldValue, Make)> = vec![
            (FieldValue::Float(0.0), Box::new(|i| FieldValue::Float(i as f64 * 0.5))),
            (FieldValue::Int(0), Box::new(|i| FieldValue::Int(i * 7))),
            (FieldValue::Bool(false), Box::new(|i| FieldValue::Bool(i % 3 == 0))),
            (FieldValue::Str(String::new()), Box::new(|i| FieldValue::Str(format!("s{}", i % 5)))),
        ];
        for (proto, make) in cases {
            let mut col = Column::new(&proto);
            let n = BLOCK_SIZE as i64 + 100;
            for i in 0..n {
                col.append(i, &make(i)).unwrap();
            }
            let pts = collect(&col, 0, n);
            assert_eq!(pts.len(), n as usize);
            for (i, (t, v)) in pts.iter().enumerate() {
                // Sealed block order is preserved.
                assert_eq!(*t, i as i64);
                assert_eq!(*v, make(i as i64));
            }
        }
    }

    #[test]
    fn incremental_encoded_bytes_matches_recompute() {
        type Make = Box<dyn Fn(i64) -> FieldValue>;
        let cases: Vec<(FieldValue, Make)> = vec![
            (FieldValue::Float(0.0), Box::new(|i| FieldValue::Float(i as f64 * 0.5))),
            (FieldValue::Int(0), Box::new(|i| FieldValue::Int(i * 7))),
            (FieldValue::Bool(false), Box::new(|i| FieldValue::Bool(i % 3 == 0))),
            (FieldValue::Str(String::new()), Box::new(|i| FieldValue::Str(format!("s{}", i % 5)))),
        ];
        for (proto, make) in cases {
            let mut col = Column::new(&proto);
            for i in 0..(BLOCK_SIZE as i64 + 321) {
                col.append(i, &make(i)).unwrap();
                if i % 257 == 0 {
                    assert_eq!(col.encoded_bytes(), col.recompute_encoded_bytes());
                }
            }
            assert_eq!(col.encoded_bytes(), col.recompute_encoded_bytes());
            col.seal_now();
            assert_eq!(col.encoded_bytes(), col.recompute_encoded_bytes());
        }
    }

    #[test]
    fn compression_beats_raw_for_regular_data() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64 * 4) {
            col.append(1_583_792_296 + i * 60, &FieldValue::Float(273.8)).unwrap();
        }
        let raw = col.point_count() * 16; // 8B ts + 8B value
        assert!(col.encoded_bytes() < raw / 8, "encoded {} raw {}", col.encoded_bytes(), raw);
    }

    fn agg_spec(start: i64, end: i64, window: Option<i64>) -> AggScan {
        AggScan { start, end, window, countable: false, decode_all: false }
    }

    #[test]
    fn sealed_blocks_carry_zone_maps() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64) {
            col.append(i, &FieldValue::Float(i as f64 * 0.5)).unwrap();
        }
        let s = col.sealed[0].summary;
        assert_eq!(s.count, BLOCK_SIZE);
        assert_eq!((s.ts_min, s.ts_max), (0, BLOCK_SIZE as i64 - 1));
        let n = s.numeric.unwrap();
        assert_eq!(n.min, 0.0);
        assert_eq!(n.max, (BLOCK_SIZE as f64 - 1.0) * 0.5);
        assert_eq!((n.first_ts, n.first), (0, 0.0));
        assert_eq!((n.last_ts, n.last), (BLOCK_SIZE as i64 - 1, n.max));
        // The stored fold matches a fresh recompute bit for bit.
        assert_eq!(col.sealed[0].recompute_summary(&mut DecodeScratch::new()).unwrap(), s);
    }

    #[test]
    fn contained_blocks_summarize_edges_decode() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        // Two sealed blocks at 1 s cadence plus a tail.
        for i in 0..(BLOCK_SIZE as i64 * 2 + 10) {
            col.append(i, &FieldValue::Float(1.0)).unwrap();
        }
        // Window spans both blocks entirely: both answered from summaries,
        // only the tail is decoded.
        let mut items = Vec::new();
        let spec = agg_spec(0, 3 * BLOCK_SIZE as i64, Some(4 * BLOCK_SIZE as i64));
        let stats = col.scan_agg(spec, |it| items.push(it)).unwrap();
        assert_eq!(stats.blocks_summarized, 2);
        assert_eq!(stats.blocks, 1, "only the tail decodes: {stats:?}");
        let partials = items.iter().filter(|i| matches!(i, ScanItem::Partial(_))).count();
        assert_eq!(partials, 2);
        assert_eq!(items.len(), 2 + 10);
        // A window cutting through block 0 forces it to decode per point.
        let mut items = Vec::new();
        let spec = agg_spec(0, 3 * BLOCK_SIZE as i64, Some(BLOCK_SIZE as i64 / 2));
        let stats = col.scan_agg(spec, |it| items.push(it)).unwrap();
        assert_eq!(stats.blocks_summarized, 0);
        assert_eq!(stats.blocks, 3);
        assert!(items.iter().all(|i| matches!(i, ScanItem::Point(..))));
    }

    #[test]
    fn partial_range_coverage_disqualifies_summaries() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64) {
            col.append(i, &FieldValue::Float(1.0)).unwrap();
        }
        col.seal_now();
        // Query range cuts the block: must decode.
        let stats = col.scan_agg(agg_spec(10, 10_000, None), |_| {}).unwrap();
        assert_eq!(stats.blocks_summarized, 0);
        assert_eq!(stats.blocks, 1);
        // Whole-range window and full coverage: summary answers it.
        let stats = col.scan_agg(agg_spec(0, 10_000, None), |_| {}).unwrap();
        assert_eq!(stats.blocks_summarized, 1);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn forced_decode_emits_identical_items() {
        let mut col = Column::new(&FieldValue::Float(0.0));
        for i in 0..(BLOCK_SIZE as i64 * 2) {
            col.append(i, &FieldValue::Float((i % 97) as f64 * 0.3)).unwrap();
        }
        let spec = agg_spec(0, 4 * BLOCK_SIZE as i64, Some(4 * BLOCK_SIZE as i64));
        let mut push = Vec::new();
        let s1 = col.scan_agg(spec, |it| push.push(it)).unwrap();
        let mut full = Vec::new();
        let s2 = col.scan_agg(AggScan { decode_all: true, ..spec }, |it| full.push(it)).unwrap();
        assert_eq!(push, full, "pushdown and forced-decode item streams must match");
        assert_eq!(s1.blocks_summarized, 2);
        assert_eq!(s2.blocks_summarized, 0);
        assert_eq!(s2.blocks, 2);
        assert_eq!(s1.points, 0);
        assert_eq!(s2.points, BLOCK_SIZE * 2);
    }

    #[test]
    fn non_numeric_blocks_summarize_only_for_count() {
        let mut col = Column::new(&FieldValue::Str(String::new()));
        for i in 0..(BLOCK_SIZE as i64) {
            col.append(i, &FieldValue::Str(format!("s{}", i % 3))).unwrap();
        }
        let base = agg_spec(0, 10_000, None);
        let stats = col.scan_agg(base, |_| {}).unwrap();
        assert_eq!(stats.blocks_summarized, 0, "non-count agg must decode strings");
        let mut items = Vec::new();
        let stats = col.scan_agg(AggScan { countable: true, ..base }, |it| items.push(it)).unwrap();
        assert_eq!(stats.blocks_summarized, 1);
        match &items[0] {
            ScanItem::Partial(s) => {
                assert_eq!(s.count, BLOCK_SIZE);
                assert!(s.numeric.is_none());
            }
            other => panic!("expected partial, got {other:?}"),
        }
    }

    #[test]
    fn scan_with_reuses_scratch_across_columns() {
        let mut scratch = DecodeScratch::new();
        for proto in [FieldValue::Float(0.0), FieldValue::Int(0), FieldValue::Str(String::new())] {
            let mut col = Column::new(&proto);
            for i in 0..(BLOCK_SIZE as i64 + 3) {
                let v = match proto {
                    FieldValue::Float(_) => FieldValue::Float(i as f64),
                    FieldValue::Int(_) => FieldValue::Int(i),
                    _ => FieldValue::Str(format!("v{}", i % 2)),
                };
                col.append(i, &v).unwrap();
            }
            let mut seen = 0usize;
            col.scan_with(&mut scratch, i64::MIN, i64::MAX, |_, _| seen += 1).unwrap();
            assert_eq!(seen, BLOCK_SIZE + 3);
        }
    }

    #[test]
    fn out_of_order_appends_still_scanned() {
        let mut col = Column::new(&FieldValue::Int(0));
        for &t in &[100i64, 50, 150, 25] {
            col.append(t, &FieldValue::Int(t)).unwrap();
        }
        let pts = collect(&col, 0, 200);
        assert_eq!(pts.len(), 4);
        let pts = collect(&col, 40, 120);
        assert_eq!(pts.len(), 2); // 100 and 50
    }
}
