//! The query flight recorder: one structured wide event per
//! `/v1/metrics` request.
//!
//! Every request — whatever its disposition — leaves behind a
//! [`RequestRecord`]: trace/span ids, tenant, the normalized plan
//! fingerprint, per-stage wall timings (parse → plan → cache → admission
//! → execute → encode) next to the modelled vtime the simulation charges,
//! the plan-time estimated [`QueryCost`] beside the measured actual
//! (cold-tier subsets included), the admission token-bucket math that
//! produced any `Retry-After`, and bytes out. Records land in a
//! pre-allocated bounded ring and surface three ways: `GET
//! /debug/requests` (+ `/:trace_id`), inline via `?explain=true`, and as
//! the estimator-accuracy metrics
//! (`monster_builder_cost_estimate_ratio{stage=...}`,
//! `monster_builder_slow_queries_total`).
//!
//! # Hot path: one short lock, no allocation
//!
//! The warm cache-hit path serves in about a microsecond, so the recorder
//! budget is on the order of 100 ns. The ring is one `Mutex` over
//! `capacity` records built at construction: [`QueryRecorder::record`]
//! takes the lock once, overwrites the slot at `head % capacity` and
//! bumps `head`. Slot strings are reserved to [`TENANT_BYTES`] /
//! [`URL_BYTES`] up front and longer values are cut at a char boundary,
//! so recycling a slot never allocates — asserted by the
//! counting-allocator test in `tests/cache_zero_copy.rs`. Readers (the
//! debug endpoints; rare) clone matching records under the same lock, so
//! every record they see is whole. Wall timings use raw TSC reads on
//! x86-64 (two orders of magnitude cheaper than a `clock_gettime` pair),
//! calibrated once per process against [`std::time::Instant`]; DESIGN.md
//! §17 has the measurements behind both choices.

use monster_json::{jobj, Value};
use monster_obs::{SpanId, TraceId};
use monster_tsdb::QueryCost;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cheap wall-clock ticks
// ---------------------------------------------------------------------------

/// Nanoseconds per TSC tick, calibrated once per process.
struct Ticker {
    ns_per_tick: f64,
}

static TICKER: OnceLock<Ticker> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC is unprivileged baseline x86-64 and has no
    // memory-safety effects; it only reads the time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks() -> u64 {
    // Portable fallback: one monotonic clock read per stamp.
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn ticker() -> &'static Ticker {
    TICKER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Calibrate TSC frequency against the OS monotonic clock over
            // a short busy window. ~1 ms keeps the relative error well
            // under 0.1%, plenty for per-stage profiling.
            let wall = Instant::now();
            let t0 = raw_ticks();
            while wall.elapsed().as_micros() < 1_000 {
                std::hint::spin_loop();
            }
            let ticks = raw_ticks().saturating_sub(t0).max(1);
            Ticker { ns_per_tick: wall.elapsed().as_nanos() as f64 / ticks as f64 }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Ticker { ns_per_tick: 1.0 }
        }
    })
}

/// An opaque timestamp in recorder ticks; subtract two with
/// [`ticks_to_ns`]. Reading one costs ~7 ns on x86-64.
#[inline]
pub fn ticks_now() -> u64 {
    raw_ticks()
}

/// Convert a tick delta to nanoseconds.
pub fn ticks_to_ns(delta: u64) -> u64 {
    (delta as f64 * ticker().ns_per_tick) as u64
}

// ---------------------------------------------------------------------------
// Record vocabulary
// ---------------------------------------------------------------------------

/// How a request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from a validated cache entry.
    Hit,
    /// Planned, admitted, and executed against storage.
    Miss,
    /// Joined another request's in-flight execution.
    Coalesced,
    /// A deterministic 400 — parse rejection, first-seen or served from
    /// the negative cache.
    Negative,
    /// Turned away by cost-based admission (429).
    Rejected,
    /// Execution failed (500).
    Error,
}

impl Disposition {
    /// Lower-case wire name (`hit`, `miss`, `coalesced`, `negative`,
    /// `rejected`, `error`) — also what `?disposition=` filters accept.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Hit => "hit",
            Disposition::Miss => "miss",
            Disposition::Coalesced => "coalesced",
            Disposition::Negative => "negative",
            Disposition::Rejected => "rejected",
            Disposition::Error => "error",
        }
    }

    /// Inverse of [`Disposition::as_str`].
    pub fn parse(s: &str) -> Option<Disposition> {
        Some(match s {
            "hit" => Disposition::Hit,
            "miss" => Disposition::Miss,
            "coalesced" => Disposition::Coalesced,
            "negative" => Disposition::Negative,
            "rejected" => Disposition::Rejected,
            "error" => Disposition::Error,
            _ => return None,
        })
    }
}

/// What the response cache said about this request's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// A positive entry existed and its watermark snapshot validated.
    Valid,
    /// A negative (deterministic-400) entry was served.
    Negative,
    /// No entry for this key.
    Absent,
    /// An entry existed but a write/retention event invalidated it.
    Invalidated,
}

impl CacheVerdict {
    /// Wire name used by `/debug/requests` and `?explain=true`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheVerdict::Valid => "valid",
            CacheVerdict::Negative => "negative",
            CacheVerdict::Absent => "absent",
            CacheVerdict::Invalidated => "invalidated",
        }
    }
}

/// Admission control's decision for this request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The controller is disabled; everything passes.
    Disabled,
    /// At or below the cheap threshold — admitted without touching the
    /// tenant's bucket.
    Cheap,
    /// Expensive but affordable — the tenant's bucket was debited.
    Charged,
    /// Above the hard reject threshold (no bucket could ever cover it).
    RejectedOverBudget,
    /// Affordable in principle but the tenant's bucket is short.
    RejectedTenantBudget,
}

impl AdmissionDecision {
    /// Wire name used by `/debug/requests` and `?explain=true`.
    pub fn as_str(self) -> &'static str {
        match self {
            AdmissionDecision::Disabled => "disabled",
            AdmissionDecision::Cheap => "admitted_cheap",
            AdmissionDecision::Charged => "admitted_charged",
            AdmissionDecision::RejectedOverBudget => "rejected_over_budget",
            AdmissionDecision::RejectedTenantBudget => "rejected_tenant_budget",
        }
    }
}

/// The token-bucket arithmetic behind one admission decision — exactly the
/// numbers a client needs to understand its `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSnapshot {
    /// Which rule fired.
    pub decision: AdmissionDecision,
    /// The plan-time modelled seconds the decision priced.
    pub estimated_secs: f64,
    /// Tenant bucket tokens after refill, before any debit. `NaN` when no
    /// bucket was consulted (disabled / cheap / over-budget).
    pub tokens_before: f64,
    /// Tokens after the debit (== `tokens_before` on rejection).
    pub tokens_after: f64,
    /// Modelled seconds the tenant earns per wall second.
    pub rate: f64,
    /// Bucket capacity.
    pub burst: f64,
    /// The `Retry-After` value sent on rejection; 0 when admitted.
    pub retry_after_secs: u64,
}

/// The pipeline stages a record times. Indexes into
/// [`RequestRecord::stages_ns`].
pub const STAGES: [&str; 6] = ["parse", "plan", "cache", "admission", "execute", "encode"];

/// Stage index constants (see [`STAGES`]).
pub const STAGE_PARSE: usize = 0;
/// Plan building + rollup rerouting + cost estimation.
pub const STAGE_PLAN: usize = 1;
/// Response-cache probe. On a hit this is the only populated stage and it
/// includes serving the shared body (probe dominates).
pub const STAGE_CACHE: usize = 2;
/// Admission decision (token-bucket refill + debit).
pub const STAGE_ADMISSION: usize = 3;
/// Storage execution.
pub const STAGE_EXECUTE: usize = 4;
/// Document marshalling, compression, header stamping.
pub const STAGE_ENCODE: usize = 5;

/// A request's estimated-vs-actual cost pair, modelled seconds included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPair {
    /// The plan-time estimate admission priced.
    pub estimated: QueryCost,
    /// The measured physical cost out of the scans.
    pub actual: QueryCost,
    /// `simulate_elapsed(estimated)`, nanoseconds.
    pub estimated_ns: u64,
    /// `simulate_elapsed(actual)`, nanoseconds — same pricing function, so
    /// the ratio isolates estimator accuracy from execution mode.
    pub actual_ns: u64,
}

/// One flight-recorder record: a ring slot, and what readers get back.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Monotone sequence number (also the ring-recycling order).
    pub seq: u64,
    /// Disposition the request ended with.
    pub disposition: Disposition,
    /// HTTP status served.
    pub status: u16,
    /// Trace id (joins `GET /debug/trace?trace_id=`).
    pub trace: TraceId,
    /// The request's server-side span id.
    pub span: SpanId,
    /// Normalized plan fingerprint: a 64-bit hash of the request key with
    /// per-request noise (`explain`) stripped, so identical plans collapse
    /// to one value across dispositions.
    pub fingerprint: u64,
    /// Tenant the request was billed to.
    pub tenant: String,
    /// The normalized request key (path + query, `explain` stripped).
    pub url: String,
    /// `true` when `tenant`/`url` exceeded the slot's fixed capacity and
    /// were truncated.
    pub truncated: bool,
    /// Whether the caller asked for `?explain=true`.
    pub explain: bool,
    /// Whether this record crossed the slow-query threshold (also pinned
    /// in the slow log).
    pub slow: bool,
    /// Per-stage wall nanoseconds, indexed by the `STAGE_*` constants.
    pub stages_ns: [u64; 6],
    /// End-to-end wall nanoseconds inside the handler.
    pub total_ns: u64,
    /// Modelled (vtime) execution nanoseconds, when executed.
    pub vtime_execute_ns: u64,
    /// Modelled (vtime) marshalling nanoseconds, when executed.
    pub vtime_encode_ns: u64,
    /// Response body bytes (the payload, not any explain envelope).
    pub bytes_out: u64,
    /// What the cache said about this key.
    pub verdict: CacheVerdict,
    /// Estimated-vs-actual cost, for requests that executed.
    pub cost: Option<CostPair>,
    /// Admission math, for requests that reached admission.
    pub admission: Option<AdmissionSnapshot>,
}

impl RequestRecord {
    /// Wall milliseconds end to end.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Modelled (vtime) milliseconds charged to this request.
    pub fn modelled_ms(&self) -> f64 {
        (self.vtime_execute_ns + self.vtime_encode_ns) as f64 / 1e6
    }

    /// The record as the JSON object `/debug/requests` and
    /// `?explain=true` serve. Shape is a compatibility contract (golden
    /// test in `service.rs`).
    pub fn to_json(&self) -> Value {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut doc = jobj! {
            "seq" => self.seq as i64,
            "trace_id" => self.trace.to_string(),
            "span_id" => self.span.to_string(),
            "disposition" => self.disposition.as_str(),
            "status" => self.status as i64,
            "tenant" => self.tenant.as_str(),
            "url" => self.url.as_str(),
            "fingerprint" => format!("{:016x}", self.fingerprint),
            "explain" => self.explain,
            "slow" => self.slow,
            "truncated" => self.truncated,
            "bytes_out" => self.bytes_out as i64,
            "wall_ms" => jobj! {
                "total" => ms(self.total_ns),
                "parse" => ms(self.stages_ns[STAGE_PARSE]),
                "plan" => ms(self.stages_ns[STAGE_PLAN]),
                "cache" => ms(self.stages_ns[STAGE_CACHE]),
                "admission" => ms(self.stages_ns[STAGE_ADMISSION]),
                "execute" => ms(self.stages_ns[STAGE_EXECUTE]),
                "encode" => ms(self.stages_ns[STAGE_ENCODE]),
            },
            "vtime_ms" => jobj! {
                "execute" => ms(self.vtime_execute_ns),
                "encode" => ms(self.vtime_encode_ns),
                "total" => self.modelled_ms(),
            },
            "cache" => jobj! { "verdict" => self.verdict.as_str() },
        };
        if let Some(cost) = &self.cost {
            let ratio = |act: u64, est: u64| {
                if est == 0 {
                    Value::Null
                } else {
                    Value::from(act as f64 / est as f64)
                }
            };
            let obj = doc.as_object_mut().expect("record doc is an object");
            obj.insert(
                "cost".to_string(),
                jobj! {
                    "estimated" => cost.estimated.to_json(),
                    "actual" => cost.actual.to_json(),
                    "estimated_modelled_ms" => ms(cost.estimated_ns),
                    "actual_modelled_ms" => ms(cost.actual_ns),
                    "ratio" => jobj! {
                        "seconds" => ratio(cost.actual_ns, cost.estimated_ns),
                        "points" => ratio(cost.actual.points as u64, cost.estimated.points as u64),
                        "bytes" => ratio(cost.actual.bytes as u64, cost.estimated.bytes as u64),
                        "blocks" => ratio(cost.actual.blocks as u64, cost.estimated.blocks as u64),
                    },
                },
            );
        }
        if let Some(adm) = &self.admission {
            let f = |v: f64| if v.is_nan() { Value::Null } else { Value::from(v) };
            let obj = doc.as_object_mut().expect("record doc is an object");
            obj.insert(
                "admission".to_string(),
                jobj! {
                    "decision" => adm.decision.as_str(),
                    "estimated_secs" => adm.estimated_secs,
                    "tokens_before" => f(adm.tokens_before),
                    "tokens_after" => f(adm.tokens_after),
                    "rate" => adm.rate,
                    "burst" => adm.burst,
                    "retry_after_secs" => adm.retry_after_secs as i64,
                },
            );
        }
        doc
    }
}

/// What the service hands the recorder: borrowed strings, stack data, no
/// heap. [`QueryRecorder::record`] copies it into a recycled slot.
#[derive(Debug, Clone, Copy)]
pub struct Draft<'a> {
    /// Normalized request key (path + query, `explain` stripped).
    pub url: &'a str,
    /// Tenant header value (or `"anonymous"`).
    pub tenant: &'a str,
    /// Trace id of the request's server-side span.
    pub trace: TraceId,
    /// Span id of the request's server-side span.
    pub span: SpanId,
    /// Normalized plan fingerprint ([`fingerprint64`] of `url`), or 0 to
    /// have it hashed only where a record is read or copied out.
    pub fingerprint: u64,
    /// Final disposition.
    pub disposition: Disposition,
    /// HTTP status served.
    pub status: u16,
    /// Cache probe verdict.
    pub verdict: CacheVerdict,
    /// Whether `?explain=true` was requested.
    pub explain: bool,
    /// Per-stage wall nanoseconds.
    pub stages_ns: [u64; 6],
    /// End-to-end wall nanoseconds.
    pub total_ns: u64,
    /// Modelled execution nanoseconds.
    pub vtime_execute_ns: u64,
    /// Modelled marshalling nanoseconds.
    pub vtime_encode_ns: u64,
    /// Payload bytes out.
    pub bytes_out: u64,
    /// Estimated-vs-actual costs, when executed.
    pub cost: Option<CostPair>,
    /// Admission math, when evaluated.
    pub admission: Option<AdmissionSnapshot>,
}

impl<'a> Draft<'a> {
    /// A draft with everything zeroed except identity.
    pub fn new(url: &'a str, tenant: &'a str, trace: TraceId, span: SpanId) -> Draft<'a> {
        Draft {
            url,
            tenant,
            trace,
            span,
            fingerprint: 0,
            disposition: Disposition::Error,
            status: 0,
            verdict: CacheVerdict::Absent,
            explain: false,
            stages_ns: [0; 6],
            total_ns: 0,
            vtime_execute_ns: 0,
            vtime_encode_ns: 0,
            bytes_out: 0,
            cost: None,
            admission: None,
        }
    }

    /// Materialize the owned record the `?explain=true` envelope and the
    /// slow log keep: whole strings, and the fingerprint hashed here if
    /// the draft left it 0.
    pub fn to_record(&self, seq: u64, slow: bool) -> RequestRecord {
        RequestRecord {
            seq,
            disposition: self.disposition,
            status: self.status,
            trace: self.trace,
            span: self.span,
            fingerprint: if self.fingerprint == 0 {
                fingerprint64(self.url)
            } else {
                self.fingerprint
            },
            tenant: self.tenant.to_string(),
            url: self.url.to_string(),
            truncated: self.truncated(),
            explain: self.explain,
            slow,
            stages_ns: self.stages_ns,
            total_ns: self.total_ns,
            vtime_execute_ns: self.vtime_execute_ns,
            vtime_encode_ns: self.vtime_encode_ns,
            bytes_out: self.bytes_out,
            verdict: self.verdict,
            cost: self.cost,
            admission: self.admission,
        }
    }

    /// Overwrite a ring slot with this draft, field by field. The strings
    /// are cut to the slot's capacity, so this never allocates. The slot
    /// keeps only the first [`URL_BYTES`] of the key, so a longer key is
    /// hashed whole here: every view of the request then carries the same
    /// fingerprint.
    fn store(&self, slot: &mut RequestRecord, seq: u64, slow: bool) {
        slot.seq = seq;
        slot.disposition = self.disposition;
        slot.status = self.status;
        slot.trace = self.trace;
        slot.span = self.span;
        slot.fingerprint = if self.fingerprint == 0 && self.url.len() > URL_BYTES {
            fingerprint64(self.url)
        } else {
            self.fingerprint
        };
        store_clipped(&mut slot.tenant, self.tenant, TENANT_BYTES);
        store_clipped(&mut slot.url, self.url, URL_BYTES);
        slot.truncated = self.truncated();
        slot.explain = self.explain;
        slot.slow = slow;
        slot.stages_ns = self.stages_ns;
        slot.total_ns = self.total_ns;
        slot.vtime_execute_ns = self.vtime_execute_ns;
        slot.vtime_encode_ns = self.vtime_encode_ns;
        slot.bytes_out = self.bytes_out;
        slot.verdict = self.verdict;
        // A hit has neither block: writing just the `None` tags keeps its
        // store off the cache lines a full copy of each would touch.
        match self.cost {
            Some(cost) => slot.cost = Some(cost),
            None => slot.cost = None,
        }
        match self.admission {
            Some(adm) => slot.admission = Some(adm),
            None => slot.admission = None,
        }
    }

    fn truncated(&self) -> bool {
        self.tenant.len() > TENANT_BYTES || self.url.len() > URL_BYTES
    }
}

/// The normalized plan fingerprint: FNV-1a folded over 8-byte chunks, so
/// hashing an 80-byte key costs ~10 multiplies. Identical normalized keys
/// — and therefore identical plans — collapse to one value whatever their
/// disposition. The hot path does not compute it for keys that fit a
/// slot: the ring stores 0 and readers derive it from the stored key.
/// A key longer than [`URL_BYTES`] is hashed whole at record time, since
/// its slot keeps only a prefix; [`Draft::to_record`] (the explain
/// envelope, the slow-log pin) hashes the whole key too.
pub fn fingerprint64(s: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = s.as_bytes();
    let mut h = OFFSET ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    (h ^ tail).wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Max tenant bytes a slot stores before truncating.
pub const TENANT_BYTES: usize = 24;
/// Max url bytes a slot stores before truncating.
pub const URL_BYTES: usize = 160;
/// Ring capacity, in records, of the service's recorder.
pub(crate) const RING_CAPACITY: usize = 512;

/// Overwrite `dst` with the longest prefix of `src` that fits in `cap`
/// bytes and ends on a char boundary. Slot strings hold `cap` bytes of
/// capacity from construction, so this never allocates.
fn store_clipped(dst: &mut String, src: &str, cap: usize) {
    dst.clear();
    dst.push_str(&src[..src.floor_char_boundary(cap)]);
}

/// The ring proper. `head` counts every record written; record `seq`
/// lives in `slots[seq % slots.len()]` until `head` passes
/// `seq + slots.len()`.
struct Ring {
    slots: Vec<RequestRecord>,
    head: u64,
}

impl Ring {
    /// Clones of the first `limit` live records `keep` accepts, newest
    /// first.
    fn newest_first(
        &self,
        limit: usize,
        keep: impl Fn(&RequestRecord) -> bool,
    ) -> Vec<RequestRecord> {
        let cap = self.slots.len() as u64;
        (self.head.saturating_sub(cap)..self.head)
            .rev()
            .map(|seq| &self.slots[(seq % cap) as usize])
            .filter(|rec| keep(rec))
            .take(limit)
            .cloned()
            .collect()
    }
}

/// Fill in the fingerprints the hot path left 0 (see [`fingerprint64`]).
fn with_fingerprints(mut recs: Vec<RequestRecord>) -> Vec<RequestRecord> {
    for rec in &mut recs {
        if rec.fingerprint == 0 {
            rec.fingerprint = fingerprint64(&rec.url);
        }
    }
    recs
}

/// Filters for [`QueryRecorder::recent`] — the `/debug/requests` query
/// parameters.
#[derive(Debug, Default, Clone)]
pub struct RecordFilter {
    /// Keep only this disposition.
    pub disposition: Option<Disposition>,
    /// Keep only records at least this many wall milliseconds end to end.
    pub min_ms: Option<f64>,
    /// Keep only this tenant.
    pub tenant: Option<String>,
    /// Newest-first result cap (default 50).
    pub limit: Option<usize>,
}

impl RecordFilter {
    fn matches(&self, rec: &RequestRecord) -> bool {
        self.disposition.is_none_or(|d| rec.disposition == d)
            && self.min_ms.is_none_or(|ms| !(rec.total_ms() < ms && rec.modelled_ms() < ms))
            && self.tenant.as_ref().is_none_or(|t| rec.tenant == *t)
    }
}

/// How many slow records stay pinned (oldest evicted).
const SLOW_PINNED: usize = 64;

/// The per-service flight recorder. Constructing one registers the
/// qlog/slow-query metrics (with `HELP` strings); a service with the
/// recorder disabled never constructs it, so those series never appear in
/// the exposition.
pub struct QueryRecorder {
    ring: Mutex<Ring>,
    slow_ns: u64,
    pinned: Mutex<VecDeque<RequestRecord>>,
    records_total: Arc<monster_obs::Counter>,
    slow_total: Arc<monster_obs::Counter>,
    ratio_histos: [Arc<monster_obs::Histo>; 4],
}

/// Ratio histogram stage labels, index-aligned with
/// `QueryRecorder::ratio_histos`.
pub const RATIO_STAGES: [&str; 4] = ["seconds", "points", "bytes", "blocks"];

impl QueryRecorder {
    /// A recorder with `capacity` ring slots (min 1) pinning records
    /// slower than `slow_ms` wall-or-modelled milliseconds.
    pub fn new(capacity: usize, slow_ms: f64) -> QueryRecorder {
        // Touch the ticker once so calibration never lands mid-request.
        let _ = ticker();
        let ratio_histos = RATIO_STAGES.map(|stage| {
            monster_obs::histo_help(
                &format!("monster_builder_cost_estimate_ratio{{stage=\"{stage}\"}}"),
                "Measured-over-estimated query cost per request, by cost stage; \
                 drift from 1.0 means the plan-time estimator admission trusts \
                 is mispricing queries.",
            )
        });
        let blank = Draft::new("", "", TraceId(0), SpanId(0)).to_record(0, false);
        let slots = (0..capacity.max(1))
            .map(|_| RequestRecord {
                tenant: String::with_capacity(TENANT_BYTES),
                url: String::with_capacity(URL_BYTES),
                ..blank.clone()
            })
            .collect();
        QueryRecorder {
            ring: Mutex::new(Ring { slots, head: 0 }),
            slow_ns: (slow_ms.max(0.0) * 1e6) as u64,
            pinned: Mutex::new(VecDeque::with_capacity(SLOW_PINNED)),
            records_total: monster_obs::counter_help(
                "monster_builder_qlog_records_total",
                "Flight-recorder records captured on the query path.",
            ),
            slow_total: monster_obs::counter_help(
                "monster_builder_slow_queries_total",
                "Requests over the slow-query threshold, pinned in the slow log.",
            ),
            ratio_histos,
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// Records captured since construction.
    pub fn recorded(&self) -> u64 {
        self.ring.lock().head
    }

    /// Capture one request; returns the record's sequence number and
    /// whether it crossed the slow-query threshold. The common
    /// (cache-hit) disposition takes one uncontended lock and copies the
    /// draft into a recycled slot — no heap; see the module docs.
    pub fn record(&self, d: &Draft<'_>) -> (u64, bool) {
        let slow = self.is_slow(d);
        let seq = {
            let mut ring = self.ring.lock();
            let seq = ring.head;
            ring.head += 1;
            let cap = ring.slots.len() as u64;
            d.store(&mut ring.slots[(seq % cap) as usize], seq, slow);
            seq
        };

        // Everything below is off the common path: estimator-accuracy
        // histograms fire only when a request executed, the slow log only
        // past the threshold.
        if let Some(cost) = &d.cost {
            let pairs: [(u64, u64); 4] = [
                (cost.actual_ns, cost.estimated_ns),
                (cost.actual.points as u64, cost.estimated.points as u64),
                (cost.actual.bytes as u64, cost.estimated.bytes as u64),
                (cost.actual.blocks as u64, cost.estimated.blocks as u64),
            ];
            for (histo, (act, est)) in self.ratio_histos.iter().zip(pairs) {
                if est > 0 {
                    histo.observe(act as f64 / est as f64);
                }
            }
        }
        if slow {
            self.slow_total.inc();
            let rec = d.to_record(seq, true);
            let mut pinned = self.pinned.lock();
            if pinned.len() == SLOW_PINNED {
                pinned.pop_front();
            }
            pinned.push_back(rec);
        }
        (seq, slow)
    }

    /// Bring `monster_builder_qlog_records_total` up to date with the
    /// ring head. The hot path never touches the Prometheus counter —
    /// `head` already counts records, so the counter is reconciled here,
    /// at scrape/debug time, instead of costing an extra atomic RMW per
    /// request. Monotone: concurrent syncs can only add.
    pub fn sync_counters(&self) {
        let head = self.recorded();
        let published = self.records_total.get();
        if head > published {
            self.records_total.add(head - published);
        }
    }

    /// Would this draft cross the slow-query threshold (wall *or*
    /// modelled time)? Used by `?explain=true` to report the flag before
    /// the pinned copy is queryable.
    pub fn is_slow(&self, d: &Draft<'_>) -> bool {
        self.slow_ns > 0
            && (d.total_ns >= self.slow_ns
                || d.vtime_execute_ns + d.vtime_encode_ns >= self.slow_ns)
    }

    /// Newest-first records matching `filter`.
    pub fn recent(&self, filter: &RecordFilter) -> Vec<RequestRecord> {
        let limit = filter.limit.unwrap_or(50);
        with_fingerprints(self.ring.lock().newest_first(limit, |rec| filter.matches(rec)))
    }

    /// All live records carrying `trace`, newest first.
    pub fn by_trace(&self, trace: TraceId) -> Vec<RequestRecord> {
        with_fingerprints(self.ring.lock().newest_first(usize::MAX, |rec| rec.trace == trace))
    }

    /// The pinned slow-query log, newest first.
    pub fn slow_log(&self) -> Vec<RequestRecord> {
        self.pinned.lock().iter().rev().cloned().collect()
    }

    /// The `GET /debug/requests` document.
    pub fn debug_json(&self, filter: &RecordFilter) -> Value {
        self.sync_counters();
        let requests: Vec<Value> = self.recent(filter).iter().map(|r| r.to_json()).collect();
        let slow: Vec<Value> = self.slow_log().iter().map(|r| r.to_json()).collect();
        jobj! {
            "capacity" => self.capacity() as i64,
            "recorded_total" => self.recorded() as i64,
            "slow_threshold_ms" => self.slow_ns as f64 / 1e6,
            "requests" => Value::Array(requests),
            "slow" => Value::Array(slow),
        }
    }
}

// ---------------------------------------------------------------------------
// Base64 (for the explain envelope's byte-exact payload)
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 4648, padded). The explain envelope carries the
/// response payload through this so compressed bodies survive JSON.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { B64[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { B64[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Inverse of [`base64_encode`]; `None` on malformed input.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        Some(match c {
            b'A'..=b'Z' => (c - b'A') as u32,
            b'a'..=b'z' => (c - b'a' + 26) as u32,
            b'0'..=b'9' => (c - b'0' + 52) as u32,
            b'+' => 62,
            b'/' => 63,
            _ => return None,
        })
    }
    let s = s.as_bytes();
    if !s.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    for chunk in s.chunks(4) {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * pad;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft_with<'a>(url: &'a str, seq_hint: u64) -> Draft<'a> {
        let mut d = Draft::new(url, "anonymous", TraceId(seq_hint as u128 + 1), SpanId(7));
        d.fingerprint = fingerprint64(url);
        d.disposition = Disposition::Hit;
        d.status = 200;
        d.verdict = CacheVerdict::Valid;
        d.total_ns = 1_000;
        d.stages_ns[STAGE_CACHE] = 1_000;
        d.bytes_out = 42;
        d
    }

    #[test]
    fn record_roundtrips_every_field() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = Draft::new("/v1/metrics?start=a&end=b", "tenant-x", TraceId(0xabcd), SpanId(9));
        d.fingerprint = 0xfeed;
        d.disposition = Disposition::Miss;
        d.status = 200;
        d.verdict = CacheVerdict::Invalidated;
        d.explain = true;
        d.stages_ns = [1, 2, 3, 4, 5, 6];
        d.total_ns = 21;
        d.vtime_execute_ns = 1_000_000;
        d.vtime_encode_ns = 2_000_000;
        d.bytes_out = 711;
        let est = QueryCost { points: 100, bytes: 800, queries: 5, ..QueryCost::default() };
        let act = QueryCost {
            points: 90,
            bytes: 750,
            queries: 5,
            blocks_cold: 2,
            bytes_cold: 64,
            ..QueryCost::default()
        };
        d.cost = Some(CostPair { estimated: est, actual: act, estimated_ns: 500, actual_ns: 450 });
        d.admission = Some(AdmissionSnapshot {
            decision: AdmissionDecision::Charged,
            estimated_secs: 1.5,
            tokens_before: 10.0,
            tokens_after: 8.5,
            rate: 2.0,
            burst: 20.0,
            retry_after_secs: 0,
        });
        rec.record(&d);
        let got = rec.recent(&RecordFilter::default());
        assert_eq!(got.len(), 1);
        let r = &got[0];
        assert_eq!(r.seq, 0);
        assert_eq!(r.disposition, Disposition::Miss);
        assert_eq!(r.status, 200);
        assert_eq!(r.trace, TraceId(0xabcd));
        assert_eq!(r.span, SpanId(9));
        assert_eq!(r.fingerprint, 0xfeed);
        assert_eq!(r.tenant, "tenant-x");
        assert_eq!(r.url, "/v1/metrics?start=a&end=b");
        assert!(r.explain && !r.truncated);
        assert_eq!(r.stages_ns, [1, 2, 3, 4, 5, 6]);
        assert_eq!(r.vtime_execute_ns, 1_000_000);
        assert_eq!(r.bytes_out, 711);
        assert_eq!(r.verdict, CacheVerdict::Invalidated);
        let cost = r.cost.expect("cost present");
        assert_eq!(cost.actual.bytes_cold, 64);
        assert_eq!(cost.estimated.points, 100);
        let adm = r.admission.expect("admission present");
        assert_eq!(adm.decision, AdmissionDecision::Charged);
        assert_eq!(adm.tokens_after, 8.5);
    }

    #[test]
    fn ring_recycles_oldest_slots() {
        let rec = QueryRecorder::new(16, 0.0);
        for i in 0..40u64 {
            rec.record(&draft_with("/u", i));
        }
        let all = rec.recent(&RecordFilter { limit: Some(100), ..RecordFilter::default() });
        assert_eq!(all.len(), 16, "ring holds exactly capacity");
        assert_eq!(all[0].seq, 39, "newest first");
        assert_eq!(all.last().unwrap().seq, 24, "oldest surviving = head - capacity");
        assert_eq!(rec.recorded(), 40);
    }

    #[test]
    fn filters_match_disposition_tenant_and_min_ms() {
        let rec = QueryRecorder::new(64, 0.0);
        let mut a = draft_with("/a", 0);
        a.disposition = Disposition::Miss;
        a.total_ns = 5_000_000; // 5 ms
        rec.record(&a);
        let mut b = draft_with("/b", 1);
        b.tenant = "rogue";
        rec.record(&b);
        rec.record(&draft_with("/c", 2));

        let miss = rec.recent(&RecordFilter {
            disposition: Some(Disposition::Miss),
            ..RecordFilter::default()
        });
        assert_eq!(miss.len(), 1);
        assert_eq!(miss[0].url, "/a");

        let slow = rec.recent(&RecordFilter { min_ms: Some(1.0), ..RecordFilter::default() });
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].url, "/a");

        let rogue = rec
            .recent(&RecordFilter { tenant: Some("rogue".to_string()), ..RecordFilter::default() });
        assert_eq!(rogue.len(), 1);
        assert_eq!(rogue[0].url, "/b");

        let limited = rec.recent(&RecordFilter { limit: Some(2), ..RecordFilter::default() });
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn by_trace_finds_all_records_of_a_trace() {
        let rec = QueryRecorder::new(64, 0.0);
        for i in 0..6u64 {
            let mut d = draft_with("/t", i);
            d.trace = TraceId(if i % 2 == 0 { 0x11 } else { 0x22 });
            rec.record(&d);
        }
        let found = rec.by_trace(TraceId(0x11));
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|r| r.trace == TraceId(0x11)));
        assert!(rec.by_trace(TraceId(0x99)).is_empty());
    }

    #[test]
    fn slow_records_pin_and_survive_ring_recycling() {
        let rec = QueryRecorder::new(16, 1.0); // 1 ms threshold
        let mut slow = draft_with("/slow", 0);
        slow.disposition = Disposition::Miss;
        slow.vtime_execute_ns = 5_000_000; // 5 ms modelled
        rec.record(&slow);
        // Lap the ring twice; the pinned record must survive.
        for i in 0..40u64 {
            rec.record(&draft_with("/fast", i));
        }
        let pinned = rec.slow_log();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].url, "/slow");
        assert!(pinned[0].slow);
        let live = rec.recent(&RecordFilter { limit: Some(100), ..RecordFilter::default() });
        assert!(live.iter().all(|r| r.url != "/slow"), "ring copy recycled");
    }

    #[test]
    fn long_strings_truncate_and_flag() {
        let rec = QueryRecorder::new(16, 0.0);
        let long_url = format!("/v1/metrics?{}", "x".repeat(400));
        let mut d = draft_with(&long_url, 0);
        d.tenant = "a-tenant-name-well-beyond-twenty-four-bytes";
        rec.record(&d);
        let got = &rec.recent(&RecordFilter::default())[0];
        assert!(got.truncated);
        assert_eq!(got.url.len(), URL_BYTES);
        assert_eq!(got.tenant.len(), TENANT_BYTES);
        assert!(long_url.starts_with(&got.url));

        // Cuts land on char boundaries: a 25-byte tenant whose last
        // two-byte char straddles the cap, and a key whose byte
        // `URL_BYTES` falls inside a three-byte char.
        let tenant = format!("a{}", "é".repeat(12));
        let url = format!("/v1/metrics?{}{}", "x".repeat(URL_BYTES - 13), "€".repeat(4));
        assert!(!url.is_char_boundary(URL_BYTES));
        let mut d = draft_with(&url, 1);
        d.tenant = &tenant;
        rec.record(&d);
        let got = &rec.recent(&RecordFilter::default())[0];
        assert!(got.truncated);
        assert!(tenant.starts_with(&got.tenant), "{:?}", got.tenant);
        assert_eq!(got.tenant.len(), TENANT_BYTES - 1);
        assert!(url.starts_with(&got.url), "{:?}", got.url);
        assert_eq!(got.url.len(), URL_BYTES - 1);
    }

    #[test]
    fn long_keys_carry_one_fingerprint_everywhere() {
        let rec = QueryRecorder::new(16, 1.0);
        let key = format!("/v1/metrics?{}", "k".repeat(188));
        assert_eq!(key.len(), 200);
        let want = fingerprint64(&key);
        for eager in [false, true] {
            let mut d = draft_with(&key, 0);
            d.fingerprint = if eager { want } else { 0 };
            d.vtime_execute_ns = 5_000_000; // over the 1 ms threshold
            let (seq, slow) = rec.record(&d);
            assert!(slow);
            let ring = &rec.recent(&RecordFilter::default())[0];
            assert_eq!(ring.seq, seq);
            assert_eq!(ring.fingerprint, want, "ring record, eager={eager}");
            assert_eq!(rec.slow_log()[0].fingerprint, want, "slow log, eager={eager}");
            assert_eq!(d.to_record(seq, slow).fingerprint, want, "explain, eager={eager}");
        }
    }

    #[test]
    fn concurrent_writers_and_readers_see_whole_records() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 10_000;
        let rec = QueryRecorder::new(64, 0.0);
        let done = std::sync::atomic::AtomicBool::new(false);
        // All five threads start together, so the writes and reads overlap.
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        // Every field a reader checks is derived from the url, so a record
        // stitched from two writes cannot pass.
        let check = |r: &RequestRecord| {
            let want = format!("/v1/metrics?trace={:x}&bytes={}", r.trace.0, r.bytes_out);
            assert_eq!(r.url, want, "torn record");
            assert_eq!(r.span, SpanId(r.bytes_out));
            assert_eq!(r.fingerprint, fingerprint64(&r.url));
        };
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (rec, start) = (&rec, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..PER_WRITER {
                            let trace = TraceId(((w as u128) << 32) | i as u128);
                            let bytes = w * 1_000_003 + i * 7;
                            let url = format!("/v1/metrics?trace={:x}&bytes={bytes}", trace.0);
                            let mut d = Draft::new(&url, "anonymous", trace, SpanId(bytes));
                            d.disposition = Disposition::Hit;
                            d.bytes_out = bytes;
                            rec.record(&d);
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let all = RecordFilter { limit: Some(64), ..RecordFilter::default() };
                start.wait();
                let mut reads = 0;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || reads == 0 {
                    let recent = rec.recent(&all);
                    recent.iter().for_each(check);
                    if let Some(r) = recent.last() {
                        let same = rec.by_trace(r.trace);
                        same.iter().for_each(check);
                        assert!(same.iter().all(|x| x.trace == r.trace));
                    }
                    reads += 1;
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(rec.recorded(), WRITERS * PER_WRITER);
        let last = rec.recent(&RecordFilter { limit: Some(100), ..RecordFilter::default() });
        assert_eq!(last.len(), 64);
        last.iter().for_each(check);
    }

    #[test]
    fn fingerprint_is_stable_and_key_sensitive() {
        let a = fingerprint64("/v1/metrics?start=1&end=2");
        assert_eq!(a, fingerprint64("/v1/metrics?start=1&end=2"));
        assert_ne!(a, fingerprint64("/v1/metrics?start=1&end=3"));
        assert_ne!(fingerprint64(""), fingerprint64("\0"));
    }

    #[test]
    fn base64_roundtrips_arbitrary_bytes() {
        for len in [0usize, 1, 2, 3, 4, 57, 256] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).expect("decodes"), data, "len {len}");
        }
        assert_eq!(base64_encode(b"Mon"), "TW9u");
        assert_eq!(base64_encode(b"M"), "TQ==");
        assert!(base64_decode("bad!").is_none());
        assert!(base64_decode("abc").is_none());
    }

    #[test]
    fn ticks_convert_to_plausible_nanos() {
        let t0 = ticks_now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ns = ticks_to_ns(ticks_now().saturating_sub(t0));
        assert!(ns > 2_000_000, "5 ms sleep measured as {ns} ns");
        assert!(ns < 1_000_000_000, "5 ms sleep measured as {ns} ns");
    }

    #[test]
    fn record_json_shape_carries_cost_and_admission() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = draft_with("/v1/metrics?x=1", 0);
        d.disposition = Disposition::Rejected;
        d.status = 429;
        d.admission = Some(AdmissionSnapshot {
            decision: AdmissionDecision::RejectedTenantBudget,
            estimated_secs: 3.0,
            tokens_before: 1.0,
            tokens_after: 1.0,
            rate: 2.0,
            burst: 20.0,
            retry_after_secs: 1,
        });
        rec.record(&d);
        let doc = rec.debug_json(&RecordFilter::default());
        assert_eq!(doc.get("capacity").unwrap().as_i64().unwrap(), 16);
        let reqs = doc.get("requests").unwrap().as_array().unwrap();
        assert_eq!(reqs.len(), 1);
        let adm = reqs[0].get("admission").expect("admission block");
        assert_eq!(adm.get("decision").unwrap().as_str().unwrap(), "rejected_tenant_budget");
        assert_eq!(adm.get("retry_after_secs").unwrap().as_i64().unwrap(), 1);
        assert!(reqs[0].get("cost").is_none(), "no cost block without execution");
    }
}
