//! Seeded input generation. Everything the program under test receives —
//! the fleet and scheduler seeds, the fleet-history request sequence, the
//! dashboard panel draws — derives from the `--seed` argument here, so
//! the same seed replays the same inputs and different seeds differ.

use monster_bench::storm::{self, Panel};
use monster_builder::BuilderRequest;
use monster_tsdb::Aggregation;
use monster_util::EpochSecs;

/// SplitMix64 of `seed` salted with `stream`: independent sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    storm::splitmix(seed ^ storm::splitmix(stream.wrapping_add(0xA5A5_5A5A)))
}

/// A small deterministic generator (SplitMix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        storm::splitmix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

pub const INTERVALS: [(&str, i64); 3] = [("1m", 60), ("5m", 300), ("15m", 900)];
pub const AGGREGATIONS: [&str; 3] = ["max", "min", "mean"];

/// One fleet-wide `/v1/metrics` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRequest {
    pub start: i64,
    pub end: i64,
    pub interval: &'static str,
    pub interval_secs: i64,
    pub aggregation: &'static str,
    pub compress: bool,
}

impl HistoryRequest {
    pub fn url(&self) -> String {
        let mut url = format!(
            "/v1/metrics?start={}&end={}&interval={}&aggregation={}",
            EpochSecs::new(self.start).to_rfc3339(),
            EpochSecs::new(self.end).to_rfc3339(),
            self.interval,
            self.aggregation
        );
        if self.compress {
            url.push_str("&compress=true");
        }
        url
    }

    pub fn builder_request(&self) -> BuilderRequest {
        let agg = Aggregation::parse(self.aggregation).expect("generated aggregation is valid");
        let req = BuilderRequest::new(
            EpochSecs::new(self.start),
            EpochSecs::new(self.end),
            self.interval_secs,
            agg,
        )
        .expect("generated range is valid");
        if self.compress {
            req.compressed()
        } else {
            req
        }
    }
}

/// Range strata per block: one per log-quarter of the range span.
pub const STRATA: usize = 4;
/// Requests per block: every (range stratum, interval) pair once.
pub const BLOCK: usize = STRATA * INTERVALS.len();

/// Block `block` of the fleet-history mix over `[lo, hi)`. A block holds
/// every pairing of a range stratum with an interval from {1m, 5m, 15m}:
/// the strata split `[min_range, max_range]` into log-equal quarters and
/// each range sits at its stratum's log-midpoint with ±2 % seeded jitter,
/// so the block samples the log-uniform range distribution evenly, at
/// four range sizes.
/// `compress=true` is set on 9 of the 12 (3 of every 4): the plain ones
/// are one per interval, on the diagonal of the three shortest strata in
/// even blocks and of the three longest in odd ones, so a pair of blocks
/// compresses every (stratum, interval) cell at least once. The seed
/// draws the order within the block, each aggregation from
/// {max, min, mean}, each start offset, and the jitter; every URL is
/// distinct, so the response cache never hits.
///
/// The fixed composition keeps a run's percentiles from hinging on how
/// many of the few multi-second requests one seed happened to draw, and
/// the fixed range sizes keep its peak memory from hinging on how long
/// the one uncompressed 1m request of the top stratum came out (a run
/// makes about 24 requests; see README.md).
pub fn history_block(
    seed: u64,
    block: usize,
    lo: i64,
    hi: i64,
    min_range: i64,
    max_range: i64,
) -> Vec<HistoryRequest> {
    assert!(0 < min_range && min_range <= max_range && max_range <= hi - lo);
    let mut rng = Rng::new(mix(seed, 10 + block as u64));
    let step = (max_range as f64 / min_range as f64).ln() / STRATA as f64;
    let order = rng.permutation(BLOCK);
    order
        .into_iter()
        .map(|cell| {
            let (stratum, iv) = (cell / INTERVALS.len(), cell % INTERVALS.len());
            let jitter = (rng.unit() - 0.5) * 0.04;
            let range = (min_range as f64 * ((stratum as f64 + 0.5) * step + jitter).exp()) as i64;
            let range = range.clamp(min_range, max_range);
            let (interval, interval_secs) = INTERVALS[iv];
            let start = lo + (rng.unit() * (hi - lo - range + 1) as f64) as i64;
            HistoryRequest {
                start,
                end: start + range,
                interval,
                interval_secs,
                aggregation: AGGREGATIONS[rng.below(AGGREGATIONS.len())],
                compress: if block.is_multiple_of(2) {
                    stratum != iv
                } else {
                    stratum != STRATA - 1 - iv
                },
            }
        })
        .collect()
}

/// `n` probe requests over `[lo, hi)`: fleet-wide 30-minute windows at
/// 5m, compressed, with seeded aggregation and start. One request shape
/// makes the probe's median a median of like requests.
pub fn probe_requests(seed: u64, n: usize, lo: i64, hi: i64) -> Vec<HistoryRequest> {
    const RANGE: i64 = 1800;
    let mut rng = Rng::new(mix(seed, 30));
    let lo = lo.min(hi - RANGE);
    let mut out: Vec<HistoryRequest> = Vec::with_capacity(n);
    while out.len() < n {
        let start = lo + (rng.unit() * (hi - lo - RANGE + 1) as f64) as i64;
        let req = HistoryRequest {
            start,
            end: start + RANGE,
            interval: "5m",
            interval_secs: 300,
            aggregation: AGGREGATIONS[rng.below(AGGREGATIONS.len())],
            compress: true,
        };
        if !out.contains(&req) {
            out.push(req);
        }
    }
    out
}

/// The dashboard panel catalog at fleet scale: `bench::storm`'s twelve
/// sliding panels as they are, and its four closed panels mapped into a
/// history of `history_secs` (ends scaled from the storm's 4-hour seed
/// history, clamped to start at the history's first second).
pub fn dashboard_panels(history_secs: i64) -> Vec<Panel> {
    storm::catalog()
        .into_iter()
        .map(|p| match p.fixed_end {
            None => p,
            Some(end) => {
                let end = end * history_secs / storm::HISTORY_SECS;
                Panel { window_secs: p.window_secs.min(end), fixed_end: Some(end), ..p }
            }
        })
        .collect()
}

/// The request `panel` makes at live time `now`, for a history starting
/// at `origin` (closed panels are offsets from it). Panels are
/// uncompressed.
pub fn panel_request(panel: &Panel, origin: i64, now: i64) -> HistoryRequest {
    let end = panel.fixed_end.map(|e| origin + e).unwrap_or(now);
    let (interval, interval_secs) =
        *INTERVALS.iter().find(|(name, _)| *name == panel.interval).expect("catalog interval");
    let aggregation =
        *AGGREGATIONS.iter().find(|a| **a == panel.aggregation).expect("catalog aggregation");
    HistoryRequest {
        start: end - panel.window_secs,
        end,
        interval,
        interval_secs,
        aggregation,
        compress: false,
    }
}

/// One dashboard refresh: when it is due, in modelled seconds after the
/// first, and the panel it fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at: i64,
    pub panel: usize,
}

/// `bench::storm`'s subscriber `id` — the fleet `dashboard_storm` and
/// `query_observe` share — with its refresh phase shifted by the seed.
pub fn subscriber(seed: u64, id: usize, panels: usize) -> storm::Subscriber {
    let sub = storm::subscriber(id as u64, panels);
    let shift = (mix(seed, 1000 + id as u64) % sub.refresh_secs as u64) as i64;
    storm::Subscriber { phase: sub.phase + shift, ..sub }
}

/// The open-loop refreshes of storm subscribers `0..subscribers` (see
/// [`subscriber`]: a quadratic-skewed panel over `panels`, a 30, 45 or
/// 60 s refresh) over the modelled seconds `[start, start + secs)`, in
/// due order. The request rate follows from the refresh cadences: about
/// 1.44 refreshes per subscriber per modelled minute.
pub fn dashboard_arrivals(
    seed: u64,
    subscribers: usize,
    panels: usize,
    start: i64,
    secs: i64,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    for i in 0..subscribers {
        let sub = subscriber(seed, i, panels);
        let r = sub.refresh_secs;
        // `storm::Subscriber::due` fires at every t with
        // (t + phase mod r) ≡ 0 (mod r).
        let mut t = start + (r - (start + sub.phase % r) % r) % r;
        while t < start + secs {
            out.push(Arrival { at: t - start, panel: sub.panel });
            t += r;
        }
    }
    out.sort_by_key(|a| a.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LO: i64 = 1_587_340_800;
    const HI: i64 = LO + 6 * 3600;

    fn blocks(seed: u64, n: usize) -> Vec<HistoryRequest> {
        (0..n).flat_map(|b| history_block(seed, b, LO, HI, 900, 6 * 3600)).collect()
    }

    #[test]
    fn same_seed_same_requests_different_seed_differs() {
        assert_eq!(blocks(7, 20), blocks(7, 20));
        assert_ne!(blocks(7, 20), blocks(8, 20));
        let panels = dashboard_panels(3600);
        let arrivals = |seed| dashboard_arrivals(seed, 40, panels.len(), HI, 600);
        assert_eq!(arrivals(7), arrivals(7));
        assert_ne!(arrivals(7), arrivals(8));
    }

    #[test]
    fn history_blocks_follow_the_mix() {
        let reqs = blocks(3, 50);
        let urls: std::collections::HashSet<String> =
            reqs.iter().map(HistoryRequest::url).collect();
        assert_eq!(urls.len(), reqs.len(), "every key distinct");
        for block in reqs.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|r| r.compress).count(), 9, "3 of every 4");
            // The plain ones never share an interval.
            let mut plain: Vec<&str> =
                block.iter().filter(|r| !r.compress).map(|r| r.interval).collect();
            plain.sort_unstable();
            assert_eq!(plain, ["15m", "1m", "5m"]);
            for (name, _) in INTERVALS {
                assert_eq!(block.iter().filter(|r| r.interval == name).count(), STRATA);
            }
            // One range per log-quarter of [15 min, 6 h].
            let mut quarters: Vec<usize> = block
                .iter()
                .map(|r| ((r.end - r.start) as f64 / 900.0).ln() / 24f64.ln() * 4.0)
                .map(|q| q as usize)
                .collect();
            quarters.sort_unstable();
            assert_eq!(quarters, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        }
        for r in &reqs {
            assert!(r.start >= LO && r.end <= HI);
        }
        for name in AGGREGATIONS {
            assert!(reqs.iter().filter(|r| r.aggregation == name).count() > reqs.len() / 4);
        }
    }

    #[test]
    fn closed_panels_sit_inside_the_history() {
        let panels = dashboard_panels(3600);
        assert_eq!(panels.len(), storm::catalog().len());
        for p in panels.iter().filter(|p| p.fixed_end.is_some()) {
            let end = p.fixed_end.unwrap();
            assert!(end <= 3600 && end - p.window_secs >= 0);
        }
    }

    #[test]
    fn arrivals_follow_the_storm_subscribers() {
        let panels = dashboard_panels(3600).len();
        let arrivals = dashboard_arrivals(1, 50, panels, HI, 3600);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at), "in due order");
        assert!(arrivals.iter().all(|a| (0..3600).contains(&a.at) && a.panel < panels));
        // The fleet is storm's; the seed moves only the phases.
        for i in 0..50 {
            let (ours, theirs) = (subscriber(1, i, panels), storm::subscriber(i as u64, panels));
            assert_eq!((ours.panel, ours.refresh_secs), (theirs.panel, theirs.refresh_secs));
        }
        // Per modelled minute, as many refreshes as `storm` says are due
        // (`Subscriber::due(t0)` counts fires in (t0, t0 + 60]).
        for minute in 0..59 {
            let t0 = minute * 60;
            let due: usize = (0..50).map(|i| subscriber(1, i, panels).due(HI + t0)).sum();
            let here = arrivals.iter().filter(|a| t0 < a.at && a.at <= t0 + 60).count();
            assert_eq!(here, due, "minute {minute}");
        }
    }
}
