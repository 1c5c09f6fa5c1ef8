//! End-to-end pipeline benchmark for MonSTer.
//!
//! ```text
//! perfbench --workload <live_ingest|fleet_history|dashboard_live> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as its last stdout line: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`. See README.md.

mod gen;
mod ledger;
mod pace;
mod reads;
mod stats;
mod workloads;
mod world;

use workloads::Args;

/// End-to-end metrics, printed by untraced runs.
const END_TO_END: &[&str] =
    &["setup_s", "ingest_pts_per_s", "disk_bytes_per_point", "history_p50_ms", "rss_peak_mb"];

/// Per-layer metrics, printed by traced runs.
const PER_LAYER: &[&str] = &[
    "interval_p95_ms",
    "history_p90_ms",
    "dash_p50_ms",
    "dash_p99_ms",
    "recover_pts_per_s",
    "sim.advance_ms",
    "collector.interval_p50_ms",
    "collector.interval_p95_ms",
    "collector.points",
    "redfish.sweep_vtime_s",
    "redfish.retries",
    "redfish.failures",
    "tsdb.write_batch_p50_ms",
    "tsdb.write_batch_p95_ms",
    "tsdb.wal_bytes_per_point",
    "tsdb.wal_syncs",
    "tsdb.recover_ms",
    "tsdb.replayed_points",
    "tsdb.points_scanned",
    "tsdb.summary_hit_ratio",
    "tsdb.query_vtime_ms",
    "builder.plan_ms",
    "builder.execute_ms",
    "builder.dispatch_ms",
    "builder.cache_hit_ratio",
    "builder.coalesced",
    "builder.rejected",
    "builder.panels_over_shipped_budget",
    "json.serialize_ms",
    "json.raw_bytes",
    "compress.ms",
    "compress.mb_per_s",
    "compress.ratio",
    "http.overhead_ms",
    "net.transfer_vtime_ms",
    "client.late_ms",
    "ledger.collector.self_ms",
    "ledger.tsdb.write.self_ms",
    "ledger.tsdb.recover.self_ms",
    "ledger.builder.service.self_ms",
    "ledger.builder.plan.self_ms",
    "ledger.builder.execute.self_ms",
    "ledger.json.self_ms",
    "ledger.compress.self_ms",
    "ledger.net.read.self_ms",
    "ledger.stopwatch_ms",
    "ledger.unattributed_ms",
    "trace.overhead_frac",
    "failed_frac",
    "fail.transport",
    "fail.status",
    "fail.rejected_429",
    "fail.mismatch",
    "fail.storage",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, started: std::time::Instant::now() })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let f = &outcome.failures;
    eprintln!(
        "{}: attempted {} failed {} (transport {}, non-2xx {}, 429 {}, mismatch {}, storage {})",
        args.workload,
        f.attempted,
        f.failed(),
        f.transport,
        f.status,
        f.rejected,
        f.mismatch,
        f.storage
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.select(names);
    if metrics.names().len() != names.len() {
        eprintln!("perfbench: {}: a listed metric was not measured", args.workload);
        std::process::exit(1);
    }
    println!("{}", metrics.result_line(f));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, in the same order.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = monster_json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
