//! `monster` — the command-line entry point.
//!
//! The paper's pitch is a monitoring tool that works "out of the box";
//! this binary is that box:
//!
//! ```text
//! monster demo  [--nodes N] [--intervals N]    collect + query a deployment
//! monster serve [--nodes N] [--port P]         run the Metrics Builder API
//! monster query [--nodes N] <influxql>         run one query over demo data
//! monster watch [--nodes N] [--intervals N]    collect, print alert transitions
//! monster top   [--nodes N] [--intervals N]    fleet dashboard snapshots
//! monster report [--nodes N] [--hours H]       per-user utilization report
//! ```

use monster::builder::{BuilderRequest, ExecMode};
use monster::redfish::bmc::BmcConfig;
use monster::tsdb::Aggregation;
use monster::util::bytesize::ByteSize;
use monster::{Monster, MonsterConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  monster demo  [--nodes N] [--intervals N]\n  monster serve [--nodes N] [--port P]\n  monster query [--nodes N] <influxql>\n  monster watch [--nodes N] [--intervals N]\n  monster top   [--nodes N] [--intervals N]\n  monster report [--nodes N] [--hours H]"
    );
    ExitCode::from(2)
}

/// Parse `--key value` flags; returns (flags, positional args).
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if let Some(v) = it.next() {
                flags.insert(key.to_string(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn deployment(nodes: usize) -> Monster {
    Monster::new(MonsterConfig { nodes, bmc: BmcConfig::default(), ..MonsterConfig::default() })
}

fn cmd_demo(flags: &HashMap<String, String>) -> ExitCode {
    let nodes = flag_usize(flags, "nodes", 16);
    let intervals = flag_usize(flags, "intervals", 5);
    println!("monster demo: {nodes} nodes, {intervals} x 60 s intervals\n");
    let mut m = deployment(nodes);
    for s in m.run_intervals(intervals) {
        println!(
            "  {}  {:5} points  sweep {}  failures {}",
            s.time, s.points, s.collection_time, s.bmc_failures
        );
    }
    let stats = m.db().stats();
    println!(
        "\nstored {} points / {} series / {} at rest",
        stats.points,
        stats.cardinality,
        ByteSize(stats.encoded_bytes as u64)
    );
    let req =
        BuilderRequest::new(m.now() - intervals as i64 * 60, m.now() + 60, 60, Aggregation::Mean)
            .expect("window");
    let out = m.builder_query(&req, ExecMode::Concurrent { workers: 8 }).expect("query");
    println!("builder query: {} points, simulated {}", out.points_out, out.query_processing_time());
    ExitCode::SUCCESS
}

fn cmd_serve(flags: &HashMap<String, String>) -> ExitCode {
    let nodes = flag_usize(flags, "nodes", 16);
    let port = flag_usize(flags, "port", 8080) as u16;
    let mut m = deployment(nodes);
    println!("collecting one hour of history on {nodes} nodes...");
    m.run_intervals_bulk(60);
    let server = match m.serve_api(port) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("Metrics Builder API on {}", server.base_url());
    println!(
        "try: curl '{}/v1/metrics?start={}&end={}&interval=5m&aggregation=max'",
        server.base_url(),
        (m.now() - 3600).to_rfc3339(),
        m.now().to_rfc3339()
    );
    println!("collection continues every 60 s; ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if let Err(e) = m.run_interval() {
            eprintln!("collection error: {e}");
            return ExitCode::FAILURE;
        }
    }
}

fn cmd_query(flags: &HashMap<String, String>, positional: &[String]) -> ExitCode {
    let Some(text) = positional.first() else {
        eprintln!("query: missing InfluxQL string");
        return ExitCode::from(2);
    };
    let nodes = flag_usize(flags, "nodes", 8);
    let mut m = deployment(nodes);
    m.run_intervals_bulk(30);
    // SHOW meta-queries discover the schema.
    if text.trim().to_ascii_uppercase().starts_with("SHOW") {
        return match monster::tsdb::query::MetaQuery::parse(text) {
            Ok(q) => {
                for row in q.run(m.db()) {
                    println!("{row}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("query error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match m.db().query_str(text) {
        Ok((rs, cost)) => {
            for series in &rs.series {
                println!("{}", series.key);
                for (t, v) in &series.points {
                    println!("  {t}  {v}");
                }
            }
            println!(
                "\n{} series, {} points; simulated {}",
                rs.series.len(),
                rs.point_count(),
                m.db().simulate_elapsed(&cost)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_watch(flags: &HashMap<String, String>) -> ExitCode {
    let nodes = flag_usize(flags, "nodes", 16);
    let intervals = flag_usize(flags, "intervals", 30);
    println!("monster watch: {nodes} nodes, {intervals} intervals, alerts from collected data\n");
    let mut m = deployment(nodes);
    let engine = m.alerts().cloned().expect("alerting is on by default");
    let (mut raised, mut cleared) = (0, 0);
    for _ in 0..intervals {
        let s = m.run_interval().expect("interval");
        if s.alerts.raised + s.alerts.resolved == 0 {
            continue;
        }
        // The engine stamps transitions with the interval's virtual time.
        let raises = engine.active().into_iter().filter(|a| a.raised_at == s.time);
        let clears = engine.history().into_iter().filter(|a| a.resolved_at == Some(s.time));
        for (verb, a) in raises.map(|a| ("RAISE", a)).chain(clears.map(|a| ("clear", a))) {
            println!(
                "  [{}] {verb} {:<8} {}: {}",
                s.time,
                a.severity.name(),
                a.key.rule.name(),
                a.description
            );
        }
        raised += s.alerts.raised;
        cleared += s.alerts.resolved;
    }
    println!(
        "\n{} alert transitions over {intervals} intervals ({raised} raised, {cleared} cleared, {} active)",
        raised + cleared,
        engine.active().len()
    );
    ExitCode::SUCCESS
}

fn cmd_top(flags: &HashMap<String, String>) -> ExitCode {
    let nodes = flag_usize(flags, "nodes", 24);
    let intervals = flag_usize(flags, "intervals", 10);
    let mut m = deployment(nodes);
    println!("monster top: {nodes} nodes, one frame per collection interval\n");
    for frame in 0..intervals {
        let s = m.run_interval().expect("interval");
        let mut rows: Vec<(String, f64, f64, f64)> = m
            .node_ids()
            .iter()
            .map(|&n| {
                let sensors = m.cluster().sensors(n).expect("node");
                let util = m.qmaster().utilization(n);
                (n.label(), util, sensors.power, sensors.cpu_temps[0].max(sensors.cpu_temps[1]))
            })
            .collect();
        rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite power"));
        let cluster_util: f64 = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64 * 100.0;
        let cluster_kw: f64 = rows.iter().map(|r| r.2).sum::<f64>() / 1000.0;
        println!(
            "[{}] frame {}/{intervals}: util {:5.1}%  power {:6.2} kW  running {}  pending {}  sweep {}",
            s.time,
            frame + 1,
            cluster_util,
            cluster_kw,
            m.qmaster().running_jobs().len(),
            m.qmaster().pending_jobs().len(),
            s.collection_time,
        );
        println!("  {:<8} {:>6} {:>9} {:>8}", "hottest", "util", "power", "cpu max");
        for (label, util, power, temp) in rows.iter().take(5) {
            println!("  {label:<8} {:>5.0}% {:>7.1} W {:>6.1} C", util * 100.0, power, temp);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_report(flags: &HashMap<String, String>) -> ExitCode {
    let nodes = flag_usize(flags, "nodes", 32);
    let hours = flag_usize(flags, "hours", 6) as i64;
    let mut m = deployment(nodes);
    println!("simulating {hours} h of cluster activity on {nodes} nodes...\n");
    let start = m.now();
    m.run_intervals_bulk((hours * 60) as usize);
    let report = monster::analysis::ClusterReport::build(m.qmaster(), start, m.now());
    print!("{}", report.to_text());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let (flags, positional) = parse_flags(&args[1..]);
    match cmd.as_str() {
        "demo" => cmd_demo(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags, &positional),
        "watch" => cmd_watch(&flags),
        "top" => cmd_top(&flags),
        "report" => cmd_report(&flags),
        _ => usage(),
    }
}
