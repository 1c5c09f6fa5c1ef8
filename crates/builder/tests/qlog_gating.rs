//! HELP-gated metric registration for the flight recorder.
//!
//! The recorder's metric families (`monster_builder_qlog_*`,
//! `monster_builder_slow_queries_total`,
//! `monster_builder_cost_estimate_ratio{stage=...}`) register inside
//! `QueryRecorder::new` — so a deployment that disables the recorder
//! exposes *none* of them, and a dashboard can tell "recorder off" from
//! "no slow queries yet" by the family's absence. The obs registry is
//! process-global, which is why this assertion lives in its own
//! integration-test binary: any other test that constructs an enabled
//! service would pollute the exposition. For the same reason this file
//! holds exactly ONE `#[test]` — the disabled-state scrape must happen
//! before any enabled recorder exists in the process.

use monster_builder::service::{router, QlogConfig, ServiceConfig};
use monster_http::{Request, Router};
use monster_tsdb::{Db, DbConfig};
use monster_util::NodeId;
use std::sync::Arc;

const QLOG_FAMILIES: [&str; 3] = [
    "monster_builder_qlog_records_total",
    "monster_builder_slow_queries_total",
    "monster_builder_cost_estimate_ratio",
];

fn service(qlog: QlogConfig) -> Router {
    router(
        Arc::new(Db::new(DbConfig::default())),
        NodeId::enumerate(2, 4),
        ServiceConfig { qlog, ..ServiceConfig::default() },
    )
}

fn scrape(service: &Router) -> String {
    let resp = service.dispatch(&Request::get("/metrics"));
    assert_eq!(resp.status.0, 200);
    String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition")
}

#[test]
fn recorder_metrics_register_only_when_the_recorder_is_enabled() {
    // Phase 1 — disabled: no recorder is ever constructed, so the
    // exposition must not mention any qlog family, and the ring-backed
    // endpoints 404.
    let off = service(QlogConfig { enabled: false, ..QlogConfig::default() });
    let text = scrape(&off);
    for family in QLOG_FAMILIES {
        assert!(
            !text.contains(family),
            "`{family}` leaked into the exposition with the recorder disabled"
        );
    }
    assert_eq!(off.dispatch(&Request::get("/debug/requests")).status.0, 404);
    assert_eq!(
        off.dispatch(&Request::get("/debug/requests/00000000000000000000000000000001")).status.0,
        404
    );

    // Phase 2 — enabled (same process, same global registry): every
    // family appears, each with a `# HELP` line, and `/debug/requests`
    // serves the (empty) ring.
    let on = service(QlogConfig::default());
    let text = scrape(&on);
    for family in QLOG_FAMILIES {
        assert!(text.contains(family), "`{family}` missing with the recorder enabled");
        assert!(
            text.lines().any(|l| {
                l.strip_prefix("# HELP ")
                    .is_some_and(|rest| rest.split(['{', ' ']).next() == Some(family))
            }),
            "`{family}` has no HELP line"
        );
    }
    // The ratio histogram is labeled per stage.
    for stage in ["seconds", "points", "bytes", "blocks"] {
        let series = format!("monster_builder_cost_estimate_ratio{{stage=\"{stage}\"}}");
        assert!(text.contains(&series), "`{series}` missing from the exposition");
    }
    assert_eq!(on.dispatch(&Request::get("/debug/requests")).status.0, 200);
}
