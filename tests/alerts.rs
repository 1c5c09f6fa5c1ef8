//! Integration: the alerting layer end-to-end — streaming detectors in
//! the collector, the rule engine fed by collection health, and
//! `GET /v1/alerts` served over a real socket.
//!
//! Assertions here stick to node-scoped alerts: the freshness tracker is
//! process-global, so cluster-scope burn alerts can reflect other tests
//! running in this binary.

use monster::alert::{AnomalyKind, RuleId, Severity, Signal};
use monster::http::{Client, Request, Status};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::resilience::ResilienceConfig;
use monster::scheduler::{JobShape, JobSpec};
use monster::util::{NodeId, UserName};
use monster::{Monster, MonsterConfig};

fn deployment(nodes: usize, seed: u64) -> Monster {
    Monster::new(MonsterConfig {
        nodes,
        seed,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    })
}

fn submit_one_job(m: &mut Monster) {
    let t = m.now();
    m.qmaster_mut().submit_at(
        t + 1,
        JobSpec {
            user: UserName::new("alice"),
            name: "steady.sh".into(),
            shape: JobShape::Serial { slots: 36 },
            runtime_secs: 1_000_000,
            priority: 0,
            mem_per_slot_gib: 1.0,
        },
    );
}

/// Node-scoped active alerts matching `rule`.
fn active_by_rule(m: &Monster, rule: RuleId) -> Vec<monster::alert::Alert> {
    m.alerts().unwrap().active().into_iter().filter(|a| a.key.rule == rule).collect()
}

#[test]
fn dead_node_raises_one_critical_with_job_attribution() {
    let mut m = deployment(6, 41);
    submit_one_job(&mut m);
    m.run_interval().unwrap();
    let victim: NodeId = *m
        .node_ids()
        .iter()
        .find(|&&n| !m.qmaster().jobs_on(n).is_empty())
        .expect("job placed somewhere");

    // Kill the BMC; the breaker trips and live readings drop to zero.
    m.cluster().set_bmc_alive(victim, false).unwrap();
    let mut raised_total = 0;
    for _ in 0..6 {
        raised_total += m.run_interval().unwrap().alerts.raised;
    }
    let unreachable = active_by_rule(&m, RuleId::NodeUnreachable);
    assert_eq!(unreachable.len(), 1, "{unreachable:?}");
    let alert = &unreachable[0];
    assert_eq!(alert.key.node, Some(victim));
    assert_eq!(alert.severity, Severity::Critical);
    assert_eq!(alert.flaps, 0);
    assert!(!alert.jobs.is_empty(), "no job attribution on {alert:?}");
    assert_eq!(alert.jobs, m.qmaster().jobs_on(victim));
    assert!(raised_total >= 1);
    // The weaker degraded rule must not double-fire on a fully dead node.
    assert!(active_by_rule(&m, RuleId::CollectionDegraded).is_empty());

    // Recovery: the probe closes the breaker, the hold-down runs out, and
    // the alert resolves exactly once, flap-free.
    m.cluster().set_bmc_alive(victim, true).unwrap();
    for _ in 0..8 {
        m.run_interval().unwrap();
    }
    assert!(active_by_rule(&m, RuleId::NodeUnreachable).is_empty());
    let history = m.alerts().unwrap().history();
    let resolved: Vec<_> =
        history.iter().filter(|a| a.key.rule == RuleId::NodeUnreachable).collect();
    assert_eq!(resolved.len(), 1, "{history:?}");
    assert_eq!(resolved[0].flaps, 0);
    assert!(resolved[0].resolved_at.is_some());
}

#[test]
fn power_fault_fires_streaming_detectors_with_trace_link() {
    let mut m = deployment(4, 42);
    let victim = m.node_ids()[2];
    // Warm the detectors up on healthy physics.
    for _ in 0..12 {
        let s = m.run_interval().unwrap();
        assert_eq!(s.anomaly_events, 0, "false positive during warm-up");
    }
    // A fault no load change explains: +450 W on the power rail, past
    // both the 400 W slew bound and the 320 W deviation floor.
    m.cluster().set_power_offset(victim, 450.0).unwrap();
    let mut events = 0;
    for _ in 0..3 {
        events += m.run_interval().unwrap().anomaly_events;
    }
    assert!(events >= 1, "detectors missed a 450 W step");
    let anomalies: Vec<_> = m
        .alerts()
        .unwrap()
        .active()
        .into_iter()
        .filter(|a| matches!(a.key.rule, RuleId::Anomaly(..)))
        .collect();
    assert!(!anomalies.is_empty());
    for a in &anomalies {
        assert_eq!(a.key.node, Some(victim), "anomaly on the wrong node: {a:?}");
        assert!(a.trace_id.is_some(), "no exemplar trace on {a:?}");
    }
    assert!(anomalies
        .iter()
        .any(|a| a.key.rule == RuleId::Anomaly(Signal::Power, AnomalyKind::RateOfChange)));

    // Repair: the offset clears, detectors see healthy values again, and
    // after the clear hysteresis + hold-down the alerts resolve.
    m.cluster().set_power_offset(victim, 0.0).unwrap();
    for _ in 0..10 {
        m.run_interval().unwrap();
    }
    assert!(
        m.alerts().unwrap().active().iter().all(|a| !matches!(a.key.rule, RuleId::Anomaly(..))),
        "anomaly alerts did not resolve"
    );
}

#[test]
fn calm_deployment_raises_no_node_alerts() {
    let mut m = deployment(6, 43);
    submit_one_job(&mut m);
    for _ in 0..20 {
        let s = m.run_interval().unwrap();
        assert_eq!(s.anomaly_events, 0, "detector fired on healthy physics");
    }
    let node_scoped: Vec<_> =
        m.alerts().unwrap().active().into_iter().filter(|a| a.key.node.is_some()).collect();
    assert!(node_scoped.is_empty(), "{node_scoped:?}");
}

#[test]
fn alerts_api_serves_list_detail_and_silences() {
    let mut m = deployment(5, 44);
    let victim = m.node_ids()[0];
    m.run_interval().unwrap();
    m.cluster().set_bmc_alive(victim, false).unwrap();
    for _ in 0..5 {
        m.run_interval().unwrap();
    }
    let server = m.serve_api(0).unwrap();
    let client = Client::new();

    // List: the unreachable critical is there with its node address.
    let list = client.send_ok(server.addr(), &Request::get("/v1/alerts")).unwrap();
    let doc = list.json_body().unwrap();
    assert!(doc.get("counts").unwrap().get("critical").unwrap().as_f64().unwrap() >= 1.0);
    let active = doc.get("active").unwrap().as_array().unwrap();
    let unreachable = active
        .iter()
        .find(|a| a.get("rule").and_then(|r| r.as_str()) == Some("collection/unreachable"))
        .expect("unreachable alert in list");
    assert_eq!(unreachable.get("node").unwrap().as_str(), Some(victim.bmc_addr().as_str()));
    assert_eq!(unreachable.get("severity").unwrap().as_str(), Some("critical"));
    assert_eq!(unreachable.get("state").unwrap().as_str(), Some("firing"));

    // Detail: same alert by id, field-complete.
    let id = unreachable.get("id").unwrap().as_i64().unwrap();
    let detail = client
        .send_ok(server.addr(), &Request::get(&format!("/v1/alerts/{id}")))
        .unwrap()
        .json_body()
        .unwrap();
    assert_eq!(detail.get("rule").unwrap().as_str(), Some("collection/unreachable"));
    assert!(detail.get("flaps").unwrap().as_f64().unwrap() == 0.0);
    assert!(detail.get("jobs").unwrap().as_array().is_some());

    // Unknown id and non-numeric id fail cleanly.
    let missing = client.send(server.addr(), &Request::get("/v1/alerts/999999")).unwrap();
    assert_eq!(missing.status, Status::NOT_FOUND);
    let garbage = client.send(server.addr(), &Request::get("/v1/alerts/banana")).unwrap();
    assert_eq!(garbage.status, Status::BAD_REQUEST);

    // Silences: empty list, then one visible after registering.
    let silences = client.send_ok(server.addr(), &Request::get("/v1/silences")).unwrap();
    assert_eq!(silences.json_body().unwrap().get("silences").unwrap().as_array().unwrap().len(), 0);
    m.alerts().unwrap().add_silence(Some(victim), "collection/", m.now() + 3600, "maint", m.now());
    let silences = client.send_ok(server.addr(), &Request::get("/v1/silences")).unwrap();
    assert_eq!(silences.json_body().unwrap().get("silences").unwrap().as_array().unwrap().len(), 1);
}

#[test]
fn alerts_api_is_404_when_alerting_disabled() {
    let mut m = Monster::new(MonsterConfig {
        nodes: 2,
        seed: 45,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        alerting: None,
        detectors: None,
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    });
    assert!(m.alerts().is_none());
    m.run_interval().unwrap();
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    for path in ["/v1/alerts", "/v1/alerts/1", "/v1/silences"] {
        let resp = client.send(server.addr(), &Request::get(path)).unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND, "{path}");
    }
}

/// `monster watch` prints the alert engine's transitions from collected
/// data and ends with a one-line summary.
#[test]
fn watch_cli_runs_on_the_alert_engine() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_monster"))
        .args(["watch", "--nodes", "8", "--intervals", "12"])
        .output()
        .expect("run the monster binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    let summary = stdout.lines().last().expect("summary line");
    assert!(summary.contains(" alert transitions over 12 intervals ("), "{stdout}");
    assert!(summary.ends_with(" active)"), "{stdout}");
}
