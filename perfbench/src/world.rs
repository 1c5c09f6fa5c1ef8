//! Pipeline assembly from the repository's public components, wired the
//! way `examples/distributed.rs` and `monster_core::Monster` wire them:
//! simulated fleet + scheduler → collector → durable `Db` (WAL on) →
//! Metrics Builder router behind `monster_http::Server`.

use crate::gen::mix;
use crate::ledger::Ledger;
use monster_builder::service::{router, ServiceConfig};
use monster_collector::{Collector, CollectorConfig};
use monster_http::{Router, Server};
use monster_redfish::bmc::BmcConfig;
use monster_redfish::client::SweepOutcome;
use monster_redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster_scheduler::{Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator};
use monster_tsdb::{DataPoint, Db, DbConfig, RecoveryReport};
use monster_util::{EpochSecs, NodeId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Quanah's node count (§III-B).
pub const NODES: usize = 467;
/// Collection cadence (§III-B4).
pub const INTERVAL_SECS: i64 = 60;
/// Points per `Db::write_batch` call (§III-C's batch size).
pub const CHUNK: usize = 10_000;

/// `DbConfig` as `monster_core::Monster` opens it: one-day shards, shipped
/// WAL tuning (group commit), everything else default.
pub fn db_config() -> DbConfig {
    DbConfig { shard_duration: 86_400, ..DbConfig::default() }
}

/// The simulated fleet, its scheduler, and the collector reading them.
pub struct World {
    pub cluster: SimulatedCluster,
    pub qmaster: Qmaster,
    pub collector: Collector,
    pub now: EpochSecs,
    pub start: EpochSecs,
}

/// Timings and counts of one collection interval.
pub struct Interval {
    pub points: usize,
    pub collect_s: f64,
    pub write_s: Vec<f64>,
    pub advance_s: f64,
    pub sweep: Option<SweepOutcome>,
}

impl Interval {
    /// Wall time of collect plus write (the freshness-setting part).
    pub fn busy_s(&self) -> f64 {
        self.collect_s + self.write_s.iter().sum::<f64>()
    }
}

impl World {
    /// Build the fleet, seeded from `seed`, and pre-generate
    /// `horizon_secs` of the shipped scheduler workload. The job stream
    /// keeps `WorkloadConfig`'s own seed, so every benchmark seed drives
    /// the same job mix (and so the same amount of work per interval);
    /// the benchmark seed varies sensor readings and BMC behaviour.
    pub fn new(seed: u64, horizon_secs: i64) -> World {
        let cluster = SimulatedCluster::new(ClusterConfig {
            nodes: NODES,
            seed: mix(seed, 1),
            bmc: BmcConfig::default(),
            ..ClusterConfig::default()
        });
        let qm_config = QmasterConfig { nodes: NODES, ..QmasterConfig::default() };
        let start = qm_config.start_time;
        let mut qmaster = Qmaster::new(qm_config);
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        generator.drive(&mut qmaster, start, start + horizon_secs);
        World {
            cluster,
            qmaster,
            collector: Collector::new(CollectorConfig::default()),
            now: start,
            start,
        }
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.cluster.node_ids().to_vec()
    }

    /// Advance scheduler and sensors by one cadence (harness cost, kept
    /// outside every end-to-end figure). Returns its wall seconds.
    fn advance(&mut self) -> f64 {
        let t = Instant::now();
        self.now = self.now + INTERVAL_SECS;
        self.qmaster.run_until(self.now);
        let qm = &self.qmaster;
        self.cluster.step(INTERVAL_SECS as f64, |n| qm.utilization(n));
        t.elapsed().as_secs_f64()
    }

    /// One live interval: `Collector::collect_interval` (Redfish sweep,
    /// pre-processing, detectors), then `Db::write_batch` in chunks.
    pub fn live_interval(&mut self, db: &Db, ledger: &mut Ledger) -> Result<Interval, String> {
        let advance_s = self.advance();
        let unit = ledger.begin_unit();
        let t = Instant::now();
        let out = ledger.span("collector", || {
            self.collector.collect_interval(&self.cluster, &self.qmaster, self.now)
        });
        let collect_s = t.elapsed().as_secs_f64();
        let write_s = write_chunks(db, &out.points, ledger)?;
        ledger.end_unit(unit);
        Ok(Interval {
            points: out.points.len(),
            collect_s,
            write_s,
            advance_s,
            sweep: Some(out.sweep),
        })
    }

    /// One bulk-path interval (`collect_interval_direct`, no Redfish wire
    /// layer), as `Monster::run_intervals_bulk` loads history.
    pub fn bulk_interval(&mut self, db: &Db, ledger: &mut Ledger) -> Result<Interval, String> {
        let advance_s = self.advance();
        let unit = ledger.begin_unit();
        let t = Instant::now();
        let points = ledger.span("collector", || {
            self.collector.collect_interval_direct(&self.cluster, &self.qmaster, self.now)
        });
        let collect_s = t.elapsed().as_secs_f64();
        let write_s = write_chunks(db, &points, ledger)?;
        ledger.end_unit(unit);
        Ok(Interval { points: points.len(), collect_s, write_s, advance_s, sweep: None })
    }
}

fn write_chunks(db: &Db, points: &[DataPoint], ledger: &mut Ledger) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(points.len() / CHUNK + 1);
    for chunk in points.chunks(CHUNK) {
        let t = Instant::now();
        ledger.span("tsdb.write", || db.write_batch(chunk)).map_err(|e| format!("write: {e}"))?;
        out.push(t.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// A durable data directory inside the checkout, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn new(tag: &str) -> DataDir {
        let dir = Path::new(".bench_data").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DataDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of every file in the directory (WAL plus segments).
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| rd.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// Open (or reopen) the durable store at `dir`.
pub fn open_db(dir: &Path) -> Result<(Db, RecoveryReport), String> {
    Db::recover(db_config(), dir).map_err(|e| format!("recover: {e}"))
}

/// The read side: the served router, plus two in-process twins over the
/// same `Db` for the traced ledger and the correctness references — one
/// with the cache off (replays what a miss executes) and one configured
/// like the server (times what a hit costs).
pub struct ReadSide {
    pub server: Server,
    pub twin: Router,
    pub cached_twin: Router,
    pub config: ServiceConfig,
}

impl ReadSide {
    pub fn new(db: &Arc<Db>, nodes: &[NodeId], config: ServiceConfig) -> Result<ReadSide, String> {
        let service = |config| router(Arc::clone(db), nodes.to_vec(), config);
        let server = Server::spawn(0, service(config.clone())).map_err(|e| format!("bind: {e}"))?;
        let twin = service(ServiceConfig { cache_entries: 0, coalesce: false, ..config.clone() });
        let cached_twin = service(config.clone());
        Ok(ReadSide { server, twin, cached_twin, config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_counts(seed: u64) -> Vec<usize> {
        let mut world = World::new(seed, 3600);
        let db = Db::new(db_config());
        let mut ledger = Ledger::new(false);
        (0..4).map(|_| world.live_interval(&db, &mut ledger).expect("interval").points).collect()
    }

    #[test]
    fn same_seed_same_point_counts_different_seed_differs() {
        let a = point_counts(11);
        assert_eq!(a, point_counts(11));
        assert_ne!(a, point_counts(12));
    }
}
