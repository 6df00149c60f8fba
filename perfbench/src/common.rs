//! Inputs shared by the workloads: everything is generated from the
//! workload seed, and scratch files live under the checkout.

use lpa_cluster::{direct_deploy, Cluster, ClusterConfig, EngineProfile, HardwareProfile};
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_partition::Partitioning;
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Seed of the advisors' own randomness (network initialisation,
/// exploration, replay sampling). It is configuration, like the layer
/// widths, and stays fixed: the workload seed generates the inputs — data
/// and workload mixes — so runs on different seeds do comparable work.
pub const AGENT_SEED: u64 = 0xA11CE;

/// Cost-model parameters matching the simulated cluster's hardware.
pub fn cost_model() -> NetworkCostModel {
    let hw = HardwareProfile::standard();
    NetworkCostModel::new(CostParams {
        nodes: hw.nodes,
        net_bandwidth: hw.net_bandwidth,
        scan_bandwidth: hw.mem_scan_bandwidth,
        cpu_tuple_cost: hw.cpu_tuple_cost,
        ..CostParams::standard()
    })
}

/// The full simulated PgXL-like cluster; its data is generated from `seed`.
pub fn pgxl_cluster(schema: &Schema, seed: u64) -> Cluster {
    Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()).with_seed(seed),
    )
}

/// A workload mix with every query's weight drawn from [0.5, 1.5).
pub fn seeded_mix(workload: &Workload, seed: u64) -> FrequencyVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let counts: Vec<f64> = workload
        .queries()
        .iter()
        .map(|_| 0.5 + rng.gen::<f64>())
        .collect();
    FrequencyVector::from_counts(&counts, workload.slots())
}

/// Deploy `p` on `cluster` and run the mix once: simulated workload
/// seconds under the layout (repartitioning is charged to the clock but
/// not to the returned runtime).
pub fn score(
    cluster: &mut Cluster,
    workload: &Workload,
    mix: &FrequencyVector,
    p: &Partitioning,
) -> f64 {
    direct_deploy(cluster, p);
    cluster.run_workload(workload, mix)
}

/// Per-run scratch directory for checkpoints, inside the working
/// directory (the checkout). Removed by [`ScratchDir`]'s drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn bytes_on_disk(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_on_disk(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
