//! `fleet-64`: 64 tenants, alternating SSB and TPC-CH at scale 0.001,
//! with the default `FleetConfig`, `TenantSpec` and guardrail, run through
//! `CheckpointedFleet` with a checkpoint every 4 rounds — from admission
//! through training, then one full guardrail budget window (16 rounds) of
//! advice, canaries and observation — and then resumed from disk.
//!
//! One block is one such fleet lifecycle. Set-up is admission (schema,
//! data, cluster and advisor per tenant), done three times per block.

use crate::measure::{cpu_seconds, median, Digest};
use crate::{Block, Span};
use lpa_cluster::{
    direct_deploy, observe_window, Cluster, ClusterConfig, EngineProfile, HardwareProfile,
};
use lpa_service::{Benchmark, FleetConfig, TenantSpec};
use lpa_store::CheckpointedFleet;
use std::path::Path;
use std::time::Instant;

/// Rounds between checkpoints.
const CADENCE: u64 = 4;

#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Tenants admitted.
    pub size: usize,
    /// Training episodes per tenant (`TenantSpec` default: 12).
    pub episodes: Option<usize>,
    pub setups: usize,
    pub resumes: usize,
}

impl Params {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                size: 4,
                episodes: Some(2),
                setups: 2,
                resumes: 2,
            }
        } else {
            Self {
                size: 64,
                episodes: None,
                setups: 5,
                resumes: 5,
            }
        }
    }
}

fn config(p: &Params) -> FleetConfig {
    FleetConfig {
        max_tenants: p.size,
        ..FleetConfig::default()
    }
}

/// The tenants. Their seeds drive each advisor's own randomness and are
/// fixed configuration; the workload seed generates the databases every
/// tenant's advice is scored on.
fn specs(p: &Params) -> Vec<TenantSpec> {
    (0..p.size)
        .map(|i| {
            let bench = if i % 2 == 0 {
                Benchmark::Ssb
            } else {
                Benchmark::TpcCh
            };
            let mut spec = TenantSpec::new(format!("tenant-{i:03}"), bench, 0.001, 1000 + i as u64);
            if let Some(e) = p.episodes {
                spec.episodes = e;
            }
            spec
        })
        .collect()
}

fn admit(p: &Params, root: &Path, every: u64) -> Result<CheckpointedFleet, String> {
    let _ = std::fs::remove_dir_all(root);
    let mut fleet = CheckpointedFleet::create(config(p), root, every).map_err(|e| e.to_string())?;
    for spec in specs(p) {
        fleet.admit(spec).map_err(|e| e.to_string())?;
    }
    Ok(fleet)
}

/// Open canaries and canaries started so far, across the fleet.
fn canary_state(fleet: &CheckpointedFleet) -> (usize, u64) {
    let f = fleet.fleet();
    (0..f.tenant_count())
        .filter_map(|t| f.tenant_guardrail(t).ok())
        .fold((0, 0), |(open, started), g| {
            (
                open + usize::from(g.canary_open()),
                started + g.accounting().canaries_started,
            )
        })
}

fn fingerprints(fleet: &CheckpointedFleet) -> Vec<u64> {
    let f = fleet.fleet();
    (0..f.tenant_count())
        .map(|t| f.tenant_weight_fingerprint(t).unwrap_or(0))
        .collect()
}

pub fn block(
    seed: u64,
    p: &Params,
    traced: bool,
    dir: &crate::common::ScratchDir,
    index: usize,
    setups: &mut Vec<f64>,
) -> Block {
    let mut b = Block {
        traced,
        ..Block::default()
    };
    let root = dir.sub(&format!("fleet-{index}"));
    // Traced blocks checkpoint by hand so the store calls can be timed.
    let every = if traced { u64::MAX } else { CADENCE };
    let mut fleet = None;
    for _ in 0..p.setups {
        // Drop the previous admission first: one fleet in memory at a time.
        fleet.take();
        let t0 = cpu_seconds();
        let admitted = admit(p, &root, every);
        setups.push(cpu_seconds() - t0);
        fleet = Some(admitted);
    }
    let mut fleet = match fleet {
        Some(Ok(f)) => f,
        Some(Err(e)) => {
            b.fail(format!("admission: {e}"));
            return b;
        }
        None => return b,
    };
    let cfg = config(p);
    let episodes = specs(p).first().map_or(0, |s| s.episodes);
    let train_rounds = episodes.div_ceil(cfg.episodes_per_slice.max(1)) as u64;
    let rounds = (train_rounds + cfg.guardrail.budget_window).next_multiple_of(CADENCE);

    // The rounds differ in kind (training, canary, quiet), so the whole
    // lifecycle is the fixed unit of work for the slice rate.
    let cpu0 = cpu_seconds();
    let mut lifecycle = Span::default();
    let mut checkpoint_s = Vec::new();
    // Traced blocks split round CPU by whether the round observed a canary
    // (one was open when it began, or one started in it).
    let mut canary = Vec::new();
    for r in 1..=rounds {
        let before = traced.then(|| canary_state(&fleet));
        let t0 = Instant::now();
        let c0 = cpu_seconds();
        fleet.run_round();
        if traced && r % CADENCE == 0 {
            let k0 = cpu_seconds();
            fleet.checkpoint_now();
            checkpoint_s.push(cpu_seconds() - k0);
        }
        let cpu = cpu_seconds() - c0;
        if let Some((open, started)) = before {
            canary.push((open > 0 || canary_state(&fleet).1 > started, cpu));
        }
        b.round_cpu_ms.push(cpu * 1e3);
        lifecycle.work += p.size as f64;
        lifecycle.cpu_s += cpu;
        lifecycle.wall_s += t0.elapsed().as_secs_f64();
    }
    b.cpu_s = cpu_seconds() - cpu0;
    b.slices = lifecycle;
    if traced {
        let (observing, quiet): (Vec<_>, Vec<_>) = canary.iter().partition(|(o, _)| *o);
        let ms = |v: &[(bool, f64)]| median(&v.iter().map(|(_, c)| c * 1e3).collect::<Vec<_>>());
        b.notes.push(format!(
            "rounds observing a canary: {} of {rounds}, {:.1}% of round CPU, median {:.1} ms; \
             other rounds: median {:.1} ms",
            observing.len(),
            observing.iter().map(|(_, c)| c).sum::<f64>() / lifecycle.cpu_s * 100.0,
            ms(&observing),
            ms(&quiet),
        ));
    }

    let report = fleet.report();
    let fps = fingerprints(&fleet);
    let mut d = Digest::default();
    for fp in &fps {
        d.word(*fp);
    }
    let mut slices_run = 0;
    let mut skipped = 0;
    let mut deployments = 0;
    let mut episodes_run = 0;
    for t in &report.per_tenant {
        slices_run += t.counters.slices_run;
        skipped += t.counters.slices_skipped;
        deployments += t.counters.deployments;
        episodes_run += t.episode as u64;
    }
    b.attempted += report
        .per_tenant
        .iter()
        .map(|t| t.counters.slices_issued)
        .sum::<u64>();
    if report.quarantined > 0 || skipped > 0 {
        b.fail(format!(
            "{} tenants quarantined, {skipped} slices skipped",
            report.quarantined
        ));
    }
    b.steps = Span {
        work: (episodes_run * cfg.tmax as u64) as f64,
        ..lifecycle
    };

    // Advised layouts, scored on a fresh cluster per tenant: one
    // observation window over the tenant's workload.
    let f = fleet.fleet();
    let mut charged = 0.0;
    let mut queries = 0;
    let mut repartitions = 0;
    let mut probe_queries = 0;
    let mut sim = 0.0;
    let mut observe_ms = Vec::new();
    for t in 0..f.tenant_count() {
        let (Ok(schema), Ok(workload), Ok(cluster)) = (
            f.tenant_schema(t),
            f.tenant_workload(t),
            f.tenant_cluster(t),
        ) else {
            b.fail(format!("tenant {t} unreachable"));
            continue;
        };
        charged += cluster.clock();
        queries += cluster.queries_executed();
        repartitions += cluster.tables_repartitioned();
        let slices = report
            .per_tenant
            .get(t)
            .map_or(0, |r| r.counters.slices_run);
        probe_queries += slices * workload.queries().len().min(cfg.probe_queries) as u64;
        let mut fresh = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard())
                .with_seed(lpa_par::derive_stream(seed, t as u64)),
        );
        direct_deploy(&mut fresh, cluster.deployed());
        d.str(&cluster.deployed().describe(schema));
        let t0 = cpu_seconds();
        let obs = observe_window(&mut fresh, workload, &workload.uniform_frequencies());
        observe_ms.push((cpu_seconds() - t0) * 1e3);
        sim += obs.weighted_seconds;
        charged += fresh.clock();
        b.attempted += obs.total();
        if obs.failed > 0 {
            b.fail(format!("tenant {t}: {} scoring queries failed", obs.failed));
        }
    }
    // The slice loop advances each tenant's clock by one idle window per
    // slice; that is waiting, not work charged to the database.
    charged -= slices_run as f64 * cfg.window_seconds;
    b.advised_sim_s = sim;
    b.charged_h = charged / 3600.0;
    b.attempted += queries;

    b.count("cluster.queries_executed", queries as f64);
    b.count("cluster.tables_repartitioned", repartitions as f64);
    b.count(
        "guardrail.canaries_started",
        report.guardrail.canaries_started as f64,
    );
    b.count("guardrail.commits", report.guardrail.commits as f64);
    b.count("guardrail.rollbacks", report.guardrail.rollbacks() as f64);
    b.count(
        "guardrail.observe_queries",
        queries.saturating_sub(probe_queries) as f64,
    );
    b.count("fleet.slices_run", slices_run as f64);
    b.count("fleet.slices_skipped", skipped as f64);
    b.count("fleet.episodes_run", episodes_run as f64);
    b.count("fleet.deployments", deployments as f64);
    b.count(
        "store.checkpoints_written",
        report.store.checkpoints_written as f64,
    );
    b.count(
        "store.bytes_on_disk",
        crate::common::bytes_on_disk(&root) as f64,
    );
    b.count(
        "store.journal_records",
        fleet.journal().map_or(0, |j| j.records_on_disk()) as f64,
    );
    b.count("store.write_failures", report.store.write_failures as f64);
    if report.store.write_failures > 0 {
        b.fail(format!(
            "{} store writes failed",
            report.store.write_failures
        ));
    }
    b.time("cluster.observe_ms_p50", median(&observe_ms));
    if traced {
        b.time("store.checkpoint_s", median(&checkpoint_s));
    }
    drop(fleet);

    // Whole-fleet resume from disk, repeated on the same files.
    for _ in 0..p.resumes {
        let t0 = cpu_seconds();
        let resumed = CheckpointedFleet::resume_or(cfg.clone(), specs(p), &root, every);
        b.resume_cpu_s.push(cpu_seconds() - t0);
        b.attempted += 1;
        match resumed {
            Ok(r) => {
                let rep = r.report();
                if r.fleet().round() != rounds
                    || fingerprints(&r) != fps
                    || rep.quarantined > 0
                    || rep.store.corruptions_detected > 0
                {
                    b.fail(format!(
                        "resume: round {} of {rounds}, {} quarantined, {} corruptions, fingerprints {}",
                        r.fleet().round(),
                        rep.quarantined,
                        rep.store.corruptions_detected,
                        if fingerprints(&r) == fps { "equal" } else { "differ" }
                    ));
                }
            }
            Err(e) => b.fail(format!("resume: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    b.seal(&mut d);
    b
}
