//! `offline-ssb`: the paper's offline phase on SSB. One block trains the
//! Table-1 128-64 DQN against the cost model, trains a committee of
//! subspace experts on cost-model environments, scores the naive and the
//! committee advice on the full simulated PgXL-like cluster, and writes
//! and resumes a session checkpoint.

use crate::common::{
    bytes_on_disk, cost_model, pgxl_cluster, score, seeded_mix, ScratchDir, AGENT_SEED,
};
use crate::measure::{cpu_seconds, Digest};
use crate::trainloop;
use crate::{env_counts, Block, Span};
use lpa_advisor::{Advisor, AdvisorEnv, Committee, RewardBackend};
use lpa_rl::{DqnConfig, QEnvironment};
use lpa_schema::Schema;
use lpa_store::{capture_advisor, restore_offline, Checkpoint, CheckpointStore, OfflineTemplate};
use lpa_workload::{FrequencyVector, MixSampler, Workload};
use std::path::Path;
use std::time::Instant;

/// SSB scale factor and episode horizon (the experiment harness's SSB
/// scale).
const SF: f64 = 0.01;
const TMAX: usize = 24;

/// Block size: naive episodes, committee episodes per expert, resumes.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub episodes: usize,
    pub expert_episodes: usize,
    pub resumes: usize,
}

impl Params {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                episodes: 6,
                expert_episodes: 2,
                resumes: 2,
            }
        } else {
            Self {
                episodes: 60,
                expert_episodes: 8,
                resumes: 5,
            }
        }
    }
}

/// Generated inputs; building them is the workload's set-up.
pub struct Inputs {
    schema: Schema,
    workload: Workload,
    mix: FrequencyVector,
    committee_mixes: Vec<FrequencyVector>,
    data_seed: u64,
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let schema = lpa_schema::ssb::schema(SF).map_err(|e| format!("SSB schema: {e:?}"))?;
    let workload =
        lpa_workload::ssb::workload(&schema).map_err(|e| format!("SSB workload: {e:?}"))?;
    // The seed generates the data of the cluster the advice is scored on.
    // Training on the cost model sees only the schema, so the advice (and
    // the work) is the same for every seed; the mixes are fixed too.
    let data_seed = lpa_par::derive_stream(seed, 1);
    // Generated here once so set-up pays for data generation; blocks
    // rebuild the cluster from the same seed.
    let _ = pgxl_cluster(&schema, data_seed);
    Ok(Inputs {
        mix: workload.uniform_frequencies(),
        committee_mixes: (1..4)
            .map(|k| seeded_mix(&workload, lpa_par::derive_stream(AGENT_SEED, k)))
            .collect(),
        data_seed,
        schema,
        workload,
    })
}

fn env(inp: &Inputs, seed: u64) -> AdvisorEnv {
    AdvisorEnv::new(
        inp.schema.clone(),
        inp.workload.clone(),
        RewardBackend::cost_model(cost_model()),
        MixSampler::uniform(&inp.workload),
        true,
        seed,
    )
}

pub fn block(inp: &Inputs, p: &Params, traced: bool, dir: &ScratchDir, index: usize) -> Block {
    let cfg = DqnConfig::simulation(p.episodes, TMAX).with_seed(AGENT_SEED);
    let mut advisor = Advisor::untrained(env(inp, cfg.seed), cfg.clone());
    let mut b = Block {
        traced,
        ..Block::default()
    };
    let mut d = Digest::default();

    let cpu0 = cpu_seconds();
    let run = trainloop::run(&mut advisor, p.episodes, traced);
    let counters = advisor.env.counters();
    let encoder = advisor.env.encoder_stats();

    let expert_cfg = DqnConfig {
        episodes: p.expert_episodes,
        ..cfg.clone()
    };
    let c0 = Instant::now();
    let cc0 = cpu_seconds();
    let mut committee = Committee::train(&mut advisor, expert_cfg, || env(inp, AGENT_SEED ^ 0xE4));
    let committee_s = c0.elapsed().as_secs_f64();
    let committee_cpu = cpu_seconds() - cc0;
    b.cpu_s = cpu_seconds() - cpu0;
    let expert_episodes = committee.len() * p.expert_episodes;
    let steps = run.steps + (expert_episodes * TMAX) as u64;
    let span = |work: usize| Span {
        work: work as f64,
        cpu_s: run.cpu_s + committee_cpu,
        wall_s: run.wall_s + committee_s,
    };
    b.steps = span(steps as usize);
    b.slices = span(p.episodes + expert_episodes);
    b.round_cpu_ms = run.episode_ms;
    b.attempted += steps;
    d.word(advisor.weight_fingerprint());
    for e in &committee.experts {
        d.word(e.weight_fingerprint());
    }

    // Score the naive and the committee advice on the full cluster.
    let mut cluster = pgxl_cluster(&inp.schema, inp.data_seed);
    let naive = advisor.suggest(&inp.mix).partitioning;
    d.str(&naive.describe(&inp.schema));
    let mut sim = score(&mut cluster, &inp.workload, &inp.mix, &naive);
    for m in &inp.committee_mixes {
        let pc = committee.suggest(&mut advisor, m).partitioning;
        d.str(&pc.describe(&inp.schema));
        sim += score(&mut cluster, &inp.workload, m, &pc);
    }
    b.advised_sim_s = sim;
    b.charged_h = cluster.clock() / 3600.0;
    b.attempted += cluster.queries_executed();

    // Checkpoint the trained session, then resume it from disk.
    let store_dir = dir.sub(&format!("offline-{index}"));
    resume_from_disk(&mut b, &advisor, inp, p, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);

    env_counts(&mut b, &counters, encoder, run.steps);
    b.count("rl.select_calls", run.steps as f64);
    b.count(
        "rl.train_calls",
        run.steps as f64 / cfg.train_every.max(1) as f64,
    );
    b.count(
        "cluster.queries_executed",
        cluster.queries_executed() as f64,
    );
    b.count(
        "cluster.tables_repartitioned",
        cluster.tables_repartitioned() as f64,
    );
    b.time("par.committee_s", committee_s);
    b.time("par.committee_cpu_per_wall", committee_cpu / committee_s);
    if let Some(t) = run.trace {
        t.report(&mut b, run.cpu_s);
    }
    b.seal(&mut d);
    b
}

fn resume_from_disk(b: &mut Block, advisor: &Advisor, inp: &Inputs, p: &Params, dir: &Path) {
    let template = OfflineTemplate {
        schema: inp.schema.clone(),
        workload: inp.workload.clone(),
        model: cost_model(),
    };
    let fp = advisor.weight_fingerprint();
    let mut store = match CheckpointStore::open(dir) {
        Ok(s) => s,
        Err(e) => return b.fail(format!("checkpoint store: {e}")),
    };
    let t0 = cpu_seconds();
    let saved = store.save(&Checkpoint::Session(capture_advisor(
        p.episodes as u64,
        advisor,
    )));
    b.time("store.checkpoint_s", cpu_seconds() - t0);
    b.attempted += 1;
    if let Err(e) = saved {
        b.fail(format!("checkpoint write: {e}"));
    }
    b.count(
        "store.checkpoints_written",
        store.counters().checkpoints_written as f64,
    );
    b.count("store.bytes_on_disk", bytes_on_disk(dir) as f64);
    for _ in 0..p.resumes {
        let t0 = cpu_seconds();
        let restored = CheckpointStore::open(dir)
            .ok()
            .and_then(|mut s| s.load_latest(&inp.schema).ok().flatten())
            .and_then(|(_, ck)| ck.into_session().ok())
            .and_then(|snap| restore_offline(snap, &template).ok());
        b.resume_cpu_s.push(cpu_seconds() - t0);
        b.attempted += 1;
        if restored.map(|a| a.weight_fingerprint()) != Some(fp) {
            b.fail("resumed session differs from the trained one".to_string());
        }
    }
}
