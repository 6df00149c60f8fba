//! `online-tpcch`: the paper's online phase (Fig. 4a) on TPC-CH. Set-up
//! generates the data and runs a trimmed offline bootstrap of the 128-64
//! DQN. One block restores the bootstrapped advisor, refines it online on
//! a 25% sample of the cluster (runtime cache, lazy repartitioning and
//! timeouts on), scores the advice on a full cluster generated from the
//! workload seed, and writes and resumes the refined session.

use crate::common::{cost_model, pgxl_cluster, score, ScratchDir, AGENT_SEED};
use crate::measure::{cpu_seconds, Digest};
use crate::trainloop;
use crate::{env_counts, Block, Span};
use lpa_advisor::{shared_cache, shared_cluster, Advisor, OnlineBackend, OnlineOptimizations};
use lpa_rl::{DqnConfig, QEnvironment};
use lpa_schema::Schema;
use lpa_store::{
    capture_advisor, decode_checkpoint, encode_checkpoint, restore_offline, restore_online,
    Checkpoint, CheckpointStore, OfflineTemplate, OnlineTemplate,
};
use lpa_workload::{MixSampler, Workload};

/// TPC-CH scale factor, episode horizon and sample fraction (the
/// experiment harness's TPC-CH scale).
const SF: f64 = 0.002;
const TMAX: usize = 32;
const SAMPLE_FRACTION: f64 = 0.25;
/// Data seed of the database the advisor is refined on.
const DATA_SEED: u64 = 0xF16;

#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Offline bootstrap episodes (set-up).
    pub bootstrap_episodes: usize,
    /// Online refinement episodes per block.
    pub episodes: usize,
    pub resumes: usize,
}

impl Params {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                bootstrap_episodes: 4,
                episodes: 3,
                resumes: 2,
            }
        } else {
            Self {
                bootstrap_episodes: 20,
                episodes: 20,
                resumes: 3,
            }
        }
    }
}

pub struct Inputs {
    schema: Schema,
    workload: Workload,
    score_seed: u64,
    /// The bootstrapped advisor, encoded; every block decodes its own copy.
    bootstrap: Vec<u8>,
    bootstrap_fp: u64,
}

impl Inputs {
    pub fn bootstrap_fingerprint(&self) -> u64 {
        self.bootstrap_fp
    }
}

pub fn setup(seed: u64, p: &Params) -> Result<Inputs, String> {
    let schema = lpa_schema::tpcch::schema(SF).map_err(|e| format!("TPC-CH schema: {e:?}"))?;
    let workload =
        lpa_workload::tpcch::workload(&schema).map_err(|e| format!("TPC-CH workload: {e:?}"))?;
    // The refined database is one fixed instance: its data sets the
    // measured rewards and so the whole refinement trajectory. The seed
    // generates the database the refined advice is scored on.
    let _ = pgxl_cluster(&schema, DATA_SEED);
    let cfg = DqnConfig::simulation(p.bootstrap_episodes, TMAX).with_seed(AGENT_SEED);
    let advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        cost_model(),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    let snap = capture_advisor(p.bootstrap_episodes as u64, &advisor);
    Ok(Inputs {
        score_seed: lpa_par::derive_stream(seed, 1),
        bootstrap: encode_checkpoint(&Checkpoint::Session(snap)),
        bootstrap_fp: advisor.weight_fingerprint(),
        schema,
        workload,
    })
}

fn bootstrapped(inp: &Inputs) -> Option<Advisor> {
    let template = OfflineTemplate {
        schema: inp.schema.clone(),
        workload: inp.workload.clone(),
        model: cost_model(),
    };
    let snap = decode_checkpoint(&inp.bootstrap, &inp.schema)
        .ok()?
        .into_session()
        .ok()?;
    restore_offline(snap, &template).ok()
}

pub fn block(inp: &Inputs, p: &Params, traced: bool, dir: &ScratchDir, index: usize) -> Block {
    let mut b = Block {
        traced,
        ..Block::default()
    };
    let mut d = Digest::default();
    let Some(mut advisor) = bootstrapped(inp) else {
        b.fail("bootstrap snapshot does not restore".to_string());
        return b;
    };
    if advisor.weight_fingerprint() != inp.bootstrap_fp {
        b.fail("restored bootstrap differs from the trained one".to_string());
    }

    // The online backend: a 25% sample with scale factors measured against
    // the full cluster under the offline advice.
    let mut full = pgxl_cluster(&inp.schema, DATA_SEED);
    let mut sample = full.sampled(SAMPLE_FRACTION);
    let p_offline = advisor
        .suggest(&inp.workload.uniform_frequencies())
        .partitioning;
    let scale =
        OnlineBackend::compute_scale_factors(&mut full, &mut sample, &inp.workload, &p_offline);
    let shared = shared_cluster(sample);
    let backend = OnlineBackend::new(
        shared.clone(),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    );

    let cpu0 = cpu_seconds();
    advisor.begin_online_refinement(backend);
    let run = trainloop::run(&mut advisor, p.episodes, traced);
    b.cpu_s = cpu_seconds() - cpu0;
    let span = |work: u64| Span {
        work: work as f64,
        cpu_s: run.cpu_s,
        wall_s: run.wall_s,
    };
    b.steps = span(run.steps);
    b.slices = span(p.episodes as u64);
    b.round_cpu_ms = run.episode_ms.clone();
    b.attempted += run.steps;
    let counters = advisor.env.counters();
    let encoder = advisor.env.encoder_stats();
    let acc = advisor.online_accounting().unwrap_or_default();
    let (sample_queries, sample_repartitions) = {
        let c = shared.lock();
        (c.queries_executed(), c.tables_repartitioned())
    };
    d.word(advisor.weight_fingerprint());

    let mix = inp.workload.uniform_frequencies();
    let advice = advisor.suggest(&mix).partitioning;
    d.str(&advice.describe(&inp.schema));
    let mut scored = pgxl_cluster(&inp.schema, inp.score_seed);
    b.advised_sim_s = score(&mut scored, &inp.workload, &mix, &advice);
    b.charged_h = (acc.total() + full.clock() + scored.clock()) / 3600.0;
    let full_queries = full.queries_executed() + scored.queries_executed();
    b.attempted += sample_queries + full_queries;
    b.attempted += counters.queries_failed;
    if counters.queries_failed > 0 {
        b.fail(format!(
            "{} online query executions failed",
            counters.queries_failed
        ));
    }

    let store_dir = dir.sub(&format!("online-{index}"));
    resume_from_disk(&mut b, &advisor, inp, p, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);

    env_counts(&mut b, &counters, encoder, run.steps);
    let cfg = advisor.config();
    b.count("rl.select_calls", run.steps as f64);
    b.count(
        "rl.train_calls",
        run.steps as f64 / cfg.train_every.max(1) as f64,
    );
    b.count("online.queries_executed", acc.queries_executed as f64);
    b.count("online.queries_cached", acc.queries_cached as f64);
    let looked_up = acc.queries_executed + acc.queries_cached;
    b.count(
        "online.cache_hit_ratio",
        if looked_up == 0 {
            0.0
        } else {
            acc.queries_cached as f64 / looked_up as f64
        },
    );
    b.count("online.timeouts_hit", acc.timeouts_hit as f64);
    b.count(
        "cluster.queries_executed",
        (sample_queries + full_queries) as f64,
    );
    b.count(
        "cluster.tables_repartitioned",
        (sample_repartitions + full.tables_repartitioned() + scored.tables_repartitioned()) as f64,
    );
    if let Some(t) = run.trace {
        t.report(&mut b, run.cpu_s);
    }
    b.seal(&mut d);
    b
}

/// Checkpoint the refined session and resume it from disk onto a freshly
/// generated sample cluster; the resumed advisor must be bitwise the same.
fn resume_from_disk(
    b: &mut Block,
    advisor: &Advisor,
    inp: &Inputs,
    p: &Params,
    dir: &std::path::Path,
) {
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
    b.count(
        "store.bytes_on_disk",
        crate::common::bytes_on_disk(dir) as f64,
    );
    for _ in 0..p.resumes {
        let template = OnlineTemplate {
            schema: inp.schema.clone(),
            workload: inp.workload.clone(),
            cluster: pgxl_cluster(&inp.schema, DATA_SEED).sampled(SAMPLE_FRACTION),
            fallback: None,
            fault_plan_override: None,
        };
        let t0 = cpu_seconds();
        let restored = CheckpointStore::open(dir)
            .ok()
            .and_then(|mut s| s.load_latest(&inp.schema).ok().flatten())
            .and_then(|(_, ck)| ck.into_session().ok())
            .and_then(|snap| restore_online(snap, template).ok());
        b.resume_cpu_s.push(cpu_seconds() - t0);
        b.attempted += 1;
        if restored.map(|a| a.weight_fingerprint()) != Some(fp) {
            b.fail("resumed session differs from the refined one".to_string());
        }
    }
}
