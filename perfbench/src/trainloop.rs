//! The DQN training loop of `offline-ssb` and `online-tpcch`, driven two
//! ways over the same advisor:
//!
//! * untraced: `Advisor::train_episodes_from`, the library's own loop,
//!   with only an episode-boundary clock;
//! * traced: the same episode/step sequence written out here (it mirrors
//!   `lpa_rl::train_from` call for call), timing `select_action`,
//!   `env.step` and `train_step` and counting the Q-network rows each
//!   call pushes through the network.
//!
//! Both must leave the advisor bitwise identical; the workloads check it.

use crate::measure::cpu_seconds;
use lpa_advisor::Advisor;
use lpa_partition::valid_actions;
use lpa_rl::{QEnvironment, Transition};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// Per-layer time and work of one traced training run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopTrace {
    pub select_s: f64,
    pub step_s: f64,
    pub train_s: f64,
    /// Multiply-adds of every Q/target-network forward and backward row.
    pub madds: u64,
}

impl LoopTrace {
    /// File the traced times (and the traced-only madds count) under
    /// their per-layer names, with each call's share of the loop's CPU.
    pub fn report(&self, b: &mut crate::Block, loop_cpu_s: f64) {
        b.time("rl.select_s", self.select_s);
        b.time("rl.train_s", self.train_s);
        b.time("advisor.step_s", self.step_s);
        b.time("nn.madds", self.madds as f64);
        let pct = |x: f64| x / loop_cpu_s * 100.0;
        b.notes.push(format!(
            "traced loop: {loop_cpu_s:.3} CPU s; rl.select_s {:.1}%, rl.train_s {:.1}%, \
             advisor.step_s {:.1}%, rest {:.1}%",
            pct(self.select_s),
            pct(self.train_s),
            pct(self.step_s),
            pct(loop_cpu_s - self.select_s - self.train_s - self.step_s),
        ));
    }
}

/// What one training run did.
#[derive(Clone, Debug, Default)]
pub struct LoopRun {
    pub steps: u64,
    pub wall_s: f64,
    /// Process CPU seconds of the whole loop.
    pub cpu_s: f64,
    /// Process CPU milliseconds of every episode, in order.
    pub episode_ms: Vec<f64>,
    pub trace: Option<LoopTrace>,
}

/// Multiply-adds of one forward row through a `dims` MLP. A backward row
/// costs twice that (weight gradients plus input gradients).
fn forward_madds(dims: &[usize]) -> u64 {
    dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// Run `episodes` training episodes on the advisor's current backend.
pub fn run(advisor: &mut Advisor, episodes: usize, traced: bool) -> LoopRun {
    if traced {
        return run_traced(advisor, episodes);
    }
    let tmax = advisor.config().tmax as u64;
    let mut episode_ms = Vec::with_capacity(episodes);
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    let mut last = cpu0;
    advisor.train_episodes_from(
        0,
        episodes,
        |_| {},
        |_, _, _| {
            let now = cpu_seconds();
            episode_ms.push((now - last) * 1e3);
            last = now;
        },
    );
    LoopRun {
        steps: episodes as u64 * tmax,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        episode_ms,
        trace: None,
    }
}

fn run_traced(advisor: &mut Advisor, episodes: usize) -> LoopRun {
    let cfg = advisor.config().clone();
    let (agent, env) = advisor.agent_env_mut();
    let mut dims = vec![env.input_dim()];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(1);
    let row = forward_madds(&dims);
    let train_every = cfg.train_every.max(1);
    // Candidate-row counts come from the pure action enumerator, never
    // from the environment, so tracing leaves the env's cache counters
    // exactly as the untraced loop leaves them. The bench's workloads
    // allow compound keys, so no action is filtered out.
    let schema = env.schema.clone();
    let rows_of = |p: &lpa_partition::Partitioning| valid_actions(&schema, p).len() as u64;

    let mut tr = LoopTrace::default();
    let mut episode_ms = Vec::with_capacity(episodes);
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    for _ in 0..episodes {
        let e0 = cpu_seconds();
        let mut state = env.reset();
        for t in 0..cfg.tmax {
            // The agent's ε draw, replayed on a copy of its RNG: a greedy
            // pick runs one forward row per candidate action.
            let explore = StdRng::from_state(agent.rng_state()).gen::<f64>() < agent.epsilon();
            if !explore {
                tr.madds += row * rows_of(&state.partitioning);
            }
            let t0 = cpu_seconds();
            let action = agent.select_action(env, &state, true);
            let t1 = cpu_seconds();
            let (next, reward) = env.step(&state, &action);
            let t2 = cpu_seconds();
            tr.select_s += t1 - t0;
            tr.step_s += t2 - t1;
            agent.remember(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: next.clone(),
            });
            if t % train_every == 0 {
                tr.madds += train_madds(agent, &cfg, row, &rows_of);
                let t3 = cpu_seconds();
                let _ = agent.train_step(env);
                tr.train_s += cpu_seconds() - t3;
            }
            state = next;
        }
        agent.decay_epsilon();
        episode_ms.push((cpu_seconds() - e0) * 1e3);
    }
    LoopRun {
        steps: (episodes * cfg.tmax) as u64,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        episode_ms,
        trace: Some(tr),
    }
}

/// Network rows of the coming `train_step`, from the minibatch the agent
/// is about to sample (its sampler replayed on a copy of its RNG): one
/// target forward per next-state candidate, a second (online) one under
/// double DQN, and one forward + backward per training row.
fn train_madds(
    agent: &lpa_rl::DqnAgent<lpa_advisor::AdvisorEnv>,
    cfg: &lpa_rl::DqnConfig,
    row: u64,
    rows_of: &impl Fn(&lpa_partition::Partitioning) -> u64,
) -> u64 {
    let items = agent.buffer().items();
    let batch = cfg.batch_size;
    if items.len() < batch {
        return 0;
    }
    let idx: Vec<usize> = if items.len() <= batch {
        (0..items.len()).collect()
    } else {
        let mut rng = StdRng::from_state(agent.rng_state());
        rand::seq::index::sample(&mut rng, items.len(), batch).into_vec()
    };
    let next: u64 = idx
        .iter()
        .map(|&i| rows_of(&items[i].next_state.partitioning))
        .sum();
    let next_passes = if cfg.double_dqn { 2 } else { 1 };
    row * (next * next_passes + 3 * idx.len() as u64)
}
