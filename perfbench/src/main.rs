//! The repository benchmark.
//!
//! ```text
//! lpa-perfbench --workload offline-ssb|online-tpcch|fleet-64 --seed N \
//!               --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! One process runs one workload with one driver thread in a closed loop:
//! it sets the workload up repeatedly (the median is `setup_s`), then
//! repeats a fixed, seed-determined block of work until `S` seconds have
//! passed. Every repeated block must reproduce the first block's
//! deterministic outputs bit for bit (weight fingerprints, advised
//! layouts, simulated seconds, work counters); a divergence is a failed
//! operation and makes the run fail.
//!
//! With `--trace 0` the last stdout line carries every end-to-end metric;
//! with `--trace 1` traced and untraced blocks alternate, and it carries
//! every per-layer metric plus the tracing overhead. `--smoke` shrinks
//! every block for the benchmark's own tests. See `README.md`.

mod common;
mod fleet;
mod measure;
mod offline;
mod online;
mod trainloop;

use measure::{median, peak_rss_mb, tail, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// Per-layer metrics, in output order: (name, unit). Workloads that do not
/// exercise a layer report 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rl.select_s", "s"),
    ("rl.select_calls", "count"),
    ("rl.train_s", "s"),
    ("rl.train_calls", "count"),
    ("nn.madds", "count"),
    ("par.committee_s", "s"),
    ("par.committee_cpu_per_wall", "ratio"),
    ("advisor.step_s", "s"),
    ("advisor.step_calls", "count"),
    ("advisor.reward_cache_hit_ratio", "ratio"),
    ("advisor.action_cache_hit_ratio", "ratio"),
    ("costmodel.queries_recosted", "count"),
    ("costmodel.delta_recosts", "count"),
    ("costmodel.full_recosts", "count"),
    ("partition.encode_patch_ratio", "ratio"),
    ("online.queries_executed", "count"),
    ("online.queries_cached", "count"),
    ("online.cache_hit_ratio", "ratio"),
    ("online.timeouts_hit", "count"),
    ("cluster.queries_executed", "count"),
    ("cluster.tables_repartitioned", "count"),
    ("cluster.observe_ms_p50", "ms"),
    ("guardrail.canaries_started", "count"),
    ("guardrail.commits", "count"),
    ("guardrail.rollbacks", "count"),
    ("guardrail.observe_queries", "count"),
    ("fleet.slices_run", "count"),
    ("fleet.slices_skipped", "count"),
    ("fleet.episodes_run", "count"),
    ("fleet.deployments", "count"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoints_written", "count"),
    ("store.bytes_on_disk", "B"),
    ("store.journal_records", "count"),
    ("store.write_failures", "count"),
    ("bench.ops_attempted", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one block of work measured. `counts` are deterministic and part
/// of the block's digest; `times` are measured (or, for `nn.madds`, only
/// derivable in traced blocks) and are reported as medians over traced
/// blocks.
#[derive(Debug, Default)]
pub struct Block {
    pub traced: bool,
    pub digest: u64,
    /// The block's DQN env steps and tenant slices (a training episode
    /// outside the fleet), with the CPU and wall time they took.
    pub steps: Span,
    pub slices: Span,
    /// Process CPU milliseconds per round (per training episode outside
    /// the fleet).
    pub round_cpu_ms: Vec<f64>,
    /// Process CPU seconds per resume from disk.
    pub resume_cpu_s: Vec<f64>,
    /// Process CPU seconds (all threads) of the block's timed phase.
    pub cpu_s: f64,
    pub advised_sim_s: f64,
    pub charged_h: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub counts: Vec<(&'static str, f64)>,
    pub times: Vec<(&'static str, f64)>,
    /// Report lines of traced blocks (measured shares).
    pub notes: Vec<String>,
}

/// An amount of work with the process CPU time and the wall time it took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub work: f64,
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Span {
    pub fn per_cpu_s(&self) -> f64 {
        self.work / self.cpu_s
    }

    pub fn per_wall_s(&self) -> f64 {
        self.work / self.wall_s
    }
}

impl Block {
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    pub fn count(&mut self, name: &'static str, v: impl Into<f64>) {
        self.counts.push((name, v.into()));
    }

    pub fn time(&mut self, name: &'static str, v: f64) {
        self.times.push((name, v));
    }

    /// Fold the deterministic counts into the block digest.
    pub fn seal(&mut self, d: &mut measure::Digest) {
        d.f64(self.advised_sim_s);
        d.f64(self.charged_h);
        for (name, v) in &self.counts {
            d.str(name);
            d.f64(*v);
        }
        self.digest = d.0;
    }
}

/// Env-layer counts shared by the two single-advisor workloads.
pub fn env_counts(b: &mut Block, c: &lpa_rl::EnvCounters, encoder: (u64, u64), steps: u64) {
    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    b.count("advisor.step_calls", steps as f64);
    b.count(
        "advisor.reward_cache_hit_ratio",
        ratio(c.reward_cache_hits, c.reward_cache_misses),
    );
    b.count(
        "advisor.action_cache_hit_ratio",
        ratio(c.action_cache_hits, c.action_cache_misses),
    );
    b.count("costmodel.queries_recosted", c.queries_recosted as f64);
    b.count("costmodel.delta_recosts", c.delta_recosts as f64);
    b.count("costmodel.full_recosts", c.full_recosts as f64);
    b.count("partition.encode_patch_ratio", ratio(encoder.0, encoder.1));
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

/// Run blocks until `seconds` have passed and at least `min` blocks are
/// done. When tracing, blocks alternate untraced, traced, untraced, ... and
/// at least three run, so a traced block always sits between untraced ones
/// and drift over the run does not pass for tracing overhead.
fn drive(
    seconds: f64,
    trace: bool,
    min: usize,
    mut block: impl FnMut(usize, bool) -> Block,
) -> Vec<Block> {
    let started = Instant::now();
    let mut blocks = Vec::new();
    let min = if trace { min.max(3) } else { min.max(1) };
    while blocks.len() < min || started.elapsed().as_secs_f64() < seconds {
        let i = blocks.len();
        blocks.push(block(i, trace && i % 2 == 1));
    }
    blocks
}

/// Repeat a set-up at least three times, and until one second of CPU has
/// been spent on it (at most 200 times), timing each on the process CPU
/// clock; the last set-up's inputs are kept.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    loop {
        let t0 = measure::cpu_seconds();
        let inputs = setup();
        times.push(measure::cpu_seconds() - t0);
        if times.len() >= 200 || (times.len() >= 3 && times.iter().sum::<f64>() >= 1.0) {
            return (times, inputs);
        }
    }
}

fn summarize(setups: &[f64], blocks: &[Block], trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let Some(reference) = blocks.first() else {
        out.fail("no block ran".to_string());
        return out;
    };
    out.digest = reference.digest;
    for (i, b) in blocks.iter().enumerate() {
        out.attempted += b.attempted;
        for f in &b.failures {
            out.fail(format!("block {i}: {f}"));
        }
        if i > 0 {
            let what = if b.traced { "traced block" } else { "block" };
            out.check(&format!("{what} {i}"), reference.digest, b.digest);
        }
    }
    let plain: Vec<&Block> = blocks.iter().filter(|b| !b.traced).collect();
    let traced: Vec<&Block> = blocks.iter().filter(|b| b.traced).collect();
    let rates =
        |bs: &[&Block], f: fn(&Block) -> f64| -> Vec<f64> { bs.iter().map(|b| f(b)).collect() };
    let samples = |f: fn(&Block) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|b| f(b).iter().copied()).collect()
    };
    let steps = rates(&plain, |b| b.steps.per_cpu_s());
    let slices = rates(&plain, |b| b.slices.per_cpu_s());
    let rounds = samples(|b| &b.round_cpu_ms);
    let resumes = samples(|b| &b.resume_cpu_s);
    let cpu = rates(&plain, |b| b.cpu_s);

    if !trace {
        let (pct, round_tail) = tail(&rounds);
        let by_block = "median over blocks".to_string();
        out.put_note(
            "setup_s",
            median(setups),
            "s",
            setups.len(),
            "CPU seconds, median of set-ups".to_string(),
        );
        out.put_note(
            "train_steps_per_cpu_s",
            median(&steps),
            "1/s",
            steps.len(),
            by_block.clone(),
        );
        out.put_note(
            "slices_per_cpu_s",
            median(&slices),
            "1/s",
            slices.len(),
            by_block,
        );
        out.put("round_cpu_ms_p50", median(&rounds), "ms", rounds.len());
        out.put_note(
            "round_cpu_ms_tail",
            round_tail,
            "ms",
            rounds.len(),
            format!("p{pct}"),
        );
        out.put("resume_cpu_s", median(&resumes), "s", resumes.len());
        out.put_note(
            "cpu_s",
            median(&cpu),
            "s",
            cpu.len(),
            "per block".to_string(),
        );
        out.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        out.put_note(
            "advised_sim_s",
            reference.advised_sim_s,
            "sim_s",
            blocks.len(),
            "identical in every block".to_string(),
        );
        out.put_note(
            "sim_charged_h",
            reference.charged_h,
            "sim_h",
            blocks.len(),
            "identical in every block".to_string(),
        );
        // Wall-clock views of the same work, for reading only: on a shared
        // machine they move with the host's load, so nothing is gated on them.
        let wall_steps = rates(&plain, |b| b.steps.per_wall_s());
        let wall_slices = rates(&plain, |b| b.slices.per_wall_s());
        out.info.push(format!(
            "wall clock: train_steps_per_s={:.3} slices_per_s={:.3}",
            median(&wall_steps),
            median(&wall_slices)
        ));
        return out;
    }

    // Per-layer view: counts from the reference block (every block has
    // the same ones), times as medians over the traced blocks. Tracing
    // overhead compares the slice rate of untraced and traced blocks.
    if let Some(first) = traced.first() {
        out.info.extend(first.notes.iter().cloned());
    }
    let traced_slices = rates(&traced, |b| b.slices.per_cpu_s());
    let overhead = (median(&slices) / median(&traced_slices) - 1.0) * 100.0;
    for &(name, unit) in PER_LAYER {
        let (value, samples) = if name == "bench.ops_attempted" {
            (out.attempted as f64, 1)
        } else if name == "trace.overhead_pct" {
            (overhead, plain.len() + traced.len())
        } else if let Some((_, v)) = reference.counts.iter().find(|(n, _)| *n == name) {
            (*v, blocks.len())
        } else {
            let xs: Vec<f64> = traced
                .iter()
                .flat_map(|b| b.times.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (if xs.is_empty() { 0.0 } else { median(&xs) }, xs.len())
        };
        out.put(name, value, unit, samples);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lpa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the pool: at most two threads, never more than the machine has.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let dir = match common::ScratchDir::new(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lpa-perfbench: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = lpa_par::with_threads(threads, || {
        let (setups, blocks) = match args.workload.as_str() {
            "offline-ssb" => {
                let p = offline::Params::new(args.smoke);
                let (setups, inp) = timed_setups(|| offline::setup(args.seed));
                let inp = match inp {
                    Ok(inp) => inp,
                    Err(e) => {
                        eprintln!("lpa-perfbench: set-up: {e}");
                        return None;
                    }
                };
                let blocks = drive(args.seconds, args.trace, 3, |i, traced| {
                    offline::block(&inp, &p, traced, &dir, i)
                });
                (setups, blocks)
            }
            "online-tpcch" => {
                let p = online::Params::new(args.smoke);
                let mut boot = Vec::new();
                let (setups, inp) = timed_setups(|| {
                    let inp = online::setup(args.seed, &p);
                    if let Ok(inp) = &inp {
                        boot.push(inp.bootstrap_fingerprint());
                    }
                    inp
                });
                let inp = match inp {
                    Ok(inp) => inp,
                    Err(e) => {
                        eprintln!("lpa-perfbench: set-up: {e}");
                        return None;
                    }
                };
                let blocks = drive(args.seconds, args.trace, 3, |i, traced| {
                    let mut b = online::block(&inp, &p, traced, &dir, i);
                    // Every set-up must bootstrap the same advisor.
                    if boot.iter().any(|f| *f != boot[0]) {
                        b.fail("repeated set-ups bootstrapped different advisors".to_string());
                    }
                    b
                });
                (setups, blocks)
            }
            "fleet-64" => {
                let p = fleet::Params::new(args.smoke);
                let mut setups = Vec::new();
                let blocks = drive(args.seconds, args.trace, 2, |i, traced| {
                    fleet::block(args.seed, &p, traced, &dir, i, &mut setups)
                });
                (setups, blocks)
            }
            other => {
                eprintln!(
                    "lpa-perfbench: unknown workload {other:?} (offline-ssb|online-tpcch|fleet-64)"
                );
                return None;
            }
        };
        Some(summarize(&setups, &blocks, args.trace))
    });
    drop(dir);
    let Some(outcome) = outcome else {
        return ExitCode::from(2);
    };
    println!(
        "# {} seed={} trace={} threads={threads} digest={:016x}",
        args.workload, args.seed, args.trace as u8, outcome.digest
    );
    for m in &outcome.metrics {
        println!(
            "# {:<32} {:>16.6} {:<6} n={:<5} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for line in &outcome.info {
        println!("# {line}");
    }
    for f in &outcome.failures {
        println!("# FAILED {f}");
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
