//! First-execution cost of the simulator's executor over seeded random
//! layouts (DESIGN.md §13, "Weighted intermediates").
//!
//! For SSB and TPC-CH (SF 0.001) it deploys 60 random layouts — seeded walks of up to 12 valid actions from the
//! initial partitioning — and executes every query of the workload once
//! per layout on the fast path (`Executor::execute_with`, one reused
//! scratch, as `Cluster::run_query` does) and on the naive reference
//! (`Executor::execute_naive`). Every result is asserted bitwise equal.
//! It prints, per benchmark, the median over layouts of the mean
//! per-query milliseconds of each path, with the quartiles. Times are
//! wall clock: run it with one `lpa-par` thread on an otherwise idle
//! machine.
//!
//! ```sh
//! LPA_THREADS=1 cargo run --release -p lpa-bench --bin exec_sweep
//! ```

#![allow(clippy::unwrap_used)] // experiment harness; libraries are gated by lpa-lint L001

use lpa_cluster::executor::{layout_table, Executor, Layout};
use lpa_cluster::{
    Database, EngineProfile, ExecScratch, FaultState, HardwareProfile, OptimizerEstimator,
};
use lpa_partition::Partitioning;
use lpa_schema::{Schema, TableId};
use lpa_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seconds since `t0` on the monotonic clock. The per-layout times are
/// a few milliseconds, below the tick of the kernel's CPU-time counters
/// on common VMs, so this harness reads wall time on one thread.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn random_layout(schema: &Schema, rng: &mut StdRng) -> Partitioning {
    let mut p = Partitioning::initial(schema);
    for _ in 0..rng.gen_range(0..13usize) {
        let actions = lpa_partition::valid_actions(schema, &p);
        if actions.is_empty() {
            break;
        }
        p = actions[rng.gen_range(0..actions.len())]
            .apply(schema, &p)
            .unwrap();
    }
    p
}

fn quartiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// Mean per-query ms of (fast, naive) on each layout.
fn sweep(schema: &Schema, workload: &Workload, layouts: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let engine = EngineProfile::pgxl();
    let hw = HardwareProfile::standard();
    let db = Database::generate(schema, 0x5EED);
    let faults = FaultState::nominal(hw.nodes);
    let optimizer = OptimizerEstimator::new(engine, hw);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = ExecScratch::default();
    let (mut fast_ms, mut naive_ms) = (Vec::new(), Vec::new());
    let per_query = 1e3 / workload.queries().len() as f64;
    for _ in 0..layouts {
        let p = random_layout(schema, &mut rng);
        let layouts: Vec<Layout> = (0..schema.tables().len())
            .map(|t| {
                layout_table(
                    &db,
                    &engine,
                    hw.nodes,
                    TableId(t),
                    p.table_state(TableId(t)),
                )
            })
            .collect();
        let exec = Executor {
            schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        };
        let plans: Vec<_> = workload
            .queries()
            .iter()
            .map(|q| optimizer.plan(schema, q, &p, 0))
            .collect();
        let t0 = Instant::now();
        let fast: Vec<_> = workload
            .queries()
            .iter()
            .zip(&plans)
            .map(|(q, plan)| exec.execute_with(q, plan, None, &mut scratch))
            .collect();
        let fast_s = since(t0);
        let t1 = Instant::now();
        let naive: Vec<_> = workload
            .queries()
            .iter()
            .zip(&plans)
            .map(|(q, plan)| exec.execute_naive(q, plan, None))
            .collect();
        let naive_s = since(t1);
        for (a, b) in fast.iter().zip(&naive) {
            let bits = |r: &Option<lpa_cluster::executor::ExecResult>| {
                r.map(|r| {
                    (
                        r.seconds.to_bits(),
                        r.output_rows,
                        r.bytes_shuffled.to_bits(),
                    )
                })
            };
            assert_eq!(bits(a), bits(b), "fast path differs from the naive oracle");
        }
        fast_ms.push(fast_s * per_query);
        naive_ms.push(naive_s * per_query);
    }
    (fast_ms, naive_ms)
}

fn main() {
    let layouts = 60;
    let ssb = lpa_schema::ssb::schema(0.001).unwrap();
    let ch = lpa_schema::tpcch::schema(0.001).unwrap();
    let cases = [
        ("ssb", lpa_workload::ssb::workload(&ssb).unwrap(), &ssb),
        ("tpcch", lpa_workload::tpcch::workload(&ch).unwrap(), &ch),
    ];
    println!("benchmark  path   median_ms  [q1 - q3]   ({layouts} layouts, per-query mean)");
    for (name, workload, schema) in &cases {
        let (fast, naive) = sweep(schema, workload, layouts, 0x5EE9);
        for (path, xs) in [("fast", fast), ("naive", naive)] {
            let (q1, med, q3) = quartiles(xs);
            println!("{name:<10} {path:<6} {med:>9.3}  [{q1:.3} - {q3:.3}]");
        }
    }
}
