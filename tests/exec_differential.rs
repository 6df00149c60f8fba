//! Differential for the columnar executor's weighted, liveness-pruned
//! intermediates (DESIGN.md §13, "Weighted intermediates"). The oracle is
//! `with_naive_executor`, which runs the row-at-a-time `execute_naive`
//! reference with full per-slot provenance on every call.
//!
//! 1. **Random-layout sweeps.** SSB (SF 0.001), TPC-CH (SF 0.001 and
//!    0.002) and the microbenchmark, each on 40 seeded random layouts,
//!    with timeouts `None`, 2 ms and 20 ms; every outcome (kind, seconds
//!    bits, output rows, degraded flag) and the clocks must be equal. One
//!    more TPC-CH sweep runs on a seeded fault-storm cluster.
//! 2. **Hand-built plans**, at the `Executor` level so `bytes_shuffled` is
//!    compared too: every TPC-CH join query under each join strategy
//!    forced on every step (covering each collapse case and the
//!    repartition exception for zero-row right sides), queries whose
//!    filtered tables have zero rows, an all-replicated deployment (both
//!    sides everywhere, single-group joins) and a faulted node state.
//!
//! Everything runs at `LPA_THREADS={1,8}`.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::cluster::executor::{layout_table, ExecResult, Executor, Layout};
use lpa::cluster::{with_naive_executor, Database, FaultState, OptimizerEstimator};
use lpa::costmodel::JoinStrategy;
use lpa::prelude::*;
use lpa::schema::TableId;
use lpa::workload::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 8];
const LAYOUTS: usize = 40;
const TIMEOUTS: [Option<f64>; 3] = [None, Some(0.002), Some(0.02)];

/// An outcome as raw words: kind, seconds bits, then kind-specific data.
fn outcome_words(o: QueryOutcome) -> [u64; 3] {
    match o {
        QueryOutcome::Completed {
            seconds,
            output_rows,
            degraded,
        } => [u64::from(degraded), seconds.to_bits(), output_rows],
        QueryOutcome::TimedOut { limit } => [2, limit.to_bits(), 0],
        QueryOutcome::Failed { reason, seconds } => {
            let node = match reason {
                lpa::cluster::FailReason::NodeDown { node } => node as u64,
                lpa::cluster::FailReason::Transient => u64::MAX,
            };
            [3, seconds.to_bits(), node]
        }
    }
}

/// A random deployment: a seeded walk of up to 12 valid actions from the
/// initial partitioning.
fn random_layout(schema: &Schema, rng: &mut StdRng) -> Partitioning {
    let mut p = Partitioning::initial(schema);
    for _ in 0..rng.gen_range(0..13usize) {
        let actions = lpa::partition::valid_actions(schema, &p);
        if actions.is_empty() {
            break;
        }
        p = actions[rng.gen_range(0..actions.len())]
            .apply(schema, &p)
            .unwrap();
    }
    p
}

/// Counts of (completed, timed out, failed) outcomes seen by a sweep.
type Tally = [usize; 3];

/// Run `workload` on [`LAYOUTS`] random layouts under every timeout, on a
/// fast cluster and a naive-oracle cluster, and compare every outcome.
fn sweep(
    label: &str,
    schema: &Schema,
    workload: &Workload,
    engine: EngineProfile,
    faults: Option<FaultPlan>,
    seed: u64,
) -> Tally {
    let mk = || {
        let c = Cluster::new(
            schema.clone(),
            ClusterConfig::new(engine, HardwareProfile::standard()),
        );
        match faults {
            Some(plan) => c.with_faults(plan),
            None => c,
        }
    };
    let (mut fast, mut naive) = (mk(), mk());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = [0; 3];
    for layout in 0..LAYOUTS {
        let p = random_layout(schema, &mut rng);
        let df = fast.deploy(&p);
        let dn = with_naive_executor(|| naive.deploy(&p));
        assert_eq!(
            df.to_bits(),
            dn.to_bits(),
            "{label} layout {layout}: deploy"
        );
        for timeout in TIMEOUTS {
            for (qi, q) in workload.queries().iter().enumerate() {
                let a = fast.run_query(q, timeout);
                let b = with_naive_executor(|| naive.run_query(q, timeout));
                assert_eq!(
                    outcome_words(a),
                    outcome_words(b),
                    "{label} layout {layout} timeout {timeout:?} query {qi} ({})",
                    q.name
                );
                tally[match a {
                    QueryOutcome::Completed { .. } => 0,
                    QueryOutcome::TimedOut { .. } => 1,
                    QueryOutcome::Failed { .. } => 2,
                }] += 1;
            }
        }
        assert_eq!(
            fast.clock().to_bits(),
            naive.clock().to_bits(),
            "{label} layout {layout}: clock"
        );
    }
    tally
}

/// Sweep one benchmark at every thread count and check that both budget
/// outcomes occur and healthy runs never fail.
fn sweep_all_threads(
    label: &str,
    schema: &Schema,
    workload: &Workload,
    engine: EngineProfile,
    seed: u64,
) {
    for threads in THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let label = format!("threads {threads} {label}");
            let tally = sweep(&label, schema, workload, engine, None, seed);
            assert!(tally[0] > 0 && tally[1] > 0, "{label}: tally {tally:?}");
            assert_eq!(tally[2], 0, "{label}: tally {tally:?}");
        });
    }
}

// One engine per benchmark: the two engines hash keys to nodes
// differently (splitmix vs. modulo), and each is covered twice.

#[test]
fn ssb_random_layouts_match_naive_oracle() {
    let schema = lpa::schema::ssb::schema(0.001).unwrap();
    let workload = lpa::workload::ssb::workload(&schema).unwrap();
    sweep_all_threads(
        "ssb",
        &schema,
        &workload,
        EngineProfile::pgxl(),
        0xD1FF_0001,
    );
}

#[test]
fn micro_random_layouts_match_naive_oracle() {
    let schema = lpa::schema::microbench::schema(0.003).unwrap();
    let workload = lpa::workload::microbench::workload(&schema).unwrap();
    sweep_all_threads(
        "micro",
        &schema,
        &workload,
        EngineProfile::system_x(),
        0xD1FF_0002,
    );
}

#[test]
fn tpcch_random_layouts_match_naive_oracle() {
    let schema = lpa::schema::tpcch::schema(0.001).unwrap();
    let workload = lpa::workload::tpcch::workload(&schema).unwrap();
    sweep_all_threads(
        "tpcch-0.001",
        &schema,
        &workload,
        EngineProfile::system_x(),
        0xD1FF_0003,
    );
}

#[test]
fn tpcch_double_scale_random_layouts_match_naive_oracle() {
    let schema = lpa::schema::tpcch::schema(0.002).unwrap();
    let workload = lpa::workload::tpcch::workload(&schema).unwrap();
    sweep_all_threads(
        "tpcch-0.002",
        &schema,
        &workload,
        EngineProfile::pgxl(),
        0xD1FF_0004,
    );
}

#[test]
fn fault_storm_layouts_match_naive_oracle() {
    let schema = lpa::schema::tpcch::schema(0.001).unwrap();
    let workload = lpa::workload::tpcch::workload(&schema).unwrap();
    for threads in THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let label = format!("threads {threads} tpcch storm");
            let storm = Some(FaultPlan::storm(0x5707_0001));
            let t = sweep(
                &label,
                &schema,
                &workload,
                EngineProfile::pgxl(),
                storm,
                0x5707,
            );
            assert!(t[2] > 0, "the storm fails some queries: {t:?}");
        });
    }
}

/// The executor inputs for one deployment, owned.
struct Deployment {
    schema: Schema,
    db: Database,
    engine: EngineProfile,
    hw: HardwareProfile,
    layouts: Vec<Layout>,
}

impl Deployment {
    fn new(schema: &Schema, engine: EngineProfile, p: Option<&Partitioning>) -> Self {
        let hw = HardwareProfile::standard();
        let db = Database::generate(schema, 0x5EED);
        let layouts = (0..schema.tables().len())
            .map(|t| match p {
                Some(p) => layout_table(
                    &db,
                    &engine,
                    hw.nodes,
                    TableId(t),
                    p.table_state(TableId(t)),
                ),
                None => Layout::Replicated,
            })
            .collect();
        Self {
            schema: schema.clone(),
            db,
            engine,
            hw,
            layouts,
        }
    }

    /// Run `plan` untimed on both paths and compare seconds, rows and
    /// bytes (the sweeps cover budgets).
    fn check(
        &self,
        faults: &FaultState,
        query: &Query,
        plan: &lpa::costmodel::QueryPlan,
        label: &str,
    ) {
        let exec = Executor {
            schema: &self.schema,
            db: &self.db,
            engine: &self.engine,
            hw: &self.hw,
            layouts: &self.layouts,
            faults,
        };
        let bits = |r: Option<ExecResult>| {
            r.map(|r| {
                (
                    r.seconds.to_bits(),
                    r.output_rows,
                    r.bytes_shuffled.to_bits(),
                )
            })
        };
        let fast = bits(exec.execute(query, plan, None));
        let naive = bits(exec.execute_naive(query, plan, None));
        assert_eq!(fast, naive, "{label}");
    }
}

/// Every join strategy, forced onto every step of a plan.
const STRATEGIES: [JoinStrategy; 7] = [
    JoinStrategy::CoLocated,
    JoinStrategy::ReplicatedSide,
    JoinStrategy::Broadcast { table_side: true },
    JoinStrategy::Broadcast { table_side: false },
    JoinStrategy::DirectedRepartition { table_side: true },
    JoinStrategy::DirectedRepartition { table_side: false },
    JoinStrategy::SymmetricRepartition,
];

/// A faulted node state: node 0 down (single-group joins run on node 1),
/// a straggler and a degraded link.
fn faulted_state(nodes: usize) -> FaultState {
    let mut s = FaultState::nominal(nodes);
    s.down[0] = true;
    s.work_mult[1] = 2.5;
    s.work_mult[nodes - 1] = 1.75;
    s.net_mult[2] = 3.0;
    s
}

/// TPC-CH join queries plus variants whose filtered tables have zero rows
/// (a selectivity far below one row), in the middle and at the end of the
/// join order.
fn hand_built_queries(schema: &Schema) -> Vec<Query> {
    let workload = lpa::workload::tpcch::workload(schema).unwrap();
    let mut queries: Vec<Query> = workload
        .queries()
        .iter()
        .filter(|q| !q.joins.is_empty())
        .cloned()
        .collect();
    for name in ["ch_q05", "ch_q08", "ch_q09"] {
        let q = queries.iter().find(|q| q.name == name).unwrap().clone();
        for slot in 0..q.tables.len() {
            let mut empty = q.clone();
            empty.name = format!("{name}_empty{slot}");
            empty.selectivity[slot] = 1e-12;
            queries.push(empty);
        }
    }
    queries
}

#[test]
fn hand_built_plans_match_naive_oracle() {
    let schema = lpa::schema::tpcch::schema(0.001).unwrap();
    let queries = hand_built_queries(&schema);
    let engine = EngineProfile::pgxl();
    let optimizer = OptimizerEstimator::new(engine, HardwareProfile::standard());
    let mut rng = StdRng::seed_from_u64(0xAB1E);
    let initial = Partitioning::initial(&schema);
    let walked = random_layout(&schema, &mut rng);
    let deployments = [
        ("walked", Deployment::new(&schema, engine, Some(&walked))),
        ("replicated", Deployment::new(&schema, engine, None)),
    ];
    let nodes = HardwareProfile::standard().nodes;
    let states = [
        ("healthy", FaultState::nominal(nodes)),
        ("faulted", faulted_state(nodes)),
    ];
    for threads in THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            for (dname, d) in &deployments {
                for q in &queries {
                    let base = optimizer.plan(&schema, q, &initial, 0);
                    assert!(!base.steps.is_empty(), "{}: join plan", q.name);
                    let mut plans = vec![base.clone()];
                    for s in STRATEGIES {
                        let mut p = base.clone();
                        p.steps.iter_mut().for_each(|st| st.strategy = s);
                        plans.push(p);
                    }
                    // A rotating mix, so differently placed sides meet.
                    let mut mixed = base.clone();
                    for (i, st) in mixed.steps.iter_mut().enumerate() {
                        st.strategy = STRATEGIES[(i * 3 + q.tables.len()) % STRATEGIES.len()];
                    }
                    plans.push(mixed);
                    for (pi, plan) in plans.iter().enumerate() {
                        for (sname, faults) in &states {
                            let label =
                                format!("threads {threads} {dname} {sname} {} plan {pi}", q.name);
                            d.check(faults, q, plan, &label);
                        }
                    }
                }
            }
        });
    }
}
