//! Differential for the cluster's execution memo (`Cluster::run_query`
//! serves healthy, untimed executions from an exact (layout, query) memo;
//! DESIGN.md §15). The oracle is `with_naive_executor`, which bypasses the
//! memo and runs the row-at-a-time reference executor on every call. Two
//! scenarios run once in each arm and must agree bit for bit:
//!
//! 1. a standalone cluster driven through observation windows, layout
//!    changes (and back), a bulk update, a fault storm, timeouts and
//!    `resume_state`/`restore_resume_state` round trips — every
//!    `QueryOutcome`, the clock, `queries_executed`,
//!    `tables_repartitioned` and the fault ledger are compared;
//! 2. a guarded fleet with canary commits, poisoned advice that is rolled
//!    back, a storm tenant and an in-memory capture/restore of every
//!    tenant — per-tenant clocks, counters, weight fingerprints and every
//!    guardrail event are compared.
//!
//! Both run at `LPA_THREADS={1,8}`. The memo's hit/miss counters are read
//! only to prove the fast arm really skipped the executor; they are never
//! part of a compared value.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::cluster::{observe_window, with_naive_executor, GuardrailConfig, WindowObservation};
use lpa::prelude::*;
use lpa::store::{capture_tenant, restore_tenant};

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Everything a compared run produced, as labelled raw bits.
#[derive(Debug, Default, PartialEq)]
struct Trace(Vec<(String, Vec<u64>)>);

impl Trace {
    fn push(&mut self, label: impl Into<String>, words: Vec<u64>) {
        self.0.push((label.into(), words));
    }

    fn outcome(&mut self, label: String, o: QueryOutcome) {
        let words = match o {
            QueryOutcome::Completed {
                seconds,
                output_rows,
                degraded,
            } => vec![0, seconds.to_bits(), output_rows, u64::from(degraded)],
            QueryOutcome::TimedOut { limit } => vec![1, limit.to_bits()],
            QueryOutcome::Failed { reason, seconds } => {
                let node = match reason {
                    lpa::cluster::FailReason::NodeDown { node } => node as u64,
                    lpa::cluster::FailReason::Transient => u64::MAX,
                };
                vec![2, seconds.to_bits(), node]
            }
        };
        self.push(label, words);
    }

    fn window(&mut self, label: &str, w: WindowObservation) {
        self.push(
            label,
            vec![w.weighted_seconds.to_bits(), w.clean, w.degraded, w.failed],
        );
    }

    fn cluster(&mut self, label: &str, c: &Cluster) {
        let f = c.fault_accounting();
        self.push(
            label,
            vec![
                c.clock().to_bits(),
                c.queries_executed(),
                c.tables_repartitioned(),
                c.stats_epoch(),
                f.queries_failed,
                f.node_down_failures,
                f.transient_failures,
                f.failovers,
                f.degraded_completions,
                f.timeouts,
            ],
        );
    }
}

fn ssb_cluster(schema: &Schema) -> Cluster {
    Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
    )
}

/// Run every query once, recording each outcome.
fn run_all(trace: &mut Trace, step: &str, c: &mut Cluster, w: &Workload, timeout: Option<f64>) {
    for q in w.queries() {
        let out = c.run_query(q, timeout);
        trace.outcome(format!("{step}/{}", q.name), out);
    }
    trace.cluster(step, c);
}

/// Scenario 1. Returns the trace plus the memo hits/misses around the
/// second observation window on an unchanged layout.
fn cluster_script() -> (Trace, [(u64, u64); 2]) {
    let schema = lpa::schema::ssb::schema(0.001).unwrap();
    let w = lpa::workload::ssb::workload(&schema).unwrap();
    let freqs = w.uniform_frequencies();
    let mut t = Trace::default();
    let mut c = ssb_cluster(&schema);

    run_all(&mut t, "initial", &mut c, &w, None);
    t.window("window-1", observe_window(&mut c, &w, &freqs));
    let s = c.memo_stats();
    let before = (s.hits, s.misses);
    t.window("window-2", observe_window(&mut c, &w, &freqs));
    let s = c.memo_stats();
    let after = (s.hits, s.misses);
    t.cluster("windows", &c);

    // A new layout, then back to the old one (its entries are still valid).
    let initial = c.deployed().clone();
    let date = schema.table_by_name("date").unwrap();
    let replicated = Action::Replicate { table: date }
        .apply(&schema, &initial)
        .unwrap();
    c.deploy(&replicated);
    run_all(&mut t, "replicated", &mut c, &w, None);
    c.deploy(&initial);
    run_all(&mut t, "back", &mut c, &w, None);
    run_all(&mut t, "timeouts", &mut c, &w, Some(1e-4));

    // Growth changes data, schema and statistics epoch.
    let pre_growth = c.resume_state();
    c.bulk_update(0.5);
    run_all(&mut t, "grown", &mut c, &w, None);

    // A storm: transient draws, node loss, stragglers and slow links.
    c.set_fault_plan(FaultPlan::storm(0x3E30));
    for i in 0..3 {
        run_all(&mut t, &format!("storm-{i}"), &mut c, &w, None);
        c.advance_clock(0.05);
    }
    c.set_fault_plan(FaultPlan::none());
    run_all(&mut t, "calm", &mut c, &w, None);

    // Round trips: onto a freshly built cluster, then back in time to
    // the pre-growth state on the same cluster.
    let mut resumed = ssb_cluster(&schema);
    resumed.restore_resume_state(c.resume_state()).unwrap();
    run_all(&mut t, "resumed", &mut resumed, &w, None);
    resumed.restore_resume_state(pre_growth).unwrap();
    run_all(&mut t, "rewound", &mut resumed, &w, None);
    t.window("window-rewound", observe_window(&mut resumed, &w, &freqs));
    (t, [before, after])
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        seed: 0x3E30,
        max_tenants: 4,
        episodes_per_slice: 1,
        probe_queries: 2,
        window_seconds: 1.0,
        hidden: vec![16, 8],
        batch_size: 8,
        tmax: 3,
        guardrail: GuardrailConfig {
            canary_windows: 1,
            regression_threshold: 0.05,
            cooldown_windows: 1,
            budget_window: 4,
            budget_deploys: 100,
            ..GuardrailConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Healthy SSB, poisoned SSB, storm SSB, healthy TPC-CH.
fn fleet_specs() -> Vec<TenantSpec> {
    (0..4)
        .map(|i| {
            let bench = if i == 3 {
                Benchmark::TpcCh
            } else {
                Benchmark::Ssb
            };
            let mut spec = TenantSpec {
                episodes: 2,
                ..TenantSpec::new(format!("memo-{i}"), bench, 0.001, 700 + i as u64)
            };
            match i {
                1 => spec.poison_from_round = Some(3),
                2 => spec.fault_plan = FaultPlan::storm(0x57_0EA1),
                _ => {}
            }
            spec
        })
        .collect()
}

fn fleet_tenants(t: &mut Trace, fleet: &Fleet, label: &str) {
    for i in 0..fleet.tenant_count() {
        let c = fleet.tenant_cluster(i).unwrap();
        t.cluster(&format!("{label}/tenant-{i}/cluster"), c);
        t.push(
            format!("{label}/tenant-{i}/state"),
            vec![
                fleet.tenant_weight_fingerprint(i).unwrap(),
                fleet.tenant_episode(i).unwrap() as u64,
                lpa::partition::fingerprint64(c.deployed()),
            ],
        );
        t.push(
            format!(
                "{label}/tenant-{i}/ledgers {:?} {:?}",
                fleet.tenant_counters(i).unwrap(),
                fleet.tenant_guardrail(i).unwrap().accounting()
            ),
            Vec::new(),
        );
    }
}

/// Scenario 2. Returns the trace plus the fleet's memo hits.
fn fleet_script() -> (Trace, FleetReport, u64) {
    let mut t = Trace::default();
    let mut fleet = Fleet::new(fleet_cfg());
    for spec in fleet_specs() {
        fleet.admit(spec).unwrap();
    }
    for round in 0..8u64 {
        if round == 4 {
            // In-memory checkpoint round trip of every tenant.
            for i in 0..fleet.tenant_count() {
                let snap = capture_tenant(&fleet, i, fleet.round()).unwrap();
                restore_tenant(&mut fleet, snap).unwrap();
            }
            fleet_tenants(&mut t, &fleet, "restored");
        }
        fleet.run_round();
        // Debug prints every f64 in shortest round-trip form, so equal
        // strings mean bit-equal events.
        for record in fleet.drain_journal() {
            t.push(format!("journal {record:?}"), Vec::new());
        }
        fleet_tenants(&mut t, &fleet, &format!("round-{round}"));
    }
    let hits = (0..fleet.tenant_count())
        .map(|i| fleet.tenant_cluster(i).unwrap().memo_stats().hits)
        .sum();
    (t, fleet.report(), hits)
}

#[test]
fn cluster_memo_matches_naive_oracle() {
    for threads in THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let (fast, [before, after]) = cluster_script();
            let (naive, _) = with_naive_executor(cluster_script);
            assert_eq!(fast, naive, "threads={threads}");
            // The second window on an unchanged layout ran no executor.
            assert_eq!(after.1, before.1, "threads={threads}: window 2 missed");
            assert!(after.0 > before.0, "threads={threads}: window 2 never hit");
        });
    }
}

#[test]
fn guarded_fleet_memo_matches_naive_oracle() {
    for threads in THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let (fast, report, hits) = fleet_script();
            let (naive, _, naive_hits) = with_naive_executor(fleet_script);
            assert_eq!(fast, naive, "threads={threads}");
            assert!(hits > 0, "threads={threads}: the fleet never hit the memo");
            assert_eq!(naive_hits, 0, "the oracle must bypass the memo");
            // The scenario covers what it claims to.
            let g = &report.guardrail;
            assert!(g.commits > 0, "threads={threads}: no canary committed");
            assert!(g.rollbacks() > 0, "threads={threads}: no rollback");
            let storm = report.per_tenant[2].health.accounting;
            assert!(
                storm.queries_failed + storm.degraded_completions > 0,
                "threads={threads}: the storm tenant saw no faults"
            );
        });
    }
}
