//! The cluster façade: deployment, query execution, the simulated clock,
//! sampling and bulk updates.

use crate::datagen::Database;
use crate::engine::EngineProfile;
use crate::executor::{layout_table, Executor, Layout};
use crate::faults::{ClusterHealth, FailReason, FaultAccounting, FaultPlan, FaultState};
use crate::hardware::HardwareProfile;
use crate::optimizer::OptimizerEstimator;
use lpa_partition::{KeyInterner, Partitioning};
use lpa_schema::{Schema, TableId};
use lpa_workload::{FrequencyVector, Query, Workload};
use std::collections::BTreeMap;

/// Configuration of one simulated deployment.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    pub engine: EngineProfile,
    pub hardware: HardwareProfile,
    /// Data-generation seed.
    pub seed: u64,
}

impl ClusterConfig {
    pub fn new(engine: EngineProfile, hardware: HardwareProfile) -> Self {
        Self {
            engine,
            hardware,
            seed: 0x5EED,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one query execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryOutcome {
    Completed {
        seconds: f64,
        output_rows: u64,
        /// True when any fault was active during execution — the measured
        /// runtime is real but not representative of a healthy cluster.
        degraded: bool,
    },
    /// Aborted by the caller-supplied timeout; `limit` seconds were spent.
    TimedOut { limit: f64 },
    /// Aborted by the fault layer; `seconds` were spent before the failure
    /// was detected.
    Failed { reason: FailReason, seconds: f64 },
}

impl QueryOutcome {
    /// Seconds charged to the clock.
    pub fn seconds(&self) -> f64 {
        match self {
            Self::Completed { seconds, .. } => *seconds,
            Self::TimedOut { limit } => *limit,
            Self::Failed { seconds, .. } => *seconds,
        }
    }

    pub fn completed(&self) -> Option<f64> {
        match self {
            Self::Completed { seconds, .. } => Some(*seconds),
            Self::TimedOut { .. } => None,
            Self::Failed { .. } => None,
        }
    }

    /// True when the execution produced a healthy, representative
    /// measurement (completed with no active fault).
    pub fn is_clean(&self) -> bool {
        match self {
            Self::Completed { degraded, .. } => !degraded,
            Self::TimedOut { .. } => false,
            Self::Failed { .. } => false,
        }
    }

    /// The failure reason, when the fault layer aborted the execution.
    pub fn failure(&self) -> Option<FailReason> {
        match self {
            Self::Completed { .. } => None,
            Self::TimedOut { .. } => None,
            Self::Failed { reason, .. } => Some(*reason),
        }
    }
}

/// The checkpointable portion of a [`Cluster`]: captured by
/// [`Cluster::resume_state`] and re-applied by
/// [`Cluster::restore_resume_state`] onto a cluster rebuilt from the same
/// base schema + config.
#[derive(Clone, Debug)]
pub struct ClusterResumeState {
    pub deployed: Partitioning,
    pub clock_seconds: f64,
    pub stats_epoch: u64,
    pub growth: Vec<f64>,
    pub queries_executed: u64,
    pub tables_repartitioned: u64,
    pub faults: FaultPlan,
    pub fault_accounting: FaultAccounting,
}

/// Hit/miss counters of a cluster's execution memo (see
/// [`Cluster::memo_stats`]). Transient, like the memo itself: not
/// checkpointed, and not part of any report compared for bit-identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    /// Distinct (layout, query) executions currently memoized.
    pub entries: usize,
}

/// Exact memo of healthy, untimed executions: (deployed layout, query) →
/// the executor's `(seconds, output_rows)`. Under those conditions the
/// executor and the optimizer's plan are a pure function of the key plus
/// data, schema and statistics epoch, so the memo is cleared wherever
/// those change. Keys are compared in full (a `BTreeMap` over packed
/// words, never a hash).
#[derive(Debug, Default)]
struct ExecMemo {
    layouts: KeyInterner,
    entries: BTreeMap<Box<[u64]>, (f64, u64)>,
    /// Packed key of the last lookup, reused by [`Self::insert_last`].
    key: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl ExecMemo {
    /// Look up `query` on `layout`, packing the full key into `self.key`:
    /// the layout's interned id (all table states and edge flags, which is
    /// what `OptimizerEstimator::plan` reads), then the query's complete
    /// content, each variable-length part prefixed by its length.
    fn get(&mut self, layout: &Partitioning, query: &Query) -> Option<(f64, u64)> {
        let k = &mut self.key;
        k.clear();
        k.push(u64::from(self.layouts.state_key(layout).0));
        k.push(query.name.len() as u64);
        k.extend(query.name.as_bytes().chunks(8).map(|c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        }));
        k.push(query.tables.len() as u64);
        k.extend(query.tables.iter().map(|t| t.0 as u64));
        k.push(query.joins.len() as u64);
        for j in &query.joins {
            k.push(j.pairs.len() as u64);
            for (a, b) in &j.pairs {
                k.extend([a.table.0, a.attr.0, b.table.0, b.attr.0].map(|v| v as u64));
            }
        }
        k.push(query.selectivity.len() as u64);
        k.extend(query.selectivity.iter().map(|s| s.to_bits()));
        k.push(query.cpu_factor.to_bits());
        let found = self.entries.get(self.key.as_slice()).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Memoize the result for the key of the last [`Self::get`].
    fn insert_last(&mut self, value: (f64, u64)) {
        self.entries
            .insert(self.key.clone().into_boxed_slice(), value);
    }

    fn clear(&mut self) {
        self.layouts = KeyInterner::new();
        self.entries.clear();
    }
}

/// A simulated distributed database cluster holding generated data sharded
/// by the currently deployed partitioning.
#[derive(Debug)]
pub struct Cluster {
    base_schema: Schema,
    schema: Schema,
    config: ClusterConfig,
    db: Database,
    deployed: Partitioning,
    layouts: Vec<Layout>,
    optimizer: OptimizerEstimator,
    clock_seconds: f64,
    stats_epoch: u64,
    /// Per-table growth multipliers accumulated by bulk updates.
    growth: Vec<f64>,
    queries_executed: u64,
    tables_repartitioned: u64,
    /// Deterministic fault schedule (inert by default).
    faults: FaultPlan,
    fault_accounting: FaultAccounting,
    /// Reusable columnar-executor buffers (transient — excluded from
    /// resume state; contents never outlive one `run_query`).
    exec_scratch: crate::ExecScratch,
    /// Healthy-execution memo (transient — excluded from resume state;
    /// a pure cache of what the executor would compute again).
    memo: ExecMemo,
}

impl Cluster {
    /// Generate data for `schema` and deploy the initial partitioning.
    pub fn new(schema: Schema, config: ClusterConfig) -> Self {
        let n_tables = schema.tables().len();
        let db = Database::generate(&schema, config.seed);
        let deployed = Partitioning::initial(&schema);
        let layouts = Self::compute_layouts(&schema, &db, &config, &deployed);
        let optimizer = OptimizerEstimator::new(config.engine, config.hardware);
        Self {
            base_schema: schema.clone(),
            schema,
            config,
            db,
            deployed,
            layouts,
            optimizer,
            clock_seconds: 0.0,
            stats_epoch: 0,
            growth: vec![1.0; n_tables],
            queries_executed: 0,
            tables_repartitioned: 0,
            faults: FaultPlan::none(),
            fault_accounting: FaultAccounting::default(),
            exec_scratch: crate::ExecScratch::default(),
            memo: ExecMemo::default(),
        }
    }

    /// The same cluster under a fault schedule (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Install a fault schedule on a running cluster.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The fault state active at the current simulated clock.
    pub fn fault_state(&self) -> FaultState {
        self.faults
            .state_at(self.clock_seconds, self.config.hardware.nodes)
    }

    /// Cumulative fault-layer counters (execution-side view).
    pub fn fault_accounting(&self) -> FaultAccounting {
        self.fault_accounting
    }

    /// Snapshot of cluster health at the current simulated clock.
    pub fn health(&self) -> ClusterHealth {
        let state = self.fault_state();
        ClusterHealth {
            nodes: self.config.hardware.nodes,
            nodes_down: state.nodes_down(),
            stragglers: state.stragglers(),
            degraded_links: state.degraded_links(),
            accounting: self.fault_accounting,
        }
    }

    fn compute_layouts(
        schema: &Schema,
        db: &Database,
        config: &ClusterConfig,
        p: &Partitioning,
    ) -> Vec<Layout> {
        (0..schema.tables().len())
            .map(|t| {
                layout_table(
                    db,
                    &config.engine,
                    config.hardware.nodes,
                    TableId(t),
                    p.table_state(TableId(t)),
                )
            })
            .collect()
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn engine(&self) -> &EngineProfile {
        &self.config.engine
    }

    pub fn deployed(&self) -> &Partitioning {
        &self.deployed
    }

    /// Simulated wall-clock seconds spent so far (queries + repartitioning).
    pub fn clock(&self) -> f64 {
        self.clock_seconds
    }

    /// Charge extra simulated time (e.g. coordination overhead in training
    /// loops).
    pub fn advance_clock(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.clock_seconds += seconds;
    }

    /// Number of simulated query executions charged to the clock
    /// (execution-memo hits included; callers' runtime caches avoid most).
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    /// Execution-memo counters. Transient: they count how often the
    /// simulator itself was skipped, which no simulated quantity depends
    /// on, so they are never checkpointed or compared across runs.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo.hits,
            misses: self.memo.misses,
            entries: self.memo.entries.len(),
        }
    }

    /// Number of single-table repartitionings performed.
    pub fn tables_repartitioned(&self) -> u64 {
        self.tables_repartitioned
    }

    /// Statistics epoch (bumped by bulk updates; plans can change).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Deploy a new partitioning: repartition every table whose physical
    /// state changes, charging the movement time. Returns seconds spent.
    pub fn deploy(&mut self, target: &Partitioning) -> f64 {
        let changed = self.deployed.diff_tables(target);
        let mut seconds = 0.0;
        for t in changed {
            seconds += self.repartition_time(t, target);
            self.layouts[t.0] = layout_table(
                &self.db,
                &self.config.engine,
                self.config.hardware.nodes,
                t,
                target.table_state(t),
            );
            self.tables_repartitioned += 1;
        }
        self.deployed = target.clone();
        self.clock_seconds += seconds;
        seconds
    }

    /// Estimated cost of repartitioning from one partitioning to another
    /// without performing it (used by training-time ledgers).
    pub fn repartition_cost(&self, from: &Partitioning, to: &Partitioning) -> f64 {
        from.diff_tables(to)
            .into_iter()
            .map(|t| self.repartition_time(t, to))
            .sum()
    }

    fn repartition_time(&self, t: TableId, target: &Partitioning) -> f64 {
        let bytes = self.schema.table(t).bytes() as f64;
        let n = self.config.hardware.nodes as f64;
        let move_factor = match target.table_state(t) {
            lpa_partition::TableState::Replicated => n - 1.0,
            lpa_partition::TableState::PartitionedBy(_) => (n - 1.0) / n,
        };
        let transfer = bytes * move_factor / self.config.hardware.aggregate_net();
        // Disk-based engines rewrite the table on both ends.
        let rewrite = bytes * self.config.engine.repartition_penalty
            / if self.config.engine.disk_based {
                self.config.hardware.disk_scan_bandwidth
            } else {
                self.config.hardware.mem_scan_bandwidth
            };
        transfer + rewrite / n
    }

    /// Execute one query against the deployed partitioning, charging the
    /// clock. With a timeout, execution aborts once the budget is spent.
    /// Faults scheduled for the current simulated instant apply: transient
    /// errors and unreachable unreplicated shards abort with
    /// [`QueryOutcome::Failed`]; stragglers and degraded links inflate the
    /// charged time and mark the completion degraded.
    ///
    /// Healthy untimed executions outside [`crate::with_naive_executor`]
    /// are served from an exact memo keyed on (deployed layout, query):
    /// the clock, counters and outcome are the same as a fresh execution.
    pub fn run_query(&mut self, query: &Query, timeout: Option<f64>) -> QueryOutcome {
        let faults = self.fault_state();
        self.queries_executed += 1;

        // Transient error: the connection dies before any real work; only
        // the per-query overhead is charged. Deterministic in (seed,
        // window, execution number), so a retry after backoff re-rolls.
        if self
            .faults
            .transient_failure(self.clock_seconds, self.queries_executed)
        {
            let seconds = self.config.engine.query_overhead;
            self.clock_seconds += seconds;
            self.fault_accounting.queries_failed += 1;
            self.fault_accounting.transient_failures += 1;
            return QueryOutcome::Failed {
                reason: FailReason::Transient,
                seconds,
            };
        }

        // Replica-aware failover: a crashed node takes its unreplicated
        // shards with it, so any query touching a partitioned table fails
        // until recovery; queries over replicated tables read the copies
        // on surviving nodes.
        if faults.nodes_down() > 0 {
            if let Some(node) = self.unreachable_shard(query, &faults) {
                let seconds = self.config.engine.query_overhead;
                self.clock_seconds += seconds;
                self.fault_accounting.queries_failed += 1;
                self.fault_accounting.node_down_failures += 1;
                return QueryOutcome::Failed {
                    reason: FailReason::NodeDown { node },
                    seconds,
                };
            }
        }

        // Only healthy, untimed executions are a pure function of the memo
        // key; the naive executor is the oracle and always runs for real.
        let memoizable =
            timeout.is_none() && !faults.any_fault() && !crate::columnar::naive_executor_forced();
        if memoizable {
            if let Some((seconds, output_rows)) = self.memo.get(&self.deployed, query) {
                self.clock_seconds += seconds;
                return QueryOutcome::Completed {
                    seconds,
                    output_rows,
                    degraded: false,
                };
            }
        }

        let plan = self
            .optimizer
            .plan(&self.schema, query, &self.deployed, self.stats_epoch);
        let exec = Executor {
            schema: &self.schema,
            db: &self.db,
            engine: &self.config.engine,
            hw: &self.config.hardware,
            layouts: &self.layouts,
            faults: &faults,
        };
        match exec.execute_with(query, &plan, timeout, &mut self.exec_scratch) {
            Some(r) => {
                if memoizable {
                    self.memo.insert_last((r.seconds, r.output_rows));
                }
                self.clock_seconds += r.seconds;
                let degraded = faults.any_fault();
                if degraded {
                    self.fault_accounting.degraded_completions += 1;
                }
                if faults.nodes_down() > 0 {
                    self.fault_accounting.failovers += 1;
                }
                QueryOutcome::Completed {
                    seconds: r.seconds,
                    output_rows: r.output_rows,
                    degraded,
                }
            }
            None => {
                // Execution only aborts when a timeout was set; a missing
                // limit degrades to an instant timeout rather than a panic.
                let limit = timeout.unwrap_or(0.0);
                self.clock_seconds += limit;
                self.fault_accounting.timeouts += 1;
                QueryOutcome::TimedOut { limit }
            }
        }
    }

    /// First down node whose loss makes the query unservable: any scanned
    /// table that is partitioned (not replicated) has exactly one copy of
    /// each shard, so a single down node cuts it.
    fn unreachable_shard(&self, query: &Query, faults: &FaultState) -> Option<usize> {
        let node = faults.down.iter().position(|d| *d)?;
        for t in &query.tables {
            if matches!(self.layouts[t.0], Layout::Hashed { .. }) {
                return Some(node);
            }
        }
        None
    }

    /// Run the whole workload once, returning the frequency-weighted total
    /// runtime `Σ_j f_j · c(P, q_j)`.
    pub fn run_workload(&mut self, workload: &Workload, freqs: &FrequencyVector) -> f64 {
        workload
            .queries()
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let f = freqs.as_slice().get(i).copied().unwrap_or(0.0);
                if f == 0.0 {
                    0.0
                } else {
                    f * self.run_query(q, None).seconds()
                }
            })
            .sum()
    }

    /// Optimizer cost estimate for a candidate partitioning (the classical
    /// baseline's objective). `None` on engines without optimizer access.
    pub fn optimizer_estimate(&self, query: &Query, candidate: &Partitioning) -> Option<f64> {
        self.optimizer
            .estimate_cost(&self.schema, query, candidate, self.stats_epoch)
    }

    /// Bulk-load `fraction` more data into every table (statistics change,
    /// the deployed partitioning is preserved).
    pub fn bulk_update(&mut self, fraction: f64) {
        let all: Vec<TableId> = (0..self.base_schema.tables().len()).map(TableId).collect();
        self.bulk_update_tables(fraction, &all);
    }

    /// Bulk-load `fraction` more data into the listed tables only — the
    /// Fig. 4b experiment grows just the transactional tables, matching
    /// TPC-H's refresh functions (which insert new orders and lineitems,
    /// not new customers).
    pub fn bulk_update_tables(&mut self, fraction: f64, tables: &[TableId]) {
        assert!(fraction >= 0.0);
        for t in tables {
            self.growth[t.0] += fraction;
        }
        self.schema = self.base_schema.clone().scaled_per_table(&self.growth);
        self.db = Database::generate(&self.schema, self.config.seed);
        self.layouts = Self::compute_layouts(&self.schema, &self.db, &self.config, &self.deployed);
        self.stats_epoch += 1;
        self.memo.clear();
    }

    /// The mutable state a checkpoint must carry to resume this cluster
    /// bit-identically. Everything else (generated rows, layouts, the
    /// optimizer) is a pure function of `(base schema, config, growth,
    /// deployed)` and is regenerated on restore.
    pub fn resume_state(&self) -> ClusterResumeState {
        ClusterResumeState {
            deployed: self.deployed.clone(),
            clock_seconds: self.clock_seconds,
            stats_epoch: self.stats_epoch,
            growth: self.growth.clone(),
            queries_executed: self.queries_executed,
            tables_repartitioned: self.tables_repartitioned,
            faults: self.faults,
            fault_accounting: self.fault_accounting,
        }
    }

    /// Apply checkpointed state onto a cluster freshly built over the same
    /// base schema and config. Regenerates data (only when the scaled
    /// schema's row counts differ: the database is a pure function of the
    /// scaled schema and seed), layouts and statistics; `Err` (never
    /// panics: this is the recovery path) when the state does not fit the
    /// schema.
    pub fn restore_resume_state(&mut self, st: ClusterResumeState) -> Result<(), String> {
        if st.growth.len() != self.base_schema.tables().len() {
            return Err(format!(
                "growth vector has {} entries for {} tables",
                st.growth.len(),
                self.base_schema.tables().len()
            ));
        }
        let schema = self.base_schema.clone().scaled_per_table(&st.growth);
        st.deployed.check(&schema)?;
        let same_rows = schema
            .tables()
            .iter()
            .zip(self.schema.tables())
            .all(|(a, b)| a.rows == b.rows);
        self.growth = st.growth;
        self.schema = schema;
        if !same_rows {
            self.db = Database::generate(&self.schema, self.config.seed);
        }
        self.deployed = st.deployed;
        self.layouts = Self::compute_layouts(&self.schema, &self.db, &self.config, &self.deployed);
        self.clock_seconds = st.clock_seconds;
        self.stats_epoch = st.stats_epoch;
        self.queries_executed = st.queries_executed;
        self.tables_repartitioned = st.tables_repartitioned;
        self.faults = st.faults;
        self.fault_accounting = st.fault_accounting;
        self.memo.clear();
        Ok(())
    }

    /// A fresh cluster over a sample of the data (`fraction` of the rows),
    /// used for online training (Section 4.2, Sampling). Join integrity is
    /// preserved by sampling parents and children together.
    pub fn sampled(&self, fraction: f64) -> Cluster {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let factors: Vec<f64> = self.growth.iter().map(|g| g * fraction).collect();
        let mut sample = Cluster::new(
            self.base_schema.clone().scaled_per_table(&factors),
            self.config,
        );
        // The sample inherits the fault schedule, rescaled to its faster
        // clock so per-query fault density is preserved rather than
        // silently dropped.
        sample.faults = self.faults.rescaled(fraction);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_partition::Action;

    fn micro_cluster() -> (Cluster, Workload) {
        let schema = lpa_schema::microbench::schema(0.003).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let c = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        (c, w)
    }

    #[test]
    fn query_runs_and_charges_clock() {
        let (mut c, w) = micro_cluster();
        let before = c.clock();
        let out = c.run_query(&w.queries()[0], None);
        let secs = out.completed().expect("no timeout");
        assert!(secs > 0.0);
        assert!((c.clock() - before - secs).abs() < 1e-12);
        assert_eq!(c.queries_executed(), 1);
    }

    #[test]
    fn join_produces_expected_cardinality() {
        // a ⋈ b with 3% filter on b: expect about 3% of a's rows.
        let (mut c, w) = micro_cluster();
        let a_rows = c.schema().table(lpa_schema::microbench::tables::A).rows as f64;
        let out = c.run_query(&w.queries()[0], None);
        match out {
            QueryOutcome::Completed { output_rows, .. } => {
                let expected = a_rows * 0.03;
                assert!(
                    (output_rows as f64) > expected * 0.5 && (output_rows as f64) < expected * 1.8,
                    "got {output_rows}, expected ≈{expected}"
                );
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("expected completion")
            }
        }
    }

    #[test]
    fn co_partitioning_reduces_measured_runtime() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        let q_ac = &w.queries()[1]; // a ⋈ c
        let base = c.run_query(q_ac, None).completed().unwrap();
        // Co-partition a with c.
        let e_ac = schema
            .edge_between(
                schema.attr_ref("a", "a_c_key").unwrap(),
                schema.attr_ref("c", "c_key").unwrap(),
            )
            .unwrap();
        let co = Action::ActivateEdge(e_ac)
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        let rep_secs = c.deploy(&co);
        assert!(rep_secs > 0.0, "repartitioning costs time");
        let local = c.run_query(q_ac, None).completed().unwrap();
        assert!(
            local < base,
            "co-partitioned join {local} should beat shuffled {base}"
        );
    }

    #[test]
    fn replication_kills_shuffle_bytes() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        let b = schema.table_by_name("b").unwrap();
        let repl = Action::Replicate { table: b }
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        c.deploy(&repl);
        let q_ab = &w.queries()[0];
        let out = c.run_query(q_ab, None).completed().unwrap();
        assert!(out > 0.0);
        // Compare against the partitioned variant on a fresh cluster.
        let (mut c2, _) = micro_cluster();
        let shuffled = c2.run_query(q_ab, None).completed().unwrap();
        // Both complete; exact ordering depends on the hardware profile,
        // but the replicated run must not shuffle b.
        let _ = shuffled;
    }

    #[test]
    fn timeouts_abort() {
        let (mut c, w) = micro_cluster();
        let out = c.run_query(&w.queries()[0], Some(1e-9));
        assert!(matches!(out, QueryOutcome::TimedOut { .. }));
        assert!(out.completed().is_none());
        // Cluster-level accounting sees the abort (service reports used to
        // under-count because only the online backend tracked timeouts).
        assert_eq!(c.fault_accounting().timeouts, 1);
        c.run_query(&w.queries()[0], Some(1e-9));
        assert_eq!(c.fault_accounting().timeouts, 2);
    }

    #[test]
    fn sampled_cluster_inherits_rescaled_fault_plan() {
        let (mut c, _) = micro_cluster();
        let plan = crate::faults::FaultPlan::storm(21);
        c.set_fault_plan(plan);
        let sample = c.sampled(0.25);
        let carried = sample.fault_plan();
        assert_eq!(carried.seed, plan.seed);
        assert_eq!(carried.crash_rate, plan.crash_rate);
        assert!(
            (carried.window_seconds - plan.window_seconds * 0.25).abs() < 1e-15,
            "sample windows must shrink with the sample's clock"
        );
        // Regression: before the chaos layer, `sampled` dropped all state
        // it did not explicitly copy — an inert plan must stay inert too.
        let inert = Cluster::new(c.schema().clone(), *c.config()).sampled(0.5);
        assert!(inert.fault_plan().is_inert());
    }

    #[test]
    fn replicated_tables_survive_node_loss_partitioned_fail() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        // Crash every node the plan can (one deterministic survivor stays).
        let mut plan = crate::faults::FaultPlan::storm(5);
        plan.crash_rate = 1.0;
        plan.transient_rate = 0.0;
        c.set_fault_plan(plan);
        assert!(c.fault_state().nodes_down() > 0);

        // All tables partitioned (initial deployment): the query fails.
        let q = &w.queries()[0];
        let out = c.run_query(q, None);
        assert!(
            matches!(
                out.failure(),
                Some(crate::faults::FailReason::NodeDown { .. })
            ),
            "partitioned tables must be unservable while a node is down, got {out:?}"
        );
        assert!(c.fault_accounting().node_down_failures >= 1);

        // Replicate every table the query touches: it now fails over.
        let mut target = Partitioning::initial(&schema);
        for t in 0..schema.tables().len() {
            target = lpa_partition::Action::Replicate { table: TableId(t) }
                .apply(&schema, &target)
                .unwrap_or(target);
        }
        c.deploy(&target);
        let out = c.run_query(q, None);
        match out {
            QueryOutcome::Completed {
                seconds, degraded, ..
            } => {
                assert!(seconds > 0.0);
                assert!(degraded, "completion under faults must be flagged");
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("replicated query should fail over, got {out:?}")
            }
        }
        assert!(c.fault_accounting().failovers >= 1);
        assert!(c.health().degraded_measurements() >= 1);
    }

    #[test]
    fn straggler_inflates_runtime_deterministically() {
        let (mut healthy, w) = micro_cluster();
        let q = &w.queries()[0];
        let base = healthy.run_query(q, None).seconds();

        let (mut slow, _) = micro_cluster();
        let mut plan = crate::faults::FaultPlan::storm(11);
        plan.crash_rate = 0.0;
        plan.transient_rate = 0.0;
        plan.link_degrade_rate = 0.0;
        plan.straggle_rate = 1.0;
        plan.straggle_factor = 8.0;
        slow.set_fault_plan(plan);
        let out = slow.run_query(q, None);
        let degraded_secs = out.seconds();
        assert!(
            degraded_secs > base,
            "straggling nodes must slow the query: {degraded_secs} vs {base}"
        );
        assert!(!out.is_clean());

        // Same plan, same clock → same inflated runtime.
        let (mut slow2, _) = micro_cluster();
        slow2.set_fault_plan(plan);
        assert_eq!(slow2.run_query(q, None).seconds(), degraded_secs);
    }

    #[test]
    fn deploy_is_idempotent_and_lazy() {
        let (mut c, _) = micro_cluster();
        let p = c.deployed().clone();
        let secs = c.deploy(&p);
        assert_eq!(secs, 0.0, "no table changed, nothing to move");
        assert_eq!(c.tables_repartitioned(), 0);
    }

    #[test]
    fn bulk_update_grows_tables_and_bumps_epoch() {
        let (mut c, w) = micro_cluster();
        let rows_before = c.schema().table(TableId(0)).rows;
        let t_before = c.run_query(&w.queries()[0], None).seconds();
        c.bulk_update(0.6);
        assert_eq!(c.stats_epoch(), 1);
        assert!(c.schema().table(TableId(0)).rows > rows_before);
        let t_after = c.run_query(&w.queries()[0], None).seconds();
        assert!(t_after > t_before, "more data, longer runtime");
    }

    /// Bitwise view of an outcome, so `-0.0`/`0.0`-style near-misses of
    /// `PartialEq` on `f64` cannot hide a divergence.
    fn outcome_bits(o: QueryOutcome) -> (u64, Option<u64>, bool) {
        match o {
            QueryOutcome::Completed {
                seconds,
                output_rows,
                degraded,
            } => (seconds.to_bits(), Some(output_rows), degraded),
            QueryOutcome::TimedOut { limit } => (limit.to_bits(), None, false),
            QueryOutcome::Failed { seconds, .. } => (seconds.to_bits(), None, true),
        }
    }

    fn single_fault(straggle: bool) -> FaultPlan {
        let mut plan = FaultPlan::storm(11);
        plan.crash_rate = 0.0;
        plan.transient_rate = 0.0;
        if straggle {
            plan.link_degrade_rate = 0.0;
            plan.straggle_rate = 1.0;
        } else {
            plan.straggle_rate = 0.0;
            plan.link_degrade_rate = 1.0;
        }
        plan
    }

    #[test]
    fn memo_hit_is_bit_identical_to_execution() {
        let (mut fast, w) = micro_cluster();
        let (mut naive, _) = micro_cluster();
        for q in w.queries().iter().chain(w.queries()) {
            let a = fast.run_query(q, None);
            let b = crate::with_naive_executor(|| naive.run_query(q, None));
            assert_eq!(outcome_bits(a), outcome_bits(b), "{}", q.name);
            assert_eq!(fast.clock().to_bits(), naive.clock().to_bits());
            assert_eq!(fast.queries_executed(), naive.queries_executed());
        }
        let n = w.queries().len() as u64;
        let stats = fast.memo_stats();
        assert_eq!((stats.hits, stats.misses), (n, n));
        assert_eq!(
            naive.memo_stats(),
            MemoStats::default(),
            "the oracle bypasses the memo"
        );
    }

    #[test]
    fn memoized_query_still_times_out() {
        let (mut c, w) = micro_cluster();
        let q = &w.queries()[0];
        c.run_query(q, None);
        c.run_query(q, None);
        let warm = c.memo_stats();
        assert_eq!((warm.hits, warm.misses), (1, 1));
        let out = c.run_query(q, Some(1e-9));
        assert!(matches!(out, QueryOutcome::TimedOut { .. }), "got {out:?}");
        assert_eq!(c.fault_accounting().timeouts, 1);
        assert_eq!(
            c.memo_stats(),
            warm,
            "timed runs neither read nor fill the memo"
        );
    }

    #[test]
    fn faulted_executions_bypass_the_memo() {
        for straggle in [true, false] {
            let (mut c, w) = micro_cluster();
            let (q0, q1) = (&w.queries()[0], &w.queries()[1]);
            let healthy = c.run_query(q0, None).seconds();
            let warm = c.memo_stats();
            c.set_fault_plan(single_fault(straggle));
            assert!(c.fault_state().any_fault());
            // A memoized query is re-executed, not served healthy.
            let out = c.run_query(q0, None);
            assert!(!out.is_clean(), "straggle={straggle}: {out:?}");
            assert!(out.seconds() > healthy, "straggle={straggle}");
            // A new query under faults is not memoized either.
            let faulted = c.run_query(q1, None);
            assert!(!faulted.is_clean());
            assert_eq!(c.memo_stats(), warm, "straggle={straggle}");
            c.set_fault_plan(FaultPlan::none());
            let clean = c.run_query(q1, None);
            assert!(clean.is_clean());
            assert!(clean.seconds() < faulted.seconds());
            let stats = c.memo_stats();
            assert_eq!((stats.hits, stats.misses), (warm.hits, warm.misses + 1));
        }
    }

    #[test]
    fn restore_with_different_growth_matches_fresh_cluster() {
        let (mut c, w) = micro_cluster();
        let q = &w.queries()[0];
        let before = c.run_query(q, None);
        let (mut grown, _) = micro_cluster();
        grown.bulk_update(0.6);
        let st = grown.resume_state();
        c.restore_resume_state(st.clone()).unwrap();
        let (mut fresh, _) = micro_cluster();
        fresh.restore_resume_state(st).unwrap();
        let after = c.run_query(q, None);
        assert_eq!(outcome_bits(after), outcome_bits(fresh.run_query(q, None)));
        assert_ne!(outcome_bits(after), outcome_bits(before));
        assert_eq!(c.clock().to_bits(), fresh.clock().to_bits());
    }

    #[test]
    fn restore_with_equal_growth_matches_fresh_cluster() {
        let (mut c, w) = micro_cluster();
        c.run_query(&w.queries()[0], None);
        let moved = lpa_partition::valid_actions(c.schema(), c.deployed())[0]
            .apply(c.schema(), c.deployed())
            .unwrap();
        c.deploy(&moved);
        let st = c.resume_state();
        let (mut restored, _) = micro_cluster();
        restored.restore_resume_state(st).unwrap();
        // The kept data is what a regeneration would produce.
        let fresh = Database::generate(&restored.schema, restored.config.seed);
        for (a, b) in restored.db.tables().iter().zip(fresh.tables()) {
            assert_eq!((a.rows, &a.columns), (b.rows, &b.columns));
        }
        assert_eq!(restored.deployed(), c.deployed());
        for q in w.queries() {
            assert_eq!(
                outcome_bits(restored.run_query(q, None)),
                outcome_bits(crate::with_naive_executor(|| c.run_query(q, None)))
            );
        }
        assert_eq!(restored.clock().to_bits(), c.clock().to_bits());
    }

    #[test]
    fn query_content_not_name_keys_the_memo() {
        let (mut c, w) = micro_cluster();
        let q = w.queries()[0].clone();
        let mut narrower = q.clone();
        narrower.selectivity[0] *= 0.5;
        let wide = c.run_query(&q, None);
        let narrow = c.run_query(&narrower, None);
        let stats = c.memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
        let (mut fresh, _) = micro_cluster();
        fresh.run_query(&q, None);
        assert_eq!(
            outcome_bits(narrow),
            outcome_bits(fresh.run_query(&narrower, None))
        );
        assert_ne!(outcome_bits(wide), outcome_bits(narrow));
    }

    #[test]
    fn sampled_cluster_is_smaller_and_faster() {
        let (c, w) = micro_cluster();
        let mut sample = c.sampled(0.2);
        assert!(sample.schema().table(TableId(0)).rows < c.schema().table(TableId(0)).rows);
        let out = sample.run_query(&w.queries()[0], None);
        assert!(out.completed().unwrap() > 0.0);
    }

    #[test]
    fn district_copartitioning_makes_tpcch_key_join_local() {
        // End-to-end check of the inheritance machinery: co-partitioning
        // order and customer by district makes the key join local (zero
        // shuffled bytes for that join) even though the join is on c_key.
        let schema = lpa_schema::tpcch::schema(0.0015).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let q13 = w.queries().iter().find(|q| q.name == "ch_q13").unwrap();
        let mut c = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
        );
        let pk_time = c.run_query(q13, None).completed().unwrap();
        let e = schema
            .edge_between(
                schema.attr_ref("customer", "c_d_id").unwrap(),
                schema.attr_ref("order", "o_d_id").unwrap(),
            )
            .unwrap();
        let co = Action::ActivateEdge(e)
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        c.deploy(&co);
        let co_time = c.run_query(q13, None).completed().unwrap();
        // District partitioning is local but skewed; it should still beat
        // the full shuffle on a disk-based engine.
        assert!(
            co_time < pk_time,
            "local-but-skewed {co_time} vs shuffle {pk_time}"
        );
    }
}
