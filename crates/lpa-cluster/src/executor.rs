//! Per-node hash-join execution over the generated data.
//!
//! The executor follows a plan's join order and exchange strategies, but
//! everything it *charges* comes from what actually happens to the rows:
//! build/probe/output counts per node, bytes received per node during
//! broadcasts and shuffles, and straggler effects (a step is as slow as its
//! most loaded node). Value skew and co-location therefore influence
//! runtimes through the data itself — this is what the online phase of the
//! advisor learns from and what the offline cost model only approximates.

use crate::datagen::Database;
use crate::engine::{splitmix64, EngineProfile};
use crate::faults::FaultState;
use crate::hardware::HardwareProfile;
use lpa_costmodel::{JoinStrategy, QueryPlan};
use lpa_par::Pool;
use lpa_partition::TableState;
use lpa_schema::{AttrRef, Schema, TableId};
use lpa_workload::Query;
use std::collections::HashMap;

/// Row count below which per-node work runs inline: thread spawning costs
/// more than the join itself for small tables. The threshold only selects
/// serial vs. parallel execution of the *same* per-node decomposition, so
/// results are bit-identical either way.
pub(crate) const PAR_MIN_ROWS: usize = 1 << 14;

/// The deterministic pool for `work` row-operations' worth of simulator
/// work (inline below [`PAR_MIN_ROWS`]).
pub(crate) fn par_pool(work: usize) -> Pool {
    if work >= PAR_MIN_ROWS {
        Pool::current()
    } else {
        Pool::with_threads(1)
    }
}

/// Per-table physical layout on the cluster.
#[derive(Clone, Debug)]
pub enum Layout {
    /// Full copy on every node.
    Replicated,
    /// `node[row]` assignment derived from the partition-key values, and
    /// the resulting per-node row counts (`counts[node]`).
    Hashed {
        attr: lpa_schema::AttrId,
        node: Vec<u8>,
        counts: Vec<u64>,
    },
}

/// Compute the layout of one table under a deployment.
pub fn layout_table(
    db: &Database,
    engine: &EngineProfile,
    nodes: usize,
    table: TableId,
    state: TableState,
) -> Layout {
    match state {
        TableState::Replicated => Layout::Replicated,
        TableState::PartitionedBy(attr) => {
            let col = db.column(table, attr);
            let node = par_pool(col.len()).par_map_chunked(
                col,
                lpa_par::default_chunk_len(col.len()),
                |_, &v| engine.node_of(v, nodes) as u8,
            );
            let mut hist = [0u64; 256];
            for &a in &node {
                hist[a as usize] += 1;
            }
            let counts = hist.get(..nodes).unwrap_or(&hist).to_vec();
            Layout::Hashed { attr, node, counts }
        }
    }
}

/// Result of executing one query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecResult {
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Rows in the final join result (before aggregation).
    pub output_rows: u64,
    /// Total bytes that crossed the network.
    pub bytes_shuffled: f64,
}

/// Intermediate result: provenance rows (one base-row id per query table
/// slot) with a per-row node placement.
struct Inter {
    /// `slots[s][i]` = base-table row feeding output row `i` from query
    /// table slot `s` (`u32::MAX` when the slot is not yet joined).
    slots: Vec<Vec<u32>>,
    node: Vec<u8>,
    replicated: bool,
    bytes_per_row: f64,
}

impl Inter {
    fn len(&self) -> usize {
        // Absent slots stay empty; present slots share the same length.
        self.slots.iter().map(|s| s.len()).max().unwrap_or(0)
    }
}

/// The execution context for one query.
#[derive(Debug)]
pub struct Executor<'a> {
    pub schema: &'a Schema,
    pub db: &'a Database,
    pub engine: &'a EngineProfile,
    pub hw: &'a HardwareProfile,
    pub layouts: &'a [Layout],
    /// Active fault state. On a healthy cluster this is the nominal state
    /// (nothing down, all multipliers exactly 1.0), and every charge below
    /// is bit-identical to the fault-free arithmetic: `x * 1.0` is an exact
    /// identity for finite doubles, and the weighted maxima reduce to the
    /// unweighted ones.
    pub faults: &'a FaultState,
}

impl<'a> Executor<'a> {
    /// Execute `query` under the deployed `partitioning`, following `plan`.
    /// Returns the simulated runtime; if `budget` is given, execution is
    /// aborted once the accumulated time exceeds it and `None` is returned
    /// (the timeout optimization of Section 4.2).
    ///
    /// Routes to the columnar fast path ([`crate::columnar`]) unless
    /// [`crate::with_naive_executor`] forces this row-at-a-time reference.
    /// Allocates a fresh scratch; steady-state callers should hold an
    /// [`crate::ExecScratch`] and use [`Self::execute_with`].
    pub fn execute(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
    ) -> Option<ExecResult> {
        let mut scratch = crate::ExecScratch::default();
        self.execute_with(query, plan, budget, &mut scratch)
    }

    /// [`Self::execute`] with a caller-provided reusable scratch.
    pub fn execute_with(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
        scratch: &mut crate::ExecScratch,
    ) -> Option<ExecResult> {
        if crate::columnar::naive_executor_forced() {
            self.execute_naive(query, plan, budget)
        } else {
            self.execute_columnar(query, plan, budget, scratch)
        }
    }

    /// The row-at-a-time reference executor: allocating, per-node nested
    /// loops. Kept verbatim as the differential oracle for the columnar
    /// path — every charge below defines the contract the fast path must
    /// reproduce bit-for-bit.
    pub fn execute_naive(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
    ) -> Option<ExecResult> {
        let n = self.hw.nodes;
        let mut seconds = self.engine.query_overhead;
        let mut bytes_shuffled = 0.0;

        // Charge scans of all participating tables (predicate evaluation
        // happens during the scan, so the full table is read).
        let scan_bw = if self.engine.disk_based {
            self.hw.disk_scan_bandwidth
        } else {
            self.hw.mem_scan_bandwidth
        };
        for &t in &query.tables {
            let bytes = self.schema.table(t).bytes() as f64;
            let max_share = self.max_shard_fraction(t);
            seconds += bytes * max_share / scan_bw;
        }
        if over(seconds, budget) {
            return None;
        }

        // Single-table query: scan + aggregate.
        if query.joins.is_empty() {
            let t = query.tables[0];
            let rows = self.filtered_rows(query, t).len() as f64;
            let share = self.max_shard_fraction(t);
            seconds += rows * share * self.hw.cpu_tuple_cost * query.cpu_factor;
            return Some(ExecResult {
                seconds,
                output_rows: rows as u64,
                bytes_shuffled,
            });
        }

        // A join query always has a planner-chosen start table; fall back
        // to the first scanned table rather than panicking mid-episode.
        let start = plan.start_table.unwrap_or(query.tables[0]);
        let mut inter = self.seed_inter(query, start);

        for step in &plan.steps {
            let Some(join) = query.joins.get(step.join_index) else {
                continue;
            };
            let right_table = step.table;
            // Cycle-closure steps never appear (the planner consumes them
            // silently), so each step introduces `right_table`.
            let (step_seconds, step_bytes, next) =
                self.join_step(query, &inter, right_table, join, step.strategy);
            seconds += step_seconds;
            bytes_shuffled += step_bytes;
            inter = next;
            if over(seconds, budget) {
                return None;
            }
        }

        // Final aggregation over the join result.
        let out_rows = inter.len() as f64;
        let agg_share = if inter.replicated {
            1.0
        } else {
            self.max_node_fraction(&inter.node, n)
        };
        seconds += out_rows * agg_share * self.hw.cpu_tuple_cost * query.cpu_factor;
        if over(seconds, budget) {
            return None;
        }
        Some(ExecResult {
            seconds,
            output_rows: inter.len() as u64,
            bytes_shuffled,
        })
    }

    /// Straggler multiplier of work every live node performs in full (e.g.
    /// scanning a replicated table): the step is as slow as the slowest
    /// node that is still up.
    pub(crate) fn replicated_slowdown(&self) -> f64 {
        self.faults
            .work_mult
            .iter()
            .zip(&self.faults.down)
            .filter(|(_, down)| !**down)
            .map(|(m, _)| *m)
            .fold(1.0, f64::max)
    }

    /// Fraction of a table's rows on its most loaded node, weighted by the
    /// per-node work multipliers (a straggler makes its shard "heavier").
    fn max_shard_fraction(&self, t: TableId) -> f64 {
        match &self.layouts[t.0] {
            Layout::Replicated => self.replicated_slowdown(),
            Layout::Hashed { node, .. } => {
                if node.is_empty() {
                    1.0 / self.hw.nodes as f64
                } else {
                    self.max_node_fraction(node, self.hw.nodes)
                }
            }
        }
    }

    fn max_node_fraction(&self, assignment: &[u8], nodes: usize) -> f64 {
        if assignment.is_empty() {
            return 1.0 / nodes as f64;
        }
        // Chunked partial histograms merged in chunk order. The merge is
        // integer addition, so the counts — and the fraction — are exact
        // regardless of chunking or thread count.
        let chunk = lpa_par::default_chunk_len(assignment.len());
        let n_chunks = assignment.len().div_ceil(chunk);
        let partials = par_pool(assignment.len()).par_index_map(n_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(assignment.len());
            let mut counts = vec![0usize; nodes];
            for &a in &assignment[lo..hi] {
                counts[a as usize] += 1;
            }
            counts
        });
        let mut counts = vec![0usize; nodes];
        for p in partials {
            for (total, part) in counts.iter_mut().zip(p) {
                *total += part;
            }
        }
        // Weighted straggler maximum: counts are exact in f64 (≤ 2^53) and
        // int→float conversion is monotonic, so with all multipliers at 1.0
        // this equals the plain integer max — bit-for-bit.
        let max_weighted = counts
            .iter()
            .enumerate()
            .map(|(node, &c)| c as f64 * self.node_work_mult(node))
            .fold(0.0, f64::max);
        max_weighted / assignment.len() as f64
    }

    /// Work multiplier of a node (1.0 when the fault state does not cover
    /// it, e.g. hand-built executors in tests).
    pub(crate) fn node_work_mult(&self, node: usize) -> f64 {
        self.faults.work_mult.get(node).copied().unwrap_or(1.0)
    }

    /// Network receive-time multiplier of a node.
    pub(crate) fn node_net_mult(&self, node: usize) -> f64 {
        self.faults.net_mult.get(node).copied().unwrap_or(1.0)
    }

    /// Deterministic predicate filter: row ids of `t` surviving the query's
    /// local predicates.
    fn filtered_rows(&self, query: &Query, t: TableId) -> Vec<u32> {
        let sel = query.table_selectivity(t);
        let rows = self.db.table(t).rows;
        if sel >= 1.0 {
            return (0..rows as u32).collect();
        }
        let threshold = (sel * u64::MAX as f64) as u64;
        let tag = splitmix64(hash_str(&query.name) ^ ((t.0 as u64) << 17));
        (0..rows as u32)
            .filter(|&r| splitmix64(tag ^ r as u64) <= threshold)
            .collect()
    }

    fn seed_inter(&self, query: &Query, start: TableId) -> Inter {
        let slot = slot_of(query, start);
        let rows = self.filtered_rows(query, start);
        let mut slots = vec![Vec::new(); query.tables.len()];
        let (node, replicated) = match &self.layouts[start.0] {
            Layout::Replicated => (vec![0u8; rows.len()], true),
            Layout::Hashed { node, .. } => {
                (rows.iter().map(|&r| node[r as usize]).collect(), false)
            }
        };
        if let Some(seed_slot) = slots.get_mut(slot) {
            *seed_slot = rows;
        }
        for (s, v) in slots.iter_mut().enumerate() {
            if s != slot {
                *v = Vec::new();
            }
        }
        Inter {
            slots,
            node,
            replicated,
            bytes_per_row: self.schema.table(start).row_bytes as f64,
        }
    }

    /// Value of the intermediate's rows for an attribute of one of its
    /// already-joined tables.
    fn inter_values(&self, query: &Query, inter: &Inter, attr: AttrRef) -> Vec<u64> {
        let slot = slot_of(query, attr.table);
        let col = self.db.column(attr.table, attr.attr);
        let Some(rows) = inter.slots.get(slot) else {
            return Vec::new();
        };
        rows.iter().map(|&r| col[r as usize]).collect()
    }

    /// Execute one join step; returns (seconds, bytes over network, result).
    fn join_step(
        &self,
        query: &Query,
        inter: &Inter,
        right_table: TableId,
        join: &lpa_workload::JoinPred,
        strategy: JoinStrategy,
    ) -> (f64, f64, Inter) {
        let n = self.hw.nodes;
        let right_slot = slot_of(query, right_table);
        let right_rows = self.filtered_rows(query, right_table);
        let right_bytes_row = self.schema.table(right_table).row_bytes as f64;

        // Orient pairs as (inter side, right side).
        let oriented: Vec<(AttrRef, AttrRef)> = join
            .pairs
            .iter()
            .map(|(a, b)| {
                if b.table == right_table {
                    (*a, *b)
                } else {
                    (*b, *a)
                }
            })
            .collect();
        let primary = oriented[0];
        let left_vals = self.inter_values(query, inter, primary.0);
        let right_col = self.db.column(right_table, primary.1.attr);

        // Placement of both sides for this join.
        let right_home: Vec<u8> = match &self.layouts[right_table.0] {
            Layout::Replicated => Vec::new(),
            Layout::Hashed { node, .. } => right_rows.iter().map(|&r| node[r as usize]).collect(),
        };
        let right_replicated = matches!(self.layouts[right_table.0], Layout::Replicated);

        let mut net_bytes_per_node = vec![0.0f64; n];
        let mut total_bytes = 0.0f64;
        let mut shuffled = false;

        // Decide effective placements after the exchange.
        // `left_at[i]` / `right_at[j]`: node each row joins at; `None`
        // means "present everywhere" (replicated / broadcast side).
        let (left_at, right_at): (Option<Vec<u8>>, Option<Vec<u8>>) = match strategy {
            JoinStrategy::ReplicatedSide | JoinStrategy::CoLocated => {
                let left = if inter.replicated {
                    None
                } else {
                    Some(inter.node.clone())
                };
                let right = if right_replicated {
                    None
                } else {
                    Some(right_home.clone())
                };
                (left, right)
            }
            JoinStrategy::Broadcast { table_side: true } => {
                // Ship the right (base) side everywhere.
                shuffled = true;
                let bytes = right_rows.len() as f64 * right_bytes_row;
                for node_bytes in net_bytes_per_node.iter_mut() {
                    *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
                }
                total_bytes += bytes * (n as f64 - 1.0);
                let left = if inter.replicated {
                    None
                } else {
                    Some(inter.node.clone())
                };
                (left, None)
            }
            JoinStrategy::Broadcast { table_side: false } => {
                shuffled = true;
                let bytes = inter.len() as f64 * inter.bytes_per_row;
                for node_bytes in net_bytes_per_node.iter_mut() {
                    *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
                }
                total_bytes += bytes * (n as f64 - 1.0);
                let right = if right_replicated {
                    None
                } else {
                    Some(right_home.clone())
                };
                (None, right)
            }
            JoinStrategy::DirectedRepartition { table_side } => {
                shuffled = true;
                // Re-hash one side on the join attribute of the *other*
                // side's partitioning pair; matching rows co-locate because
                // their pair values are equal.
                if table_side {
                    // Move right rows to hash(right pair value).
                    let new: Vec<u8> = right_rows
                        .iter()
                        .map(|&r| self.engine.node_of(right_col[r as usize], n) as u8)
                        .collect();
                    for (j, &node) in new.iter().enumerate() {
                        let home = right_home.get(j).copied().unwrap_or(node);
                        if home != node {
                            net_bytes_per_node[node as usize] += right_bytes_row;
                            total_bytes += right_bytes_row;
                        }
                    }
                    let left = if inter.replicated {
                        None
                    } else {
                        Some(inter.node.clone())
                    };
                    (left, Some(new))
                } else {
                    // Move intermediate rows to hash(left pair value).
                    let new: Vec<u8> = left_vals
                        .iter()
                        .map(|&v| self.engine.node_of(v, n) as u8)
                        .collect();
                    for (i, &node) in new.iter().enumerate() {
                        let home = if inter.replicated {
                            node
                        } else {
                            inter.node[i]
                        };
                        if home != node {
                            net_bytes_per_node[node as usize] += inter.bytes_per_row;
                            total_bytes += inter.bytes_per_row;
                        }
                    }
                    let right = if right_replicated {
                        None
                    } else {
                        Some(right_home.clone())
                    };
                    (Some(new), right)
                }
            }
            JoinStrategy::SymmetricRepartition => {
                shuffled = true;
                let new_left: Vec<u8> = left_vals
                    .iter()
                    .map(|&v| self.engine.node_of(v, n) as u8)
                    .collect();
                for (i, &node) in new_left.iter().enumerate() {
                    let home = if inter.replicated {
                        node
                    } else {
                        inter.node[i]
                    };
                    if home != node {
                        net_bytes_per_node[node as usize] += inter.bytes_per_row;
                        total_bytes += inter.bytes_per_row;
                    }
                }
                let new_right: Vec<u8> = right_rows
                    .iter()
                    .map(|&r| self.engine.node_of(right_col[r as usize], n) as u8)
                    .collect();
                for (j, &node) in new_right.iter().enumerate() {
                    let home = right_home.get(j).copied().unwrap_or(node);
                    if home != node {
                        net_bytes_per_node[node as usize] += right_bytes_row;
                        total_bytes += right_bytes_row;
                    }
                }
                (Some(new_left), Some(new_right))
            }
        };

        // Per-node (or global, when both sides are everywhere) hash join on
        // the primary pair. Each simulated node's build/probe touches only
        // that node's rows, so the groups run as independent tasks on the
        // deterministic pool and their outputs are merged in group order —
        // every charged metric is identical for any thread count.
        let both_everywhere = left_at.is_none() && right_at.is_none();
        let groups: usize = if both_everywhere { 1 } else { n };
        let inter_len = inter.len();
        let out_width = query.tables.len();

        // Serial pre-bucketing: which right rows build at each group and
        // which intermediate rows probe there. `None` means the side is
        // present everywhere and every group sees all of it.
        let right_bucket: Option<Vec<Vec<usize>>> = right_at.as_ref().map(|at| {
            let mut buckets = vec![Vec::new(); groups];
            for (j, &node) in at.iter().enumerate() {
                buckets[node as usize].push(j);
            }
            buckets
        });
        let left_bucket: Option<Vec<Vec<u32>>> = left_at.as_ref().map(|at| {
            let mut buckets = vec![Vec::new(); groups];
            for (i, &node) in at.iter().enumerate() {
                buckets[node as usize].push(i as u32);
            }
            buckets
        });
        // Replicated intermediate against a partitioned right side: the
        // rows are present on every node and probe each node's shard.
        let all_left: Vec<u32> = if left_bucket.is_none() {
            (0..inter_len as u32).collect()
        } else {
            Vec::new()
        };

        struct GroupJoin {
            build_rows: usize,
            probe_rows: usize,
            out_rows: usize,
            out_slots: Vec<Vec<u32>>,
        }

        let pool = par_pool(right_rows.len() + inter_len);
        let group_results: Vec<GroupJoin> = pool.par_index_map(groups, |g| {
            // Build: hash this group's share of the right side, in row-id
            // order (same per-key match order as a serial build).
            let mut build: HashMap<u64, Vec<u32>> = HashMap::new();
            match &right_bucket {
                Some(buckets) => {
                    for &j in &buckets[g] {
                        let r = right_rows[j];
                        build.entry(right_col[r as usize]).or_default().push(r);
                    }
                }
                None => {
                    for &r in &right_rows {
                        build.entry(right_col[r as usize]).or_default().push(r);
                    }
                }
            }
            let build_rows: usize = build.values().map(|v| v.len()).sum();

            // Probe with this group's intermediate rows, index-ascending.
            let probe_list: &[u32] = match &left_bucket {
                Some(buckets) => &buckets[g],
                None => &all_left,
            };
            let mut out_slots: Vec<Vec<u32>> = vec![Vec::new(); out_width];
            let mut out_rows = 0usize;
            for &iu in probe_list {
                let i = iu as usize;
                if let Some(matches) = build.get(&left_vals[i]) {
                    for &r in matches {
                        for (s, out) in out_slots.iter_mut().enumerate() {
                            // Absent slots stay empty so later steps can
                            // tell which tables the intermediate carries.
                            if s == right_slot {
                                out.push(r);
                            } else if !inter.slots[s].is_empty() {
                                out.push(inter.slots[s][i]);
                            }
                        }
                        out_rows += 1;
                    }
                }
            }
            GroupJoin {
                build_rows,
                probe_rows: probe_list.len(),
                out_rows,
                out_slots,
            }
        });

        // Group-ordered merge: node 0's output rows first, then node 1's,
        // and so on. All charged metrics (counts, stragglers, byte sums of
        // a constant per row) are insensitive to row order, so this is
        // equivalent to interleaving by probe index.
        let mut out_slots: Vec<Vec<u32>> = vec![Vec::new(); out_width];
        let mut out_node: Vec<u8> = Vec::new();
        let mut per_node_build = vec![0usize; groups];
        let mut per_node_probe = vec![0usize; groups];
        let mut per_node_out = vec![0usize; groups];
        for (g, gr) in group_results.into_iter().enumerate() {
            per_node_build[g] = gr.build_rows;
            per_node_probe[g] = gr.probe_rows;
            per_node_out[g] = gr.out_rows;
            for (merged, mut part) in out_slots.iter_mut().zip(gr.out_slots) {
                merged.append(&mut part);
            }
            out_node.resize(out_node.len() + gr.out_rows, g as u8);
        }

        // Time accounting: network (straggler), build+probe+output CPU
        // (straggler), exchange overhead.
        let mut seconds = 0.0;
        if shuffled {
            seconds += self.engine.shuffle_overhead;
            // A degraded link inflates the receive time of its node; with
            // all multipliers at 1.0 this is the plain byte maximum.
            let max_in = net_bytes_per_node
                .iter()
                .enumerate()
                .map(|(node, &b)| b * self.node_net_mult(node))
                .fold(0.0, f64::max);
            seconds += max_in / self.hw.net_bandwidth;
        }
        // A single-group join (both sides everywhere) runs on one node's
        // worth of compute but produces a replicated result; it executes on
        // the first live node, so it inherits that node's multiplier.
        let max_work = (0..groups)
            .map(|g| {
                let node = if both_everywhere {
                    self.faults.first_up()
                } else {
                    g
                };
                (per_node_build[g] + per_node_probe[g] + per_node_out[g]) as f64
                    * self.node_work_mult(node)
            })
            .fold(0.0, f64::max);
        seconds += max_work * self.hw.cpu_tuple_cost * query.cpu_factor;

        let result_replicated = both_everywhere;
        let next = Inter {
            slots: out_slots,
            node: out_node,
            replicated: result_replicated,
            bytes_per_row: inter.bytes_per_row + right_bytes_row,
        };
        (seconds, total_bytes, next)
    }
}

pub(crate) fn over(seconds: f64, budget: Option<f64>) -> bool {
    budget.map(|b| seconds > b).unwrap_or(false)
}

/// Slot index of `t` in the query's scan list; slot 0 if the planner ever
/// hands us a foreign table (deterministic, and visibly wrong in traces
/// rather than a mid-episode abort).
pub(crate) fn slot_of(query: &Query, t: TableId) -> usize {
    query.tables.iter().position(|x| *x == t).unwrap_or(0)
}

pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
