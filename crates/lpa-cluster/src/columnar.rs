//! Columnar (struct-of-arrays) executor accounting — the allocation-free
//! fast path behind [`Executor::execute`].
//!
//! [`Executor::execute_naive`] keeps the row-at-a-time reference semantics:
//! it allocates fresh `Vec`s for filtered rows, placements, buckets, and
//! per-group join outputs on every step, and carries every base row's
//! provenance for every table slot. This module computes the same charges
//! over reusable columns held in an [`ExecScratch`], and over *weighted*
//! intermediates that carry only what a later step reads (DESIGN.md §13,
//! "Weighted intermediates"):
//!
//! * each stored intermediate row has a `u64` multiplicity; every charge
//!   reads logical (weighted) counts, so one stored row stands for `w`
//!   naive rows that share its placement and its live slots;
//! * before each step a liveness pass over the remaining plan marks the
//!   slots later steps read, and the step's output is collapsed to them
//!   (see [`Collapse`]);
//! * filtered rows of every query table are computed once per execution;
//!   scan shares come from the per-node counts stored in the layout;
//! * one build table per step serves every node group: build rows are
//!   chained per (key, group) in insertion order ([`BuildTable`]), keyed
//!   through a dense index or a fixed multiplicative hasher, and each
//!   intermediate row probes the chain of its own group — no per-group
//!   buckets or rebuilds. When the probe side is smaller, only build rows
//!   whose key it carries are chained; per-node build counts still cover
//!   every row.
//!
//! Bit-exactness contract (DESIGN.md §13): every charge is an integer count
//! or an `f64` sum of integer-valued terms below 2^53 (`row_bytes` is
//! integral, so `bytes_per_row × w` equals `w` repeated additions), and the
//! one non-integral term — broadcast bytes × (n−1)/n — is the same
//! expression, once per step, as in `execute_naive`. The differential
//! suites ([`with_naive_executor`] in `tests/exec_differential.rs` and the
//! property/chaos suites) prove `execute` == `execute_naive` bit-for-bit
//! across layouts, fault storms, timeouts and thread counts.
//!
//! This file is hot-path scoped under lint rule L013: no `Vec::new` /
//! `vec![]` / `collect()` in the per-query functions — steady-state
//! execution must not allocate.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::executor::{hash_str, over, slot_of, ExecResult, Executor, Layout};
use lpa_costmodel::{JoinStrategy, QueryPlan};
use lpa_schema::{AttrRef, TableId};
use lpa_workload::{JoinPred, Query};

thread_local! {
    static FORCE_NAIVE_EXEC: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with [`Executor::execute`] forced onto the row-at-a-time
/// reference path. Used by differential harnesses; composes with
/// `lpa_nn::with_naive_kernels` and `lpa_partition::with_full_encode`.
pub fn with_naive_executor<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_NAIVE_EXEC.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCE_NAIVE_EXEC.with(|c| c.replace(true)));
    f()
}

/// True while inside [`with_naive_executor`] on this thread.
pub fn naive_executor_forced() -> bool {
    FORCE_NAIVE_EXEC.with(|c| c.get())
}

/// Fixed multiplicative hasher for `u64` join keys: one folded
/// 64×64→128-bit multiply, no per-process random state. The build map is
/// never iterated (matches walk the insertion-ordered arena chain), so the
/// hash affects speed only, never a result. Keys are generated column
/// values, never outside input, so collision resistance buys nothing.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Join key → key id (index into the per-key arena columns).
type KeyMap = HashMap<u64, u32, BuildHasherDefault<KeyHasher>>;

/// Key-id markers of [`BuildTable`]: no probe row carries the key, or some
/// does but no build row has been seen yet.
const ABSENT: u32 = u32::MAX;
const WANTED: u32 = u32::MAX - 1;

/// Hash-join build side of one step, for every node group at once. Each
/// build row that can match is an arena entry appended to the chain of
/// its (key, group), so a chain lists its rows in insertion order — the
/// naive per-group build maps' per-key match order.
#[derive(Clone, Debug, Default)]
struct BuildTable {
    /// Join key → key id: `dense[v - lo]` when the keys span a small
    /// range, else `keys`; or a marker ([`ABSENT`], [`WANTED`]).
    dense: Vec<u32>,
    lo: u64,
    keys: KeyMap,
    /// Chain groups: 1 when the build side is present everywhere (one
    /// chain per key serves every group), else the node count.
    groups: usize,
    /// Per chain `key id × groups + group`: first and last entry
    /// (`u32::MAX` when empty) and length.
    head: Vec<u32>,
    tail: Vec<u32>,
    len: Vec<u64>,
    /// Per entry: build row index, key id and next entry of its chain
    /// (`u32::MAX` ends it).
    row: Vec<u32>,
    key: Vec<u32>,
    next: Vec<u32>,
}

impl BuildTable {
    /// Rebuild over `rows` keyed by `col[row]`; build row `j` sits at
    /// group `at[j]` (`None` = present everywhere). When the probe side is
    /// the smaller one, only rows whose key some `probe` value carries
    /// enter (a semi-join: no other row can match).
    fn rebuild(
        &mut self,
        rows: &[u32],
        col: &[u64],
        at: Option<&[u8]>,
        groups: usize,
        probe: &[u64],
    ) {
        self.keys.clear();
        self.dense.clear();
        self.head.clear();
        self.tail.clear();
        self.len.clear();
        self.row.clear();
        self.key.clear();
        self.next.clear();
        self.groups = if at.is_some() { groups.max(1) } else { 1 };
        let (lo, hi) = rows
            .iter()
            .map(|&r| col[r as usize])
            .fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        self.lo = lo;
        let semi = probe.len() < rows.len();
        let unseen = if semi { ABSENT } else { WANTED };
        if lo <= hi && hi - lo < 4 * rows.len() as u64 + 64 {
            self.dense.resize((hi - lo) as usize + 1, unseen);
        }
        if semi && self.dense.is_empty() {
            self.keys.extend(probe.iter().map(|&v| (v, WANTED)));
        } else if semi {
            for &v in probe {
                if let Some(slot) = self.dense.get_mut(v.wrapping_sub(lo) as usize) {
                    *slot = WANTED;
                }
            }
        }
        let mut n_keys = 0u32;
        for (j, &r) in rows.iter().enumerate() {
            let v = col[r as usize];
            let slot = match self.dense.is_empty() {
                true if semi => self.keys.get_mut(&v),
                true => Some(self.keys.entry(v).or_insert(WANTED)),
                false => self.dense.get_mut(v.wrapping_sub(lo) as usize),
            };
            let k = match slot {
                Some(k) if *k == WANTED => {
                    *k = n_keys;
                    n_keys += 1;
                    let chains = n_keys as usize * self.groups;
                    self.head.resize(chains, u32::MAX);
                    self.tail.resize(chains, u32::MAX);
                    self.len.resize(chains, 0);
                    *k
                }
                Some(k) if *k != ABSENT => *k,
                _ => continue,
            };
            let g = at.and_then(|at| at.get(j)).map_or(0, |&g| g as usize);
            let c = k as usize * self.groups + g;
            let (Some(head), Some(tail), Some(len)) = (
                self.head.get_mut(c),
                self.tail.get_mut(c),
                self.len.get_mut(c),
            ) else {
                continue;
            };
            let e = self.row.len() as u32;
            match self.next.get_mut(*tail as usize) {
                Some(link) => *link = e,
                None => *head = e,
            }
            *tail = e;
            *len += 1;
            self.row.push(j as u32);
            self.key.push(k);
            self.next.push(u32::MAX);
        }
    }

    /// Key id of `v`, if any build row carries it.
    fn key_of(&self, v: u64) -> Option<usize> {
        if self.dense.is_empty() {
            return self
                .keys
                .get(&v)
                .filter(|&&k| k < WANTED)
                .map(|&k| k as usize);
        }
        let d = usize::try_from(v.checked_sub(self.lo)?).ok()?;
        match self.dense.get(d) {
            Some(&k) if k < WANTED => Some(k as usize),
            _ => None,
        }
    }

    /// Number of distinct keys.
    fn keys_len(&self) -> usize {
        self.len.len() / self.groups.max(1)
    }

    /// Chain of key `k` as seen from probe group `g`.
    fn chain_of(&self, k: usize, g: usize) -> usize {
        if self.groups == 1 {
            k
        } else {
            k * self.groups + g
        }
    }
}

/// Weighted columnar intermediate. Stored row `i` stands for `weight[i]`
/// naive intermediate rows, all placed at `node[i]` and sharing the base
/// rows `slots[s][i]` of every stored slot `s`.
#[derive(Clone, Debug, Default)]
struct ColInter {
    /// `slots[s][i]` = base-table row of query table slot `s` feeding row
    /// `i`; filled only for slots marked in `stored`.
    slots: Vec<Vec<u32>>,
    /// Slots that are joined *and* read by a later step.
    stored: Vec<bool>,
    node: Vec<u8>,
    weight: Vec<u64>,
    /// Logical row count: Σ `weight`.
    total: u64,
    replicated: bool,
    bytes_per_row: f64,
}

impl ColInter {
    fn reset(&mut self, width: usize) {
        self.slots.truncate(width);
        for s in self.slots.iter_mut() {
            s.clear();
        }
        self.slots.resize_with(width, Default::default);
        self.stored.clear();
        self.stored.resize(width, false);
        self.node.clear();
        self.weight.clear();
        self.total = 0;
        self.replicated = false;
        self.bytes_per_row = 0.0;
    }

    /// The base rows of slot `s`, if it is stored.
    fn stored_slot(&self, s: usize) -> Option<&[u32]> {
        match self.stored.get(s) {
            Some(true) => self.slots.get(s).map(Vec::as_slice),
            _ => None,
        }
    }
}

/// How a join step's output is collapsed, by what is live after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Collapse {
    /// Right slot and some intermediate slot live: one row per match,
    /// weight `w`.
    Materialize,
    /// Only intermediate slots live: one row per matching probe row,
    /// weight `w × chain_len`. O(probe).
    ProbeRows,
    /// Only the right slot live: per-key probe-weight sums, then one row
    /// per matched build row. O(probe + build).
    BuildRows,
    /// Nothing live: one row per group holding its output count.
    GroupCounts,
}

impl Collapse {
    /// The collapse for a step whose right slot is (not) live and which
    /// copies (no) live intermediate slots.
    fn of(right_live: bool, inter_live: bool) -> Self {
        match (right_live, inter_live) {
            (true, true) => Self::Materialize,
            (false, true) => Self::ProbeRows,
            (true, false) => Self::BuildRows,
            (false, false) => Self::GroupCounts,
        }
    }
}

/// Reusable buffers for the columnar executor. One per cluster (or per
/// caller); every query and join step reuses the same arenas, so
/// steady-state execution performs no heap allocation once the buffers
/// have grown to the workload's high-water mark — the largest *stored*
/// intermediate, which holds only the slots later steps read, one row per
/// distinct (placement, live provenance) the collapse keeps.
#[derive(Clone, Debug, Default)]
pub struct ExecScratch {
    /// Predicate-surviving row ids of every query table slot, computed
    /// once per execution: slot `s` owns
    /// `filtered[filtered_off[s]..filtered_off[s + 1]]`.
    filtered: Vec<u32>,
    filtered_off: Vec<usize>,
    /// Slots read by the plan steps after the current one.
    live: Vec<bool>,
    /// Stored, live intermediate slots copied into each output row.
    copy_slots: Vec<usize>,
    /// Join-key value per stored intermediate row (primary pair, left
    /// side); empty when the step reads no slot.
    left_vals: Vec<u64>,
    /// Home node per filtered right row (empty when replicated).
    right_home: Vec<u8>,
    /// Post-exchange placements (directed / symmetric repartition).
    new_left: Vec<u8>,
    new_right: Vec<u8>,
    /// Per-node bytes received this step (column pass per strategy).
    net_bytes: Vec<f64>,
    /// Weighted per-node row counts (a seed no step reads, and the final
    /// aggregation).
    hist_counts: Vec<u64>,
    /// Hash-join build side of the current step.
    build: BuildTable,
    /// Probe-weight sums per `key id × groups + group`
    /// ([`Collapse::BuildRows`]).
    key_acc: Vec<u64>,
    /// Per-group logical work columns for the straggler maxima.
    per_node_build: Vec<u64>,
    per_node_probe: Vec<u64>,
    per_node_out: Vec<u64>,
    /// Double-buffered weighted intermediates (swapped after each join
    /// step).
    cur: ColInter,
    next: ColInter,
}

impl Executor<'_> {
    /// The columnar fast path behind [`Executor::execute`]. Bit-identical
    /// to [`Executor::execute_naive`] by construction (see module docs) and
    /// by the differential suites.
    pub(crate) fn execute_columnar(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
        scratch: &mut ExecScratch,
    ) -> Option<ExecResult> {
        let n = self.hw.nodes;
        let mut seconds = self.engine.query_overhead;
        let mut bytes_shuffled = 0.0;

        let scan_bw = if self.engine.disk_based {
            self.hw.disk_scan_bandwidth
        } else {
            self.hw.mem_scan_bandwidth
        };
        for &t in &query.tables {
            let bytes = self.schema.table(t).bytes() as f64;
            let max_share = self.max_shard_fraction_col(t);
            seconds += bytes * max_share / scan_bw;
        }
        if over(seconds, budget) {
            return None;
        }

        self.filter_slots(query, scratch);
        if query.joins.is_empty() {
            let t = query.tables[0];
            let rows = slot_range(&scratch.filtered, &scratch.filtered_off, slot_of(query, t)).len()
                as f64;
            let share = self.max_shard_fraction_col(t);
            seconds += rows * share * self.hw.cpu_tuple_cost * query.cpu_factor;
            return Some(ExecResult {
                seconds,
                output_rows: rows as u64,
                bytes_shuffled,
            });
        }

        let start = plan.start_table.unwrap_or(query.tables[0]);
        mark_live(query, plan, 0, scratch);
        self.seed_inter_col(query, start, scratch);

        for (i, step) in plan.steps.iter().enumerate() {
            let Some(join) = query.joins.get(step.join_index) else {
                continue;
            };
            mark_live(query, plan, i + 1, scratch);
            let (step_seconds, step_bytes) =
                self.join_step_col(query, step.table, join, step.strategy, scratch);
            seconds += step_seconds;
            bytes_shuffled += step_bytes;
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            if over(seconds, budget) {
                return None;
            }
        }

        let cur = &scratch.cur;
        let out_rows = cur.total as f64;
        let agg_share = if cur.replicated {
            1.0
        } else {
            let counts = &mut scratch.hist_counts;
            counts.clear();
            counts.resize(n, 0);
            for (&node, &w) in cur.node.iter().zip(&cur.weight) {
                if let Some(c) = counts.get_mut(node as usize) {
                    *c += w;
                }
            }
            self.max_node_fraction_col(counts, cur.total)
        };
        seconds += out_rows * agg_share * self.hw.cpu_tuple_cost * query.cpu_factor;
        if over(seconds, budget) {
            return None;
        }
        Some(ExecResult {
            seconds,
            output_rows: cur.total,
            bytes_shuffled,
        })
    }

    /// Columnar twin of the naive `max_shard_fraction`, reading the
    /// per-node counts the layout computed at deploy time.
    fn max_shard_fraction_col(&self, t: TableId) -> f64 {
        match &self.layouts[t.0] {
            Layout::Replicated => self.replicated_slowdown(),
            Layout::Hashed { node, counts, .. } => {
                self.max_node_fraction_col(counts, node.len() as u64)
            }
        }
    }

    /// Columnar twin of the naive `max_node_fraction` over per-node counts
    /// summing to `total`. The counts are exact integers, so the weighted
    /// maximum is the naive one bit for bit.
    fn max_node_fraction_col(&self, counts: &[u64], total: u64) -> f64 {
        if total == 0 {
            return 1.0 / self.hw.nodes as f64;
        }
        let max_weighted = counts
            .iter()
            .enumerate()
            .map(|(node, &c)| c as f64 * self.node_work_mult(node))
            .fold(0.0, f64::max);
        max_weighted / total as f64
    }

    /// Filtered rows of every query table slot, once per execution (the
    /// naive path refilters a table at each step that reads it).
    fn filter_slots(&self, query: &Query, scratch: &mut ExecScratch) {
        scratch.filtered.clear();
        scratch.filtered_off.clear();
        scratch.filtered_off.push(0);
        for &t in &query.tables {
            self.filtered_rows_into(query, t, &mut scratch.filtered);
            scratch.filtered_off.push(scratch.filtered.len());
        }
    }

    /// Columnar twin of the naive `filtered_rows`: same ids, same order,
    /// appended to `out`.
    fn filtered_rows_into(&self, query: &Query, t: TableId, out: &mut Vec<u32>) {
        let sel = query.table_selectivity(t);
        let rows = self.db.table(t).rows;
        if sel >= 1.0 {
            out.extend(0..rows as u32);
            return;
        }
        let threshold = (sel * u64::MAX as f64) as u64;
        let tag = crate::engine::splitmix64(hash_str(&query.name) ^ ((t.0 as u64) << 17));
        for r in 0..rows as u32 {
            if crate::engine::splitmix64(tag ^ r as u64) <= threshold {
                out.push(r);
            }
        }
    }

    /// Columnar twin of the naive `seed_inter`: one weight-1 row per
    /// filtered start row when a later step reads the start slot, else one
    /// row per node holding its count.
    fn seed_inter_col(&self, query: &Query, start: TableId, scratch: &mut ExecScratch) {
        let slot = slot_of(query, start);
        let ExecScratch {
            filtered,
            filtered_off,
            live,
            hist_counts,
            cur,
            ..
        } = scratch;
        let rows = slot_range(filtered, filtered_off, slot);
        cur.reset(query.tables.len());
        cur.replicated = matches!(self.layouts[start.0], Layout::Replicated);
        cur.bytes_per_row = self.schema.table(start).row_bytes as f64;
        cur.total = rows.len() as u64;
        let node_of: &[u8] = match &self.layouts[start.0] {
            Layout::Replicated => &[],
            Layout::Hashed { node, .. } => node,
        };
        let home = |r: u32| node_of.get(r as usize).copied().unwrap_or(0);
        let seed_slot = match (cur.stored.get_mut(slot), cur.slots.get_mut(slot)) {
            (Some(stored), Some(col)) if live.get(slot) == Some(&true) => Some((stored, col)),
            _ => None,
        };
        if let Some((stored, col)) = seed_slot {
            *stored = true;
            col.extend_from_slice(rows);
            cur.node.extend(rows.iter().map(|&r| home(r)));
            cur.weight.resize(rows.len(), 1);
        } else {
            hist_counts.clear();
            hist_counts.resize(self.hw.nodes.max(1), 0);
            for &r in rows {
                if let Some(c) = hist_counts.get_mut(home(r) as usize) {
                    *c += 1;
                }
            }
            for (g, &c) in hist_counts.iter().enumerate() {
                if c > 0 {
                    cur.node.push(g as u8);
                    cur.weight.push(c);
                }
            }
        }
    }

    /// Columnar twin of the naive `join_step`: reads `scratch.cur`, writes
    /// `scratch.next` (the caller swaps), collapsed by `scratch.live`.
    /// Returns (seconds, total bytes).
    fn join_step_col(
        &self,
        query: &Query,
        right_table: TableId,
        join: &JoinPred,
        strategy: JoinStrategy,
        scratch: &mut ExecScratch,
    ) -> (f64, f64) {
        let ExecScratch {
            filtered,
            filtered_off,
            live,
            copy_slots,
            left_vals,
            right_home,
            new_left,
            new_right,
            net_bytes,
            build,
            key_acc,
            per_node_build,
            per_node_probe,
            per_node_out,
            cur,
            next,
            ..
        } = scratch;
        let inter: &ColInter = cur;

        let n = self.hw.nodes;
        let right_slot = slot_of(query, right_table);
        let right_rows = slot_range(filtered, filtered_off, right_slot);
        let right_bytes_row = self.schema.table(right_table).row_bytes as f64;

        // Orient the primary pair as (inter side, right side) — the naive
        // path orients every pair but only ever reads the first. The left
        // slot is stored whenever this step reads it (liveness).
        let (left_attr, right_attr) = primary_pair(join, right_table);
        left_vals.clear();
        if let Some(rows) = inter.stored_slot(slot_of(query, left_attr.table)) {
            let col = self.db.column(left_attr.table, left_attr.attr);
            left_vals.extend(rows.iter().map(|&r| col[r as usize]));
        }
        let right_col = self.db.column(right_table, right_attr.attr);

        right_home.clear();
        let right_replicated = matches!(self.layouts[right_table.0], Layout::Replicated);
        if let Layout::Hashed { node, .. } = &self.layouts[right_table.0] {
            right_home.extend(right_rows.iter().map(|&r| node[r as usize]));
        }

        net_bytes.clear();
        net_bytes.resize(n, 0.0);
        let mut total_bytes = 0.0f64;
        let mut shuffled = false;
        let inter_at = if inter.replicated {
            None
        } else {
            Some(inter.node.as_slice())
        };
        let right_stays = if right_replicated {
            None
        } else {
            Some(right_home.as_slice())
        };

        // Effective placements after the exchange; `None` = present
        // everywhere. Moved intermediate rows charge `bytes_per_row × w`:
        // an exact integer, equal to the naive path's `w` repeated adds.
        let rehash_left = |new_left: &mut Vec<u8>, net_bytes: &mut [f64]| -> f64 {
            let mut moved = 0.0;
            new_left.clear();
            new_left.extend(left_vals.iter().map(|&v| self.engine.node_of(v, n) as u8));
            for (i, &node) in new_left.iter().enumerate() {
                let home = inter_at.map_or(node, |at| at[i]);
                if home != node {
                    let bytes = inter.bytes_per_row * inter.weight[i] as f64;
                    net_bytes[node as usize] += bytes;
                    moved += bytes;
                }
            }
            moved
        };
        let rehash_right = |new_right: &mut Vec<u8>, net_bytes: &mut [f64]| -> f64 {
            let mut moved = 0.0;
            new_right.clear();
            new_right.extend(
                right_rows
                    .iter()
                    .map(|&r| self.engine.node_of(right_col[r as usize], n) as u8),
            );
            for (j, &node) in new_right.iter().enumerate() {
                let home = right_home.get(j).copied().unwrap_or(node);
                if home != node {
                    net_bytes[node as usize] += right_bytes_row;
                    moved += right_bytes_row;
                }
            }
            moved
        };
        let (left_at, right_at): (Option<&[u8]>, Option<&[u8]>) = match strategy {
            JoinStrategy::ReplicatedSide | JoinStrategy::CoLocated => (inter_at, right_stays),
            JoinStrategy::Broadcast { table_side: true } => {
                shuffled = true;
                let bytes = right_rows.len() as f64 * right_bytes_row;
                for node_bytes in net_bytes.iter_mut() {
                    *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
                }
                total_bytes += bytes * (n as f64 - 1.0);
                (inter_at, None)
            }
            JoinStrategy::Broadcast { table_side: false } => {
                shuffled = true;
                let bytes = inter.total as f64 * inter.bytes_per_row;
                for node_bytes in net_bytes.iter_mut() {
                    *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
                }
                total_bytes += bytes * (n as f64 - 1.0);
                (None, right_stays)
            }
            JoinStrategy::DirectedRepartition { table_side: true } => {
                shuffled = true;
                total_bytes += rehash_right(new_right, net_bytes);
                (inter_at, Some(new_right.as_slice()))
            }
            JoinStrategy::DirectedRepartition { table_side: false } => {
                shuffled = true;
                total_bytes += rehash_left(new_left, net_bytes);
                (Some(new_left.as_slice()), right_stays)
            }
            JoinStrategy::SymmetricRepartition => {
                shuffled = true;
                total_bytes += rehash_left(new_left, net_bytes);
                total_bytes += rehash_right(new_right, net_bytes);
                (Some(new_left.as_slice()), Some(new_right.as_slice()))
            }
        };

        let both_everywhere = left_at.is_none() && right_at.is_none();
        let groups: usize = if both_everywhere { 1 } else { n };

        // Collapse the output to the slots later steps read.
        let right_live = live.get(right_slot).copied().unwrap_or(false);
        copy_slots.clear();
        copy_slots.extend((0..query.tables.len()).filter(|&s| {
            s != right_slot
                && inter.stored_slot(s).is_some()
                && live.get(s).copied().unwrap_or(false)
        }));
        let collapse = Collapse::of(right_live, !copy_slots.is_empty());
        next.reset(query.tables.len());
        for &s in copy_slots.iter() {
            next.stored[s] = true;
        }
        if let Some(stored) = next.stored.get_mut(right_slot) {
            *stored = right_live;
        }

        per_node_build.clear();
        per_node_build.resize(groups, 0);
        per_node_probe.clear();
        per_node_probe.resize(groups, 0);
        per_node_out.clear();
        per_node_out.resize(groups, 0);

        // One build for every group; a side present everywhere has one
        // chain per key, shared by all groups.
        build.rebuild(right_rows, right_col, right_at, groups, left_vals);
        match right_at {
            Some(at) => {
                for &g in at {
                    if let Some(b) = per_node_build.get_mut(g as usize) {
                        *b += 1;
                    }
                }
            }
            None => per_node_build.fill(right_rows.len() as u64),
        }
        if collapse == Collapse::BuildRows {
            key_acc.clear();
            key_acc.resize(build.keys_len() * groups, 0);
        }

        // Probe each intermediate row at its group (at every group when
        // it is present everywhere); matches walk the chain of their
        // (key, group). One loop per collapse, so none branches per row.
        let side = ProbeSide {
            at: left_at,
            weight: &inter.weight,
            keys: left_vals,
            groups,
            build,
        };
        let (probe, out) = (per_node_probe.as_mut_slice(), per_node_out.as_mut_slice());
        match collapse {
            Collapse::GroupCounts => side.each(probe, out, |_, _, _, _, _| {}),
            Collapse::BuildRows => side.each(probe, out, |_, w, g, k, _| {
                if let Some(acc) = key_acc.get_mut(k * groups + g) {
                    *acc += w;
                }
            }),
            Collapse::ProbeRows => side.each(probe, out, |i, w, g, _, c| {
                for &s in copy_slots.iter() {
                    next.slots[s].push(inter.slots[s][i]);
                }
                next.node.push(g as u8);
                next.weight.push(w * build.len.get(c).copied().unwrap_or(0));
            }),
            Collapse::Materialize => side.each(probe, out, |i, w, g, _, c| {
                let mut e = build.head.get(c).copied().unwrap_or(u32::MAX);
                while let Some(&r) = build
                    .row
                    .get(e as usize)
                    .and_then(|&j| right_rows.get(j as usize))
                {
                    for &s in copy_slots.iter() {
                        next.slots[s].push(inter.slots[s][i]);
                    }
                    if let Some(col) = next.slots.get_mut(right_slot) {
                        col.push(r);
                    }
                    next.node.push(g as u8);
                    next.weight.push(w);
                    e = build.next.get(e as usize).copied().unwrap_or(u32::MAX);
                }
            }),
        }
        match collapse {
            Collapse::BuildRows => {
                for (&j, &k) in build.row.iter().zip(&build.key) {
                    let mut emit = |g: usize| {
                        let w = key_acc.get(k as usize * groups + g).copied().unwrap_or(0);
                        if w > 0 {
                            if let Some(col) = next.slots.get_mut(right_slot) {
                                col.push(right_rows[j as usize]);
                            }
                            next.node.push(g as u8);
                            next.weight.push(w);
                        }
                    };
                    match right_at {
                        Some(at) => emit(at.get(j as usize).map_or(0, |&g| g as usize)),
                        None => (0..groups).for_each(&mut emit),
                    }
                }
            }
            Collapse::GroupCounts => {
                for (g, &out) in per_node_out.iter().enumerate() {
                    if out > 0 {
                        next.node.push(g as u8);
                        next.weight.push(out);
                    }
                }
            }
            Collapse::ProbeRows | Collapse::Materialize => {}
        }
        next.total = per_node_out.iter().sum();

        // Time accounting: identical expressions and fold order to the
        // naive path (node-index-ascending column passes).
        let mut seconds = 0.0;
        if shuffled {
            seconds += self.engine.shuffle_overhead;
            let max_in = net_bytes
                .iter()
                .enumerate()
                .map(|(node, &b)| b * self.node_net_mult(node))
                .fold(0.0, f64::max);
            seconds += max_in / self.hw.net_bandwidth;
        }
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

        next.replicated = both_everywhere;
        next.bytes_per_row = inter.bytes_per_row + right_bytes_row;
        (seconds, total_bytes)
    }
}

/// The probe side of one join step: the stored intermediate rows, their
/// weights and join keys, and where each probes.
struct ProbeSide<'a> {
    /// Group of each probing row; `None` = every row probes every group.
    at: Option<&'a [u8]>,
    weight: &'a [u64],
    keys: &'a [u64],
    groups: usize,
    build: &'a BuildTable,
}

impl ProbeSide<'_> {
    /// Visit every probe: row `i` (weight `w`) at group `g`. Adds `w` to
    /// `probe[g]` and the matched output rows to `out[g]`, and calls
    /// `matched(i, w, g, key id, chain)` when the row's key has build rows
    /// at `g`.
    fn each(
        &self,
        probe: &mut [u64],
        out: &mut [u64],
        mut matched: impl FnMut(usize, u64, usize, usize, usize),
    ) {
        let build = self.build;
        let key_at = |i: usize| match build.row.is_empty() {
            true => None,
            false => self.keys.get(i).and_then(|&v| build.key_of(v)),
        };
        let mut visit = |i: usize, w: u64, k: Option<usize>, g: usize| {
            if let Some(p) = probe.get_mut(g) {
                *p += w;
            }
            let Some(k) = k else {
                return;
            };
            let c = build.chain_of(k, g);
            let (Some(&len), Some(o)) = (build.len.get(c), out.get_mut(g)) else {
                return;
            };
            if len > 0 {
                *o += w * len;
                matched(i, w, g, k, c);
            }
        };
        match self.at {
            Some(at) => {
                for (i, (&g, &w)) in at.iter().zip(self.weight).enumerate() {
                    visit(i, w, key_at(i), g as usize);
                }
            }
            None => {
                for (i, &w) in self.weight.iter().enumerate() {
                    let k = key_at(i);
                    for g in 0..self.groups {
                        visit(i, w, k, g);
                    }
                }
            }
        }
    }
}

/// The primary join pair oriented as (intermediate side, right side).
fn primary_pair(join: &JoinPred, right_table: TableId) -> (AttrRef, AttrRef) {
    let (a, b) = join.pairs[0];
    if b.table == right_table {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether `strategy` re-hashes the intermediate, which reads its join
/// values even when the right side is empty.
fn rehashes_inter(strategy: JoinStrategy) -> bool {
    matches!(
        strategy,
        JoinStrategy::DirectedRepartition { table_side: false }
            | JoinStrategy::SymmetricRepartition
    )
}

/// Filtered rows of slot `s` (empty for an out-of-range slot).
fn slot_range<'a>(filtered: &'a [u32], off: &[usize], s: usize) -> &'a [u32] {
    match (off.get(s), off.get(s + 1)) {
        (Some(&lo), Some(&hi)) => filtered.get(lo..hi).unwrap_or(&[]),
        _ => &[],
    }
}

/// Liveness pass: mark in `scratch.live` the slots that the plan steps
/// from index `from` on read — the intermediate side of each step's
/// primary pair. A step whose right side has no filtered rows empties the
/// intermediate: it reads its slot only to re-hash the intermediate, and
/// nothing after it reads anything.
fn mark_live(query: &Query, plan: &QueryPlan, from: usize, scratch: &mut ExecScratch) {
    let live = &mut scratch.live;
    live.clear();
    live.resize(query.tables.len(), false);
    for step in plan.steps.iter().skip(from) {
        let Some(join) = query.joins.get(step.join_index) else {
            continue;
        };
        let read = slot_of(query, primary_pair(join, step.table).0.table);
        let right_empty = slot_range(
            &scratch.filtered,
            &scratch.filtered_off,
            slot_of(query, step.table),
        )
        .is_empty();
        if !right_empty || rehashes_inter(step.strategy) {
            if let Some(l) = live.get_mut(read) {
                *l = true;
            }
        }
        if right_empty {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collapse each step of `plan` applies, read off the shape of
    /// the step's output, plus the largest row weight it produced.
    fn step_collapses(
        exec: &Executor<'_>,
        query: &Query,
        plan: &QueryPlan,
    ) -> Vec<(Collapse, u64)> {
        let mut scratch = ExecScratch::default();
        exec.filter_slots(query, &mut scratch);
        mark_live(query, plan, 0, &mut scratch);
        let start = plan.start_table.unwrap_or(query.tables[0]);
        exec.seed_inter_col(query, start, &mut scratch);
        let mut out = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let join = &query.joins[step.join_index];
            mark_live(query, plan, i + 1, &mut scratch);
            exec.join_step_col(query, step.table, join, step.strategy, &mut scratch);
            let next = &scratch.next;
            let right = slot_of(query, step.table);
            let inter_live = (0..next.stored.len()).any(|s| s != right && next.stored[s]);
            let max_w = next.weight.iter().copied().max().unwrap_or(0);
            out.push((Collapse::of(next.stored[right], inter_live), max_w));
            assert_eq!(next.weight.iter().sum::<u64>(), next.total);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        out
    }

    #[test]
    fn tpcch_plans_hit_every_collapse() {
        let schema = lpa_schema::tpcch::schema(0.001).unwrap();
        let workload = lpa_workload::tpcch::workload(&schema).unwrap();
        let engine = crate::EngineProfile::pgxl();
        let hw = crate::HardwareProfile::standard();
        let db = crate::Database::generate(&schema, 0x5EED);
        let p = lpa_partition::Partitioning::initial(&schema);
        let layouts: Vec<Layout> = (0..schema.tables().len())
            .map(|t| {
                crate::executor::layout_table(
                    &db,
                    &engine,
                    hw.nodes,
                    TableId(t),
                    p.table_state(TableId(t)),
                )
            })
            .collect();
        let faults = crate::FaultState::nominal(hw.nodes);
        let exec = Executor {
            schema: &schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        };
        let optimizer = crate::OptimizerEstimator::new(engine, hw);
        let mut seen: Vec<(Collapse, u64)> = Vec::new();
        for q in workload.queries().iter().filter(|q| !q.joins.is_empty()) {
            let plan = optimizer.plan(&schema, q, &p, 0);
            let steps = step_collapses(&exec, q, &plan);
            // The last step keeps nothing but its per-group counts.
            assert_eq!(
                steps.last().map(|s| s.0),
                Some(Collapse::GroupCounts),
                "{}",
                q.name
            );
            seen.extend(steps);
        }
        for c in [
            Collapse::Materialize,
            Collapse::ProbeRows,
            Collapse::BuildRows,
        ] {
            assert!(seen.iter().any(|s| s.0 == c), "{c:?} never hit");
        }
        // Collapsing merges rows: some stored row stands for several.
        for c in [
            Collapse::ProbeRows,
            Collapse::BuildRows,
            Collapse::GroupCounts,
        ] {
            assert!(
                seen.iter().any(|s| s.0 == c && s.1 > 1),
                "{c:?} never merged"
            );
        }
    }

    #[test]
    fn liveness_keeps_rehash_reads_of_empty_right_sides() {
        let schema = lpa_schema::tpcch::schema(0.001).unwrap();
        let workload = lpa_workload::tpcch::workload(&schema).unwrap();
        let q = workload
            .queries()
            .iter()
            .find(|q| q.name == "ch_q07")
            .unwrap();
        let engine = crate::EngineProfile::pgxl();
        let hw = crate::HardwareProfile::standard();
        let db = crate::Database::generate(&schema, 0x5EED);
        let layouts: Vec<Layout> = vec![Layout::Replicated; schema.tables().len()];
        let faults = crate::FaultState::nominal(hw.nodes);
        let exec = Executor {
            schema: &schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        };
        let p = lpa_partition::Partitioning::initial(&schema);
        let mut plan = crate::OptimizerEstimator::new(engine, hw).plan(&schema, q, &p, 0);
        let mut scratch = ExecScratch::default();
        exec.filter_slots(q, &mut scratch);
        // The first step whose right side (nation, 3 % of a few rows) is empty.
        let empty = plan
            .steps
            .iter()
            .position(|st| {
                slot_range(
                    &scratch.filtered,
                    &scratch.filtered_off,
                    slot_of(q, st.table),
                )
                .is_empty()
            })
            .expect("ch_q07 filters nation to zero rows at this scale");
        let read = slot_of(
            q,
            primary_pair(
                &q.joins[plan.steps[empty].join_index],
                plan.steps[empty].table,
            )
            .0
            .table,
        );
        for (strategy, reads) in [
            (JoinStrategy::CoLocated, false),
            (JoinStrategy::Broadcast { table_side: false }, false),
            (
                JoinStrategy::DirectedRepartition { table_side: false },
                true,
            ),
            (JoinStrategy::SymmetricRepartition, true),
        ] {
            plan.steps[empty].strategy = strategy;
            mark_live(q, &plan, empty, &mut scratch);
            assert_eq!(scratch.live[read], reads, "{strategy:?}");
            // Nothing after the emptied step reads anything.
            assert_eq!(
                scratch.live.iter().filter(|&&l| l).count(),
                usize::from(reads)
            );
        }
    }

    #[test]
    fn naive_executor_guard_restores() {
        assert!(!naive_executor_forced());
        with_naive_executor(|| assert!(naive_executor_forced()));
        assert!(!naive_executor_forced());
    }
}
