//! Per-operator execution profiles: the `EXPLAIN ANALYZE` substrate.
//!
//! A [`ProfileTree`] mirrors one [`CompiledPlan`]: one `ProfNode` per plan
//! operator, in the same child order the drivers recurse in, plus one
//! subtree per compiled sublink (attached to the operator whose expressions
//! carry it, and indexed by sublink id so the memoized-sublink seam can find
//! its subtree without positional threading). Arming a tree costs one
//! allocation pass per `explain_analyze`; execution then records, per node:
//!
//! * **invocations** — incremented at the same single site as the global
//!   `operators_evaluated` counter (`begin`, called by every operator in
//!   `crate::physical`), so the per-node sums are equal to the global count
//!   by construction — a memo hit skips both.
//! * **wall time** — entry-to-exit clock probes around the operator body.
//!   Probes are *strided* once a node gets hot (the PR 6 `DEADLINE_STRIDE`
//!   discipline applied to profile clocks): the first
//!   `PROFILE_TIME_STRIDE` invocations are timed exactly, after which
//!   every stride-th invocation is sampled and scaled, so a sublink body
//!   re-executed thousands of times pays two clock reads per 64
//!   invocations, not per invocation. Time is *self* time of the operator
//!   body over already-executed inputs — except that sublink evaluation
//!   inside an operator's expressions is included in that operator *and*
//!   attributed to the sublink's own subtree, exactly like the nested
//!   "actual time" of PostgreSQL's `EXPLAIN ANALYZE`.
//! * **batches** — one tick per batch-boundary loop iteration.
//! * **rows in/out, memo hits/misses, spill bytes/partitions, columnar
//!   fallback rows** — recorded by the drivers around each operator call
//!   (the drivers see the child relations, the result, and the executor's
//!   spill/columnar counters; the physical bodies do not).
//!
//! Unarmed (no profile attached — every path except `explain_analyze`,
//! `Rows::profile` and `execute_profiled`), the probe is a `None` check
//! per operator invocation: the hot path's cost profile is unchanged. What
//! arming costs is the benchmark's `proc.trace_overhead_pct` (traced run
//! against untraced run, per workload).

use crate::compile::{CompiledExpr, CompiledNode, CompiledPlan, CompiledSublink};
use crate::resilience::Governor;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Exact-timing threshold and sampling stride of the profile clock probes.
pub(crate) const PROFILE_TIME_STRIDE: u64 = 64;

/// The per-node counters, interior-mutable because the whole executor is
/// single-threaded `Cell` machinery.
#[derive(Debug, Default)]
pub(crate) struct NodeStats {
    pub(crate) invocations: Cell<u64>,
    pub(crate) rows_in: Cell<u64>,
    pub(crate) rows_out: Cell<u64>,
    pub(crate) batches: Cell<u64>,
    pub(crate) wall_nanos: Cell<u64>,
    pub(crate) memo_hits: Cell<u64>,
    pub(crate) memo_misses: Cell<u64>,
    pub(crate) spilled_bytes: Cell<u64>,
    pub(crate) spill_partitions: Cell<u64>,
    pub(crate) columnar_fallback_rows: Cell<u64>,
    /// A pass-through projection whose rows the join below it wrote.
    pub(crate) emitted_by_join: Cell<bool>,
}

fn add(cell: &Cell<u64>, delta: u64) {
    cell.set(cell.get() + delta);
}

/// One profile node, mirroring one compiled plan operator.
#[derive(Debug)]
pub(crate) struct ProfNode {
    /// Operator name (`scan`, `join`, …) — the same site labels the
    /// governor uses.
    pub(crate) op: &'static str,
    /// Operator-specific detail (table name, join kind, …).
    pub(crate) detail: String,
    pub(crate) stats: NodeStats,
    /// Input children, in driver recursion order.
    pub(crate) children: Vec<Rc<ProfNode>>,
    /// Sublink subtrees rooted in this operator's expressions, in
    /// `(sublink id, subtree)` pairs.
    pub(crate) sublinks: Vec<(usize, Rc<ProfNode>)>,
}

impl ProfNode {
    /// The `i`-th input child — positional, matching the driver recursion.
    pub(crate) fn child(&self, i: usize) -> &ProfNode {
        &self.children[i]
    }
}

/// A profile tree armed for one compiled plan: the root mirrors the plan,
/// and every compiled sublink (however deeply nested) is indexed by id.
#[derive(Debug)]
pub struct ProfileTree {
    pub(crate) root: Rc<ProfNode>,
    sublinks: HashMap<usize, Rc<ProfNode>>,
}

impl ProfileTree {
    /// Builds the (zeroed) profile skeleton for a compiled plan.
    pub fn for_plan(plan: &CompiledPlan) -> Rc<ProfileTree> {
        let mut sublinks = HashMap::new();
        let root = build_node(plan.root(), &mut sublinks);
        Rc::new(ProfileTree { root, sublinks })
    }

    /// The subtree of a compiled sublink, by id — the memoized-sublink
    /// seam's lookup. `None` when the executing plan is not the plan this
    /// tree was armed for (ids are process-unique, so a foreign plan can
    /// never misattribute).
    pub(crate) fn sublink(&self, id: usize) -> Option<&Rc<ProfNode>> {
        self.sublinks.get(&id)
    }

    /// Snapshots the tree into the owned, `Send`-able public profile.
    pub fn snapshot(&self) -> QueryProfile {
        QueryProfile {
            root: snapshot_node(&self.root),
            bound_plan: None,
            optimized_plan: None,
            optimizer: None,
        }
    }
}

fn build_node(plan: &CompiledNode, sublinks: &mut HashMap<usize, Rc<ProfNode>>) -> Rc<ProfNode> {
    let (op, detail, children, exprs): (
        &'static str,
        String,
        Vec<&CompiledNode>,
        Vec<&CompiledExpr>,
    ) = match plan {
        CompiledNode::Scan { table, .. } => ("scan", table.clone(), vec![], vec![]),
        CompiledNode::Values { rows, .. } => {
            ("values", format!("{} rows", rows.len()), vec![], vec![])
        }
        CompiledNode::Project {
            input,
            items,
            distinct,
            ..
        } => (
            "project",
            format!(
                "{} item{}{}",
                items.len(),
                if items.len() == 1 { "" } else { "s" },
                if *distinct { " distinct" } else { "" }
            ),
            vec![input],
            items.iter().collect(),
        ),
        CompiledNode::Select {
            input, predicate, ..
        } => ("select", String::new(), vec![input], vec![predicate]),
        CompiledNode::CrossProduct { left, right, .. } => {
            ("cross_product", String::new(), vec![left, right], vec![])
        }
        CompiledNode::Join {
            left,
            right,
            kind,
            condition,
            equi_keys,
            ..
        } => (
            "join",
            format!(
                "{:?}{}",
                kind,
                if equi_keys.is_empty() {
                    " nested-loop"
                } else {
                    " hash"
                }
            ),
            vec![left, right],
            // Key expressions are column references (no sublinks); the
            // residual condition is where sublinks can live.
            vec![condition],
        ),
        CompiledNode::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => (
            "aggregate",
            format!("{} group keys, {} aggs", group_by.len(), aggregates.len()),
            vec![input],
            group_by
                .iter()
                .chain(aggregates.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
        ),
        CompiledNode::SetOp {
            op,
            all,
            left,
            right,
            ..
        } => (
            "set_op",
            format!("{:?}{}", op, if *all { " all" } else { "" }),
            vec![left, right],
            vec![],
        ),
        CompiledNode::Sort { input, keys, .. } => (
            "sort",
            format!(
                "{} key{}",
                keys.len(),
                if keys.len() == 1 { "" } else { "s" }
            ),
            vec![input],
            keys.iter().map(|k| &k.expr).collect(),
        ),
        CompiledNode::Limit { input, limit, .. } => {
            ("limit", format!("{limit}"), vec![input], vec![])
        }
    };
    let children = children
        .into_iter()
        .map(|c| build_node(c, sublinks))
        .collect();
    let mut node_sublinks = Vec::new();
    for expr in exprs {
        collect_sublinks(expr, sublinks, &mut node_sublinks);
    }
    Rc::new(ProfNode {
        op,
        detail,
        stats: NodeStats::default(),
        children,
        sublinks: node_sublinks,
    })
}

fn collect_sublinks(
    expr: &CompiledExpr,
    registry: &mut HashMap<usize, Rc<ProfNode>>,
    out: &mut Vec<(usize, Rc<ProfNode>)>,
) {
    match expr {
        CompiledExpr::Sublink(sublink) => {
            let sublink: &CompiledSublink = sublink;
            // The sublink's plan gets its own subtree (nested sublinks
            // inside it register recursively through build_node), rooted
            // here and indexed by id for the memo seam.
            let subtree = build_node(&sublink.plan, registry);
            registry.insert(sublink.id, Rc::clone(&subtree));
            out.push((sublink.id, subtree));
            if let Some(test) = &sublink.test_expr {
                collect_sublinks(test, registry, out);
            }
        }
        CompiledExpr::Binary { left, right, .. } => {
            collect_sublinks(left, registry, out);
            collect_sublinks(right, registry, out);
        }
        CompiledExpr::Unary { expr, .. } => collect_sublinks(expr, registry, out),
        CompiledExpr::Func { args, .. } => {
            for a in args {
                collect_sublinks(a, registry, out);
            }
        }
        CompiledExpr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_sublinks(c, registry, out);
                collect_sublinks(v, registry, out);
            }
            if let Some(e) = else_expr {
                collect_sublinks(e, registry, out);
            }
        }
        CompiledExpr::Slot(_)
        | CompiledExpr::Unresolved { .. }
        | CompiledExpr::Literal(_)
        | CompiledExpr::Param(_) => {}
    }
}

fn snapshot_node(node: &ProfNode) -> ProfileNode {
    let s = &node.stats;
    ProfileNode {
        operator: node.op.to_string(),
        detail: match s.emitted_by_join.get() {
            true => format!("{} (emitted by join)", node.detail),
            false => node.detail.clone(),
        },
        invocations: s.invocations.get(),
        rows_in: s.rows_in.get(),
        rows_out: s.rows_out.get(),
        batches: s.batches.get(),
        wall_nanos: s.wall_nanos.get(),
        memo_hits: s.memo_hits.get(),
        memo_misses: s.memo_misses.get(),
        spilled_bytes: s.spilled_bytes.get(),
        spill_partitions: s.spill_partitions.get(),
        columnar_fallback_rows: s.columnar_fallback_rows.get(),
        children: node.children.iter().map(|c| snapshot_node(c)).collect(),
        sublinks: node
            .sublinks
            .iter()
            .map(|(_, sub)| snapshot_node(sub))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// The probes driven by `crate::physical` and the drivers.
// ---------------------------------------------------------------------------

/// What every physical operator receives to count its invocation: the
/// governor, whose registry holds `operators_evaluated`, plus the armed
/// profile node, if any.
#[derive(Clone, Copy)]
pub(crate) struct OpProbe<'p> {
    pub(crate) gov: &'p Governor,
    pub(crate) node: Option<&'p NodeStats>,
}

impl<'p> OpProbe<'p> {
    pub(crate) fn new(gov: &'p Governor, node: Option<&'p NodeStats>) -> OpProbe<'p> {
        OpProbe { gov, node }
    }

    /// Records one batch-boundary loop iteration.
    pub(crate) fn batch(&self) {
        if let Some(stats) = self.node {
            add(&stats.batches, 1);
        }
    }

    /// Marks a projection as emitted by the join below it.
    pub(crate) fn emitted_by_join(&self) {
        if let Some(stats) = self.node {
            stats.emitted_by_join.set(true);
        }
    }
}

/// Counts one operator invocation — on the global counter *and* the armed
/// node, at the same site, which is what keeps the per-node sums equal to
/// `operators_evaluated` — and starts the (strided) wall clock. Dropping
/// the returned timer at the end of the operator body records the elapsed
/// time, on errors too.
pub(crate) fn begin<'p>(probe: &OpProbe<'p>) -> OpTimer<'p> {
    probe.gov.count().operators_evaluated += 1;
    match probe.node {
        None => OpTimer {
            node: None,
            start: None,
            scale: 1,
        },
        Some(stats) => {
            let n = stats.invocations.get();
            stats.invocations.set(n + 1);
            // Exact timing while the node is cold; once hot, sample every
            // stride-th invocation and scale — two clock reads per
            // PROFILE_TIME_STRIDE invocations instead of per invocation.
            let (start, scale) = if n < PROFILE_TIME_STRIDE {
                (Some(Instant::now()), 1)
            } else if n % PROFILE_TIME_STRIDE == 0 {
                (Some(Instant::now()), PROFILE_TIME_STRIDE)
            } else {
                (None, 1)
            };
            OpTimer {
                node: probe.node,
                start,
                scale,
            }
        }
    }
}

/// The scope guard recording an operator body's wall time on drop.
pub(crate) struct OpTimer<'p> {
    node: Option<&'p NodeStats>,
    start: Option<Instant>,
    scale: u64,
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        if let (Some(stats), Some(start)) = (self.node, self.start) {
            add(
                &stats.wall_nanos,
                (start.elapsed().as_nanos() as u64).saturating_mul(self.scale),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The public snapshot.
// ---------------------------------------------------------------------------

/// One node of an execution profile: the operator, its actuals, its input
/// children and the sublink subtrees rooted in its expressions. All
/// counters are zero in a plain `explain` (plan shape, no execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Operator name (`scan`, `select`, `join`, …).
    pub operator: String,
    /// Operator-specific detail (table name, join kind, key counts, …).
    pub detail: String,
    /// Operator invocations; summing this over the whole tree gives exactly
    /// the executor's `operators_evaluated` delta for the profiled run.
    pub invocations: u64,
    /// Input rows consumed across all invocations (sum of child
    /// cardinalities per invocation).
    pub rows_in: u64,
    /// Output rows produced across all invocations.
    pub rows_out: u64,
    /// Batch-boundary loop iterations across all invocations.
    pub batches: u64,
    /// Cumulative wall time of the operator body, in nanoseconds (strided
    /// clock probes; see the module docs for the sampling discipline).
    pub wall_nanos: u64,
    /// Sublink-memo hits attributed to this subtree's root (served without
    /// executing the sublink plan below).
    pub memo_hits: u64,
    /// Sublink-memo misses attributed to this subtree's root (each one
    /// executed the plan below).
    pub memo_misses: u64,
    /// Spill-file payload bytes written while this operator body ran.
    pub spilled_bytes: u64,
    /// Spill partition files / sort runs created while this operator body
    /// ran.
    pub spill_partitions: u64,
    /// Rows whose columnar evaluation fell back to the scalar path while
    /// this operator body ran.
    pub columnar_fallback_rows: u64,
    /// Input operators, in execution order.
    pub children: Vec<ProfileNode>,
    /// Sublink sub-plans rooted in this operator's expressions.
    pub sublinks: Vec<ProfileNode>,
}

impl ProfileNode {
    fn total_invocations(&self) -> u64 {
        self.invocations
            + self
                .children
                .iter()
                .chain(self.sublinks.iter())
                .map(|n| n.total_invocations())
                .sum::<u64>()
    }

    fn render_into(&self, out: &mut String, indent: usize, tag: &str) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(tag);
        out.push_str(&self.operator);
        if !self.detail.is_empty() {
            let _ = write!(out, " {}", self.detail);
        }
        let _ = write!(
            out,
            "  [inv={} in={} out={} batches={} time={:.3}ms",
            self.invocations,
            self.rows_in,
            self.rows_out,
            self.batches,
            self.wall_nanos as f64 / 1e6
        );
        if self.memo_hits + self.memo_misses > 0 {
            let _ = write!(out, " memo={}/{}", self.memo_hits, self.memo_misses);
        }
        if self.spilled_bytes > 0 || self.spill_partitions > 0 {
            let _ = write!(
                out,
                " spill={}B/{}",
                self.spilled_bytes, self.spill_partitions
            );
        }
        if self.columnar_fallback_rows > 0 {
            let _ = write!(out, " colfb={}", self.columnar_fallback_rows);
        }
        out.push_str("]\n");
        for child in &self.children {
            child.render_into(out, indent + 1, "");
        }
        for sub in &self.sublinks {
            sub.render_into(out, indent + 1, "sublink: ");
        }
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"operator\":\"{}\",\"detail\":\"{}\",\"invocations\":{},\"rows_in\":{},\
             \"rows_out\":{},\"batches\":{},\"wall_nanos\":{},\"memo_hits\":{},\
             \"memo_misses\":{},\"spilled_bytes\":{},\"spill_partitions\":{},\
             \"columnar_fallback_rows\":{},\"children\":[",
            json_escape(&self.operator),
            json_escape(&self.detail),
            self.invocations,
            self.rows_in,
            self.rows_out,
            self.batches,
            self.wall_nanos,
            self.memo_hits,
            self.memo_misses,
            self.spilled_bytes,
            self.spill_partitions,
            self.columnar_fallback_rows,
        );
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.json_into(out);
        }
        out.push_str("],\"sublinks\":[");
        for (i, sub) in self.sublinks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            sub.json_into(out);
        }
        out.push_str("]}");
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An execution profile: the operator tree of one compiled plan, annotated
/// with per-node actuals (or all zeroes for a plain `explain`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// The root operator.
    pub root: ProfileNode,
    /// Rendering of the **pre-optimization** bound logical plan, when the
    /// caller went through a session pipeline that ran the algebraic
    /// optimizer (`None` for executor-level profiles). Shown by
    /// [`QueryProfile::render`] so one `EXPLAIN` call exposes the
    /// bound-vs-optimized diff.
    pub bound_plan: Option<String>,
    /// Rendering of the optimized logical plan that was compiled
    /// (`None` when the optimizer did not run).
    pub optimized_plan: Option<String>,
    /// One-line optimizer rule summary with the sublinks the plan keeps
    /// (e.g. `decorrelate×1 pushdown×2; 1 sublink remains`; `None` when the
    /// optimizer did not run).
    pub optimizer: Option<String>,
}

impl QueryProfile {
    /// Sum of per-node invocation counts over the whole tree (children and
    /// sublink subtrees included). For a profiled execution this equals the
    /// executor's `operators_evaluated` delta exactly — both are counted at
    /// the same site.
    pub fn total_invocations(&self) -> u64 {
        self.root.total_invocations()
    }

    /// A human-readable indented tree. When the optimizer annotations are
    /// present, the physical tree is preceded by the bound logical plan,
    /// the optimized logical plan, and the rule summary — the full
    /// before/after diff in one rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(bound) = &self.bound_plan {
            out.push_str("bound plan:\n");
            for line in bound.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        if let Some(optimized) = &self.optimized_plan {
            out.push_str("optimized plan");
            if let Some(rules) = &self.optimizer {
                let _ = write!(out, " ({rules})");
            }
            out.push_str(":\n");
            for line in optimized.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str("physical plan:\n");
        }
        self.root.render_into(&mut out, 0, "");
        out
    }

    /// A self-contained JSON encoding (hand-rolled; no external crates).
    /// Without optimizer annotations this is the root operator object
    /// (the established shape); with them it is an envelope
    /// `{"bound_plan": .., "optimized_plan": .., "optimizer": .., "root": ..}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        if self.bound_plan.is_none() && self.optimized_plan.is_none() && self.optimizer.is_none() {
            self.root.json_into(&mut out);
            return out;
        }
        out.push('{');
        for (key, value) in [
            ("bound_plan", &self.bound_plan),
            ("optimized_plan", &self.optimized_plan),
            ("optimizer", &self.optimizer),
        ] {
            if let Some(value) = value {
                let _ = write!(out, "\"{key}\":\"{}\",", json_escape(value));
            }
        }
        out.push_str("\"root\":");
        self.root.json_into(&mut out);
        out.push('}');
        out
    }
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}
