//! One op, three ways: through `Session` (what a user waits for, and what
//! the end-to-end metrics time), *staged* through each layer's public entry
//! with a span around every call (the traced run), and through the
//! reference path the digests are checked against.

use crate::digest::{bag_digest, digest_of_sequence};
use crate::span::Recorder;
use crate::workloads::{session_config, Kind, QueryText, ServeInputs, OP_DEADLINE};
use perm::{
    CancelToken, Database, Executor, Prepared, ProfileNode, ProvenanceQuery, Relation, Session,
};
use perm_algebra::{Expr, Plan};
use perm_exec::optimize::{optimize, plan_fingerprint};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What one op produced, and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time of the whole op, seconds.
    pub total_s: f64,
    /// The part spent in `Session::prepare*` (0 for a served batch).
    pub prepare_s: f64,
    /// Rows of the provenance result (witness rows).
    pub rows: usize,
    /// Bag digest of the result.
    pub digest: u64,
    /// `plan_fingerprint` of the plan that was compiled (0 for a batch).
    pub fingerprint: u64,
}

fn bound_plan(db: &Database, query: &QueryText) -> Result<Plan, String> {
    match query {
        QueryText::Sql(sql) => perm_sql::compile(db, sql)
            .map(|(plan, _)| plan)
            .map_err(|e| e.to_string()),
        QueryText::Plan(plan) => Ok(plan.clone()),
    }
}

fn prepare_provenance(session: &Session<'_>, query: &QueryText) -> Result<Arc<Prepared>, String> {
    match query {
        QueryText::Sql(sql) => session.prepare_provenance(sql),
        QueryText::Plan(plan) => session.prepare_provenance_plan(plan),
    }
    .map_err(|e| e.to_string())
}

/// The op of the four query workloads: one cold ad-hoc provenance query —
/// fresh session (no plan cache, empty memo), prepare, execute under the
/// deadline, rows counted. The digest is taken after the clock stops.
pub fn session_op(
    db: &Database,
    kind: &Kind,
    spill_dir: &Option<PathBuf>,
) -> Result<Sample, String> {
    let start = Instant::now();
    let session = Session::with_config(db, session_config(kind, spill_dir));
    let prepared = prepare_provenance(&session, &kind.query)?;
    let prepare_s = start.elapsed().as_secs_f64();
    let result = session
        .execute_with_deadline(&prepared, &[], OP_DEADLINE)
        .map_err(|e| e.to_string())?;
    let rows = std::hint::black_box(result.len());
    let total_s = start.elapsed().as_secs_f64();
    Ok(Sample {
        total_s,
        prepare_s,
        rows,
        digest: bag_digest(&result),
        fingerprint: plan_fingerprint(prepared.plan()),
    })
}

/// The reference answer of a kind: the same rewrite, executed exactly as
/// written by the name-resolving interpreter — no optimizer, no fusing, no
/// compilation.
pub fn reference(db: &Database, kind: &Kind) -> Result<(usize, u64), String> {
    let plan = bound_plan(db, &kind.query)?;
    let rewritten = ProvenanceQuery::new(db, &plan)
        .strategy(kind.strategy)
        .rewrite()
        .map_err(|e| e.to_string())?;
    let executor = Executor::new(db).with_deadline(OP_DEADLINE * 3);
    let result = executor
        .execute_unoptimized(rewritten.plan())
        .map_err(|e| e.to_string())?;
    Ok((result.len(), bag_digest(&result)))
}

/// The op of `serve_mix`: one `serve(&batch)`. A failed request fails the
/// batch.
pub fn serve_op(inputs: &ServeInputs, batch: usize) -> Result<Sample, String> {
    let start = Instant::now();
    let responses = inputs.engine.serve(&inputs.requests[batch]);
    let total_s = start.elapsed().as_secs_f64();
    let mut rows = 0;
    let mut digests = Vec::with_capacity(responses.len());
    for response in &responses {
        let relation = response.as_ref().map_err(|e| e.to_string())?;
        rows += relation.len();
        digests.push(bag_digest(relation));
    }
    Ok(Sample {
        total_s,
        prepare_s: 0.0,
        rows,
        digest: digest_of_sequence(digests.into_iter()),
        fingerprint: 0,
    })
}

/// The single-threaded `Session` answer for one `(statement, $1)`.
pub fn serve_reference(db: &Database, sql: &str, value: i64) -> Result<u64, String> {
    let session = Session::new(db);
    let prepared = session.prepare(sql).map_err(|e| e.to_string())?;
    let result = session
        .execute(&prepared, &[perm::Value::Int(value)])
        .map_err(|e| e.to_string())?;
    Ok(bag_digest(&result))
}

/// Operators of a plan, sublink plans included.
pub fn plan_nodes(plan: &Plan) -> u64 {
    1 + plan.children().iter().map(|c| plan_nodes(c)).sum::<u64>()
        + sublink_plans(plan)
            .iter()
            .map(|p| plan_nodes(p))
            .sum::<u64>()
}

/// Sublinks of a plan, nested ones included.
pub fn plan_sublinks(plan: &Plan) -> u64 {
    plan.children()
        .iter()
        .map(|c| plan_sublinks(c))
        .sum::<u64>()
        + sublink_plans(plan)
            .iter()
            .map(|p| 1 + plan_sublinks(p))
            .sum::<u64>()
}

fn sublink_plans(plan: &Plan) -> Vec<&Plan> {
    plan.expressions()
        .iter()
        .flat_map(|e| e.sublinks())
        .filter_map(|e| match e {
            Expr::Sublink { plan, .. } => Some(plan.as_ref()),
            _ => None,
        })
        .collect()
}

/// Operator classes of `execute.op_ms.*`, in reporting order. `values`
/// counts as a scan and `limit` as a sort; every operator inside a sublink
/// plan counts as `sublink`.
pub const OP_CLASSES: [&str; 9] = [
    "scan",
    "select",
    "project",
    "join",
    "cross",
    "aggregate",
    "sort",
    "setop",
    "sublink",
];
const SUBLINK_CLASS: usize = 8;

fn op_class(operator: &str) -> usize {
    match operator {
        "scan" | "values" => 0,
        "select" => 1,
        "project" => 2,
        "join" => 3,
        "cross_product" => 4,
        "aggregate" => 5,
        "sort" | "limit" => 6,
        "set_op" => 7,
        other => panic!("operator `{other}` has no op_ms class"),
    }
}

/// What the profile of one execution adds up to.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProfileTotals {
    /// Self time by [`OP_CLASSES`], nanoseconds.
    pub op_ns: [u64; 9],
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Executions of sublink plans (invocations of their root operators).
    pub sublink_invocations: u64,
    /// Input rows consumed by all operators.
    pub rows_examined: u64,
}

/// Wall time of a subtree: an operator's `wall_nanos` covers its own body,
/// including the sublinks its expressions evaluate, but not its inputs.
fn subtree_ns(node: &ProfileNode) -> u64 {
    node.wall_nanos + node.children.iter().map(subtree_ns).sum::<u64>()
}

fn add_profile(node: &ProfileNode, in_sublink: bool, totals: &mut ProfileTotals) {
    totals.memo_hits += node.memo_hits;
    totals.memo_misses += node.memo_misses;
    totals.rows_examined += node.rows_in;
    if !in_sublink {
        // Hot sublink subtrees are timed by sampling, so their sum can
        // exceed the exactly timed body around them by a little.
        let sublinks: u64 = node.sublinks.iter().map(subtree_ns).sum();
        totals.op_ns[op_class(&node.operator)] += node.wall_nanos.saturating_sub(sublinks);
        totals.op_ns[SUBLINK_CLASS] += sublinks.min(node.wall_nanos);
    }
    for child in &node.children {
        add_profile(child, in_sublink, totals);
    }
    for sublink in &node.sublinks {
        totals.sublink_invocations += sublink.invocations;
        add_profile(sublink, true, totals);
    }
}

pub fn profile_totals(root: &ProfileNode) -> ProfileTotals {
    let mut totals = ProfileTotals::default();
    add_profile(root, false, &mut totals);
    totals
}

/// Phases of a staged op, in pipeline order; each is one span.
pub const PHASES: [&str; 6] = [
    "sql.parse",
    "sql.bind",
    "core.rewrite",
    "optimize",
    "compile",
    "execute",
];

/// Everything the traced run learns from one staged op.
#[derive(Debug)]
pub struct Staged {
    pub rows: usize,
    pub digest: u64,
    pub fingerprint: u64,
    /// Seconds per [`PHASES`] entry.
    pub phase_s: [f64; 6],
    /// Seconds of the enclosing `op` span.
    pub op_s: f64,
    pub bound_plan_nodes: u64,
    pub rewritten_plan_nodes: u64,
    pub witness_cols: u64,
    pub rules_fired: u64,
    pub sublinks_decorrelated: u64,
    pub sublinks_remaining: u64,
    pub plan_nodes_out: u64,
    pub operators_evaluated: u64,
    pub vectorized_batches: u64,
    pub sublink_fallback_rows: u64,
    pub columnar_fallback_rows: u64,
    pub profile: ProfileTotals,
    pub spilled_bytes: u64,
    pub spill_partitions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    /// The result, for the storage round trip of `spill_budget`.
    pub result: Relation,
}

/// The executor `Session::with_config` would build for `kind`.
fn session_like_executor<'a>(
    db: &'a Database,
    kind: &Kind,
    spill_dir: &Option<PathBuf>,
) -> Executor<'a> {
    let config = session_config(kind, spill_dir);
    Executor::new(db)
        .with_sublink_memo(config.sublink_memo)
        .with_memo_capacity(config.memo_capacity)
        .with_memo_retention(config.retain_memo)
        .with_batching(config.batching)
        .with_columnar(config.columnar)
        .with_memory_budget(config.memory_budget)
        .with_spill(config.spill)
        .with_spill_dir(config.spill_dir)
}

/// One op performed layer by layer, a span around every call:
/// `parse_query` → `bind` → `ProvenanceQuery::rewrite` → `optimize` →
/// `Executor::prepare` → `Executor::execute_profiled`, under a root `op`
/// span. A plan kind has no front end; its two SQL spans are empty.
pub fn staged_op(
    db: &Database,
    kind: &Kind,
    spill_dir: &Option<PathBuf>,
    rec: &mut Recorder,
    op_id: u64,
) -> Result<Staged, String> {
    let op = rec.begin("op", None, op_id);
    let mut spans = [0usize; 6];
    let mut phase = |rec: &mut Recorder, i: usize| {
        spans[i] = rec.begin(PHASES[i], Some(op), op_id);
        spans[i]
    };

    let executor = session_like_executor(db, kind, spill_dir);
    let bound = match &kind.query {
        QueryText::Sql(sql) => {
            let s = phase(rec, 0);
            let parsed = perm_sql::parse_query(sql);
            rec.end(s);
            let parsed = parsed.map_err(|e| e.to_string())?;
            let s = phase(rec, 1);
            let bound = perm_sql::bind(db, &parsed);
            rec.end(s);
            bound.map_err(|e| e.to_string())?.plan
        }
        QueryText::Plan(plan) => {
            for i in 0..2 {
                let s = phase(rec, i);
                rec.end(s);
            }
            plan.clone()
        }
    };
    let s = phase(rec, 2);
    let rewritten = ProvenanceQuery::new(db, &bound)
        .strategy(kind.strategy)
        .rewrite();
    rec.end(s);
    let rewritten = rewritten.map_err(|e| e.to_string())?;
    let s = phase(rec, 3);
    let (optimized, report) = optimize(rewritten.plan());
    rec.end(s);
    let s = phase(rec, 4);
    let compiled = executor.prepare(&optimized);
    rec.end(s);
    let compiled = compiled.map_err(|e| e.to_string())?;
    executor.set_cancel_token(Some(CancelToken::with_deadline(OP_DEADLINE)));
    executor.bind_params(Vec::new());
    let s = phase(rec, 5);
    let executed = executor.execute_profiled(&compiled);
    rec.end(s);
    rec.end(op);
    let (result, profile) = executed.map_err(|e| e.to_string())?;

    let seconds = |i: usize| (rec.spans[i].end_ns - rec.spans[i].start_ns) as f64 / 1e9;
    Ok(Staged {
        rows: result.len(),
        digest: bag_digest(&result),
        fingerprint: plan_fingerprint(&optimized),
        phase_s: spans.map(seconds),
        op_s: seconds(op),
        bound_plan_nodes: plan_nodes(&bound),
        rewritten_plan_nodes: plan_nodes(rewritten.plan()),
        witness_cols: rewritten.descriptor().attr_count() as u64,
        rules_fired: report.rules_fired(),
        sublinks_decorrelated: report.sublinks_decorrelated,
        sublinks_remaining: plan_sublinks(&optimized),
        plan_nodes_out: plan_nodes(&optimized),
        operators_evaluated: executor.operators_evaluated(),
        vectorized_batches: executor.batches_vectorized(),
        sublink_fallback_rows: executor.batch_fallback_rows(),
        columnar_fallback_rows: executor.columnar_fallback_rows(),
        profile: profile_totals(&profile.root),
        spilled_bytes: executor.spilled_bytes(),
        spill_partitions: executor.spill_partitions(),
        pool_hits: executor.buffer_pool_hits(),
        pool_misses: executor.buffer_pool_misses(),
        pool_evictions: executor.buffer_pool_evictions(),
        result,
    })
}

/// Deadline of the `execute.cancel_overshoot_ms` probe.
const CANCEL_PROBE_MS: u64 = 50;

/// The op of `kind` once more under a 50 ms deadline: milliseconds by which
/// the executor returned late. 0 when it finished in time.
pub fn cancel_overshoot_ms(db: &Database, kind: &Kind, spill_dir: &Option<PathBuf>) -> f64 {
    let deadline = std::time::Duration::from_millis(CANCEL_PROBE_MS);
    let session = Session::with_config(db, session_config(kind, spill_dir));
    let Ok(prepared) = prepare_provenance(&session, &kind.query) else {
        return 0.0;
    };
    let start = Instant::now();
    let outcome = session.execute_with_deadline(&prepared, &[], deadline);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Err(_) => (elapsed_ms - CANCEL_PROBE_MS as f64).max(0.0),
        Ok(_) => 0.0,
    }
}

/// Approximate bytes of a result in the page encoding (what a spill file
/// would hold for it).
pub fn encoded_bytes(result: &Relation) -> u64 {
    let mut buf = Vec::new();
    let mut total = 0u64;
    for tuple in result.tuples() {
        buf.clear();
        perm_storage::encode_row(tuple.values(), &mut buf);
        total += buf.len() as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(operator: &str, wall_nanos: u64) -> ProfileNode {
        ProfileNode {
            operator: operator.to_string(),
            detail: String::new(),
            invocations: 1,
            rows_in: 10,
            rows_out: 1,
            batches: 1,
            wall_nanos,
            memo_hits: 0,
            memo_misses: 0,
            spilled_bytes: 0,
            spill_partitions: 0,
            columnar_fallback_rows: 0,
            children: Vec::new(),
            sublinks: Vec::new(),
        }
    }

    #[test]
    fn sublink_time_moves_out_of_the_operator_that_evaluates_it() {
        // select (100) over scan (5); the select's sublink is a select (60,
        // 7 runs, 2 hits / 5 misses) over a scan (10).
        let mut sub = node("select", 60);
        sub.invocations = 7;
        sub.memo_hits = 2;
        sub.memo_misses = 5;
        sub.children.push(node("scan", 10));
        let mut root = node("select", 100);
        root.children.push(node("scan", 5));
        root.sublinks.push(sub);
        let totals = profile_totals(&root);
        assert_eq!(totals.op_ns[op_class("select")], 30);
        assert_eq!(totals.op_ns[op_class("scan")], 5);
        assert_eq!(totals.op_ns[SUBLINK_CLASS], 70);
        assert_eq!(totals.op_ns.iter().sum::<u64>(), 105);
        assert_eq!(totals.sublink_invocations, 7);
        assert_eq!((totals.memo_hits, totals.memo_misses), (2, 5));
        assert_eq!(totals.rows_examined, 40);
    }
}
