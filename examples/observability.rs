//! Query-level observability, tier by tier: plan shape with `EXPLAIN`,
//! per-operator actuals with `EXPLAIN ANALYZE`, where the time and the memo
//! traffic went from differences of `SessionStats` snapshots, the session's
//! monotone counters, and the serving layer's Prometheus-exportable metrics
//! registry.
//!
//! An operator on call gets paged about a slow provenance query. This
//! example is the diagnosis path: look at the plan, run it annotated, see
//! where the time and the memo traffic went, then check the serving
//! metrics the dashboard scrapes.
//!
//! Run with `cargo run --example observability`.

use perm::{Database, Engine, Relation, Schema, Value};
use perm_serve::{ConcurrentEngine, Request};

fn build_database() -> Database {
    let mut db = Database::new();
    // shipments(id, lane, weight) — the audited fact table.
    db.create_table(
        "shipments",
        Relation::from_rows(
            Schema::from_names(&["id", "lane", "weight"]).with_qualifier("shipments"),
            (0..400)
                .map(|i| vec![Value::Int(i), Value::Int(i % 8), Value::Int((i * 31) % 900)])
                .collect(),
        ),
    )
    .expect("fresh database");
    // holds(lane, limit) — per-lane customs limits, correlated against.
    db.create_table(
        "holds",
        Relation::from_rows(
            Schema::from_names(&["lane", "lim"]).with_qualifier("holds"),
            (0..8)
                .map(|l| vec![Value::Int(l), Value::Int(100 * l)])
                .collect(),
        ),
    )
    .expect("fresh database");
    db
}

fn main() {
    let engine = Engine::new(build_database());
    let sql = "SELECT PROVENANCE id, weight FROM shipments \
               WHERE EXISTS (SELECT * FROM holds \
                             WHERE holds.lane = shipments.lane AND shipments.weight > holds.lim)";

    // Tier 1a — EXPLAIN: the physical plan shape, no execution. Every
    // counter in the tree is zero; what you read is what would run.
    let session = engine.session();
    let shape = session.explain(sql).expect("the query plans");
    println!("== EXPLAIN (plan shape, not executed) ==\n{shape}");

    // Tier 1b — EXPLAIN ANALYZE: the same tree annotated with actuals.
    // Invocations, rows in/out, wall time, and the sublink-memo hit/miss
    // split per subtree; the per-node invocation counts sum exactly to the
    // executor's `operators_evaluated` counter.
    let profile = session.explain_analyze(sql).expect("the query runs");
    println!("== EXPLAIN ANALYZE ==\n{profile}");
    // The root Π only renames columns, so the semi join below it wrote the
    // result rows through the Π's column map — each witness row is built
    // once — and the profile says so: `project 7 items (emitted by join)`,
    // rows in = rows out = what the join emitted, a self time without the
    // join's.
    let root = &profile.root;
    assert!(
        root.detail.ends_with("(emitted by join)"),
        "{}",
        root.detail
    );
    assert_eq!(root.rows_in, root.children[0].rows_out);
    println!(
        "total operator invocations: {}\n",
        profile.total_invocations()
    );

    // Tier 2 — where the time went: the session adds the wall time of
    // each pipeline phase (parse, bind, rewrite, optimize, compile,
    // execute) to its `SessionStats`, beside the counters, so the
    // difference of two snapshots says where the time between them went.
    // A fresh engine keeps its plan cache cold — a cache hit would
    // (correctly) skip the frontend phases, and we want to see them all.
    let timed_engine = Engine::new(build_database());
    let timed = timed_engine.session();
    let before = timed.stats();
    let prepared = timed.prepare(sql).expect("the query prepares");
    timed.execute(&prepared, &[]).expect("the query runs");
    let after = timed.stats();
    println!("== pipeline phases (wall time) ==");
    for (phase, ns) in [
        ("parse", after.parse_ns - before.parse_ns),
        ("bind", after.bind_ns - before.bind_ns),
        ("rewrite", after.rewrite_ns - before.rewrite_ns),
        ("optimize", after.optimize_ns - before.optimize_ns),
        ("compile", after.compile_ns - before.compile_ns),
        ("execute", after.execute_ns - before.execute_ns),
    ] {
        assert!(ns > 0, "{phase} ran and took time");
        println!("  {phase:<8} {:.3}ms", ns as f64 / 1e6);
    }
    // The optimizer turned that `EXISTS` into a semi join, so it has no
    // memo traffic; a correlated scalar comparison stays a memo site: each
    // of the 400 rows looks its lane up, the first run misses once per
    // lane, and the second run is served from the statement's memo.
    let heavier = timed
        .prepare(
            "SELECT id FROM shipments WHERE weight > \
             (SELECT avg(lim) FROM holds WHERE holds.lane = shipments.lane)",
        )
        .expect("the query prepares");
    let before = timed.stats();
    for _ in 0..2 {
        timed.execute(&heavier, &[]).expect("the query runs");
    }
    let after = timed.stats();
    let (memo_hits, memo_misses) = (
        after.memo_hits - before.memo_hits,
        after.memo_misses - before.memo_misses,
    );
    println!(
        "  (+ two runs of a correlated scalar: {:.3}ms, {memo_misses} memo misses, {memo_hits} memo hits)",
        (after.execute_ns - before.execute_ns) as f64 / 1e6
    );
    assert_eq!((memo_misses, memo_hits), (8, 792));

    // Tier 3 — session counters: monotone totals over the session's life
    // (see `SessionStats` — *Counter semantics*).
    let stats = timed.stats();
    println!(
        "\n== session counters ==\n\
         parses={} compiles={} executions={} memo={}/{} cancel_checks={} peak_bytes={}",
        stats.parses,
        stats.compiles,
        stats.executions,
        stats.memo_hits,
        stats.memo_misses,
        stats.cancel_checks,
        stats.peak_bytes
    );

    // Tier 4 — serving metrics: the concurrent engine aggregates request
    // outcomes, queue-wait and execution latency histograms, and cache hit
    // rates across its worker pool, exportable as Prometheus text.
    let serving = ConcurrentEngine::new(Engine::new(build_database())).with_workers(2);
    let batch: Vec<Request> = (0..6).map(|_| Request::sql(sql, vec![])).collect();
    for result in serving.serve(&batch) {
        result.expect("served request");
    }
    println!("\n== serving metrics (Prometheus text) ==");
    print!("{}", serving.metrics().prometheus_text());
}
