//! Query-level observability, tier by tier: plan shape with `EXPLAIN`,
//! per-operator actuals with `EXPLAIN ANALYZE`, structured execution
//! traces through a `TraceSink`, the session's monotone counters, and the
//! serving layer's Prometheus-exportable metrics registry.
//!
//! An operator on call gets paged about a slow provenance query. This
//! example is the diagnosis path: look at the plan, run it annotated, see
//! where the time and the memo traffic went, then check the serving
//! metrics the dashboard scrapes.
//!
//! Run with `cargo run --example observability`.

use std::sync::Arc;

use perm::{Database, Engine, Relation, RingTraceSink, Schema, SessionConfig, Value};
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

    // Tier 2 — structured traces: attach a `TraceSink` and every pipeline
    // phase (parse, bind, rewrite, optimize, compile, execute), memo
    // insert/hit, degradation transition and fired cancellation lands in it
    // as a `TraceEvent` — the phases from the session, the rest written by
    // the executor itself. The bundled `RingTraceSink` is a bounded ring
    // buffer.
    // A fresh engine keeps its plan cache cold — a cache hit would
    // (correctly) skip the frontend phases, and we want to see them all.
    let sink = Arc::new(RingTraceSink::new(16_384));
    let traced_engine = Engine::new(build_database());
    let traced = traced_engine.session_with(SessionConfig {
        trace_sink: Some(sink.clone()),
        ..SessionConfig::default()
    });
    let prepared = traced.prepare(sql).expect("the query prepares");
    traced.execute(&prepared, &[]).expect("the query runs");
    // The optimizer turned that `EXISTS` into a semi join, so it has no
    // memo traffic; a correlated scalar comparison stays a memo site, and
    // its second run is served from the statement's memo.
    let heavier = traced
        .prepare(
            "SELECT id FROM shipments WHERE weight > \
             (SELECT avg(lim) FROM holds WHERE holds.lane = shipments.lane)",
        )
        .expect("the query prepares");
    for _ in 0..2 {
        traced.execute(&heavier, &[]).expect("the query runs");
    }
    // A hot correlated sublink produces many memo events, so print the
    // phase spans verbatim and summarize the memo traffic.
    let events = sink.snapshot();
    let (mut memo_inserts, mut memo_hits) = (0usize, 0usize);
    println!("== trace events ({} total) ==", events.len());
    for event in &events {
        match event.kind {
            perm::TraceKind::MemoInsert => memo_inserts += 1,
            perm::TraceKind::MemoHit => memo_hits += 1,
            _ => println!(
                "  {:?} {} = {:.3}ms",
                event.kind,
                event.label,
                event.value as f64 / 1e6
            ),
        }
    }
    println!("  (+ {memo_inserts} memo inserts, {memo_hits} memo hits)");

    // Tier 3 — session counters: monotone totals over the session's life
    // (see `SessionStats` — *Counter semantics*), read from the same
    // registry the trace events are written beside: one memo-hit event per
    // counted memo hit.
    let stats = traced.stats();
    assert!(memo_hits > 0);
    assert_eq!(memo_hits as u64, stats.memo_hits);
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
