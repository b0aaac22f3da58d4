//! Concurrent serving: one engine, a pool of worker sessions, and a
//! correlated provenance audit whose sublink work the pool computes once.
//!
//! A reporting service keeps one [`perm::Engine`] for its data and answers
//! many clients at once. `perm_serve::ConcurrentEngine` adds the
//! concurrency: a fixed worker pool drains a request queue
//! (session-per-worker), repeated SQL texts meet in the engine's
//! cross-session plan cache, and correlated-sublink work lands in the memo
//! of the statement the workers share, so no two workers recompute the same
//! binding.
//!
//! Run with `cargo run --example concurrent_serving`.

use perm::{Database, Engine, Relation, Schema, Session, Value};
use perm_serve::{ConcurrentEngine, Request};
use std::sync::Arc;

fn build_database() -> Database {
    let mut db = Database::new();
    // orders(id, region, total) — the served fact table.
    db.create_table(
        "orders",
        Relation::from_rows(
            Schema::from_names(&["id", "region", "total"]).with_qualifier("orders"),
            (0..300)
                .map(|i| vec![Value::Int(i), Value::Int(i % 6), Value::Int((i * 37) % 500)])
                .collect(),
        ),
    )
    .expect("fresh database");
    // alerts(region, threshold) — per-region audit thresholds, correlated
    // against in the hot query.
    db.create_table(
        "alerts",
        Relation::from_rows(
            Schema::from_names(&["region", "threshold"]).with_qualifier("alerts"),
            (0..6)
                .map(|r| vec![Value::Int(r), Value::Int(60 * r)])
                .collect(),
        ),
    )
    .expect("fresh database");
    db
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = ConcurrentEngine::new(Engine::new(build_database()));
    println!("pool size: {} workers\n", engine.workers());

    // --- A mixed request queue, drained by the pool --------------------
    // Two statement texts; the pool compiles each once, every later
    // preparation anywhere in the pool is a plan-cache hit.
    let flagged = "SELECT id, total FROM orders \
                   WHERE EXISTS (SELECT * FROM alerts \
                                 WHERE alerts.region = orders.region \
                                 AND alerts.threshold < orders.total) \
                   AND total > $1";
    let top = "SELECT id FROM orders WHERE total > $1 ORDER BY total LIMIT 5";
    let requests: Vec<Request> = (0..24)
        .map(|i| {
            if i % 2 == 0 {
                Request::sql(flagged, vec![Value::Int(100 + 10 * (i % 5))])
            } else {
                Request::sql(top, vec![Value::Int(300 + i)])
            }
        })
        .collect();

    let results = engine.serve(&requests);
    let answered = results.iter().filter(|r| r.is_ok()).count();
    let cache = engine.engine().plan_cache_stats();
    println!("served {answered}/{} requests", requests.len());
    println!(
        "plan cache: {} hits / {} misses / {} cached statements\n",
        cache.hits, cache.misses, cache.entries
    );

    // --- One provenance audit, served twice ----------------------------
    // A correlated scalar comparison is the sublink shape the optimizer
    // leaves to the memo (the EXISTS above became a hash join). The first
    // call evaluates it once per distinct region; the second call — fresh
    // worker sessions, any thread of the pool — runs the same statement,
    // finds every region in its memo and evaluates nothing.
    let audit = engine.prepare(
        "SELECT PROVENANCE id, total FROM orders \
         WHERE total > (SELECT avg(threshold) FROM alerts \
                        WHERE alerts.region = orders.region)",
    )?;
    // A twin of the statement on a plain session — no pool, its own cold
    // memo — must give the same relation: the memo is a speed knob, not a
    // semantics one. (Executing `audit` itself here would warm its memo
    // before the pool sees it.)
    let plain_session = Session::new(engine.database());
    let twin = plain_session.prepare(audit.sql().expect("prepared from SQL"))?;
    let plain = plain_session.execute(&twin, &[])?;
    let request = [Request::prepared(Arc::clone(&audit), vec![])];
    let mut before = engine.metrics();
    for call in ["first", "second"] {
        let provenance = engine.serve(&request).remove(0)?;
        let after = engine.metrics();
        println!(
            "{call} audit: {} witness rows, statement memo {} hits / {} misses",
            provenance.len(),
            after.shared_memo_hits - before.shared_memo_hits,
            after.shared_memo_misses - before.shared_memo_misses
        );
        assert!(provenance.bag_eq(&plain));
        before = after;
    }
    println!("pool == plain session: verified");
    Ok(())
}
