//! Resilient serving: deadlines, cancellation and memory budgets on a
//! provenance endpoint.
//!
//! A provenance query is served like any other query — which means it
//! inherits every operational hazard of a serving deployment: a report that
//! suddenly takes too long, a dashboard tab closed mid-stream, a tenant
//! whose audit blows past its memory allowance. This example walks the
//! resilience surface of the `Engine`/`Session` API:
//!
//! 1. a per-execution **deadline** that cancels an over-budget request with
//!    a clean typed error (nothing poisoned, the session keeps serving);
//! 2. a **cancel handle** aborting a streaming cursor from outside (the
//!    stream alone: the session serves the next request in full);
//! 3. a session **memory budget** that first degrades gracefully (memo
//!    entries are reclaimed — speed lost, correctness kept) and only fails
//!    with a named operator when the budget truly cannot hold.
//!
//! Run with `cargo run --example resilient_serving`.

use perm::prelude::*;
use perm::{CancelToken, ExecError, PermError};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    // The warehouse-audit shape from the introduction, scaled up enough
    // that an execution passes through many cancellation checkpoints: a
    // table of sensor readings and the sensors flagged by maintenance.
    let readings: Vec<Vec<Value>> = (0..4000)
        .map(|i| {
            vec![
                Value::str(format!("s{}", i % 40)),
                Value::Int(i % 30),
                Value::Float(10.0 + (i % 17) as f64),
            ]
        })
        .collect();
    db.create_table(
        "readings",
        Relation::from_rows(
            Schema::from_names(&["sensor", "day", "value"]).with_qualifier("readings"),
            readings,
        ),
    )?;
    db.create_table(
        "maintenance",
        Relation::from_rows(
            Schema::from_names(&["sensor", "day"]).with_qualifier("maintenance"),
            (0..40)
                .map(|i| vec![Value::str(format!("s{}", i % 40)), Value::Int(i % 7)])
                .collect(),
        ),
    )?;

    let engine = Engine::new(db);
    let session = engine.session();
    let audit = session.prepare(
        "SELECT PROVENANCE sensor, day, value FROM readings r \
         WHERE value > $1 AND NOT EXISTS (SELECT * FROM maintenance m \
                                          WHERE m.sensor = r.sensor AND m.day = r.day)",
    )?;

    // --- 1. Deadlines ----------------------------------------------------
    // A generous deadline serves normally; an already-expired one cancels
    // at the first checkpoint, before any real work. Either way the error
    // is typed and the session survives to serve the next request.
    let rows = session.execute_with_deadline(&audit, &[Value::Int(12)], Duration::from_secs(5))?;
    println!("within deadline: {} witness rows", rows.len());
    match session.execute_with_deadline(&audit, &[Value::Int(12)], Duration::ZERO) {
        Err(PermError::Exec(ExecError::Cancelled { reason })) => {
            println!("expired deadline: cancelled ({reason})");
        }
        other => panic!("expected a cancellation, got {other:?}"),
    }
    let again = session.execute(&audit, &[Value::Int(12)])?;
    println!(
        "session still serves after the cancellation: {} rows",
        again.len()
    );

    // --- 2. Cancelling a streaming cursor --------------------------------
    // The cursor's cancel handle is `Send + Sync`: a real deployment parks
    // it with the connection and fires it when the client goes away. Here
    // we take one batch and then abort.
    let mut stream = session.rows(&audit, &[Value::Int(12)])?;
    let handle: CancelToken = stream.cancel_handle();
    let first = stream.next().transpose()?;
    println!(
        "streamed first row: {:?} attributes",
        first.map(|t| t.arity())
    );
    handle.cancel("client disconnected");
    match stream.find_map(|r| r.err()) {
        Some(ExecError::Cancelled { reason }) => println!("stream aborted: {reason}"),
        other => panic!("expected the stream to cancel, got {other:?}"),
    }
    // The handle belonged to the stream's execution alone: the session
    // serves the next request in full.
    drop(stream);
    let after = session.execute(&audit, &[Value::Int(12)])?;
    assert_eq!(
        after.len(),
        rows.len(),
        "the session must outlive its stream"
    );
    println!("session still serves after the abort: {} rows", after.len());

    // --- 3. Memory budgets ----------------------------------------------
    // A budgeted session charges join builds, aggregation state, sort keys
    // and memo entries against the allowance. Under pressure it reclaims
    // memo entries first — the answer stays exact, only re-computation
    // speed is lost. Only when operator state alone cannot fit does it
    // fail, naming the operator that hit the wall.
    let roomy = engine.session_with(SessionConfig {
        memory_budget: Some(4 << 20),
        ..SessionConfig::default()
    });
    let prepared = roomy.prepare(
        "SELECT PROVENANCE sensor, day, value FROM readings r \
         WHERE value > $1 AND NOT EXISTS (SELECT * FROM maintenance m \
                                          WHERE m.sensor = r.sensor AND m.day = r.day)",
    )?;
    let result = roomy.execute(&prepared, &[Value::Int(12)])?;
    let stats = roomy.stats();
    println!(
        "4 MiB budget: {} rows, peak {} bytes accounted over {} checkpoints",
        result.len(),
        stats.peak_bytes,
        stats.cancel_checks
    );

    // The same query under the same 512-byte allowance completes by
    // shedding memo entries — but ask it to also *sort* the witnesses and
    // the sort keys alone (operator state, not reclaimable) cannot fit:
    // the failure is a typed error naming the operator, not an abort.
    let tight = engine.session_with(SessionConfig {
        memory_budget: Some(512),
        ..SessionConfig::default()
    });
    let prepared = tight.prepare(
        "SELECT PROVENANCE sensor, day, value FROM readings r \
         WHERE value > $1 AND NOT EXISTS (SELECT * FROM maintenance m \
                                          WHERE m.sensor = r.sensor AND m.day = r.day) \
         ORDER BY value DESC",
    )?;
    match tight.execute(&prepared, &[Value::Int(12)]) {
        Err(PermError::Exec(ExecError::ResourceExhausted { operator })) => {
            println!("512 B budget: exhausted in `{operator}` (typed, not an abort)");
        }
        Ok(result) => println!(
            "512 B budget: degraded but completed, {} rows",
            result.len()
        ),
        Err(e) => return Err(e.into()),
    }
    Ok(())
}
