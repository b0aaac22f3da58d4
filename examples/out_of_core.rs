//! Out-of-core provenance: a `SELECT PROVENANCE` query whose hash-join
//! build table and sort buffer are both larger than the session's memory
//! budget — completed anyway by spilling operator state to disk.
//!
//! With only [`perm::SessionConfig::memory_budget`] set, the executor's
//! degradation ladder ends in `ResourceExhausted` once an operator's
//! working state cannot fit. Setting [`perm::SessionConfig::spill`] adds
//! the out-of-core rungs before that last resort: the hash join goes
//! grace (build and probe sides partitioned to heap files), and the sort
//! switches to external merge runs. Each spill file is written once, sealed
//! and then streamed back in order through a read-only buffer pool, and
//! the result is row-for-row identical to the unbudgeted run.
//!
//! Run with `cargo run --example out_of_core`.

use perm::{Database, PermError, Relation, Schema, Session, SessionConfig, Value};

/// Two fact tables, each a few thousand rows — far more operator state
/// than the 16 KiB budget below once the provenance rewrite widens every
/// tuple with its witness attributes.
fn build_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        "orders",
        Relation::from_rows(
            Schema::from_names(&["id", "region", "total"]).with_qualifier("orders"),
            (0..2000)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(i % 7),
                        Value::Int((i * 137) % 900),
                    ]
                })
                .collect(),
        ),
    )
    .expect("fresh database");
    db.create_table(
        "shipments",
        Relation::from_rows(
            Schema::from_names(&["order_id", "carrier", "weight"]).with_qualifier("shipments"),
            (0..2000)
                .map(|i| {
                    vec![
                        Value::Int((i * 3) % 2000),
                        Value::Int(i % 11),
                        Value::Int((i * 41) % 300),
                    ]
                })
                .collect(),
        ),
    )
    .expect("fresh database");
    db
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = build_database();

    // Which order and shipment rows witness each audited pairing? The
    // rewrite keeps the equi-join (its build side is all of `shipments`)
    // and the order-by (its buffer is the whole widened join output).
    let audit = "SELECT PROVENANCE o.id, s.carrier FROM orders o \
                 JOIN shipments s ON o.id = s.order_id \
                 ORDER BY o.total DESC, s.weight";

    // --- The unbudgeted reference ---------------------------------------
    let reference_session = Session::new(&db);
    let reference = reference_session.run(audit)?;
    println!(
        "unbudgeted reference: {} provenance rows, {} columns",
        reference.len(),
        reference.schema().arity()
    );

    // --- A 16 KiB budget without spill: the ladder's last resort --------
    let strict = Session::with_config(
        &db,
        SessionConfig {
            memory_budget: Some(16 << 10),
            ..SessionConfig::default()
        },
    );
    match strict.run(audit) {
        Err(PermError::Exec(e)) => println!("16 KiB budget, no spill:  {e}"),
        other => panic!("expected resource exhaustion, got {other:?}"),
    }

    // --- The same budget with spill-to-disk enabled ---------------------
    let spilling = Session::with_config(
        &db,
        SessionConfig {
            memory_budget: Some(16 << 10),
            spill: true,
            // `spill_dir: None` uses the system temp directory; the files
            // are removed when the session's executor drops.
            ..SessionConfig::default()
        },
    );
    let result = spilling.run(audit)?;
    println!("16 KiB budget, spill:     {} provenance rows", result.len());
    assert_eq!(
        reference, result,
        "out-of-core execution must be row-for-row identical"
    );
    println!("result identical to the unbudgeted reference, row for row");

    // --- What the out-of-core machinery actually did --------------------
    let stats = spilling.stats();
    println!("\nout-of-core counters:");
    println!("  degradation rung:   {:?}", stats.degradation);
    println!("  spilled bytes:      {}", stats.spilled_bytes);
    println!("  partitions/runs:    {}", stats.spill_partitions);
    println!("  buffer pool hits:   {}", stats.buffer_pool_hits);
    println!("  buffer pool misses: {}", stats.buffer_pool_misses);
    assert!(stats.spilled_bytes > 0, "the budget must force spilling");
    assert!(
        stats.buffer_pool_hits + stats.buffer_pool_misses > 0,
        "spilled state must be read back through the pool"
    );
    Ok(())
}
