//! TPC-H provenance: runs the paper's TPC-H sublink queries with provenance,
//! the workload of Figure 6, through the `Engine`/`Session` serving API.
//!
//! Run with `cargo run --release --example tpch_provenance`.

use perm::{Engine, ExecError, PermError, SessionConfig, Strategy};
use perm_tpch::{generate, sublink_queries, SublinkClass, TpchScale};
use std::time::{Duration, Instant};

/// The per-query budget, standing in for the paper's six-hour cut-off.
const DEADLINE: Duration = Duration::from_secs(10);

fn main() {
    // The smallest named scale (the stand-in for the paper's 1 MB database).
    let scale = TpchScale::named("xs").expect("named scale");
    let db = generate(scale, 42);
    println!(
        "generated TPC-H style database at scale factor {} ({} tuples total)\n",
        scale.factor,
        db.total_tuples()
    );
    let engine = Engine::new(db);

    for template in sublink_queries() {
        // The Gen strategy handles every sublink but is expensive; run it
        // only on the cheaper correlated templates and use Move for the
        // uncorrelated ones, as a production deployment of Perm would.
        let strategy = match template.class {
            SublinkClass::Uncorrelated => Strategy::Move,
            SublinkClass::Correlated => Strategy::Auto,
        };
        let session = engine.session_with(SessionConfig {
            strategy,
            ..SessionConfig::default()
        });
        println!("── TPC-H Q{} ({})", template.id, template.pattern);

        // Provenance of an empty result is empty: take the first
        // instantiation whose plain query returns rows.
        let run_plain = |seed: u64| {
            let sql = template.instantiate(seed);
            let plain = session.prepare(&sql).expect("original query prepares");
            let original = session.execute(&plain, &[]).expect("original query runs");
            (sql, original)
        };
        let (sql, original) = (0..16)
            .map(run_plain)
            .find(|(_, original)| !original.is_empty())
            .unwrap_or_else(|| {
                println!("   no non-empty instantiation in 0..16");
                run_plain(7)
            });

        let start = Instant::now();
        let audited = session
            .prepare_provenance(&sql)
            .expect("provenance rewrite succeeds");
        let provenance = match session.execute_with_deadline(&audited, &[], DEADLINE) {
            Ok(provenance) => provenance,
            // The paper's missing bars: the optimizer does not yet join a
            // multi-table CrossBase.
            Err(PermError::Exec(ExecError::Cancelled { .. })) => {
                println!(
                    "   strategy {:>4}: {:>6} original rows, timed out — ROADMAP item 3a\n",
                    strategy.name(),
                    original.len()
                );
                continue;
            }
            Err(e) => panic!("provenance query of Q{} failed: {e}", template.id),
        };
        let elapsed = start.elapsed();

        println!(
            "   strategy {:>4}: {:>6} original rows, {:>7} provenance rows, {:>8} provenance \
             attributes, {:>9.1?}",
            strategy.name(),
            original.len(),
            provenance.len(),
            audited
                .descriptor()
                .map(|d| d.attr_count())
                .unwrap_or_default(),
            elapsed
        );
        if let Some(first) = provenance.tuples().first() {
            println!("   sample provenance row: {first}");
        }
        println!();
    }
}
