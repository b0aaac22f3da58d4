//! Strategy comparison on the synthetic workload of Section 4.2.2 — a small
//! interactive version of Figures 7–9: `q1` (`a = ANY`) and `q2`
//! (`a < ALL`) under every rewrite strategy, each through a `Session`, with
//! the optimizer's rule summary beside the time. Left and Move emit a
//! `⟕_{Jsub}` whose condition repeats the sublink; the optimizer filters
//! below the join and the condition collapses to a hash key
//! (`imply×1 outer-pushdown×1`), which is why they land next to Unn.
//!
//! The tables come from `build_matching_database`: on the generator's raw
//! Gaussian `a` column `r1.a = r2.a` practically never holds and `q1` would
//! print 0 rows for every strategy.
//!
//! Run with `cargo run --release --example strategy_comparison`.

use perm::prelude::*;
use perm_algebra::display::explain;
use perm_synthetic::queries::{build_matching_database, build_query, random_range, QueryKind};

fn main() {
    let sizes = [(1000usize, 250usize), (4000, 1000)];
    for (r1_rows, r2_rows) in sizes {
        let db = build_matching_database(r1_rows, r2_rows, 42);
        let params = random_range(r1_rows, r2_rows, 42);
        println!("== |R1| = {r1_rows}, |R2| = {r2_rows} ==");
        for (kind, name) in [
            (QueryKind::Q1EqualityAny, "q1 (a = ANY)"),
            (QueryKind::Q2InequalityAll, "q2 (a < ALL)"),
        ] {
            let plan = build_query(&db, params, kind);
            println!("  {name}");
            for strategy in Strategy::ALL {
                let session = Session::with_config(
                    &db,
                    SessionConfig {
                        strategy,
                        ..SessionConfig::default()
                    },
                );
                let start = std::time::Instant::now();
                let outcome = session
                    .prepare_provenance_plan(&plan)
                    .and_then(|prepared| Ok((session.execute(&prepared, &[])?, prepared)));
                match outcome {
                    Ok((witnesses, prepared)) => println!(
                        "    {:>5}: {:>7.1} ms  {:>5} rows  {}",
                        strategy.name(),
                        start.elapsed().as_secs_f64() * 1000.0,
                        witnesses.len(),
                        prepared.optimizer_report().summary()
                    ),
                    Err(_) => println!("    {:>5}:      n/a", strategy.name()),
                }
            }
        }
        println!();
    }

    // What Move writes for the smallest instance, and what the optimizer
    // makes of it.
    let db = build_matching_database(20, 10, 1);
    let plan = build_query(&db, random_range(20, 10, 1), QueryKind::Q1EqualityAny);
    println!("original q1 plan:\n{}", explain(&plan));
    let session = Session::with_config(
        &db,
        SessionConfig {
            strategy: Strategy::Move,
            ..SessionConfig::default()
        },
    );
    let prepared = session
        .prepare_provenance_plan(&plan)
        .expect("Move applies to q1");
    println!(
        "q1 rewritten with Move:\n{}",
        explain(prepared.bound_plan())
    );
    println!(
        "… optimized ({}):\n{}",
        prepared.optimizer_report().summary(),
        explain(prepared.plan())
    );
}
