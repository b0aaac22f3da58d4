//! The optimizer layer, watched through `EXPLAIN`: a correlated `EXISTS`
//! sublink is decorrelated into a hash semi join, and one `explain` call
//! shows the bound plan, the optimized plan and the rules that fired —
//! alongside the operator-count difference against the memo-only baseline.
//! Then the same for its *provenance*: the Gen rewrite's selection over
//! `customers⁺ × CrossBase(orders)` becomes two hash joins, and the rule
//! summary says what fired and how many sublinks are left (none) — also
//! when the threshold is a `$1` parameter of a prepared statement. Last, an
//! `ORDER BY`: the rewrite sorts the witness rows, the optimizer sorts the
//! customers and lets the join fan them out in that order. Then TPC-H Q17's
//! shape: a correlated scalar sublink that stays a sublink, whose body the
//! optimizer still reshapes — the correlated selection Gen puts over the
//! witness projection `lineitem⁺` moves onto the scan. Last, a prepared
//! statement.
//!
//! Run with `cargo run --example optimizer_explain`.

use perm::algebra::{Expr, Plan};
use perm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Customers and their orders: a classic correlated-EXISTS shape.
    let mut db = Database::new();
    db.create_table(
        "customers",
        Relation::from_rows(
            Schema::from_names(&["id", "name"]).with_qualifier("customers"),
            (0..200)
                .map(|i| vec![Value::Int(i), Value::str(format!("customer-{i}"))])
                .collect(),
        ),
    )?;
    db.create_table(
        "orders",
        Relation::from_rows(
            Schema::from_names(&["customer_id", "total"]).with_qualifier("orders"),
            (0..400)
                .map(|i| vec![Value::Int(i % 50), Value::Int(10 + i)])
                .collect(),
        ),
    )?;
    // Parts and their line items, for the Q17 shape below.
    db.create_table(
        "part",
        Relation::from_rows(
            Schema::from_names(&["p_partkey", "p_brand"]).with_qualifier("part"),
            (0..20)
                .map(|i| vec![Value::Int(i), Value::str(format!("Brand#{}", i % 4))])
                .collect(),
        ),
    )?;
    db.create_table(
        "lineitem",
        Relation::from_rows(
            Schema::from_names(&["l_partkey", "l_quantity", "l_extendedprice"])
                .with_qualifier("lineitem"),
            (0..300)
                .map(|i| {
                    vec![
                        Value::Int(i % 20),
                        Value::Int(1 + (i * 37) % 50),
                        Value::Int(100 + i),
                    ]
                })
                .collect(),
        ),
    )?;
    let engine = Engine::new(db);

    // Customers with at least one order over $300 — the sublink is
    // correlated on `customers.id`, so without the optimizer it runs once
    // per distinct binding through the parameterized sublink memo.
    let sql = "SELECT name FROM customers \
               WHERE EXISTS (SELECT * FROM orders \
                             WHERE orders.customer_id = customers.id \
                               AND orders.total > 300)";

    // One `explain` call surfaces the before/after diff: the bound plan
    // still holds the EXISTS sublink, the optimized plan holds a semi join.
    let session = engine.session();
    let profile = session.explain(sql)?;
    println!("{}", profile.render());

    // The counters record what the optimizer did at prepare time.
    let stats = session.stats();
    println!(
        "optimizer_rules_fired = {}, sublinks_decorrelated = {}\n",
        stats.optimizer_rules_fired, stats.sublinks_decorrelated
    );

    // And the operator count tells the perf story: the decorrelated plan
    // evaluates a fixed handful of operators, the memo-only baseline one
    // sublink execution per distinct correlation binding.
    // The baseline executes the plan as bound, compiled without the
    // optimizer.
    let optimized = session.prepare(sql)?;
    let fast = session.execute(&optimized, &[])?;
    let baseline = Executor::new(engine.database());
    let slow = baseline.execute(optimized.bound_plan())?;
    assert!(fast.bag_eq(&slow), "the optimizer must not change results");
    println!(
        "operators evaluated: {} optimized vs {} memo-only ({} rows either way)\n",
        session.executor().operators_evaluated(),
        baseline.operators_evaluated(),
        fast.len()
    );

    // The provenance of the same query. Only the Gen strategy rewrites a
    // correlated sublink: it filters `customers⁺ × (orders ∪ {NULL})` —
    // 80 200 pairs — with a membership sublink per pair. The optimizer
    // turns that into joins; the summary line names the rules and would
    // end in `; N sublinks remain` if any sublink were left to the memo.
    let provenance_sql = format!("SELECT PROVENANCE {}", &sql["SELECT ".len()..]);
    let session = engine.session();
    let profile = session.explain(&provenance_sql)?;
    println!("{}", profile.render());
    let optimized = session.prepare(&provenance_sql)?;
    let before = session.executor().operators_evaluated();
    let witnesses = session.execute(&optimized, &[])?;
    println!(
        "provenance: {} witness rows from {} operators, {} sublinks left to the memo",
        witnesses.len(),
        session.executor().operators_evaluated() - before,
        optimized.optimizer_report().sublinks_remaining,
    );

    // An `ORDER BY` on a provenance query. The rewrite joins the witnesses
    // on and re-applies the sort on top — `Sort` over two rename-only `Π`s
    // over the join, so every witness row goes through the sort. A stable
    // sort commutes with everything that keeps its left input's order, so
    // the optimized plan reads `Π(⋈(Sort(customers), …))` (`compose×…
    // sort-pushdown×…`): the 200 customers are sorted, not the 309 witness
    // rows — which come out the same, in the same order, ties included.
    let sorted_sql = "SELECT PROVENANCE name FROM customers \
                      WHERE id IN (SELECT customer_id FROM orders WHERE total > 100) \
                      ORDER BY name";
    let profile = session.explain(sorted_sql)?;
    println!("{}", profile.render());
    let sorted = session.prepare(sorted_sql)?;
    let report = sorted.optimizer_report();
    assert!(report.projections_composed >= 1 && report.sorts_pushed >= 1);
    let as_written = Executor::new(engine.database()).execute_unoptimized(sorted.bound_plan())?;
    let witnesses = session.execute(&sorted, &[])?;
    assert_eq!(
        witnesses.tuples(),
        as_written.tuples(),
        "the optimizer must not change the row order under an ORDER BY"
    );
    println!(
        "ordered provenance: {} witness rows, in the order of the plan as written\n",
        witnesses.len()
    );

    // TPC-H Q17's shape: the scalar sublink compares against an aggregate,
    // so no rule unnests it and it runs once per distinct `p_partkey`.
    // Gen gives it a membership sublink whose body filters the witness
    // projection `lineitem⁺` on `l_partkey = p_partkey`. Inside a sublink
    // body the outer `p_partkey` is a constant for each binding, so the
    // pushdown moves that selection onto the scan of `lineitem`: each
    // binding projects the line items of its part, not all of them.
    let q17_sql = "SELECT PROVENANCE sum(l_extendedprice) / 7.0 AS avg_yearly \
                   FROM lineitem, part \
                   WHERE p_partkey = l_partkey AND p_brand = 'Brand#2' \
                   AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem \
                                     WHERE l_partkey = p_partkey)";
    let profile = session.explain(q17_sql)?;
    println!("{}", profile.render());
    let q17 = session.prepare(q17_sql)?;
    let mut placed = Vec::new();
    correlated_selections(q17.plan(), 0, &mut placed);
    assert!(
        placed.contains(&(1, true)) && !placed.contains(&(1, false)),
        "a correlated selection inside a sublink body is not on its scan: {placed:?}"
    );
    let as_written = Executor::new(engine.database()).execute_unoptimized(q17.bound_plan())?;
    let witnesses = session.execute(&q17, &[])?;
    assert!(
        witnesses.bag_eq(&as_written),
        "the optimizer must not change the witnesses"
    );
    println!(
        "Q17 shape: {} witness rows; every correlated selection inside a sublink body \
         reads its scan directly\n",
        witnesses.len()
    );

    // How provenance is *served*: the same statement prepared once, with
    // `$1` for the threshold. A parameter is bound before the first
    // operator runs, so the optimizer reads it as the constant it will be:
    // the summary names the same rules as above (it used to say `no rules
    // fired; 3 sublinks remain`), and the one plan serves every threshold.
    let served_sql = provenance_sql.replace("300", "$1");
    let profile = session.explain(&served_sql)?;
    let served = session.prepare(&served_sql)?;
    assert_eq!(served.optimizer_report(), optimized.optimizer_report());
    println!(
        "\nprepared with $1: {}",
        profile
            .optimizer
            .as_deref()
            .expect("explain annotates the rules")
    );
    for threshold in [300, 380] {
        let witnesses = session.execute(&served, &[Value::Int(threshold)])?;
        println!("  $1 = {threshold}: {} witness rows", witnesses.len());
    }
    Ok(())
}

/// For every selection of `plan` that reads `p_partkey` — at the top and in
/// sublink plans at any depth — its sublink depth and whether it sits
/// directly on a scan.
fn correlated_selections(plan: &Plan, depth: usize, out: &mut Vec<(usize, bool)>) {
    if let Plan::Select { input, predicate } = plan {
        if predicate
            .column_refs()
            .iter()
            .any(|(_, name)| &**name == "p_partkey")
        {
            out.push((depth, matches!(**input, Plan::Scan { .. })));
        }
    }
    plan.walk_expressions(&mut |e| {
        e.walk(&mut |e| {
            if let Expr::Sublink { plan, .. } = e {
                correlated_selections(plan, depth + 1, out);
            }
        })
    });
    for child in plan.inputs() {
        correlated_selections(child, depth, out);
    }
}
