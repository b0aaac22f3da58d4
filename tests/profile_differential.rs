//! Differential testing of the per-operator profiles (`EXPLAIN ANALYZE`):
//! over a seeded slice of the shared nested-subquery SQL corpus
//! ([`perm_synthetic::sqlgen`], the same generator the session and
//! concurrent differential tests draw from), a profiled execution must
//! (a) reconcile exactly with the executor's `operators_evaluated`
//! counter, (b) leave the result bag unchanged against the unprofiled
//! session path, and (c) report layout-independent semantic counters
//! across the columnar, Values-lane-batched and per-tuple execution
//! layouts and a profiled cursor drained to the end — timing, batch counts
//! and fallback tallies may differ by layout and entry point, but what ran
//! and what it produced may not.

use perm::prelude::*;
use perm::ProfileNode;
use perm_synthetic::sqlgen::{corpus_case, corpus_database};

/// The layout-independent slice of one profile node, in preorder:
/// `(operator, detail, invocations, rows_out, is_sublink_root)`.
fn semantic_flatten(
    node: &ProfileNode,
    sublink: bool,
    out: &mut Vec<(String, String, u64, u64, bool)>,
) {
    out.push((
        node.operator.clone(),
        node.detail.clone(),
        node.invocations,
        node.rows_out,
        sublink,
    ));
    for child in &node.children {
        semantic_flatten(child, false, out);
    }
    for sub in &node.sublinks {
        semantic_flatten(sub, true, out);
    }
}

#[test]
fn profile_invocation_sums_reconcile_with_the_operator_counter() {
    let db = corpus_database();
    let engine = Engine::new(db);
    let session = engine.session();
    let mut nontrivial = 0usize;
    for seed in 0..60u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;
        let prepared = session
            .prepare(sql)
            .unwrap_or_else(|e| panic!("seed {seed}: failed to prepare `{sql}`: {e}"));
        let params = case.params(prepared.param_count());
        let reference = session
            .execute(&prepared, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` with {params:?} failed: {e}"));

        let (plan, _) = perm::sql::compile(engine.database(), sql).unwrap();
        let ex = Executor::new(engine.database());
        ex.bind_params(params.clone());
        let compiled = ex.prepare(&plan).unwrap();
        let before = ex.operators_evaluated();
        let (relation, profile) = ex
            .execute_profiled(&compiled)
            .unwrap_or_else(|e| panic!("seed {seed}: profiled `{sql}` failed: {e}"));
        let delta = ex.operators_evaluated() - before;

        assert_eq!(
            profile.total_invocations(),
            delta,
            "seed {seed}: per-node invocation sums diverge from operators_evaluated \
             on `{sql}`:\n{profile}"
        );
        assert!(
            relation.bag_eq(&reference),
            "seed {seed}: the profiled run changed the bag on `{sql}`"
        );
        if delta > 1 {
            nontrivial += 1;
        }
    }
    assert!(
        nontrivial > 30,
        "the corpus slice must mostly exercise multi-operator plans ({nontrivial} did)"
    );
}

#[test]
fn profiles_are_layout_independent_across_execution_modes() {
    let db = corpus_database();
    let engine = Engine::new(db);
    for seed in 0..40u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;
        let (plan, _) = perm::sql::compile(engine.database(), sql).unwrap();
        let session = engine.session();
        let prepared = session.prepare(sql).unwrap();
        let params = case.params(prepared.param_count());

        // Columnar (the default), Values-lane batches, per-tuple dispatch,
        // and a profiled cursor drained to the end: it pulls the pipeline
        // `execute_profiled` drains.
        let mut flattened: Vec<(&str, Vec<_>)> = Vec::new();
        let mut relations = Vec::new();
        for (label, batching, columnar, streamed) in [
            ("columnar", true, true, false),
            ("values-lane", true, false, false),
            ("per-tuple", false, false, false),
            ("streamed", true, true, true),
        ] {
            let ex = Executor::new(engine.database())
                .with_batching(batching)
                .with_columnar(columnar);
            ex.bind_params(params.clone());
            let compiled = ex.prepare(&plan).unwrap();
            let run = || -> Result<(Relation, perm::QueryProfile), perm::ExecError> {
                if !streamed {
                    return ex.execute_profiled(&compiled);
                }
                let mut rows = ex.open_profiled(&compiled)?;
                let mut relation = Relation::empty(rows.schema().clone());
                for tuple in &mut rows {
                    relation.push_unchecked(tuple?);
                }
                Ok((relation, rows.profile().expect("opened profiled")))
            };
            let (relation, profile) =
                run().unwrap_or_else(|e| panic!("seed {seed}: {label} `{sql}` failed: {e}"));
            let mut semantic = Vec::new();
            semantic_flatten(&profile.root, false, &mut semantic);
            flattened.push((label, semantic));
            relations.push((label, relation));
        }
        let (ref_label, reference) = &flattened[0];
        for (label, semantic) in &flattened[1..] {
            assert_eq!(
                semantic, reference,
                "seed {seed}: {label} and {ref_label} profiles disagree on the \
                 layout-independent counters for `{sql}`"
            );
        }
        let (_, ref_relation) = &relations[0];
        for (label, relation) in &relations[1..] {
            assert!(
                relation.bag_eq(ref_relation),
                "seed {seed}: {label} changed the bag on `{sql}`"
            );
        }
    }
}
