//! A grace hash join whose keys are few and large: the partitioning hash
//! puts two keys' build rows in one partition, which then cannot be read
//! back under the budget. The partition is split again by a salted hash
//! until its keys part, so the join completes, with the rows the resident
//! join emits in the order it emits them. Only one key whose own rows do not
//! fit still fails, with the typed exhaustion error.

use perm::prelude::*;
use perm_algebra::builder::{eq, qcol};
use perm_algebra::{JoinKind, Plan};
use perm_exec::{ExecError, BATCH_ROWS};

/// `keys` keys, each shared by `left` left rows and `right` right rows;
/// the join of the two on the key, of kind `kind`.
fn buckets(kind: JoinKind, keys: i64, left: i64, right: i64) -> (Database, Plan) {
    let mut db = Database::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::from_names(&["id", "k"]).with_qualifier(name);
        let rows = (0..keys * rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % keys)])
            .collect();
        db.create_table(name, Relation::from_rows(schema, rows))
            .unwrap();
    }
    let l = PlanBuilder::scan(&db, "l").unwrap();
    let r = PlanBuilder::scan(&db, "r").unwrap().build();
    let on = eq(qcol("l", "k"), qcol("r", "k"));
    let plan = match kind {
        JoinKind::LeftOuter => l.left_join(r, on),
        _ => l.join(r, on),
    }
    .build();
    (db, plan)
}

fn spilling(db: &Database) -> Executor<'_> {
    Executor::new(db)
        .with_memory_budget(Some(256 << 10))
        .with_spill(true)
}

#[test]
fn two_large_keys_in_one_partition_are_split_apart() {
    // Eight keys of 2 048 build rows each: the build table outgrows 256 KiB,
    // and two of the keys hash into one of the first partitions, whose
    // ~4 096 rows do not fit either.
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        let (db, plan) = buckets(kind, 8, 3, 2 * BATCH_ROWS as i64);
        let resident = Executor::new(&db).execute(&plan).unwrap();
        let ex = spilling(&db);
        let grace = ex.execute(&plan).unwrap();
        assert!(ex.spill_partitions() > 0, "{kind:?}: the join went grace");
        assert_eq!(grace.len(), 8 * 3 * 2 * BATCH_ROWS, "{kind:?}");
        assert!(
            grace.tuples() == resident.tuples(),
            "{kind:?}: the grace rows are the resident rows in their order"
        );
    }
}

#[test]
fn one_key_whose_rows_exceed_the_budget_still_fails_typed() {
    // One key of 20 480 build rows: the build goes grace, and the one
    // partition holding them cannot be read back, split or not.
    let (db, plan) = buckets(JoinKind::Inner, 1, 1, 20 * BATCH_ROWS as i64);
    let ex = spilling(&db);
    match ex.execute(&plan) {
        Err(ExecError::ResourceExhausted { operator }) => assert_eq!(operator, "join"),
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert!(ex.spill_partitions() > 0);
}
