//! Pull-based streaming execution: a [`Rows`] cursor pulls the root of a
//! [`CompiledPlan`] out of the one compiled driver (`crate::pipeline`),
//! which [`Executor::execute_compiled`] drains — same rows, and before an
//! error the same rows, then the same error. Refills grow geometrically —
//! 1, 2, 4, … up to [`BATCH_ROWS`] rows, one cancellation checkpoint each —
//! so a consumer that abandons the stream early has paid for about twice
//! the rows it consumed.
//!
//! A cursor owns its execution: the parameter vector bound when it was
//! opened, its own cancel token and, when profiled, its profile tree. Other
//! executions on the same executor can therefore interleave with its pulls
//! without touching the stream, and cancelling the stream
//! ([`Rows::cancel_handle`]) stops it and nothing else.

use crate::batch::BATCH_ROWS;
use crate::compile::CompiledPlan;
use crate::executor::{Execution, Executor};
use crate::pipeline::Source;
use crate::profile::{ProfileTree, QueryProfile};
use crate::resilience::{CancelToken, Cancellation};
use crate::{ExecError, Result};
use perm_storage::{Relation, Schema, Tuple};

/// A pull-based cursor over a query result: `Iterator<Item = Result<Tuple>>`.
///
/// After the first error the cursor is fused and yields `None` forever.
pub struct Rows<'e, 'a> {
    /// The execution the cursor owns: parameters, cancel token, and the
    /// profile tree when opened via [`Executor::open_profiled`].
    x: Execution<'e, 'a>,
    schema: Schema,
    root: Source<'e>,
    /// Output rows buffered from the last refill.
    buffered: std::vec::IntoIter<Tuple>,
    /// An error encountered during the last refill, yielded after the rows
    /// that precede it.
    pending_error: Option<ExecError>,
    /// Rows requested by the next refill: starts at 1 and doubles up to
    /// [`BATCH_ROWS`].
    next_want: usize,
    done: bool,
}

impl<'a> Executor<'a> {
    /// Opens a streaming cursor over a compiled top-level plan: the root is
    /// opened as by [`Executor::execute_compiled`] — pipelined operators
    /// counted on `operators_evaluated`, pipeline breakers executed — and
    /// each pull of the cursor pulls it. Fails with
    /// [`crate::ExecError::Param`] before anything is counted or executed
    /// when fewer parameters are bound than the plan needs; pulls re-check
    /// nothing (the cursor keeps its own binding).
    pub fn open<'e>(&'e self, plan: &'e CompiledPlan) -> Result<Rows<'e, 'a>> {
        Rows::new(self.begin_execution(plan, None)?, plan)
    }

    /// [`Executor::open`] with a fresh [`ProfileTree`] owned by the cursor:
    /// the streaming counterpart of [`Executor::execute_profiled`]. The
    /// annotated snapshot is available at any point through
    /// [`Rows::profile`] — including before the stream is drained, when it
    /// reflects only the work pulled so far.
    pub fn open_profiled<'e>(&'e self, plan: &'e CompiledPlan) -> Result<Rows<'e, 'a>> {
        let tree = ProfileTree::for_plan(plan);
        Rows::new(self.begin_execution(plan, Some(tree))?, plan)
    }
}

impl<'e, 'a> Rows<'e, 'a> {
    /// A cursor over `plan` for the execution `x`, which it owns from here
    /// on. A stream can always be cancelled: when no token was installed
    /// for it, it gets one of its own.
    fn new(mut x: Execution<'e, 'a>, plan: &'e CompiledPlan) -> Result<Rows<'e, 'a>> {
        x.cancel
            .get_or_insert_with(|| Cancellation::new(CancelToken::new()));
        let root = x.open(plan.root(), None, x.profile.as_ref().map(|t| &t.root), true)?;
        Ok(Rows {
            x,
            schema: plan.schema().clone(),
            root,
            buffered: Vec::new().into_iter(),
            pending_error: None,
            next_want: 1,
            done: false,
        })
    }

    /// The output schema of the cursor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The [`CancelToken`] of this cursor's execution. Cancelling it —
    /// from any thread — makes the next batch refill yield
    /// [`ExecError::Cancelled`] instead of
    /// rows, so a consumer holding only the `Rows` iterator can still be
    /// interrupted mid-stream. It stops this stream and nothing else: other
    /// executions on the same executor, earlier or later, have tokens of
    /// their own.
    pub fn cancel_handle(&self) -> CancelToken {
        let cancel = self.x.cancel.as_ref();
        cancel.expect("a stream has a token").token.clone()
    }

    /// Drains the cursor into a materialised relation.
    pub fn into_relation(mut self) -> Result<Relation> {
        let mut out = Relation::empty(self.schema.clone());
        for tuple in &mut self {
            out.push_unchecked(tuple?);
        }
        Ok(out)
    }

    /// The annotated execution profile, when the cursor was opened through
    /// [`Executor::open_profiled`] (`None` otherwise). The snapshot covers
    /// the work pulled *so far* — a partially consumed stream reports
    /// partial actuals, which is exactly the laziness the cursor promises.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.x.profile.as_ref().map(|tree| tree.snapshot())
    }
}

impl Iterator for Rows<'_, '_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        loop {
            if let Some(tuple) = self.buffered.next() {
                return Some(Ok(tuple));
            }
            if let Some(e) = self.pending_error.take() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done {
                return None;
            }
            // A refill is a batch boundary: poll the governor here so a
            // cancelled or past-deadline stream stops within one batch even
            // when nothing below it polls.
            if let Err(e) = self.x.checkpoint("cursor") {
                self.done = true;
                return Some(Err(e));
            }
            let want = self.next_want;
            self.next_want = (want * 2).min(BATCH_ROWS);
            let pulled = self.root.fill(&self.x, None, want);
            self.done = pulled.rows.len() < want;
            self.pending_error = pulled.error;
            self.buffered = pulled.rows.into_owned().into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
    use perm_algebra::builder::{cmp, col, eq, lit, qcol, PlanBuilder};
    use perm_algebra::CompareOp;
    use perm_algebra::{Expr, ProjectItem};
    use perm_storage::{Database, Schema, Value};

    fn db_with_poisoned_tail() -> Database {
        // Row 0 passes the predicate cleanly; row 2 would divide by zero.
        // A lazy LIMIT 1 never reaches it; unlimited execution must fail.
        db_with_rows(&[5, 7, 0])
    }

    /// `t(x)` holding `xs`; `x = 0` fails `limited_query`'s predicate.
    fn db_with_rows(xs: &[i64]) -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::from_names(&["x"]).with_qualifier("t"),
                xs.iter().map(|&x| vec![Value::Int(x)]).collect(),
            ),
        )
        .unwrap();
        db
    }

    fn limited_query(db: &Database, limit: usize) -> perm_algebra::Plan {
        PlanBuilder::scan(db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .limit(limit)
            .build()
    }

    #[test]
    fn cursor_streams_limit_without_evaluating_the_full_input() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 2);
        let ex = Executor::new(&db);

        // The cursor yields the two requested tuples and stops before the
        // poisoned third row is ever evaluated.
        let compiled = ex.prepare(&plan).unwrap();
        let rows: Vec<Tuple> = ex
            .open(&compiled)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Int(5));
        assert_eq!(rows[1].get(0), &Value::Int(7));

        // `execute` drains the pipeline the cursor pulls, where a LIMIT
        // with no breaker above it is lazy, so it matches `Rows` and never
        // evaluates the tail either...
        let eager = Executor::new(&db).execute(&plan).unwrap();
        assert_eq!(eager.len(), 2);

        // ...while the reference interpreter (and any un-limited execution)
        // still evaluates every row and fails on the poisoned one.
        assert!(matches!(
            Executor::new(&db).execute_unoptimized(&plan),
            Err(ExecError::DivisionByZero)
        ));
        let unlimited = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .build();
        assert!(matches!(
            Executor::new(&db).execute(&unlimited),
            Err(ExecError::DivisionByZero)
        ));

        // A rejected row before the poisoned one: the selection evaluates
        // the poisoned row while looking for its second survivor, but the
        // failure lies past the two rows the LIMIT keeps, on both entry
        // points.
        let db = db_with_rows(&[5, -1, 7, 0]);
        let plan = limited_query(&db, 2);
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let streamed = ex.open(&compiled).unwrap().into_relation().unwrap();
        let eager = Executor::new(&db).execute(&plan).unwrap();
        for rows in [&streamed, &eager] {
            let xs: Vec<&Value> = rows.tuples().iter().map(|t| t.get(0)).collect();
            assert_eq!(xs, [&Value::Int(5), &Value::Int(7)]);
        }
    }

    #[test]
    fn cursor_over_a_large_limit_pulls_only_the_rows_it_hands_out() {
        // LIMIT 10 over a poisoned second row: the first `next()` asks the
        // LIMIT for one row, and the LIMIT asks its input for no more, so
        // the scan hands on one row and the poisoned one is not evaluated.
        let db = db_with_rows(&[5, 0, 7]);
        let plan = limited_query(&db, 10);
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let mut rows = ex.open_profiled(&compiled).unwrap();
        assert_eq!(rows.next().unwrap().unwrap().get(0), &Value::Int(5));
        let profile = rows.profile().unwrap();
        let mut node = &profile.root;
        while let Some(child) = node.children.first() {
            node = child;
        }
        assert_eq!((node.operator.as_str(), node.rows_out), ("scan", 1));
        assert!(matches!(rows.next(), Some(Err(ExecError::DivisionByZero))));
    }

    #[test]
    fn breaker_nested_limit_stays_eager_and_matches_the_interpreter() {
        // Sort(Limit(Select(poisoned))): the LIMIT is nested under a
        // pipeline breaker, so it must NOT be lazy — it drains its input,
        // reaching the poisoned row exactly like the reference
        // interpreter, keeping Ok/Err agreement across execution modes.
        let db = db_with_poisoned_tail();
        let plan = perm_algebra::builder::PlanBuilder::from_plan(limited_query(&db, 2))
            .sort(vec![perm_algebra::SortKey::asc(col("x"))])
            .build();
        assert!(matches!(
            Executor::new(&db).execute(&plan),
            Err(ExecError::DivisionByZero)
        ));
        assert!(matches!(
            Executor::new(&db).execute_unoptimized(&plan),
            Err(ExecError::DivisionByZero)
        ));
        // Inside a sublink plan the same rule applies: the correlated-free
        // LIMIT executes eagerly (frame-less, but not top-level).
        let sub = limited_query(&db, 2);
        let outer = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(perm_algebra::builder::exists_sublink(sub))
            .build();
        let compiled = Executor::new(&db).execute(&outer);
        let interpreted = Executor::new(&db).execute_unoptimized(&outer);
        assert_eq!(compiled.is_err(), interpreted.is_err());
    }

    #[test]
    fn cursor_read_ahead_grows_from_one_row() {
        // No LIMIT in the plan: the cursor's own refill sizing must still
        // start at a single row, so a consumer that stops after the first
        // row never evaluates the poisoned tail.
        let db = db_with_poisoned_tail();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let mut rows = ex.open(&compiled).unwrap();
        let first = rows.next().unwrap().unwrap();
        assert_eq!(
            first.get(0),
            &Value::Int(5),
            "a full-batch speculative refill would have hit the division by zero instead"
        );
    }

    #[test]
    fn streamed_path_honours_the_batching_toggle() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 2);
        let ex = Executor::new(&db).with_batching(false);
        let compiled = ex.prepare(&plan).unwrap();
        let rows: Vec<Tuple> = ex
            .open(&compiled)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            ex.batches_vectorized(),
            0,
            "with batching disabled the streamed path evaluates row by row"
        );
        // And `execute`, which drains the same pipeline, respects the
        // toggle the same way.
        let eager = Executor::new(&db).with_batching(false);
        assert_eq!(eager.execute(&plan).unwrap().len(), 2);
        assert_eq!(eager.batches_vectorized(), 0);
    }

    #[test]
    fn a_failing_batch_replays_row_by_row_through_a_correlated_sublink() {
        // σ_{10 / x = ANY (Π_c σ_{s.g = t.g}(s))}(t), compiled without the
        // optimizer (which would decorrelate the `= ANY`). Row 5 divides by
        // zero inside the cursor's four-row refill (rows 4–7); replayed as
        // batches of one, the cursor yields exactly the passing rows before
        // it, then the error — whether batching is on or off.
        let mut db = Database::new();
        let table = |name: &str, cols: &[&str], rows: &[(i64, i64)]| {
            Relation::from_rows(
                Schema::from_names(cols).with_qualifier(name),
                rows.iter()
                    .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                    .collect(),
            )
        };
        let t_rows = [
            (1, 0),
            (2, 0),
            (2, 1),
            (10, 1),
            (5, 0),
            (0, 0),
            (1, 1),
            (5, 1),
        ];
        db.create_table("t", table("t", &["x", "g"], &t_rows))
            .unwrap();
        db.create_table(
            "s",
            table("s", &["c", "g"], &[(10, 0), (5, 1), (2, 0), (1, 1), (7, 0)]),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("t", "g")))
            .project_columns(&["c"])
            .build();
        let test = Expr::Binary {
            op: perm_algebra::BinaryOp::Div,
            left: Box::new(lit(10)),
            right: Box::new(col("x")),
        };
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(perm_algebra::builder::any_sublink(test, CompareOp::Eq, sub))
            .build();
        let passing: Vec<Tuple> = [0, 2, 3, 4]
            .map(|i| Tuple::new(vec![Value::Int(t_rows[i].0), Value::Int(t_rows[i].1)]))
            .to_vec();
        for (mode, ex) in [
            ("batched", Executor::new(&db)),
            ("per-row", Executor::new(&db).with_batching(false)),
        ] {
            let compiled = ex.prepare(&plan).unwrap();
            let mut rows = ex.open(&compiled).unwrap();
            let mut got = Vec::new();
            let err = loop {
                match rows.next() {
                    Some(Ok(row)) => got.push(row),
                    Some(Err(e)) => break e,
                    None => panic!("{mode}: the stream must fail at row 5"),
                }
            };
            assert_eq!(got, passing, "{mode}");
            assert_eq!(err, ExecError::DivisionByZero, "{mode}");
            assert!(rows.next().is_none(), "{mode}");
            drop(rows);
            assert!(
                ex.batch_fallback_rows() > 0,
                "{mode}: the sublink is correlated"
            );
            assert_eq!(ex.execute(&plan).unwrap_err(), err, "{mode}");
        }
        assert_eq!(
            Executor::new(&db).execute_unoptimized(&plan).unwrap_err(),
            ExecError::DivisionByZero
        );
    }

    #[test]
    fn a_fault_inside_a_batch_stops_it_without_a_replay() {
        // σ_{EXISTS(s)}(t): the sublink's summary is memoized inside the
        // predicate's batch, and a fault fires at that insert. A
        // cancellation or an exhausted budget is no row's error: the batch
        // is not replayed row by row (which would run the sublink and
        // insert again), on either entry point.
        let db = db_with_poisoned_tail();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(perm_algebra::builder::exists_sublink(
                PlanBuilder::scan_as(&db, "t", Some("s")).unwrap().build(),
            ))
            .build();
        for kind in [crate::FaultKind::Cancel, crate::FaultKind::Exhaust] {
            for streamed in [false, true] {
                let fault = crate::FaultPlan::new(kind, crate::FaultSite::MemoInsert, 1);
                let ex = Executor::new(&db).with_fault_plan(fault.clone());
                let compiled = ex.prepare(&plan).unwrap();
                let result = match streamed {
                    false => ex.execute_compiled(&compiled),
                    true => ex.open(&compiled).unwrap().into_relation(),
                };
                assert!(
                    matches!(
                        result,
                        Err(ExecError::Cancelled { .. } | ExecError::ResourceExhausted { .. })
                    ),
                    "{kind:?}, streamed {streamed}: {result:?}"
                );
                assert_eq!(fault.events_seen(), 1, "{kind:?}, streamed {streamed}");
            }
        }
    }

    #[test]
    fn cursor_fuses_after_an_error() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 10);
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let mut rows = ex.open(&compiled).unwrap();
        assert!(rows.next().unwrap().is_ok());
        assert!(rows.next().unwrap().is_ok());
        assert!(matches!(rows.next(), Some(Err(ExecError::DivisionByZero))));
        assert!(rows.next().is_none());
        assert!(rows.next().is_none());
    }

    #[test]
    fn cursor_matches_materialised_execution_over_a_breaker() {
        // An aggregate below the spine is a pipeline breaker: the cursor
        // materialises it, and the streamed result must match `execute`.
        let db = db_with_poisoned_tail();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(
                vec![ProjectItem::column("x")],
                vec![perm_algebra::builder::count_star("n")],
            )
            .sort(vec![perm_algebra::SortKey::asc(col("x"))])
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let streamed = ex.open(&compiled).unwrap().into_relation().unwrap();
        let eager = Executor::new(&db).execute(&plan).unwrap();
        assert!(streamed.bag_eq(&eager));
        assert_eq!(streamed.schema().names(), eager.schema().names());
    }

    #[test]
    fn cursor_snapshot_survives_interleaved_param_rebinding() {
        let db = db_with_poisoned_tail();
        // σ_{x = $1}(t): stream with $1 = 5, then rebind $1 = 7 mid-stream.
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(eq(col("x"), Expr::Param(0)))
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        ex.bind_params(vec![Value::Int(5)]);
        let mut rows = ex.open(&compiled).unwrap();
        ex.bind_params(vec![Value::Int(7)]);
        let first = rows.next().unwrap().unwrap();
        assert_eq!(first.get(0), &Value::Int(5), "cursor must keep its binding");
        assert!(rows.next().is_none());
    }
}
