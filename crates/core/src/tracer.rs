//! A reference implementation of provenance computation.
//!
//! The tracer computes, tuple by tuple, the provenance of a query according
//! to the closed-form characterisation derived in Section 2 (Figure 2,
//! Theorems 1–3, under the extended contribution Definition 2):
//!
//! * `ANY`-sublink true  → `Tsub_true`, false → `Tsub`
//! * `ALL`-sublink true  → `Tsub`, false → `Tsub_false`
//! * `EXISTS`/scalar     → `Tsub`
//!
//! and propagates provenance through the standard operators exactly as
//! Definition 1 prescribes (selection keeps the contributing input tuple,
//! projection unions over contributing input tuples, aggregation attributes
//! the whole group, joins pair the contributing tuples of both sides).
//!
//! It produces the same single-relation representation as the rewrite
//! strategies (original tuple extended by one group of provenance attributes
//! per base relation access) and therefore serves as the oracle the rewrites
//! are tested against. Unlike the rewrites it is an interpreter: it cannot be
//! pushed into a DBMS, which is precisely the point of the paper's approach.

use crate::provschema::{ProvEntry, ProvenanceDescriptor};
use crate::{ProvenanceError, Result};
use perm_algebra::{
    compare, AggregateExpr, CompareOp, Expr, JoinKind, Plan, ProjectItem, SetOpKind, SublinkKind,
};
use perm_exec::aggregate::Accumulator;
use perm_exec::{Env, Executor, Interpreter};
use perm_storage::{Database, Relation, Schema, Truth, Tuple, Value};
use std::collections::HashMap;

/// A traced result: original rows, each with one or more provenance
/// witnesses.
#[derive(Debug, Clone)]
struct Traced {
    /// Original output schema of the operator.
    schema: Schema,
    /// Rows of the original result, each with its witnesses.
    rows: Vec<TracedRow>,
}

#[derive(Debug, Clone)]
struct TracedRow {
    /// The original output tuple.
    tuple: Tuple,
    /// Witnesses: flattened provenance tuples over the plan's descriptor
    /// (NULLs mark base relations that did not contribute). Always
    /// non-empty.
    witnesses: Vec<Tuple>,
}

/// Computes provenance by direct tracing.
pub struct Tracer<'a> {
    executor: Executor<'a>,
}

impl<'a> Tracer<'a> {
    /// Creates a tracer over a database.
    pub fn new(db: &'a Database) -> Tracer<'a> {
        Tracer {
            executor: Executor::new(db),
        }
    }

    /// Operator evaluations performed by the embedded executor so far, over
    /// every `trace` call (diagnostic counter). The tracer walks plans itself
    /// but delegates every sublink evaluation to a reference
    /// [`Interpreter`], which lives for one `trace` call and within it runs
    /// a correlated sublink once per *distinct* binding — the dominant cost
    /// of tracing nested queries.
    pub fn operators_evaluated(&self) -> u64 {
        self.executor.operators_evaluated()
    }

    /// Computes the provenance of `plan` in the single-relation
    /// representation of Section 3.1: the original result tuples extended by
    /// the contributing tuple of every base relation access (duplicated per
    /// contributing combination). Every call starts afresh — witness columns
    /// numbered from the plan's own first access of each relation, an empty
    /// sublink memo — so the result does not depend on what this tracer
    /// traced before.
    pub fn trace(&self, plan: &Plan) -> Result<Relation> {
        let descriptor = descriptor(plan, &mut HashMap::new());
        let mut run = Trace {
            interp: Interpreter::new(&self.executor),
        };
        let traced = run.trace_plan(plan, None)?;
        let schema = traced.schema.concat(&descriptor.schema());
        let mut out = Relation::empty(schema);
        for row in traced.rows {
            for witness in row.witnesses {
                out.push_unchecked(row.tuple.concat(&witness));
            }
        }
        Ok(out)
    }
}

/// The provenance descriptor of a plan (which base relation accesses
/// contribute provenance attributes, in order), matching the layout of the
/// rewrite strategies: children first, then the sublinks of the operator's
/// expressions in [`Expr::sublinks`] order (those nested in test
/// expressions included), each relation access numbered from
/// `occurrences` when the walk reaches it. A subtree shared by several
/// positions of the tree (a cloned plan, the operand `BETWEEN` repeats) is
/// walked, and numbered, once per position.
fn descriptor(plan: &Plan, occurrences: &mut HashMap<String, usize>) -> ProvenanceDescriptor {
    match plan {
        Plan::Scan { table, schema, .. } => {
            let counter = occurrences.entry(table.to_ascii_lowercase()).or_insert(0);
            let occurrence = *counter;
            *counter += 1;
            ProvenanceDescriptor::new(vec![ProvEntry {
                table: table.clone(),
                occurrence,
                original_schema: schema.clone(),
                prov_schema: schema.provenance_schema(table, occurrence),
            }])
        }
        Plan::Values { .. } => ProvenanceDescriptor::empty(),
        Plan::SetOp {
            op: SetOpKind::Intersect | SetOpKind::Except,
            left,
            ..
        } => descriptor(left, occurrences),
        Plan::Limit { input, .. } => descriptor(input, occurrences),
        other => {
            let mut out = ProvenanceDescriptor::empty();
            for child in other.inputs() {
                out = out.concat(&descriptor(child, occurrences));
            }
            other.walk_expressions(&mut |expr| {
                expr.walk(&mut |e| {
                    if let Expr::Sublink { plan: sub, .. } = e {
                        out = out.concat(&descriptor(sub, occurrences));
                    }
                })
            });
            out
        }
    }
}

/// An all-NULL witness of a plan: one NULL per provenance attribute of its
/// descriptor, whose width does not depend on occurrence numbers.
fn null_witness(plan: &Plan) -> Tuple {
    let width = descriptor(plan, &mut HashMap::new()).attr_count();
    Tuple::new(vec![Value::Null; width])
}

/// The state of one [`Tracer::trace`] call over plans borrowed for `'p`:
/// the reference interpreter that evaluates its expressions and sublinks.
struct Trace<'p> {
    interp: Interpreter<'p>,
}

impl<'p> Trace<'p> {
    fn trace_plan(&mut self, plan: &'p Plan, env: Option<&Env<'_>>) -> Result<Traced> {
        match plan {
            Plan::Scan { table, schema, .. } => {
                let base = self.interp.executor().database().table(table)?;
                let rows = base
                    .tuples()
                    .iter()
                    .map(|t| TracedRow {
                        tuple: t.clone(),
                        witnesses: vec![t.clone()],
                    })
                    .collect();
                Ok(Traced {
                    schema: schema.clone(),
                    rows,
                })
            }
            Plan::Values { schema, rows } => Ok(Traced {
                schema: schema.clone(),
                rows: rows
                    .iter()
                    .map(|t| TracedRow {
                        tuple: t.clone(),
                        witnesses: vec![Tuple::empty()],
                    })
                    .collect(),
            }),
            Plan::Select { input, predicate } => self.trace_select(input, predicate, env),
            Plan::Project {
                input,
                items,
                distinct,
            } => self.trace_project(plan, input, items, *distinct, env),
            Plan::CrossProduct { left, right } => {
                self.trace_join(left, right, JoinKind::Inner, None, env)
            }
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => self.trace_join(left, right, *kind, Some(condition), env),
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => self.trace_aggregate(plan, input, group_by, aggregates, env),
            Plan::SetOp {
                op,
                all,
                left,
                right,
            } => self.trace_setop(plan, *op, *all, left, right, env),
            Plan::Sort { input, .. } => {
                // Presentation only: provenance of the sorted result equals
                // the provenance of the input (order is irrelevant in the
                // provenance relation).
                self.trace_plan(input, env)
            }
            Plan::Limit { input, limit } => {
                let inner = self.trace_plan(input, env)?;
                Ok(Traced {
                    schema: inner.schema,
                    rows: inner.rows.into_iter().take(*limit).collect(),
                })
            }
        }
    }

    /// Provenance witnesses of one sublink for one binding of the enclosing
    /// scopes, according to Figure 2 under Definition 2. Returns a non-empty,
    /// duplicate-free list of witness tuples over the sublink's descriptor
    /// (a single all-NULL tuple when nothing contributes).
    fn sublink_witnesses(
        &mut self,
        sublink: &'p Expr,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Tuple>> {
        let (kind, test_expr, op, sub_plan) = match sublink {
            Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } => (*kind, test_expr.as_deref(), *op, plan.as_ref()),
            _ => {
                return Err(ProvenanceError::Unsupported(
                    "sublink_witnesses called on a non-sublink expression".into(),
                ))
            }
        };
        let traced = self.trace_plan(sub_plan, env)?;

        let contributing: Vec<&TracedRow> = match kind {
            SublinkKind::Exists | SublinkKind::Scalar => traced.rows.iter().collect(),
            SublinkKind::Any | SublinkKind::All => {
                let test = test_expr.ok_or_else(|| {
                    ProvenanceError::Unsupported("ANY/ALL sublink without test expression".into())
                })?;
                let op = op.ok_or_else(|| {
                    ProvenanceError::Unsupported("ANY/ALL sublink without comparison".into())
                })?;
                let test_value = self.interp.eval_expr(test, env)?;
                let truth = self.interp.eval_expr(sublink, env)?.as_truth();
                self.quantifier_contributors(kind, op, &test_value, truth, &traced)
            }
        };

        let mut witnesses: Vec<Tuple> = Vec::new();
        for row in contributing {
            for w in &row.witnesses {
                if !witnesses.iter().any(|existing| existing.null_safe_eq(w)) {
                    witnesses.push(w.clone());
                }
            }
        }
        if witnesses.is_empty() {
            witnesses.push(null_witness(sub_plan));
        }
        Ok(witnesses)
    }

    /// Which sublink-result rows contribute for an `ANY`/`ALL` sublink,
    /// depending on the sublink's truth value (Definition 2 removes the `ind`
    /// role, so only the truth value matters).
    fn quantifier_contributors<'t>(
        &self,
        kind: SublinkKind,
        op: CompareOp,
        test_value: &Value,
        truth: Truth,
        traced: &'t Traced,
    ) -> Vec<&'t TracedRow> {
        let satisfied = |row: &TracedRow| compare(op, test_value, row.tuple.get(0)) == Truth::True;
        match (kind, truth) {
            // ANY true: only the tuples that satisfy the comparison
            // (Tsub_true); ANY false/unknown: the whole sublink result.
            (SublinkKind::Any, Truth::True) => {
                traced.rows.iter().filter(|r| satisfied(r)).collect()
            }
            (SublinkKind::Any, _) => traced.rows.iter().collect(),
            // ALL true: the whole result; ALL false/unknown: the tuples that
            // falsify the comparison (Tsub_false).
            (SublinkKind::All, Truth::True) => traced.rows.iter().collect(),
            (SublinkKind::All, _) => traced.rows.iter().filter(|r| !satisfied(r)).collect(),
            _ => unreachable!("only ANY/ALL handled here"),
        }
    }

    /// Cross-combines the witnesses of the input row with the witnesses of
    /// each sublink (the provenance representation associates tuples used
    /// together, Section 3.1).
    fn combine_with_sublinks(
        &mut self,
        base_witnesses: &[Tuple],
        sublinks: &[&'p Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Tuple>> {
        let mut combined: Vec<Tuple> = base_witnesses.to_vec();
        for sublink in sublinks {
            let sub_witnesses = self.sublink_witnesses(sublink, env)?;
            let mut next = Vec::with_capacity(combined.len() * sub_witnesses.len());
            for left in &combined {
                for right in &sub_witnesses {
                    next.push(left.concat(right));
                }
            }
            combined = next;
        }
        Ok(combined)
    }

    fn trace_select(
        &mut self,
        input: &'p Plan,
        predicate: &'p Expr,
        env: Option<&Env<'_>>,
    ) -> Result<Traced> {
        let inner = self.trace_plan(input, env)?;
        let sublinks = predicate.sublinks();
        let mut rows = Vec::new();
        for row in &inner.rows {
            let scope = Env::new(env, &inner.schema, &row.tuple);
            if !self
                .interp
                .eval_predicate(predicate, Some(&scope))?
                .is_true()
            {
                continue;
            }
            let witnesses = if sublinks.is_empty() {
                row.witnesses.clone()
            } else {
                self.combine_with_sublinks(&row.witnesses, &sublinks, Some(&scope))?
            };
            rows.push(TracedRow {
                tuple: row.tuple.clone(),
                witnesses,
            });
        }
        Ok(Traced {
            schema: inner.schema.clone(),
            rows,
        })
    }

    fn trace_project(
        &mut self,
        plan: &'p Plan,
        input: &'p Plan,
        items: &'p [ProjectItem],
        distinct: bool,
        env: Option<&Env<'_>>,
    ) -> Result<Traced> {
        let inner = self.trace_plan(input, env)?;
        let sublinks: Vec<&Expr> = items.iter().flat_map(|i| i.expr.sublinks()).collect();
        let out_schema = plan.schema();
        let mut rows: Vec<TracedRow> = Vec::new();
        for row in &inner.rows {
            let scope = Env::new(env, &inner.schema, &row.tuple);
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                values.push(self.interp.eval_expr(&item.expr, Some(&scope))?);
            }
            let out_tuple = Tuple::new(values);
            let witnesses = if sublinks.is_empty() {
                row.witnesses.clone()
            } else {
                self.combine_with_sublinks(&row.witnesses, &sublinks, Some(&scope))?
            };
            rows.push(TracedRow {
                tuple: out_tuple,
                witnesses,
            });
        }
        if distinct {
            rows = merge_duplicate_rows(rows);
        }
        Ok(Traced {
            schema: Schema::clone(&out_schema),
            rows,
        })
    }

    fn trace_join(
        &mut self,
        left: &'p Plan,
        right: &'p Plan,
        kind: JoinKind,
        condition: Option<&'p Expr>,
        env: Option<&Env<'_>>,
    ) -> Result<Traced> {
        if kind.left_only_output() {
            // Semi/anti joins exist only in optimizer output, which the
            // tracer never receives: it interprets the bound user plan.
            return Err(ProvenanceError::Unsupported(format!(
                "tracer does not support {kind} joins"
            )));
        }
        let l = self.trace_plan(left, env)?;
        let r = self.trace_plan(right, env)?;
        let null_prov = null_witness(right);
        let out_schema = l.schema.concat(&r.schema);
        let mut rows = Vec::new();
        for lrow in &l.rows {
            let mut matched = false;
            for rrow in &r.rows {
                let joined = lrow.tuple.concat(&rrow.tuple);
                let keep = match condition {
                    None => true,
                    Some(c) => {
                        let scope = Env::new(env, &out_schema, &joined);
                        self.interp.eval_predicate(c, Some(&scope))?.is_true()
                    }
                };
                if keep {
                    matched = true;
                    let mut witnesses = Vec::new();
                    for lw in &lrow.witnesses {
                        for rw in &rrow.witnesses {
                            witnesses.push(lw.concat(rw));
                        }
                    }
                    rows.push(TracedRow {
                        tuple: joined,
                        witnesses,
                    });
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let null_right = Tuple::new(vec![Value::Null; r.schema.arity()]);
                rows.push(TracedRow {
                    tuple: lrow.tuple.concat(&null_right),
                    witnesses: lrow
                        .witnesses
                        .iter()
                        .map(|w| w.concat(&null_prov))
                        .collect(),
                });
            }
        }
        Ok(Traced {
            schema: out_schema,
            rows,
        })
    }

    fn trace_aggregate(
        &mut self,
        plan: &'p Plan,
        input: &'p Plan,
        group_by: &'p [ProjectItem],
        aggregates: &'p [AggregateExpr],
        env: Option<&Env<'_>>,
    ) -> Result<Traced> {
        let inner = self.trace_plan(input, env)?;
        let out_schema = plan.schema();

        struct Group {
            key: Vec<Value>,
            accumulators: Vec<Accumulator>,
            witnesses: Vec<Tuple>,
        }
        let mut groups: Vec<Group> = Vec::new();
        if group_by.is_empty() {
            groups.push(Group {
                key: Vec::new(),
                accumulators: aggregates
                    .iter()
                    .map(|a| Accumulator::new(a.func, a.distinct))
                    .collect(),
                witnesses: Vec::new(),
            });
        }
        for row in &inner.rows {
            let scope = Env::new(env, &inner.schema, &row.tuple);
            let mut key = Vec::with_capacity(group_by.len());
            for g in group_by {
                key.push(self.interp.eval_expr(&g.expr, Some(&scope))?);
            }
            let group_index = match groups.iter().position(|g| {
                g.key.iter().zip(key.iter()).all(|(a, b)| a.null_safe_eq(b))
                    && g.key.len() == key.len()
            }) {
                Some(i) => i,
                None => {
                    groups.push(Group {
                        key: key.clone(),
                        accumulators: aggregates
                            .iter()
                            .map(|a| Accumulator::new(a.func, a.distinct))
                            .collect(),
                        witnesses: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let group = &mut groups[group_index];
            for (acc, agg) in group.accumulators.iter_mut().zip(aggregates.iter()) {
                let value = match &agg.arg {
                    Some(arg) => self.interp.eval_expr(arg, Some(&scope))?,
                    None => Value::Int(1),
                };
                acc.update(&value);
            }
            for w in &row.witnesses {
                if !group
                    .witnesses
                    .iter()
                    .any(|existing| existing.null_safe_eq(w))
                {
                    group.witnesses.push(w.clone());
                }
            }
        }

        let mut rows = Vec::new();
        for group in groups {
            let mut tuple_values = group.key;
            for acc in &group.accumulators {
                tuple_values.push(acc.finish());
            }
            let witnesses = if group.witnesses.is_empty() {
                vec![null_witness(input)]
            } else {
                group.witnesses
            };
            rows.push(TracedRow {
                tuple: Tuple::new(tuple_values),
                witnesses,
            });
        }
        Ok(Traced {
            schema: Schema::clone(&out_schema),
            rows,
        })
    }

    fn trace_setop(
        &mut self,
        plan: &'p Plan,
        op: SetOpKind,
        all: bool,
        left: &'p Plan,
        right: &'p Plan,
        env: Option<&Env<'_>>,
    ) -> Result<Traced> {
        let l = self.trace_plan(left, env)?;
        match op {
            SetOpKind::Union => {
                let r = self.trace_plan(right, env)?;
                let mut rows = Vec::new();
                let null_right = null_witness(right);
                let null_left = null_witness(left);
                for row in &l.rows {
                    rows.push(TracedRow {
                        tuple: row.tuple.clone(),
                        witnesses: row
                            .witnesses
                            .iter()
                            .map(|w| w.concat(&null_right))
                            .collect(),
                    });
                }
                for row in &r.rows {
                    rows.push(TracedRow {
                        tuple: row.tuple.clone(),
                        witnesses: row.witnesses.iter().map(|w| null_left.concat(w)).collect(),
                    });
                }
                if !all {
                    rows = merge_duplicate_rows(rows);
                }
                Ok(Traced {
                    schema: l.schema.clone(),
                    rows,
                })
            }
            SetOpKind::Intersect | SetOpKind::Except => {
                // Provenance from the left input only: attach to each result
                // tuple the witnesses of the equal left rows.
                let result = self
                    .interp
                    .execute(plan, env)
                    .map_err(ProvenanceError::Exec)?;
                let mut rows = Vec::new();
                for tuple in result.tuples() {
                    let mut witnesses = Vec::new();
                    for row in &l.rows {
                        if row.tuple.null_safe_eq(tuple) {
                            for w in &row.witnesses {
                                if !witnesses.iter().any(|e: &Tuple| e.null_safe_eq(w)) {
                                    witnesses.push(w.clone());
                                }
                            }
                        }
                    }
                    if witnesses.is_empty() {
                        witnesses.push(null_witness(left));
                    }
                    rows.push(TracedRow {
                        tuple: tuple.clone(),
                        witnesses,
                    });
                }
                Ok(Traced {
                    schema: l.schema.clone(),
                    rows,
                })
            }
        }
    }
}

/// Merges rows with null-safe-equal output tuples, unioning their witnesses
/// (used by duplicate-removing projection and set union).
fn merge_duplicate_rows(rows: Vec<TracedRow>) -> Vec<TracedRow> {
    let mut merged: Vec<TracedRow> = Vec::new();
    for row in rows {
        match merged.iter_mut().find(|m| m.tuple.null_safe_eq(&row.tuple)) {
            Some(existing) => {
                for w in row.witnesses {
                    if !existing.witnesses.iter().any(|e| e.null_safe_eq(&w)) {
                        existing.witnesses.push(w);
                    }
                }
            }
            None => merged.push(row),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::builder::{
        all_sublink, any_sublink, col, eq, lit, not, or, qcol, PlanBuilder,
    };
    use perm_storage::{Attribute, DataType, Name};

    /// The relations of Figure 3.
    fn figure3_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "b", DataType::Int),
                ]),
                vec![
                    vec![Value::Int(1), Value::Int(1)],
                    vec![Value::Int(2), Value::Int(1)],
                    vec![Value::Int(3), Value::Int(2)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "d", DataType::Int),
                ]),
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(2), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(5)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
        rel.sorted_tuples()
            .into_iter()
            .map(|t| t.into_values())
            .collect()
    }

    #[test]
    fn figure3_q1_any_sublink() {
        // q1 = σ_{a = ANY(Π_c(S))}(R); expected provenance:
        //   (1,1) → R* = {(1,1)}, S* = {(1,3)}
        //   (2,1) → R* = {(2,1)}, S* = {(2,4)}
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        assert_eq!(
            result.schema().names(),
            ["a", "b", "prov_r_a", "prov_r_b", "prov_s_c", "prov_s_d"].map(Name::from)
        );
        assert_eq!(
            rows_of(&result),
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(3)
                ],
                vec![
                    Value::Int(2),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(4)
                ],
            ]
        );
    }

    #[test]
    fn figure3_q2_all_sublink() {
        // q2 = σ_{c > ALL(Π_a(R))}(S); expected provenance of (4,5):
        //   S* = {(4,5)}, R* = {(1,1),(2,1),(3,2)} (all of R).
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["a"])
            .build();
        let q = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(all_sublink(col("c"), CompareOp::Gt, sub))
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        assert_eq!(result.len(), 3, "one row per contributing R tuple");
        for row in result.tuples() {
            assert_eq!(row.get(0), &Value::Int(4));
            assert_eq!(row.get(1), &Value::Int(5));
            assert_eq!(row.get(2), &Value::Int(4)); // prov_s_c
        }
        let r_values: Vec<&Value> = result.tuples().iter().map(|t| t.get(4)).collect();
        assert!(r_values.contains(&&Value::Int(1)));
        assert!(r_values.contains(&&Value::Int(2)));
        assert!(r_values.contains(&&Value::Int(3)));
    }

    #[test]
    fn figure3_q3_negated_all_sublink() {
        // q3 = σ_{(a=3) ∨ ¬(a < ALL(σ_{c≠1}(Π_c(S))))}(R); expected:
        //   (2,1) → S* = {(2,4)}          (sublink reqfalse, Tsub_false)
        //   (3,2) → S* = {(2,4),(4,5)}    (condition true via a=3; under
        //                                  Definition 2 the sublink result —
        //                                  false — must be reproduced, which
        //                                  only (2,4) does… the paper derives
        //                                  {(2,4),(4,5)} under Definition 1's
        //                                  ind role; under Definition 2 it is
        //                                  Tsub_false = {(2,4)}.)
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .select(not(eq(col("c"), lit(1))))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(or(
                eq(col("a"), lit(3)),
                not(all_sublink(col("a"), CompareOp::Lt, sub)),
            ))
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&db_plan(&q)).unwrap();
        // Result tuples (2,1) and (3,2); (1,1) does not qualify (1 < 2 and
        // 1 < 4 are both true so the ALL-sublink holds and its negation is
        // false, and a ≠ 3).
        let originals: Vec<Vec<Value>> = result
            .tuples()
            .iter()
            .map(|t| vec![t.get(0).clone(), t.get(1).clone()])
            .collect();
        assert!(originals.contains(&vec![Value::Int(2), Value::Int(1)]));
        assert!(originals.contains(&vec![Value::Int(3), Value::Int(2)]));
        assert!(!originals.contains(&vec![Value::Int(1), Value::Int(1)]));
        // Provenance of (2,1) according to S: the ALL-sublink (2 < ALL {2,4})
        // is false and required false, so Tsub_false = {(2,4)}.
        let prov_s_for_2: Vec<&Value> = result
            .tuples()
            .iter()
            .filter(|t| t.get(0) == &Value::Int(2))
            .map(|t| t.get(4))
            .collect();
        assert_eq!(prov_s_for_2, vec![&Value::Int(2)]);
    }

    fn db_plan(plan: &Plan) -> Plan {
        plan.clone()
    }

    #[test]
    fn correlated_sublink_in_projection_parameterises_per_input_tuple() {
        // Π_{a, a = ALL(σ_{c=b}(Π_c(S)))}(R) — Section 2.6's example: the
        // provenance of each output row pairs the R tuple with the S tuples
        // of its own parameterisation.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![
                ProjectItem::column("a"),
                ProjectItem::new(all_sublink(col("a"), CompareOp::Eq, sub), "all_eq"),
            ])
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        assert_eq!(result.len(), 3);
        // Row for a=1: sublink query (c=b=1) yields {(1)}; 1 = ALL {1} is
        // true; provenance S* = {(1,3)}.
        let row1 = result
            .tuples()
            .iter()
            .find(|t| t.get(0) == &Value::Int(1))
            .unwrap();
        assert_eq!(row1.get(1), &Value::Bool(true));
        assert_eq!(row1.get(4), &Value::Int(1));
        // Row for a=3 (b=2): sublink query yields {(2)}; 3 = ALL {2} is
        // false; the provenance of a false ALL-sublink is Tsub_false, i.e.
        // the S tuples that falsify the comparison — here (2,4).
        let row3 = result
            .tuples()
            .iter()
            .find(|t| t.get(0) == &Value::Int(3))
            .unwrap();
        assert_eq!(row3.get(1), &Value::Bool(false));
        assert_eq!(row3.get(4), &Value::Int(2));
        assert_eq!(row3.get(5), &Value::Int(4));
    }

    #[test]
    fn tracing_correlated_sublinks_benefits_from_the_interpreter_memo() {
        // σ_{EXISTS(σ_{c = r.b}(S))}(R): R.b takes 2 distinct values over 3
        // rows, so the executor inside the tracer runs the 2-operator
        // sublink plan once per distinct binding — 4 operator evaluations,
        // not 6 — while the tracer's own provenance walk is uncounted.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::exists_sublink(sub))
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        // b=1 matches c=1, b=2 matches c=2: all three R rows qualify.
        assert_eq!(result.len(), 3);
        assert_eq!(tracer.operators_evaluated(), 2 * 2);
    }

    #[test]
    fn aggregation_attributes_the_whole_group() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .aggregate(
                vec![ProjectItem::column("b")],
                vec![perm_algebra::builder::sum(col("a"), "sum_a")],
            )
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        // Group b=1 has two contributing tuples, group b=2 has one: 3 rows.
        assert_eq!(result.len(), 3);
        let group1_rows: Vec<_> = result
            .tuples()
            .iter()
            .filter(|t| t.get(0) == &Value::Int(1))
            .collect();
        assert_eq!(group1_rows.len(), 2);
        for row in group1_rows {
            assert_eq!(row.get(1), &Value::Int(3)); // sum(a) over the group
        }
    }

    #[test]
    fn union_pads_the_other_branch_with_nulls() {
        let db = figure3_db();
        let left = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["a"])
            .build();
        let right = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::from_plan(left)
            .set_op(SetOpKind::Union, true, right)
            .build();
        let tracer = Tracer::new(&db);
        let result = tracer.trace(&q).unwrap();
        assert_eq!(result.len(), 6);
        for t in result.tuples() {
            let from_left = !t.get(1).is_null();
            let from_right = !t.get(3).is_null();
            assert!(from_left ^ from_right, "exactly one branch contributes");
        }
    }

    #[test]
    fn an_execution_error_keeps_its_type() {
        // Π_{1 / b}(T) over a row with b = 0: the caller matches the
        // executor's variant, not a message.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "b", DataType::Int)]),
                vec![vec![Value::Int(2)], vec![Value::Int(0)]],
            ),
        )
        .unwrap();
        let inverse = perm_algebra::builder::binary(perm_algebra::BinaryOp::Div, lit(1), col("b"));
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![ProjectItem::new(inverse, "inv")])
            .build();
        let err = Tracer::new(&db).trace(&q).unwrap_err();
        assert!(
            matches!(
                err,
                ProvenanceError::Exec(perm_exec::ExecError::DivisionByZero)
            ),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "execution error: division by zero");
        let source = std::error::Error::source(&err).expect("the wrapped error");
        assert_eq!(source.to_string(), "division by zero");
    }
}
