//! The reference interpreter: a plan evaluated exactly as written — no
//! optimizer, no compilation — with every column reference resolved by name
//! through an [`Env`] scope chain, row by row, over the shared
//! `crate::physical` operator bodies. It is the semantics the compiled path,
//! the optimizer's rules and the provenance rewrites are tested against, and
//! the substrate of the tracer in `perm-core`.
//!
//! Substitution semantics is the reference: a sublink is evaluated per
//! binding of the enclosing scopes. An interpreter memoizes that — a
//! correlated sublink runs once per *distinct* binding of its free columns
//! and `$n`s, an uncorrelated one once (PostgreSQL's InitPlan) — which only
//! makes the reference faster. The memo and the cache of each sublink's
//! free columns and parameters are keyed by the sublink plan's *address*.
//! That is sound because an interpreter lives for one execution, over plans
//! borrowed for its lifetime `'p`: no address it keyed can be freed and
//! reused while it lives. The memo is neither budgeted nor traced, and it is
//! not a fault site — the reference path is not a serving path.

use crate::compile::ColumnMap;
use crate::eval::Env;
use crate::executor::{extract_equi_keys, Executor};
use crate::physical::{self, AggSpec};
use crate::profile::OpProbe;
use crate::Result;
use perm_algebra::visit::{free_correlated_columns, free_params};
use perm_algebra::{Plan, SortKey};
use perm_storage::{encode_key_typed, Name, Relation, Tuple};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;

/// A sublink plan's free correlated columns (qualifier, name) and the
/// parameter indices it references.
type Signature = (Vec<(Option<Name>, Name)>, Vec<usize>);

/// A sublink plan's address and the encoding of one binding of its
/// signature.
type MemoKey = (*const Plan, Vec<u8>);

/// One execution of the reference interpreter over plans borrowed for `'p`.
/// Counters, parameters, the cancel token and the operator-state budget are
/// the executor's; the memo and the signature cache go with the interpreter.
pub struct Interpreter<'p> {
    /// The executor whose database, parameters, counters and governor this
    /// interpreter uses.
    pub(crate) ex: &'p Executor<'p>,
    /// Sublink results per binding, shared so a hit never deep-copies.
    memo: RefCell<HashMap<MemoKey, Rc<Relation>>>,
    /// The signature of each sublink plan evaluated so far.
    signatures: RefCell<HashMap<*const Plan, Rc<Signature>>>,
    /// Makes `'p` invariant: a plan borrowed for less than the
    /// interpreter's whole life cannot be passed in.
    plans: PhantomData<fn(&'p Plan) -> &'p Plan>,
}

impl<'p> Interpreter<'p> {
    /// An interpreter over `executor`'s database, parameters, counters and
    /// governor, with an empty memo.
    pub fn new(executor: &'p Executor<'p>) -> Interpreter<'p> {
        Interpreter {
            ex: executor,
            memo: RefCell::new(HashMap::new()),
            signatures: RefCell::new(HashMap::new()),
            plans: PhantomData,
        }
    }

    /// The executor this interpreter runs on.
    pub fn executor(&self) -> &'p Executor<'p> {
        self.ex
    }

    /// Executes a sublink plan in the correlation environment `env` through
    /// the memo. The key is the typed encoding of the values its `$n`s and
    /// free columns take (counts fixed per plan, so the groups concatenate
    /// unambiguously) — the runtime analogue of the compiled path's
    /// correlation signature. A sublink is not memoized when a binding does
    /// not resolve in `env` (the reference might still sit safely behind a
    /// short circuit), a parameter is unbound (only on an evaluation that did
    /// not start at an execution entry), or the memo is off and the sublink
    /// is correlated (an uncorrelated one keeps its InitPlan caching).
    pub(crate) fn execute_sublink(
        &self,
        plan: &'p Plan,
        env: Option<&Env<'_>>,
    ) -> Result<Rc<Relation>> {
        let addr: *const Plan = plan;
        let signature = Rc::clone(
            self.signatures
                .borrow_mut()
                .entry(addr)
                .or_insert_with(|| Rc::new((free_correlated_columns(plan), free_params(plan)))),
        );
        let (free, param_refs) = &*signature;
        let key = (free.is_empty() || self.ex.memo_enabled.get())
            .then(|| {
                let params = self.ex.params.borrow();
                let mut values = Vec::with_capacity(param_refs.len() + free.len());
                for &index in param_refs {
                    values.push(params.get(index)?.clone());
                }
                for (qualifier, name) in free {
                    values.push(env?.lookup(qualifier.as_deref(), name).ok()?);
                }
                Some((addr, encode_key_typed(&values)))
            })
            .flatten();
        if let Some(hit) = key
            .as_ref()
            .and_then(|k| self.memo.borrow().get(k).cloned())
        {
            return Ok(hit);
        }
        let result = Rc::new(self.execute(plan, env)?);
        if let Some(k) = key {
            self.memo.borrow_mut().insert(k, Rc::clone(&result));
        }
        Ok(result)
    }

    /// Evaluates `plan`: executes children, wraps
    /// [`Interpreter::eval_expr`] into per-tuple closures over an [`Env`]
    /// scope chain, and delegates every operator body to `crate::physical`.
    /// `env` is the enclosing correlation scope (present when this plan is a
    /// sublink query of an outer operator).
    pub fn execute(&self, plan: &'p Plan, env: Option<&Env<'_>>) -> Result<Relation> {
        // The interpreter path runs unprofiled (profiles mirror *compiled*
        // plans); the probe still carries the shared global counter.
        let probe = OpProbe::new(&self.ex.governor, None);
        let gov = &self.ex.governor;
        match plan {
            Plan::Scan { table, schema, .. } => {
                physical::scan(probe, gov, self.ex.database(), table, schema)
            }
            Plan::Values { schema, rows } => physical::values(probe, gov, schema, rows),
            Plan::Project {
                input,
                items,
                distinct,
            } => {
                let child = self.execute(input, env)?;
                let child_schema = child.schema().clone();
                physical::project(
                    probe,
                    gov,
                    &child,
                    plan.schema(),
                    *distinct,
                    |batch, out| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            // Explicit loop, not `collect::<Result<_>>()`: the
                            // fallible-collect machinery reports a zero lower
                            // size hint and grows the row by realloc —
                            // measurably slower on projection-heavy plans.
                            let mut row = Vec::with_capacity(items.len());
                            for item in items {
                                row.push(self.eval_expr(&item.expr, Some(&scope))?);
                            }
                            out.push(Tuple::new(row));
                        }
                        Ok(())
                    },
                )
            }
            Plan::Select { input, predicate } => {
                let child = self.execute(input, env)?;
                let child_schema = child.schema().clone();
                physical::select(probe, gov, child, |batch, out| {
                    for tuple in batch.iter() {
                        let scope = Env::new(env, &child_schema, tuple);
                        out.push(self.eval_predicate(predicate, Some(&scope))?.is_true());
                    }
                    Ok(())
                })
            }
            Plan::CrossProduct { left, right } => {
                let l = self.execute(left, env)?;
                let r = self.execute(right, env)?;
                let schema = l.schema().concat(r.schema());
                physical::cross_product(probe, gov, &l, &r, schema)
            }
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => {
                let l = self.execute(left, env)?;
                if l.is_empty() && kind.left_only_output() {
                    // Mirror the per-binding reference: with no outer rows
                    // the decorrelated inner plan never runs.
                    return Ok(Relation::empty(l.schema().clone()));
                }
                let r = self.execute(right, env)?;
                let l_schema = l.schema().clone();
                let r_schema = r.schema().clone();
                // The condition is evaluated over the concatenated candidate
                // row even for semi/anti joins, whose output is left-only.
                let cond_schema = l_schema.concat(&r_schema);
                let out_schema = if kind.left_only_output() {
                    l_schema.clone()
                } else {
                    cond_schema.clone()
                };
                // Hash keys only for sublink-free conditions: a condition
                // carrying sublinks falls back to the nested loop, which is
                // exactly the cost profile the paper discusses for the Left
                // strategy's Jsub conditions.
                let equi_keys = if condition.has_sublink() {
                    Vec::new()
                } else {
                    extract_equi_keys(condition, &l_schema, &r_schema)
                };
                let null_safe: Vec<bool> = equi_keys.iter().map(|k| k.null_safe).collect();
                // The reference stays independent of the compiled driver's
                // emission shortcuts: rows as the join defines them (the
                // identity map), every bucket-mate rechecked.
                physical::join(
                    probe,
                    gov,
                    &l,
                    &r,
                    &out_schema,
                    *kind,
                    &null_safe,
                    &ColumnMap::identity(out_schema.arity()),
                    true,
                    |batch, i, col| {
                        for lt in batch.iter() {
                            let scope = Env::new(env, &l_schema, lt);
                            col.push_value(self.eval_expr(equi_keys[i].left, Some(&scope))?);
                        }
                        Ok(())
                    },
                    |batch, i, col| {
                        for rt in batch.iter() {
                            let scope = Env::new(env, &r_schema, rt);
                            col.push_value(self.eval_expr(equi_keys[i].right, Some(&scope))?);
                        }
                        Ok(())
                    },
                    |batch, out| {
                        for joined in batch.iter() {
                            let scope = Env::new(env, &cond_schema, joined);
                            out.push(self.eval_predicate(condition, Some(&scope))?.is_true());
                        }
                        Ok(())
                    },
                )
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let child = self.execute(input, env)?;
                let child_schema = child.schema().clone();
                let specs: Vec<AggSpec> = aggregates
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        distinct: a.distinct,
                        has_arg: a.arg.is_some(),
                    })
                    .collect();
                physical::aggregate(
                    probe,
                    gov,
                    &child,
                    plan.schema(),
                    group_by.len(),
                    &specs,
                    |batch, group_cols, agg_cols| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            for (g, col) in group_by.iter().zip(group_cols.iter_mut()) {
                                col.push_value(self.eval_expr(&g.expr, Some(&scope))?);
                            }
                            for (a, col) in aggregates.iter().zip(agg_cols.iter_mut()) {
                                if let Some(arg) = &a.arg {
                                    col.push(self.eval_expr(arg, Some(&scope))?);
                                }
                            }
                        }
                        Ok(())
                    },
                )
            }
            Plan::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.execute(left, env)?;
                let r = self.execute(right, env)?;
                physical::set_op(probe, gov, *op, *all, &l, &r)
            }
            Plan::Sort { input, keys } => {
                let child = self.execute(input, env)?;
                let child_schema = child.schema().clone();
                let ascending: Vec<bool> = keys.iter().map(|k: &SortKey| k.ascending).collect();
                physical::sort(probe, gov, child, &ascending, |batch, cols| {
                    for tuple in batch.iter() {
                        let scope = Env::new(env, &child_schema, tuple);
                        for (k, col) in keys.iter().zip(cols.iter_mut()) {
                            col.push(self.eval_expr(&k.expr, Some(&scope))?);
                        }
                    }
                    Ok(())
                })
            }
            Plan::Limit { input, limit } => {
                let child = self.execute(input, env)?;
                physical::limit(probe, gov, child, *limit)
            }
        }
    }
}
