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
use crate::executor::{extract_equi_keys, Execution, Executor};
use crate::physical::{self, AggSpec, OpRows};
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
/// Counters and the operator-state budget are the executor's; the parameter
/// snapshot and cancel token are the interpreter's own execution's, and the
/// memo and the signature cache go with the interpreter.
pub struct Interpreter<'p> {
    /// The execution this interpreter is: the executor's database, counters
    /// and governor, plus the parameters and cancel token it began with.
    pub(crate) x: Execution<'p, 'p>,
    /// Sublink results per binding, shared so a hit never deep-copies (a
    /// sublink over a bare scan holds the stored rows by reference).
    memo: RefCell<HashMap<MemoKey, Rc<OpRows<'p>>>>,
    /// The signature of each sublink plan evaluated so far.
    signatures: RefCell<HashMap<*const Plan, Rc<Signature>>>,
    /// Makes `'p` invariant: a plan borrowed for less than the
    /// interpreter's whole life cannot be passed in.
    plans: PhantomData<fn(&'p Plan) -> &'p Plan>,
}

impl<'p> Interpreter<'p> {
    /// An interpreter over `executor`'s database, counters and governor,
    /// with an empty memo. It is one execution: it snapshots the parameters
    /// bound on `executor` and takes its installed cancel token (see
    /// [`Executor::set_cancel_token`]).
    pub fn new(executor: &'p Executor<'p>) -> Interpreter<'p> {
        Interpreter {
            x: Execution::new(executor, None),
            memo: RefCell::new(HashMap::new()),
            signatures: RefCell::new(HashMap::new()),
            plans: PhantomData,
        }
    }

    /// The executor this interpreter runs on.
    pub fn executor(&self) -> &'p Executor<'p> {
        self.x.ex
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
    ) -> Result<Rc<OpRows<'p>>> {
        let addr: *const Plan = plan;
        let signature = Rc::clone(
            self.signatures
                .borrow_mut()
                .entry(addr)
                .or_insert_with(|| Rc::new((free_correlated_columns(plan), free_params(plan)))),
        );
        let (free, param_refs) = &*signature;
        let key = (free.is_empty() || self.x.ex.memo_enabled.get())
            .then(|| {
                let mut values = Vec::with_capacity(param_refs.len() + free.len());
                for &index in param_refs {
                    values.push(self.x.params.get(index)?.clone());
                }
                for (qualifier, name) in free {
                    values.push(env?.lookup(*qualifier, *name).ok()?);
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
        let result = Rc::new(self.rows(plan, env)?);
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
        Ok(self.rows(plan, env)?.into_relation())
    }

    /// The recursion behind [`Interpreter::execute`]: a scan's rows are the
    /// stored table's, borrowed (see `physical::OpRows`).
    fn rows(&self, plan: &'p Plan, env: Option<&Env<'_>>) -> Result<OpRows<'p>> {
        // The interpreter path runs unprofiled (profiles mirror *compiled*
        // plans); the probe still carries the shared global counter.
        let probe = OpProbe::new(&self.x, None);
        let built = match plan {
            Plan::Scan { table, schema, .. } => {
                return physical::scan(probe, self.x.ex.database(), table, schema)
            }
            Plan::Values { schema, rows } => return physical::values(probe, schema, rows),
            Plan::Project {
                input,
                items,
                distinct,
            } => {
                let child = self.rows(input, env)?;
                let child_schema = child.schema().clone();
                let _timer = probe.begin("project")?;
                let mut out = Vec::new();
                physical::project(
                    probe,
                    child.tuples(),
                    |batch, out| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            // Explicit loop, not `collect::<Result<_>>()`:
                            // the fallible-collect machinery reports a zero
                            // lower size hint and grows the row by realloc —
                            // measurably slower on projection-heavy plans.
                            let mut row = Vec::with_capacity(items.len());
                            for item in items {
                                row.push(self.eval_expr(&item.expr, Some(&scope))?);
                            }
                            out.push(Tuple::new(row));
                        }
                        Ok(())
                    },
                    &mut out,
                )?;
                let out = Relation::new(perm_storage::Schema::clone(&plan.schema()), out)?;
                Ok(if *distinct { out.distinct() } else { out })
            }
            Plan::Select { input, predicate } => {
                let child = self.rows(input, env)?;
                let child_schema = child.schema().clone();
                let _timer = probe.begin("select")?;
                let mut out = Vec::new();
                physical::select(
                    probe,
                    child.into_rows(),
                    None,
                    None,
                    |batch, out| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            out.push(self.eval_predicate(predicate, Some(&scope))?.is_true());
                        }
                        Ok(())
                    },
                    &mut out,
                )?;
                Ok(Relation::new(child_schema, out)?)
            }
            Plan::CrossProduct { left, right } => {
                let l = self.rows(left, env)?;
                let r = self.rows(right, env)?;
                let schema = l.schema().concat(r.schema());
                physical::cross_product(probe, &l, &r, schema)
            }
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => {
                let l = self.rows(left, env)?;
                if l.is_empty() && kind.left_only_output() {
                    // Mirror the per-binding reference: with no outer rows
                    // the decorrelated inner plan never runs.
                    return Ok(Relation::empty(l.schema().clone()).into());
                }
                let r = self.rows(right, env)?;
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
                    &l,
                    &r,
                    &out_schema,
                    *kind,
                    &null_safe,
                    &ColumnMap::identity(out_schema.arity()),
                    true,
                    None,
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
                let child = self.rows(input, env)?;
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
                    &child,
                    perm_storage::Schema::clone(&plan.schema()),
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
                let l = self.rows(left, env)?;
                let r = self.rows(right, env)?;
                physical::set_op(probe, *op, *all, &l, &r)
            }
            Plan::Sort { input, keys } => {
                let child = self.rows(input, env)?;
                let child_schema = child.schema().clone();
                let ascending: Vec<bool> = keys.iter().map(|k: &SortKey| k.ascending).collect();
                physical::sort(probe, child, &ascending, None, |batch, cols| {
                    for tuple in batch.iter() {
                        let scope = Env::new(env, &child_schema, tuple);
                        for (k, col) in keys.iter().zip(cols.iter_mut()) {
                            col.push_value(self.eval_expr(&k.expr, Some(&scope))?);
                        }
                    }
                    Ok(())
                })
            }
            Plan::Limit { input, limit } => {
                let child = self.rows(input, env)?;
                let _timer = physical::limit_begin(probe)?;
                let (schema, rows) = child.into_parts();
                return Ok(OpRows::new(schema, physical::limit(rows, *limit)));
            }
        };
        built.map(OpRows::from)
    }
}
