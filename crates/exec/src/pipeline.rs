//! The one compiled-plan driver: `Execution::open` turns every compiled
//! node into a `Source`, whose `fill(want)` hands out up to `want` rows —
//! fewer only when it is exhausted or failed; `usize::MAX` means all.
//! [`crate::Executor::execute_compiled`] drains the root with one such pull;
//! a [`crate::Rows`] cursor pulls it a few rows at a time.
//!
//! * A scan hands out the stored rows, borrowed, with the window of the
//!   table's stored lanes under each pull (`crate::batch::Window`), which a
//!   selection directly above reads its columns from. A selection pulls
//!   `want` rows at a time, whatever it still needs, and keeps surplus
//!   survivors for its next pull; a projection maps each pull one to one.
//!   Each runs its `crate::physical` body, one checkpoint per `BATCH_ROWS`
//!   rows. A pass-through projection directly over a join, selection or
//!   sort hands its column map down, and that operator builds each row
//!   through it: the projection keeps its invocation, checkpoints and
//!   batches, and passes the rows on as they come.
//! * Pipeline breakers drain their inputs when opened and hand out the
//!   output of their `crate::physical` body.
//! * A `LIMIT` with no breaker between it and the root (`spine`) is lazy on
//!   both entry points: it asks its input for no more rows than it was
//!   asked for and still needs, and drops an error that follows the rows
//!   that fill it. A σ below it may still evaluate up to one pull's worth
//!   of rows past its last survivor. Under a breaker or in a sublink it
//!   drains its input first, like the interpreter.
//!
//! A failing σ or Π batch is replayed row by row (`compile::row_major`), and
//! a source keeps the error behind the rows that precede it. Operators are
//! opened post-order, a pipelined one counted when opened; its profile node
//! records per pull the rows in and out and the self time of its body.

use crate::batch::{Batch, Window, BATCH_ROWS};
use crate::compile::{row_major, ColumnMap, CompiledExpr, CompiledNode, CompiledPlan, Frame};
use crate::executor::Execution;
use crate::physical::{self, AggSpec, LeftConjuncts, OpRows};
use crate::profile::{add, OpProbe, OpTimer, ProfNode};
use crate::{ExecError, Result};
use perm_storage::{Relation, Schema, Truth, Tuple};
use std::borrow::Cow;
use std::rc::Rc;
use std::time::Instant;

/// What one pull hands on: up to the rows asked for — fewer only when the
/// source is exhausted or failed — and then, on failure, the error.
pub(crate) struct Pulled<'p> {
    pub(crate) rows: Cow<'p, [Tuple]>,
    /// The stored lanes under `rows`, when a scan handed them on.
    pub(crate) window: Option<Window<'p>>,
    pub(crate) error: Option<ExecError>,
}

/// Rows a source made but has not handed on yet, the error that follows
/// them, and whether its input is spent.
#[derive(Default)]
struct Ready<'p> {
    rows: Cow<'p, [Tuple]>,
    /// Built rows before `taken` have been handed on.
    taken: usize,
    error: Option<ExecError>,
    ended: bool,
}

impl<'p> Ready<'p> {
    fn len(&self) -> usize {
        self.rows.len() - self.taken
    }

    /// Whether a pull of `want` rows needs more input first.
    fn short_of(&self, want: usize) -> bool {
        self.len() < want && !self.ended && self.error.is_none()
    }

    /// The held rows as a vector to append to.
    fn built(&mut self) -> &mut Vec<Tuple> {
        let rows = self.rows.to_mut();
        rows.drain(..std::mem::take(&mut self.taken));
        rows
    }

    /// Hands on up to `want` rows, and the error once no row precedes it.
    fn hand_out(&mut self, want: usize) -> Pulled<'p> {
        let n = want.min(self.len());
        let rows = match &mut self.rows {
            Cow::Borrowed(rows) => {
                let rows: &'p [Tuple] = rows;
                let (head, tail) = rows.split_at(n);
                self.rows = Cow::Borrowed(tail);
                Cow::Borrowed(head)
            }
            Cow::Owned(rows) if self.taken == 0 && n == rows.len() => {
                Cow::Owned(std::mem::take(rows))
            }
            Cow::Owned(rows) => {
                let head = rows[self.taken..][..n].iter_mut().map(std::mem::take);
                self.taken += n;
                Cow::Owned(head.collect())
            }
        };
        let error = match self.len() {
            0 => {
                (self.rows, self.taken) = (Cow::Borrowed(&[][..]), 0);
                self.error.take()
            }
            _ => None,
        };
        Pulled {
            rows,
            window: None,
            error,
        }
    }
}

/// An opened compiled node: its operator, and the profile node mirroring
/// it on a profiled execution.
pub(crate) struct Source<'p> {
    op: Op<'p>,
    prof: Option<Rc<ProfNode>>,
    /// The scale of this invocation's timed pulls, when the profile's
    /// strided clock times it.
    clock: Option<u64>,
}

enum Op<'p> {
    /// Rows already made: a scan's or a `VALUES` list's, or a breaker's;
    /// a scan's come with the stored lanes of the rows not yet handed on.
    Made {
        ready: Ready<'p>,
        stored: Option<Window<'p>>,
    },
    Select {
        input: Box<Source<'p>>,
        predicate: &'p CompiledExpr,
        /// The column map of the pass-through Π above, which the survivors
        /// are built through.
        map: Option<&'p ColumnMap>,
        ready: Ready<'p>,
    },
    Project {
        input: Box<Source<'p>>,
        items: Items<'p>,
    },
    /// A lazy `LIMIT`: at most `remaining` more rows are pulled.
    Limit {
        input: Box<Source<'p>>,
        remaining: usize,
        ready: Ready<'p>,
    },
}

/// What a projection makes of each row.
enum Items<'p> {
    /// Computed items.
    Exprs(&'p [CompiledExpr]),
    /// Input columns, moved by the map — `None` when the join, selection or
    /// sort below (its [`producer`]) wrote the rows through it.
    Columns(Option<&'p ColumnMap>),
}

/// The operator a pass-through Π directly above `node` hands its column
/// map to, so that each row is built once, by the operator that makes it:
/// a join's matches, a selection's survivors, a sort's rows in order.
fn producer(node: &CompiledNode) -> Option<&'static str> {
    match node {
        CompiledNode::Join { .. } => Some("join"),
        CompiledNode::Select { .. } => Some("select"),
        CompiledNode::Sort { .. } => Some("sort"),
        _ => None,
    }
}

impl<'p> Source<'p> {
    /// Rows already made, handed on as pulled with the stored lanes under
    /// them, if any; `prof` counts the pulls of a scan's (a breaker's
    /// output was counted on its node when it ran).
    fn made(
        rows: OpRows<'p>,
        stored: Option<Window<'p>>,
        prof: Option<Rc<ProfNode>>,
    ) -> Source<'p> {
        let ready = Ready {
            rows: rows.into_rows(),
            ended: true,
            ..Ready::default()
        };
        Source {
            op: Op::Made { ready, stored },
            prof,
            clock: None,
        }
    }

    /// Pulls up to `want` rows (`usize::MAX`: all of them) — fewer only
    /// when the source is exhausted or failed. `frame` is the scope chain
    /// the source was opened in.
    pub(crate) fn fill(
        &mut self,
        x: &Execution<'_, '_>,
        frame: Option<&Frame<'_>>,
        want: usize,
    ) -> Pulled<'p> {
        let (prof, clock) = (self.prof.as_deref(), self.clock);
        let probe = OpProbe::new(x, prof.map(|p| &p.stats));
        let pulled = match &mut self.op {
            Op::Made { ready, stored } => {
                let mut pulled = ready.hand_out(want);
                pulled.window = *stored;
                *stored = stored.map(|window| window.at(pulled.rows.len()));
                pulled
            }
            Op::Select {
                input,
                predicate,
                map,
                ready,
            } => {
                while ready.short_of(want) {
                    let Pulled {
                        rows,
                        window,
                        error,
                    } = input.fill(x, frame, want);
                    ready.ended = rows.len() < want;
                    let out = ready.built();
                    let result = x.profiled(prof, clock, rows.len(), || {
                        physical::select(
                            probe,
                            rows,
                            window,
                            *map,
                            |batch, out| {
                                row_major(batch, out, |batch, out| {
                                    x.predicate_truths_vectorized(
                                        predicate.conjuncts(),
                                        batch,
                                        frame,
                                        out,
                                    )
                                })
                            },
                            out,
                        )
                    });
                    ready.error = result.err().or(error);
                }
                ready.hand_out(want)
            }
            Op::Project { input, items } => {
                let Pulled { rows, error, .. } = input.fill(x, frame, want);
                let mut out = Vec::new();
                let result = x.profiled(prof, clock, rows.len(), || match items {
                    Items::Exprs(items) => x.project(probe, &rows, items, frame, &mut out),
                    Items::Columns(map) => physical::project_columns(probe, rows, *map, &mut out),
                });
                Pulled {
                    rows: Cow::Owned(out),
                    window: None,
                    error: result.err().or(error),
                }
            }
            Op::Limit {
                input,
                remaining,
                ready,
            } => {
                while ready.short_of(want) {
                    let ask = want.min(*remaining).min(BATCH_ROWS);
                    let Pulled { rows, error, .. } = input.fill(x, frame, ask);
                    let rows = x.profiled(prof, clock, rows.len(), || {
                        physical::limit(rows, *remaining)
                    });
                    ready.ended = rows.len() < ask || rows.len() == *remaining;
                    *remaining -= rows.len();
                    ready.built().extend(rows.into_owned());
                    // An error behind the rows that fill the limit lies
                    // beyond it.
                    ready.error = error.filter(|_| *remaining > 0);
                }
                ready.hand_out(want)
            }
        };
        if let Some(p) = prof {
            add(&p.stats.rows_out, pulled.rows.len() as u64);
        }
        pulled
    }
}

impl<'e> Execution<'e, '_> {
    /// Runs one body of an operator — a pipelined operator's per pull, a
    /// breaker's once — and records on its armed profile node the rows it
    /// was given and the body's *deltas* of the executor's spill and
    /// columnar-fallback counters, so the work is attributed to the
    /// operator that did it (sublinks evaluated inside the body's
    /// expressions included, like nested `EXPLAIN ANALYZE` time). With a
    /// `clock` (a pipelined operator's timed invocation) it also records
    /// the body's wall time, scaled; a breaker's body times itself.
    fn profiled<R>(
        &self,
        prof: Option<&ProfNode>,
        clock: Option<u64>,
        rows_in: usize,
        body: impl FnOnce() -> R,
    ) -> R {
        let Some(node) = prof else {
            return body();
        };
        let (before, start) = (self.ex.stats(), Instant::now());
        let result = body();
        let (after, s) = (self.ex.stats(), &node.stats);
        if let Some(scale) = clock {
            add(
                &s.wall_nanos,
                (start.elapsed().as_nanos() as u64).saturating_mul(scale),
            );
        }
        add(&s.rows_in, rows_in as u64);
        add(&s.spilled_bytes, after.spilled_bytes - before.spilled_bytes);
        add(
            &s.spill_partitions,
            after.spill_partitions - before.spill_partitions,
        );
        add(
            &s.columnar_fallback_rows,
            after.columnar_fallback_rows - before.columnar_fallback_rows,
        );
        result
    }

    /// A pipeline breaker's body over its drained inputs (`rows_in` rows),
    /// profiled, and its output counted on its profile node.
    fn breaker<'p>(
        &self,
        prof: Option<&ProfNode>,
        rows_in: usize,
        body: impl FnOnce() -> Result<Relation>,
    ) -> Result<Source<'p>> {
        let rel = self.profiled(prof, None, rows_in, body)?;
        if let Some(p) = prof {
            add(&p.stats.rows_out, rel.len() as u64);
        }
        Ok(Source::made(rel.into(), None, None))
    }

    /// The compiled projection body over `rows`, failing batches replayed
    /// row by row.
    fn project(
        &self,
        probe: OpProbe<'_>,
        rows: &[Tuple],
        items: &[CompiledExpr],
        frame: Option<&Frame<'_>>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        physical::project(
            probe,
            rows,
            |batch, out| {
                row_major(batch, out, |batch, out| {
                    self.project_rows_vectorized(items, batch, frame, out)
                })
            },
            out,
        )
    }

    /// Runs a top-level plan to its materialised result: drains its root,
    /// opened on the spine.
    pub(crate) fn run(&self, plan: &'e CompiledPlan) -> Result<Relation> {
        let prof = self.profile.as_ref().map(|tree| &tree.root);
        Ok(self.drain(plan.root(), None, prof, true)?.into_relation())
    }

    /// Opens `plan` and pulls all of it: what a breaker does with each
    /// input (off the spine), and a sublink with its plan. What it returns
    /// borrows the plan and the database: a scan's rows are the stored
    /// table's.
    pub(crate) fn drain<'p>(
        &self,
        plan: &'p CompiledNode,
        frame: Option<&Frame<'_>>,
        prof: Option<&Rc<ProfNode>>,
        spine: bool,
    ) -> Result<OpRows<'p>>
    where
        'e: 'p,
    {
        let Pulled { rows, error, .. } =
            self.open(plan, frame, prof, spine)?
                .fill(self, frame, usize::MAX);
        match error {
            Some(e) => Err(e),
            None => Ok(OpRows::new(Cow::Borrowed(plan.schema()), rows)),
        }
    }

    /// Opens a compiled node as a pull source (see the module docs), its
    /// inputs first. `frame` is the runtime scope chain for correlated slot
    /// references (present when the node belongs to a sublink's plan).
    /// `prof` is the armed profile node mirroring `plan`; inputs are opened
    /// positionally with its child nodes, so the tree stays aligned with
    /// the plan by construction. `spine`: no pipeline breaker lies between
    /// `plan` and the root of a top-level execution.
    pub(crate) fn open<'p>(
        &self,
        plan: &'p CompiledNode,
        frame: Option<&Frame<'_>>,
        prof: Option<&Rc<ProfNode>>,
        spine: bool,
    ) -> Result<Source<'p>>
    where
        'e: 'p,
    {
        let node = prof.map(|p| &**p);
        let probe = OpProbe::new(self, node.map(|p| &p.stats));
        let child = |i: usize| prof.map(|p| &p.children[i]);
        let input =
            |input| Ok::<_, ExecError>(Box::new(self.open(input, frame, child(0), spine)?));
        let drained = |i, input| self.drain(input, frame, child(i), false);
        let pipelined = |op, timer: OpTimer<'_>| Source {
            op,
            prof: prof.cloned(),
            clock: timer.into_clock(),
        };
        let made = |rows, stored| Source::made(rows, stored, prof.cloned());
        Ok(match plan {
            CompiledNode::Scan { table, schema } => {
                let db = self.ex.database();
                let rows = physical::scan(probe, db, table, schema)?;
                let lanes = db.table_lanes(table)?;
                made(rows, Some(Window { lanes, start: 0 }))
            }
            CompiledNode::Values { schema, rows } => {
                made(physical::values(probe, schema, rows)?, None)
            }
            CompiledNode::Select { .. } | CompiledNode::Join { .. } | CompiledNode::Sort { .. } => {
                self.open_producer(plan, frame, prof, spine, None)?
            }
            CompiledNode::Project {
                input: i,
                column_map: Some(map),
                schema,
                ..
            } => {
                // Π∘⋈, Π∘σ and Π∘sort in one pass: the operator below
                // builds its rows through the Π's map, and the Π is left
                // none to gather.
                let by = producer(i);
                let (input, map) = match by {
                    Some(_) => {
                        let emit = Some((map, &**schema));
                        let input = self.open_producer(i, frame, child(0), spine, emit)?;
                        (Box::new(input), None)
                    }
                    None => (input(i)?, Some(map)),
                };
                let timer = probe.begin("project")?;
                if let Some(op) = by {
                    probe.emitted_by(op);
                }
                let items = Items::Columns(map);
                pipelined(Op::Project { input, items }, timer)
            }
            CompiledNode::Project {
                input: i,
                items,
                distinct: false,
                ..
            } => {
                let (input, items) = (input(i)?, Items::Exprs(items));
                pipelined(Op::Project { input, items }, probe.begin("project")?)
            }
            CompiledNode::Project {
                input,
                items,
                schema,
                ..
            } => {
                let rows = drained(0, input)?;
                self.breaker(node, rows.len(), || {
                    let _timer = probe.begin("project")?;
                    let mut out = Vec::new();
                    self.project(probe, rows.tuples(), items, frame, &mut out)?;
                    Ok(Relation::from_tuples_unchecked(Schema::clone(schema), out).distinct())
                })?
            }
            CompiledNode::Limit {
                input: i, limit, ..
            } if spine => {
                let input = input(i)?;
                let op = Op::Limit {
                    input,
                    remaining: *limit,
                    ready: Ready {
                        ended: *limit == 0,
                        ..Ready::default()
                    },
                };
                pipelined(op, physical::limit_begin(probe)?)
            }
            CompiledNode::Limit {
                input,
                limit,
                schema,
            } => {
                let rows = drained(0, input)?;
                self.breaker(node, rows.len(), || {
                    let _timer = physical::limit_begin(probe)?;
                    let rows = physical::limit(rows.into_rows(), *limit).into_owned();
                    Ok(Relation::from_tuples_unchecked(Schema::clone(schema), rows))
                })?
            }
            CompiledNode::CrossProduct {
                left,
                right,
                schema,
            } => {
                let (l, r) = (drained(0, left)?, drained(1, right)?);
                self.breaker(node, l.len() + r.len(), || {
                    physical::cross_product(probe, &l, &r, Schema::clone(schema))
                })?
            }
            CompiledNode::Aggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => {
                let rows = drained(0, input)?;
                let specs: Vec<AggSpec> = aggregates
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        distinct: a.distinct,
                        has_arg: a.arg.is_some(),
                    })
                    .collect();
                self.breaker(node, rows.len(), || {
                    physical::aggregate(
                        probe,
                        &rows,
                        Schema::clone(schema),
                        group_by.len(),
                        &specs,
                        |batch, group_cols, agg_cols| {
                            for (expr, col) in group_by.iter().zip(group_cols.iter_mut()) {
                                self.expr_batch(expr, batch, frame, col)?;
                            }
                            for (a, col) in aggregates.iter().zip(agg_cols.iter_mut()) {
                                if let Some(arg) = &a.arg {
                                    self.expr_values(arg, batch, frame, col)?;
                                }
                            }
                            Ok(())
                        },
                    )
                })?
            }
            CompiledNode::SetOp {
                op,
                all,
                left,
                right,
                ..
            } => {
                let (l, r) = (drained(0, left)?, drained(1, right)?);
                self.breaker(node, l.len() + r.len(), || {
                    physical::set_op(probe, *op, *all, &l, &r)
                })?
            }
        })
    }

    /// Opens a [`producer`] — a join, selection or sort — whose rows are
    /// built through `emit`: the column map and schema of the pass-through
    /// Π directly above it, or `None` for its own rows. `prof` mirrors the
    /// producer; the rest is as in [`Execution::open`].
    fn open_producer<'p>(
        &self,
        plan: &'p CompiledNode,
        frame: Option<&Frame<'_>>,
        prof: Option<&Rc<ProfNode>>,
        spine: bool,
        emit: Option<(&'p ColumnMap, &'p Schema)>,
    ) -> Result<Source<'p>>
    where
        'e: 'p,
    {
        let node = prof.map(|p| &**p);
        let probe = OpProbe::new(self, node.map(|p| &p.stats));
        let child = prof.map(|p| &p.children[0]);
        let map = emit.map(|(map, _)| map);
        Ok(match plan {
            CompiledNode::Select {
                input, predicate, ..
            } => {
                let input = Box::new(self.open(input, frame, child, spine)?);
                let op = Op::Select {
                    input,
                    predicate,
                    map,
                    ready: Ready::default(),
                };
                Source {
                    op,
                    prof: prof.cloned(),
                    clock: probe.begin("select")?.into_clock(),
                }
            }
            CompiledNode::Sort { input, keys, .. } => {
                let rows = self.drain(input, frame, child, false)?;
                let ascending: Vec<bool> = keys.iter().map(|k| k.ascending).collect();
                self.breaker(node, rows.len(), || {
                    physical::sort(probe, rows, &ascending, emit, |batch, cols| {
                        for (k, col) in keys.iter().zip(cols.iter_mut()) {
                            *col = self.expr_column(&k.expr, batch, frame)?;
                        }
                        Ok(())
                    })
                })?
            }
            CompiledNode::Join {
                left,
                right,
                kind,
                condition,
                equi_keys,
                keys_cover_condition,
                left_conjuncts,
                schema,
            } => {
                let identity;
                let (map, schema) = match emit {
                    Some(emit) => emit,
                    None => {
                        identity = ColumnMap::identity(schema.arity());
                        (&identity, &**schema)
                    }
                };
                let l = self.drain(left, frame, child, false)?;
                if l.is_empty() && kind.left_only_output() {
                    // A decorrelated sublink's inner plan never ran when the
                    // outer input was empty; skipping the build side keeps
                    // the operator count and error surface of the reference
                    // per-binding evaluation.
                    return self.breaker(None, 0, || Ok(Relation::empty(schema.clone())));
                }
                let r = self.drain(right, frame, prof.map(|p| &p.children[1]), false)?;
                let null_safe: Vec<bool> = equi_keys.iter().map(|k| k.null_safe).collect();
                let (prefix, rest) = condition.conjuncts().split_at(*left_conjuncts);
                let mut left_truths = |batch: &Batch<'_>, out: &mut Vec<Truth>| {
                    row_major(batch, out, |batch, out| {
                        self.conjunction_truths(prefix, batch, frame, out)
                    })
                };
                let prefix = (!prefix.is_empty()).then_some(LeftConjuncts {
                    truths: &mut left_truths,
                    whole: rest.is_empty(),
                });
                self.breaker(node, l.len() + r.len(), || {
                    physical::join(
                        probe,
                        &l,
                        &r,
                        schema,
                        *kind,
                        &null_safe,
                        map,
                        !keys_cover_condition,
                        prefix,
                        |batch, i, col| self.expr_batch(&equi_keys[i].left, batch, frame, col),
                        |batch, i, col| self.expr_batch(&equi_keys[i].right, batch, frame, col),
                        |batch, out| self.predicate_truths_vectorized(rest, batch, frame, out),
                    )
                })?
            }
            _ => unreachable!("only a join, selection or sort builds its rows through a map"),
        })
    }
}
