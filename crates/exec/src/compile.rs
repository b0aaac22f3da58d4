//! Plan compilation: the one-time pass that turns a [`Plan`] into a
//! [`CompiledPlan`] whose per-row work is integer indexing instead of
//! name lookup.
//!
//! Two things happen per operator:
//!
//! 1. **Slot resolution.** Every [`Expr::Column`] is resolved against the
//!    concrete *schema chain* in scope at its location — the operator's own
//!    input schema innermost, then the scopes of the operators containing
//!    each enclosing sublink, outermost last — into a [`Slot`] of scope
//!    depth and attribute index. The chain is the one the optimizer's
//!    totality checks resolve through, [`perm_algebra::Scopes`], and its
//!    [`Scopes::resolve`] matches the interpreter's
//!    [`crate::eval::Env::lookup`] exactly: innermost scope first, falling
//!    outwards only when a name is absent. Names that do not resolve (or are
//!    ambiguous within the scope that first knows them) compile to a
//!    deferred error that is raised only if the expression is actually
//!    evaluated, preserving the interpreter's short-circuit behaviour.
//! 2. **Correlation signatures.** For every sublink, the free correlated
//!    columns of its plan (`PlanRef::free_columns`, cached) are resolved against
//!    the outer chain. When they all resolve, the sublink is *memoizable*:
//!    its result is a pure function of the database and those binding
//!    values, so it is cached per `(sublink id, database version, encoded
//!    binding)` — *k* distinct bindings mean *k* executions, however large
//!    the outer relation is. An uncorrelated sublink has an empty signature
//!    and runs once per query.
//!
//! The cache is the statement's own: compilation gives the [`CompiledPlan`]
//! one memo and hands every [`CompiledSublink`] of the plan a handle to it,
//! so whoever executes the plan — any executor, on any thread — reads and
//! fills the same entries, and they go away with the plan. Sublink ids, the
//! head of every key, are therefore numbered per plan.
//!
//! Compilation never changes semantics: results (including errors) are
//! identical to [`crate::Executor::execute_unoptimized`]. In particular the
//! memo key is *type-exact* ([`encode_key_typed`]) — `Int(3)` and
//! `Float(3.0)` are distinct bindings even though the engine's equality
//! coerces them — so a memo hit always substitutes the result of a
//! byte-identical binding.
//!
//! One expression shape compiles to a node the logical plan does not have:
//! SQL `e IN (l₁, …, lₖ)`, which the binder spells as the left-nested chain
//! `e = l₁ OR … OR e = lₖ` (`perm_algebra::builder::in_list`), becomes
//! [`CompiledExpr::In`] when `e` holds no sublink and every `lᵢ` is a
//! literal. It evaluates `e` once per batch instead of once per disjunct
//! and compares it with each literal over the rows still undecided. Bags,
//! errors and the evaluation set are the chain's — the variant's doc gives
//! the argument — and plans, fingerprints and counters other than
//! `columnar_fallback_rows` do not see the difference.

use crate::batch::{Batch, LiveRows};
use crate::executor::{extract_equi_keys, Execution, Executor};
use crate::memo::StatementMemo;
use crate::profile::{ProfileTree, QueryProfile};
use crate::quant::SublinkSummary;
use crate::trace::{TraceEvent, TraceKind};
use crate::{ExecError, Result};
use perm_algebra::builder::split_conjuncts;
use perm_algebra::visit::free_params;
use perm_algebra::{
    AggFunc, BinaryOp, CompareOp, Expr, FuncName, JoinKind, Plan, Scopes, SetOpKind, SublinkKind,
    UnaryOp,
};
use perm_storage::{
    encode_key_typed, ColumnVec, Name, Relation, Schema, StorageError, Truth, Tuple, Validity,
    Value,
};
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::Arc;

/// A resolved column reference: how many scopes outwards, and at which
/// attribute position there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Scope distance: 0 is the innermost (current operator input) scope.
    pub depth: usize,
    /// Attribute index within that scope's tuple.
    pub index: usize,
}

/// A compiled scalar expression. Structurally mirrors [`Expr`] with column
/// references replaced by [`Slot`]s and sublinks by [`CompiledSublink`]s.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A column resolved to a positional slot.
    Slot(Slot),
    /// A column that did not resolve at compile time. Evaluating it raises
    /// the stored error — exactly when the interpreter would have raised it.
    Unresolved {
        /// Name as written, for the error message.
        name: Name,
        /// `true` when the name was ambiguous rather than unknown.
        ambiguous: bool,
    },
    /// A constant.
    Literal(Value),
    /// A query parameter (`$1` is index 0), read from the executor's bound
    /// parameter vector at evaluation time.
    Param(usize),
    /// An `AND` chain, flattened into its conjuncts (two or more) once at
    /// compile time: each is evaluated over the rows the earlier ones left
    /// undecided (`Execution::conjuncts`).
    And(Vec<CompiledExpr>),
    /// SQL `e IN (l₁, …, lₖ)` as `perm_algebra::builder::in_list` spells
    /// it: a left-nested `OR` chain of two or more `e = lᵢ` whose left
    /// operands are one sublink-free expression, written alike (literals of
    /// the same representation), and whose right operands are literals. The
    /// chain and the node agree row for row:
    ///
    /// * **bags** — a row is TRUE when some `e = lᵢ` is, else UNKNOWN when
    ///   some is, else FALSE: the `OR` fold in either order;
    /// * **errors** — the chain evaluates `e` on every row in its first
    ///   disjunct, and so does the node, once; an error there is the
    ///   chain's first error too, because [`perm_algebra::compare`] is total;
    /// * **evaluation set** — later disjuncts re-evaluate `e` on rows it
    ///   already ran on, and every function is deterministic, so the one
    ///   value stands for them; with no sublink in `e` no memo or counter
    ///   sees the difference.
    ///
    /// Literal `k` is compared only with the rows no earlier one found TRUE,
    /// through the typed `=` kernel where one applies
    /// (`crate::kernels::in_list`). The logical plan keeps the `OR` chain.
    In {
        probe: Box<CompiledExpr>,
        list: Vec<Value>,
    },
    /// Binary operation other than `AND`, which compiles to
    /// [`CompiledExpr::And`] (and an `IN`-shaped `OR` chain, which compiles
    /// to [`CompiledExpr::In`]).
    Binary {
        op: BinaryOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    /// Unary operation.
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    /// Scalar function call.
    Func {
        name: FuncName,
        args: Vec<CompiledExpr>,
    },
    /// `CASE WHEN … THEN … ELSE … END`.
    Case {
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    /// A sublink with its compiled plan and correlation signature.
    Sublink(Box<CompiledSublink>),
}

impl CompiledExpr {
    /// The conjuncts of an `AND` chain; any other expression is a chain of
    /// one.
    pub fn conjuncts(&self) -> &[CompiledExpr] {
        match self {
            CompiledExpr::And(conjuncts) => conjuncts,
            single => std::slice::from_ref(single),
        }
    }
}

/// A compiled sublink expression.
#[derive(Debug, Clone)]
pub struct CompiledSublink {
    /// Id, unique within its plan: the sublink's part of its memo keys
    /// (the memo is the plan's own), and how the plan's profile finds the
    /// sublink's subtree.
    pub id: usize,
    /// The sublink kind (`ANY`, `ALL`, `EXISTS`, scalar).
    pub kind: SublinkKind,
    /// Test expression of `ANY`/`ALL` sublinks, compiled against the outer
    /// scope chain.
    pub test_expr: Option<CompiledExpr>,
    /// Comparison operator of `ANY`/`ALL` sublinks.
    pub op: Option<CompareOp>,
    /// The compiled sublink query.
    pub plan: CompiledNode,
    /// The correlation signature: outer-scope slots (relative to the
    /// sublink's use site) whose values parameterise the result. `Some` when
    /// every free column of the sublink plan resolved statically — the memo
    /// precondition. Empty means uncorrelated (InitPlan).
    pub params: Option<Vec<Slot>>,
    /// The query-parameter indices the sublink plan references (transitively,
    /// including nested sublinks), sorted. The bound values of exactly these
    /// indices are folded into the memo key alongside the correlation
    /// bindings, so memoization stays correct across executions of one
    /// prepared plan with different parameter vectors.
    pub param_refs: Vec<usize>,
    /// The memo of the plan this sublink was compiled into.
    pub(crate) memo: Arc<StatementMemo>,
}

impl CompiledSublink {
    /// An empty correlation signature: the result depends on no outer row
    /// (`$n` values may still vary it between executions), so a batch
    /// shares one evaluation.
    fn is_uncorrelated(&self) -> bool {
        matches!(&self.params, Some(slots) if slots.is_empty())
    }

    /// The test expression and operator of an `ANY`/`ALL` sublink.
    fn quantified(&self) -> Result<(&CompiledExpr, CompareOp)> {
        let test = self.test_expr.as_ref().ok_or_else(|| {
            ExecError::Unsupported("ANY/ALL sublink without test expression".into())
        })?;
        let op = self.op.ok_or_else(|| {
            ExecError::Unsupported("ANY/ALL sublink without comparison operator".into())
        })?;
        Ok((test, op))
    }
}

/// One compiled hash-join key pair (see
/// [`crate::executor::Executor::execute`]'s equi-join hashing).
#[derive(Debug, Clone)]
pub struct CompiledEquiKey {
    /// Key expression over the left input.
    pub left: CompiledExpr,
    /// Key expression over the right input.
    pub right: CompiledExpr,
    /// `=n` instead of `=`: NULL keys match NULL keys.
    pub null_safe: bool,
}

/// One compiled aggregate computation.
#[derive(Debug, Clone)]
pub struct CompiledAggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` for `count(*)`).
    pub arg: Option<CompiledExpr>,
    /// Whether duplicates are dropped before aggregating.
    pub distinct: bool,
}

/// One compiled `ORDER BY` key.
#[derive(Debug, Clone)]
pub struct CompiledSortKey {
    /// Sort expression.
    pub expr: CompiledExpr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

/// A pass-through projection as data: output column `k` is input column
/// `cols()[k]`. Recorded on every non-`DISTINCT` [`CompiledNode::Project`]
/// whose items are all depth-0 slots — the rename-only `Π` every rule of the
/// provenance rewrite ends in — so the compiled driver moves values by
/// position instead of evaluating items: a `Π` over a join, a selection or
/// a sort is emitted *by* that operator (it builds each output row once,
/// through the map — a join's match, a σ's survivor, a sort's row in
/// sorted order — and its full-width output is never built), a `Π` over
/// anything else gathers from the rows its child hands over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMap {
    cols: Vec<usize>,
    /// `last_use[k]`: no later output column reads `cols[k]` again, so an
    /// owned input row gives the value up instead of cloning it.
    last_use: Vec<bool>,
    /// `cols` is `0, 1, 2, …`: over a row of that arity, the identity.
    in_order: bool,
}

impl ColumnMap {
    pub(crate) fn new(cols: Vec<usize>) -> ColumnMap {
        let last_use = (0..cols.len())
            .map(|k| !cols[k + 1..].contains(&cols[k]))
            .collect();
        let in_order = cols.iter().enumerate().all(|(k, &i)| k == i);
        ColumnMap {
            cols,
            last_use,
            in_order,
        }
    }

    /// The map of an operator with no pass-through `Π` above it.
    pub(crate) fn identity(arity: usize) -> ColumnMap {
        ColumnMap::new((0..arity).collect())
    }

    /// The input position each output column reads.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The output row of an owned input row: each value moves at its last
    /// use and is cloned before that; the identity hands the row through.
    pub(crate) fn gather(&self, row: Tuple) -> Tuple {
        if self.in_order && self.cols.len() == row.arity() {
            return row;
        }
        let mut values = row.into_values();
        let mut out = Vec::with_capacity(self.cols.len());
        for (&i, &last) in self.cols.iter().zip(&self.last_use) {
            out.push(if last {
                std::mem::replace(&mut values[i], Value::Null)
            } else {
                values[i].clone()
            });
        }
        Tuple::new(out)
    }

    /// The output row of the join candidate `lt ⧺ rt`, built once, straight
    /// from the two inputs. `rt = None` reads every right column as NULL:
    /// left-outer padding, and the left-only rows of semi / anti joins
    /// (whose maps name left columns alone).
    pub(crate) fn pair(&self, lt: &Tuple, rt: Option<&Tuple>) -> Tuple {
        let left_arity = lt.arity();
        let mut out = Vec::with_capacity(self.cols.len());
        for &i in &self.cols {
            out.push(match (i.checked_sub(left_arity), rt) {
                (None, _) => lt.get(i).clone(),
                (Some(j), Some(rt)) => rt.get(j).clone(),
                (Some(_), None) => Value::Null,
            });
        }
        Tuple::new(out)
    }
}

/// A plan compiled for execution: the operator tree, how many query
/// parameters an execution of it must find bound, and the plan's sublink
/// memo. Produced by [`Executor::prepare`]; the count is what makes "every
/// `$n` is bound" a precondition the execution entries check once, before
/// the first operator, instead of something evaluation finds out row by
/// row. A clone shares the memo, as it shares the sublink ids.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    root: CompiledNode,
    param_count: usize,
    memo: Arc<StatementMemo>,
}

impl CompiledPlan {
    /// The operator tree.
    pub fn root(&self) -> &CompiledNode {
        &self.root
    }

    /// The output schema of the plan.
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    /// Number of parameter slots an execution needs bound: one past the
    /// highest `$n` of the plan handed to [`Executor::prepare`]
    /// ([`perm_algebra::visit::param_count`]), 0 when it is parameter-free.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The memo every sublink of the plan caches its summaries in.
    pub(crate) fn memo(&self) -> &Arc<StatementMemo> {
        &self.memo
    }
}

/// A compiled plan operator. Every node carries its output schema, computed
/// once at compile time.
#[derive(Debug, Clone)]
pub enum CompiledNode {
    /// Base relation access.
    Scan { table: String, schema: Arc<Schema> },
    /// Constant relation.
    Values {
        schema: Arc<Schema>,
        rows: Vec<Tuple>,
    },
    /// Projection. `column_map` is `Some` when it only moves columns (see
    /// [`ColumnMap`]).
    Project {
        input: Box<CompiledNode>,
        items: Vec<CompiledExpr>,
        distinct: bool,
        column_map: Option<ColumnMap>,
        schema: Arc<Schema>,
    },
    /// Selection.
    Select {
        input: Box<CompiledNode>,
        predicate: CompiledExpr,
        schema: Arc<Schema>,
    },
    /// Cross product.
    CrossProduct {
        left: Box<CompiledNode>,
        right: Box<CompiledNode>,
        schema: Arc<Schema>,
    },
    /// Inner, left-outer, semi or anti join. `equi_keys` is non-empty when
    /// the condition admits hash execution. Bucket-mates are rechecked
    /// against the full condition unless `keys_cover_condition`: every
    /// conjunct was extracted as an equi key (`Column = Column` / `=ₙ`, both
    /// total), and key-encoding equality *is* those comparisons (the
    /// invariant of `perm_storage`'s `keys.rs`), so bucket-mates are the
    /// matches and no candidate row is built to find that out. The rows the
    /// join outputs are written through a [`ColumnMap`] — the identity, or
    /// that of the pass-through `Π` directly above — by the compiled driver.
    ///
    /// `left_conjuncts` counts the leading conjuncts of `condition` that
    /// read only the left input: no depth-0 slot at or past the left arity,
    /// the correlation slots of their sublinks included. An unresolved
    /// column, or a sublink with no signature (`params: None`), ends the
    /// run. Only a nested loop (no `equi_keys`) counts any — Gen's
    /// `σ_{C ∧ Csub₁⁺ ∧ …}(T⁺ × CrossBase(…))` fused into a join, whose `C`
    /// and every `Csubᵢ⁺` but the last read `T⁺` alone. It evaluates them
    /// once per left row, over batches of left rows, and the rest of the
    /// condition over the pairs of the rows they did not find FALSE; a row
    /// they find TRUE when they are the whole condition has its pairs
    /// emitted with no candidate built. This agrees with the per-pair loop
    /// the interpreter keeps:
    ///
    /// * **bags** — unchanged: a conjunct that reads only the left row has
    ///   one value on all of that row's pairs, so a row the prefix finds
    ///   FALSE has no match, one it finds UNKNOWN none either (its pairs
    ///   still evaluate the rest, as `UNKNOWN AND x` does), and one it
    ///   finds TRUE matches where the rest is TRUE;
    /// * **errors** — the prefix runs only over a non-empty right side, on
    ///   the same left rows the per-pair loop would reach, so an error
    ///   occurs exactly when that loop raises one. A failing prefix batch is
    ///   replayed row by row (`row_major`), the rows before the failing
    ///   one are driven to their end first — a suffix error on an earlier
    ///   row keeps precedence — and a failing candidate batch is replayed
    ///   left row by left row, so the error is the first left row's;
    /// * **evaluation set** — the same (row, conjunct) pairs, up to repeats
    ///   of one binding: a row's prefix is evaluated once instead of once
    ///   per right row. `sublink_invocations` and `memo_misses` therefore
    ///   stay equal, and `memo_hits` falls;
    /// * **order** — left order, then right order within a row: rejected
    ///   rows close in their place among the candidates still pending;
    /// * **semi / anti** — a row stops at its first matching right chunk;
    /// * **checkpoints** — one per (left row, right chunk) reached, as
    ///   before, whether its pairs become candidates or go straight out,
    ///   plus one per batch of left rows the prefix runs over. A row the
    ///   prefix rejects reaches no chunk, so the count falls where it
    ///   rejects rows; with no prefix it is the per-pair loop's.
    Join {
        left: Box<CompiledNode>,
        right: Box<CompiledNode>,
        kind: JoinKind,
        condition: CompiledExpr,
        equi_keys: Vec<CompiledEquiKey>,
        keys_cover_condition: bool,
        left_conjuncts: usize,
        schema: Arc<Schema>,
    },
    /// Grouping and aggregation.
    Aggregate {
        input: Box<CompiledNode>,
        group_by: Vec<CompiledExpr>,
        aggregates: Vec<CompiledAggregate>,
        schema: Arc<Schema>,
    },
    /// Set operation.
    SetOp {
        op: SetOpKind,
        all: bool,
        left: Box<CompiledNode>,
        right: Box<CompiledNode>,
        schema: Arc<Schema>,
    },
    /// Sorting.
    Sort {
        input: Box<CompiledNode>,
        keys: Vec<CompiledSortKey>,
        schema: Arc<Schema>,
    },
    /// First-`n` truncation.
    Limit {
        input: Box<CompiledNode>,
        limit: usize,
        schema: Arc<Schema>,
    },
}

impl CompiledNode {
    /// The output schema of this operator.
    pub fn schema(&self) -> &Schema {
        match self {
            CompiledNode::Scan { schema, .. }
            | CompiledNode::Values { schema, .. }
            | CompiledNode::Project { schema, .. }
            | CompiledNode::Select { schema, .. }
            | CompiledNode::CrossProduct { schema, .. }
            | CompiledNode::Join { schema, .. }
            | CompiledNode::Aggregate { schema, .. }
            | CompiledNode::SetOp { schema, .. }
            | CompiledNode::Sort { schema, .. }
            | CompiledNode::Limit { schema, .. } => schema,
        }
    }
}

/// A column reference resolved along the compile-time scope chain (the
/// shared [`Scopes::resolve`], parallel to the runtime [`Frame`] chain): a
/// [`Slot`], or the deferred error of a name no scope knows or the first
/// scope that knows it holds twice.
fn resolve_slot(scopes: &Scopes<'_>, qualifier: Option<Name>, name: Name) -> CompiledExpr {
    match scopes.resolve(qualifier, name) {
        Ok(Some((depth, index))) => CompiledExpr::Slot(Slot { depth, index }),
        unresolved => CompiledExpr::Unresolved {
            name,
            ambiguous: unresolved.is_err(),
        },
    }
}

/// The runtime scope chain: one borrowed tuple per compile-time scope.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    parent: Option<&'a Frame<'a>>,
    tuple: &'a Tuple,
}

impl<'a> Frame<'a> {
    /// Pushes a new innermost scope.
    pub fn new(parent: Option<&'a Frame<'a>>, tuple: &'a Tuple) -> Frame<'a> {
        Frame { parent, tuple }
    }

    /// Reads the value at a compiled slot.
    fn get(&self, slot: Slot) -> &Value {
        let mut frame = self;
        for _ in 0..slot.depth {
            frame = frame
                .parent
                .expect("compiled slot depth exceeds runtime scope chain");
        }
        frame.tuple.get(slot.index)
    }
}

/// Classifies one attribute of a batch's live rows into a column: the
/// first non-NULL value picks the lane, mixed representations demote to
/// the `Values` fallback lane (see `perm_storage::column`).
fn classify_rows(batch: &Batch<'_>, index: usize) -> ColumnVec {
    let n = batch.len();
    let first = (0..n)
        .map(|i| batch.row(i).get(index))
        .find(|v| !v.is_null());
    let mut col = match first {
        Some(v) => ColumnVec::typed_for(v, n),
        None => ColumnVec::values_with_capacity(n),
    };
    for i in 0..n {
        col.push_value(batch.row(i).get(index).clone());
    }
    col
}

/// One attribute of a batch's live rows, gathered into a `Values` lane as
/// is (no classification).
fn gather_values(batch: &Batch<'_>, index: usize) -> ColumnVec {
    let n = batch.len();
    let mut col = Vec::with_capacity(n);
    for i in 0..n {
        col.push(batch.row(i).get(index).clone());
    }
    ColumnVec::Values(col)
}

/// Whether `expr` reads no depth-0 slot at or past `arity` — its own or a
/// sublink's correlation slot — so that its value on a row is its value on
/// the row's first `arity` columns. An unresolved column, or a sublink
/// whose signature did not resolve, answers `false`.
fn reads_below(expr: &CompiledExpr, arity: usize) -> bool {
    let below = |slot: &Slot| slot.depth > 0 || slot.index < arity;
    let all = |exprs: &[CompiledExpr]| exprs.iter().all(|e| reads_below(e, arity));
    match expr {
        CompiledExpr::Slot(slot) => below(slot),
        CompiledExpr::Unresolved { .. } => false,
        CompiledExpr::Literal(_) | CompiledExpr::Param(_) => true,
        CompiledExpr::And(exprs) | CompiledExpr::Func { args: exprs, .. } => all(exprs),
        CompiledExpr::In { probe: expr, .. } | CompiledExpr::Unary { expr, .. } => {
            reads_below(expr, arity)
        }
        CompiledExpr::Binary { left, right, .. } => {
            reads_below(left, arity) && reads_below(right, arity)
        }
        CompiledExpr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .all(|(when, then)| reads_below(when, arity) && reads_below(then, arity))
                && else_expr.as_deref().is_none_or(|e| reads_below(e, arity))
        }
        CompiledExpr::Sublink(sublink) => {
            sublink
                .params
                .as_ref()
                .is_some_and(|params| params.iter().all(below))
                && sublink
                    .test_expr
                    .as_ref()
                    .is_none_or(|e| reads_below(e, arity))
        }
    }
}

/// Whether an operand of a `slot ⟨cmp⟩ constant` conjunct is the constant:
/// the same value on every row of a batch.
fn is_constant(expr: &CompiledExpr) -> bool {
    match expr {
        CompiledExpr::Literal(_) | CompiledExpr::Param(_) => true,
        CompiledExpr::Slot(slot) => slot.depth > 0,
        _ => false,
    }
}

/// The probe and literals of an `OR` chain that compiles to
/// [`CompiledExpr::In`]; `None` for any other expression.
fn in_list_shape(expr: &Expr) -> Option<(&Expr, Vec<Value>)> {
    let mut disjuncts = Vec::new();
    let mut rest = expr;
    while let Expr::Binary {
        op: BinaryOp::Or,
        left,
        right,
    } = rest
    {
        disjuncts.push(&**right);
        rest = left;
    }
    if disjuncts.is_empty() {
        return None;
    }
    disjuncts.push(rest);
    fn equality(e: &Expr) -> Option<(&Expr, &Value)> {
        match e {
            Expr::Binary {
                op: BinaryOp::Cmp(CompareOp::Eq),
                left,
                right,
            } => match &**right {
                Expr::Literal(v) => Some((&**left, v)),
                _ => None,
            },
            _ => None,
        }
    }
    let (probe, _) = equality(disjuncts[disjuncts.len() - 1])?;
    if probe.has_sublink() {
        return None;
    }
    let mut list = Vec::with_capacity(disjuncts.len());
    for d in disjuncts.into_iter().rev() {
        let (e, v) = equality(d)?;
        if !written_alike(e, probe) {
            return None;
        }
        list.push(v.clone());
    }
    Some((probe, list))
}

/// Structural equality that also tells literals of different
/// representations apart: `Expr`'s own `==` compares literals as SQL values
/// (`1 = 1.0`), but `x || 1` and `x || 1.0` are different strings.
fn written_alike(a: &Expr, b: &Expr) -> bool {
    fn literals(e: &Expr) -> Vec<&Value> {
        let mut out = Vec::new();
        e.walk(&mut |e| {
            if let Expr::Literal(v) = e {
                out.push(v);
            }
        });
        out
    }
    let identical = |v: &Value, w: &Value| match (v, w) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(v) == std::mem::discriminant(w) && v == w,
    };
    std::ptr::eq(a, b)
        || (a == b
            && literals(a)
                .into_iter()
                .zip(literals(b))
                .all(|(v, w)| identical(v, w)))
}

/// The error of a correlated slot evaluated with no outer scope.
fn unscoped_slot() -> ExecError {
    ExecError::Storage(StorageError::UnknownAttribute(
        "<compiled slot without scope>".into(),
    ))
}

/// Packs three-valued truths into a `Bool` lane (Unknown ⇒ invalid slot),
/// the columnar image of `Truth::to_value`.
fn truths_to_bool_lane(truths: impl Iterator<Item = Truth>, n: usize) -> ColumnVec {
    let mut data = Vec::with_capacity(n);
    let mut validity = Validity::with_capacity(n);
    for t in truths {
        validity.push(t != Truth::Unknown);
        data.push(t == Truth::True);
    }
    ColumnVec::Bool { data, validity }
}

/// Compiles a plan with an empty outer scope chain and a fresh memo of at
/// most `memo_capacity` entries (`None`: unbounded). `param_count` is what
/// an execution must find bound — the caller's, because the plan it was
/// counted on may precede rewrites that dropped a `$n`.
pub(crate) fn compile_plan(
    plan: &Plan,
    param_count: usize,
    memo_capacity: Option<usize>,
) -> Result<CompiledPlan> {
    let mut compiler = Compiler {
        memo: StatementMemo::new(memo_capacity),
        sublinks: 0,
    };
    Ok(CompiledPlan {
        root: compiler.plan(plan, None)?,
        param_count,
        memo: compiler.memo,
    })
}

/// The compilation of one plan: every sublink it meets gets the plan's memo
/// and the next id of the plan.
struct Compiler {
    memo: Arc<StatementMemo>,
    /// Sublinks numbered so far.
    sublinks: usize,
}

impl Compiler {
    fn plan(&mut self, plan: &Plan, outer: Option<&Scopes<'_>>) -> Result<CompiledNode> {
        match plan {
            Plan::Scan { table, .. } => Ok(CompiledNode::Scan {
                table: table.clone(),
                schema: plan.schema(),
            }),
            Plan::Values { rows, .. } => Ok(CompiledNode::Values {
                schema: plan.schema(),
                rows: rows.clone(),
            }),
            Plan::Project {
                input,
                items,
                distinct,
            } => {
                let child_schema = input.schema();
                let scope = Scopes::new(&child_schema, outer);
                let items = items
                    .iter()
                    .map(|item| self.expr(&item.expr, &scope))
                    .collect::<Result<Vec<_>>>()?;
                let slots = items.iter().map(|item| match item {
                    CompiledExpr::Slot(Slot { depth: 0, index }) => Some(*index),
                    _ => None,
                });
                let column_map = if *distinct {
                    None
                } else {
                    slots.collect::<Option<Vec<_>>>().map(ColumnMap::new)
                };
                Ok(CompiledNode::Project {
                    input: Box::new(self.plan(input, outer)?),
                    items,
                    distinct: *distinct,
                    column_map,
                    schema: plan.schema(),
                })
            }
            Plan::Select { input, predicate } => {
                let child_schema = input.schema();
                let scope = Scopes::new(&child_schema, outer);
                let predicate = self.expr(predicate, &scope)?;
                Ok(CompiledNode::Select {
                    input: Box::new(self.plan(input, outer)?),
                    predicate,
                    schema: child_schema,
                })
            }
            Plan::CrossProduct { left, right } => Ok(CompiledNode::CrossProduct {
                schema: plan.schema(),
                left: Box::new(self.plan(left, outer)?),
                right: Box::new(self.plan(right, outer)?),
            }),
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => {
                let l_schema = left.schema();
                let r_schema = right.schema();
                // The condition always sees the concatenated candidate row;
                // the stored output schema is left-only for semi/anti joins.
                let cond_schema = Arc::new(l_schema.concat(&r_schema));
                let out_schema = if kind.left_only_output() {
                    l_schema.clone()
                } else {
                    cond_schema.clone()
                };

                // Hash keys only for sublink-free conditions, as in the
                // interpreter. Each side compiles against its own input
                // scope; the residual condition sees the joined row.
                let mut equi_keys = Vec::new();
                if !condition.has_sublink() {
                    for key in extract_equi_keys(condition, &l_schema, &r_schema) {
                        let l_scope = Scopes::new(&l_schema, outer);
                        let r_scope = Scopes::new(&r_schema, outer);
                        equi_keys.push(CompiledEquiKey {
                            left: self.expr(key.left, &l_scope)?,
                            right: self.expr(key.right, &r_scope)?,
                            null_safe: key.null_safe,
                        });
                    }
                }
                let keys_cover_condition =
                    !equi_keys.is_empty() && equi_keys.len() == split_conjuncts(condition).len();
                let scope = Scopes::new(&cond_schema, outer);
                let condition = self.expr(condition, &scope)?;
                let left_conjuncts = match equi_keys.is_empty() {
                    true => condition
                        .conjuncts()
                        .iter()
                        .take_while(|c| reads_below(c, l_schema.arity()))
                        .count(),
                    false => 0,
                };
                Ok(CompiledNode::Join {
                    left: Box::new(self.plan(left, outer)?),
                    right: Box::new(self.plan(right, outer)?),
                    kind: *kind,
                    condition,
                    equi_keys,
                    keys_cover_condition,
                    left_conjuncts,
                    schema: out_schema,
                })
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let child_schema = input.schema();
                let scope = Scopes::new(&child_schema, outer);
                let group_by = group_by
                    .iter()
                    .map(|g| self.expr(&g.expr, &scope))
                    .collect::<Result<Vec<_>>>()?;
                let aggregates = aggregates
                    .iter()
                    .map(|a| {
                        Ok(CompiledAggregate {
                            func: a.func,
                            arg: a
                                .arg
                                .as_ref()
                                .map(|arg| self.expr(arg, &scope))
                                .transpose()?,
                            distinct: a.distinct,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledNode::Aggregate {
                    input: Box::new(self.plan(input, outer)?),
                    group_by,
                    aggregates,
                    schema: plan.schema(),
                })
            }
            Plan::SetOp {
                op,
                all,
                left,
                right,
            } => Ok(CompiledNode::SetOp {
                op: *op,
                all: *all,
                schema: left.schema(),
                left: Box::new(self.plan(left, outer)?),
                right: Box::new(self.plan(right, outer)?),
            }),
            Plan::Sort { input, keys } => {
                let child_schema = input.schema();
                let scope = Scopes::new(&child_schema, outer);
                let keys = keys
                    .iter()
                    .map(|k| {
                        Ok(CompiledSortKey {
                            expr: self.expr(&k.expr, &scope)?,
                            ascending: k.ascending,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledNode::Sort {
                    input: Box::new(self.plan(input, outer)?),
                    keys,
                    schema: child_schema,
                })
            }
            Plan::Limit { input, limit } => Ok(CompiledNode::Limit {
                schema: input.schema(),
                input: Box::new(self.plan(input, outer)?),
                limit: *limit,
            }),
        }
    }

    fn expr(&mut self, expr: &Expr, scopes: &Scopes<'_>) -> Result<CompiledExpr> {
        if let Some((probe, list)) = in_list_shape(expr) {
            return Ok(CompiledExpr::In {
                probe: Box::new(self.expr(probe, scopes)?),
                list,
            });
        }
        Ok(match expr {
            Expr::Column { qualifier, name } => resolve_slot(scopes, *qualifier, *name),
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Param(index) => CompiledExpr::Param(*index),
            Expr::Binary {
                op: BinaryOp::And, ..
            } => CompiledExpr::And(
                split_conjuncts(expr)
                    .into_iter()
                    .map(|c| self.expr(c, scopes))
                    .collect::<Result<_>>()?,
            ),
            Expr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(self.expr(left, scopes)?),
                right: Box::new(self.expr(right, scopes)?),
            },
            Expr::Unary { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr, scopes)?),
            },
            Expr::Func { name, args } => CompiledExpr::Func {
                name: *name,
                args: args
                    .iter()
                    .map(|a| self.expr(a, scopes))
                    .collect::<Result<Vec<_>>>()?,
            },
            Expr::Case {
                branches,
                else_expr,
            } => CompiledExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.expr(c, scopes)?, self.expr(v, scopes)?)))
                    .collect::<Result<Vec<_>>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.expr(e, scopes)?)),
                    None => None,
                },
            },
            Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } => {
                let id = self.sublinks;
                self.sublinks += 1;

                // The correlation signature: every free column of the
                // sublink plan, resolved against the chain at the use site.
                // One unresolvable or ambiguous reference disables
                // memoization for this sublink (it may still execute — the
                // reference might sit behind a short circuit).
                let mut params: Option<Vec<Slot>> = Some(Vec::new());
                for &(qualifier, name) in plan.free_columns() {
                    match resolve_slot(scopes, qualifier, name) {
                        CompiledExpr::Slot(slot) => {
                            if let Some(p) = params.as_mut() {
                                if !p.contains(&slot) {
                                    p.push(slot);
                                }
                            }
                        }
                        _ => params = None,
                    }
                }

                CompiledExpr::Sublink(Box::new(CompiledSublink {
                    id,
                    kind: *kind,
                    test_expr: test_expr
                        .as_deref()
                        .map(|t| self.expr(t, scopes))
                        .transpose()?,
                    op: *op,
                    // Operators inside the sublink do *not* see each
                    // other's scopes: its outer chain is the chain at the
                    // use site, as in the interpreter.
                    plan: self.plan(plan, Some(scopes))?,
                    params,
                    param_refs: free_params(plan),
                    memo: Arc::clone(&self.memo),
                }))
            }
        })
    }
}

impl Executor<'_> {
    /// Executes a compiled top-level plan, materialising the result: the
    /// root is opened as a pull source and drained (`crate::pipeline`), so
    /// a `LIMIT` with no pipeline breaker between it and the root pulls no
    /// more input than it needs and ignores an error past its last row,
    /// exactly as on a [`Rows`] cursor, while one under a breaker or inside
    /// a sublink plan drains its input like the reference interpreter. Fails with
    /// [`ExecError::Param`] before any operator runs when fewer parameters
    /// are bound than the plan needs (see [`Executor::bind_params`]).
    ///
    /// [`Rows`]: crate::Rows
    pub fn execute_compiled(&self, plan: &CompiledPlan) -> Result<Relation> {
        self.begin_execution(plan, None)?.run(plan)
    }

    /// [`Executor::execute_compiled`] with a [`ProfileTree`] for the plan:
    /// the `EXPLAIN ANALYZE` entry point. The execution owns the zeroed
    /// skeleton, whose nodes the driver threads positionally and whose
    /// sublink subtrees the memoized-sublink seam finds by id, and the
    /// result comes back alongside the annotated snapshot. It drains the
    /// same sources a profiled cursor ([`Executor::open_profiled`]) pulls,
    /// so both record the same invocations and output rows per node.
    pub fn execute_profiled(&self, plan: &CompiledPlan) -> Result<(Relation, QueryProfile)> {
        let tree = ProfileTree::for_plan(plan);
        let result = self
            .begin_execution(plan, Some(Rc::clone(&tree)))?
            .run(plan)?;
        Ok((result, tree.snapshot()))
    }
}

/// Evaluates a batch through `eval` under the row-major error contract of
/// the physical σ and Π bodies: when the batch fails on an error a row
/// raises, it is replayed one row at a time, as batches of one — on which
/// expression-major order is row-major order — so `out` ends with the
/// results of the rows before the failing one, and the error returned is
/// the one a row-by-row evaluation raises first (the error set is the
/// same, only precedence can differ; see `Execution::ceval_batch`). `eval`
/// appends nothing on error. A cancellation or an exhausted budget is no
/// row's and is returned as it came: a replay would redo the batch's work
/// after the execution was told to stop.
pub(crate) fn row_major<T>(
    batch: &Batch<'_>,
    out: &mut Vec<T>,
    mut eval: impl FnMut(&Batch<'_>, &mut Vec<T>) -> Result<()>,
) -> Result<()> {
    match eval(batch, out) {
        Err(e @ (ExecError::Cancelled { .. } | ExecError::ResourceExhausted { .. })) => Err(e),
        Err(e) => {
            for i in 0..batch.len() {
                eval(&Batch::dense(std::slice::from_ref(batch.row(i))), out)?;
            }
            Err(e)
        }
        ok => ok,
    }
}

impl<'e, 'a> Execution<'e, 'a> {
    /// The projection core: every item is evaluated into a column, and the
    /// columns are transposed into output rows (`with_capacity` + push —
    /// fallible `collect` grows by realloc). Appends nothing on error: all
    /// columns are fully evaluated before the first row is emitted, which
    /// is what lets [`row_major`] replay a failing batch row by row without
    /// deduplicating output.
    pub(crate) fn project_rows_vectorized(
        &self,
        items: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let n = batch.len();
        let mut columns: Vec<ColumnVec> = Vec::with_capacity(items.len());
        for item in items {
            if let Some(col) = self.bare_slot_column(item, batch) {
                columns.push(col);
                continue;
            }
            columns.push(self.ceval_batch(item, batch, outer)?);
        }
        for i in 0..n {
            let mut row = Vec::with_capacity(items.len());
            for col in columns.iter_mut() {
                // Move, don't clone: each column cell is consumed once.
                row.push(col.take_value(i));
            }
            out.push(Tuple::new(row));
        }
        Ok(())
    }

    /// The bare-column bypass of a batching executor: a depth-0 `Slot`
    /// item gathers its values straight from the rows instead of
    /// round-tripping through the block's lane cache, which would cost one
    /// extra full-column copy (gather-from-lane after classify-into-lane)
    /// for a value that is consumed exactly once. Counts as one vectorized
    /// batch, exactly like the dispatch it replaces.
    fn bare_slot_column(&self, item: &CompiledExpr, batch: &Batch<'_>) -> Option<ColumnVec> {
        if batch.is_empty() || !self.ex.batch_enabled.get() {
            return None;
        }
        match item {
            CompiledExpr::Slot(slot) if slot.depth == 0 => {
                self.ex.governor.count().vectorized_batches += 1;
                Some(gather_values(batch, slot.index))
            }
            _ => None,
        }
    }

    /// The predicate core — of σ through [`row_major`], of a join's
    /// condition (or what its left rows leave of it) as it is: one
    /// three-valued-TRUE verdict per live row of the conjunction of
    /// `conjuncts` ([`CompiledExpr::conjuncts`]).
    pub(crate) fn predicate_truths_vectorized(
        &self,
        conjuncts: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<bool>,
    ) -> Result<()> {
        self.conjunction(conjuncts, batch, outer, out, LiveRows::verdicts)
    }

    /// [`Execution::predicate_truths_vectorized`] with the three-valued
    /// truths: a nested loop's left-only conjuncts, evaluated per left row
    /// (see [`CompiledNode::Join`]).
    pub(crate) fn conjunction_truths(
        &self,
        conjuncts: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<Truth>,
    ) -> Result<()> {
        self.conjunction(conjuncts, batch, outer, out, |live, batch, out| {
            out.extend(live.truths(batch))
        })
    }

    /// A conjunction over one batch, through the conjunct evaluator
    /// ([`Execution::conjuncts`]): `emit` appends what each live row's
    /// [`LiveRows`] say. Counts one vectorized batch like
    /// [`Execution::ceval_batch`]; batching off, each live row is a batch of
    /// one. Appends nothing on error.
    fn conjunction<T>(
        &self,
        conjuncts: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<T>,
        emit: impl Fn(&LiveRows, &Batch<'_>, &mut Vec<T>),
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if !self.ex.batch_enabled.get() {
            let start = out.len();
            for row in batch.iter() {
                let one = Batch::dense(std::slice::from_ref(row));
                match self.conjuncts(conjuncts, &one, outer) {
                    Ok(live) => emit(&live, &one, out),
                    Err(e) => {
                        out.truncate(start);
                        return Err(e);
                    }
                }
            }
            return Ok(());
        }
        self.ex.governor.count().vectorized_batches += 1;
        emit(&self.conjuncts(conjuncts, batch, outer)?, batch, out);
        Ok(())
    }

    /// The one evaluator of a conjunction, in order over the rows the
    /// earlier conjuncts left (see [`LiveRows`]): a row a conjunct finds
    /// FALSE evaluates no later one, a row it finds UNKNOWN still does — the
    /// interpreter's short-circuit, so the same (row, conjunct) pairs are
    /// evaluated and the same errors can arise. A `slot ⟨cmp⟩ constant`
    /// conjunct narrows in one pass over the slot's lane
    /// ([`Execution::narrow_in_place`]); any other runs through
    /// [`Execution::ceval_typed`] over the rows left. Once no row is left,
    /// nothing more is evaluated.
    fn conjuncts(
        &self,
        conjuncts: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<LiveRows> {
        let mut live = LiveRows::default();
        for conjunct in conjuncts {
            if live.is_empty(batch) {
                break;
            }
            if self.narrow_in_place(conjunct, batch, outer, &mut live)? {
                continue;
            }
            let truths = self.ceval_typed(conjunct, &live.batch(batch), outer)?;
            live.retain(batch, |k, _| truths.truth_at(k));
        }
        Ok(live)
    }

    /// Narrows `live` by a conjunct `slot ⟨cmp⟩ constant` or `constant ⟨cmp⟩
    /// slot` — the constant a literal, a `$n` or an outer-scope column — in
    /// one pass over the slot's lane ([`crate::kernels::narrow_compare`]):
    /// a stored lane read in place, or the block's cached one, or the one
    /// transposed for a dense batch whose rows are all live — the lanes
    /// [`Execution::slot_column`] would read. `Ok(false)`, with nothing
    /// narrowed, for any other conjunct, with columnar execution off, with
    /// no such lane, or when the pairing has no typed kernel.
    fn narrow_in_place(
        &self,
        conjunct: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        live: &mut LiveRows,
    ) -> Result<bool> {
        let CompiledExpr::Binary {
            op: BinaryOp::Cmp(op),
            left,
            right,
        } = conjunct
        else {
            return Ok(false);
        };
        let (Some(block), true) = (batch.columns(), self.ex.columnar_enabled.get()) else {
            return Ok(false);
        };
        let (index, constant, lane_left) = match (&**left, &**right) {
            (CompiledExpr::Slot(Slot { depth: 0, index }), c) if is_constant(c) => {
                (*index, c, true)
            }
            (c, CompiledExpr::Slot(Slot { depth: 0, index })) if is_constant(c) => {
                (*index, c, false)
            }
            _ => return Ok(false),
        };
        let lane = match block.cached(index) {
            Some(lane) => lane,
            None if live.is_whole() && batch.selection().is_none() => {
                block.lane(batch.rows(), index)
            }
            None => return Ok(false),
        };
        let constant = self.constant(constant, outer)?;
        if block.note_first_use() {
            self.ex.governor.count().columnar_blocks += 1;
        }
        Ok(crate::kernels::narrow_compare(
            *op, lane, &constant, lane_left, batch, live,
        ))
    }

    /// The value of a constant operand (see [`is_constant`]).
    fn constant<'v>(
        &self,
        expr: &'v CompiledExpr,
        outer: Option<&'v Frame<'_>>,
    ) -> Result<Cow<'v, Value>> {
        match expr {
            CompiledExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Param(index) => Ok(Cow::Owned(self.param_value(*index)?)),
            CompiledExpr::Slot(slot) => match outer {
                Some(frame) => Ok(Cow::Borrowed(frame.get(Slot {
                    depth: slot.depth - 1,
                    index: slot.index,
                }))),
                None => Err(unscoped_slot()),
            },
            other => unreachable!("not a constant: {other:?}"),
        }
    }

    /// A single expression over one batch for the compiled driver (join
    /// keys): one value per live row, in a column. On a batching executor
    /// with typed lanes, a bare depth-0 slot classifies straight into a
    /// typed lane — the common equi-key shape, which the column-wise key
    /// encoders then consume without a `Value` match per row — skipping the
    /// block's lane cache (keys are read once; the cache round-trip would
    /// cost an extra copy).
    pub(crate) fn expr_batch(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut ColumnVec,
    ) -> Result<()> {
        if self.ex.batch_enabled.get() && self.ex.columnar_enabled.get() && !batch.is_empty() {
            if let CompiledExpr::Slot(slot) = expr {
                if slot.depth == 0 {
                    self.ex.governor.count().vectorized_batches += 1;
                    *out = classify_rows(batch, slot.index);
                    return Ok(());
                }
            }
        }
        *out = self.ceval_batch(expr, batch, outer)?;
        Ok(())
    }

    /// A single expression over one batch as one lane (sort keys): a bare
    /// slot gathered as its values are, anything else evaluated.
    pub(crate) fn expr_column(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        match self.bare_slot_column(expr, batch) {
            Some(col) => Ok(col),
            None => self.ceval_batch(expr, batch, outer),
        }
    }

    /// [`Execution::expr_column`] appended as row-major values (the
    /// interpreter-compatible aggregate inputs).
    pub(crate) fn expr_values(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        self.expr_column(expr, batch, outer)?.append_to_values(out);
        Ok(())
    }

    /// Evaluates a compiled expression over every live row of a batch,
    /// returning one value per live row in selection order: the one entry
    /// to the compiled evaluator, [`Execution::ceval_typed`].
    ///
    /// Batching on (the default), the whole batch is evaluated at once —
    /// one dispatch per expression node per batch instead of per row — and
    /// counts one on [`crate::SessionStats::vectorized_batches`]. Batching
    /// off, each live row is evaluated as a batch of one (no column block,
    /// nothing counted there), on which expression-major order *is*
    /// row-major order. Either way the same (row, subexpression) pairs are evaluated,
    /// because evaluation follows the selection:
    ///
    /// * an `AND` chain evaluates each conjunct only over the rows no
    ///   earlier one found FALSE, and `OR` its right operand only over the
    ///   rows its left one did not find TRUE, so a FALSE conjunct still
    ///   shields an unresolvable (or otherwise failing) later conjunct for
    ///   exactly the rows it shields one row at a time;
    /// * `CASE` branches narrow the selection the same way — a row that took
    ///   an earlier branch never evaluates a later condition;
    /// * an empty selection evaluates nothing, so deferred errors behind it
    ///   are never raised;
    /// * a sublink is looked up once per batch when it is uncorrelated and
    ///   once per live row otherwise (see `Execution::sublink_column`).
    ///
    /// The only observable difference is *which* of several pending errors
    /// surfaces first in a batch of many rows (evaluation is
    /// expression-major); whether an error occurs at all is the same. A
    /// failing selection or projection batch is replayed one row at a time
    /// to raise the row-major one ([`row_major`]).
    ///
    /// With columnar execution disabled only the leaves change (see
    /// [`Executor::with_columnar`]).
    pub(crate) fn ceval_batch(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        if batch.is_empty() {
            return Ok(ColumnVec::default());
        }
        if !self.ex.batch_enabled.get() {
            let mut values = Vec::with_capacity(batch.len());
            for row in batch.iter() {
                let one = Batch::dense(std::slice::from_ref(row));
                values.push(self.ceval_typed(expr, &one, outer)?.take_value(0));
            }
            return Ok(ColumnVec::Values(values));
        }
        self.ex.governor.count().vectorized_batches += 1;
        self.ceval_typed(expr, batch, outer)
    }

    /// The recursive body of [`Execution::ceval_batch`]: returns a column of
    /// exactly `batch.len()` values aligned with the live selection,
    /// evaluated by the typed kernels of [`crate::kernels`] wherever the
    /// lane pairing has a proven scalar equivalence and by their scalar
    /// appliers row by row otherwise (counted in
    /// `columnar_fallback_rows`). Sub-selections narrow through
    /// [`Batch::narrow`], keeping the block's lane cache reachable.
    fn ceval_typed(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        if n == 0 {
            // Empty means untouched (batch invariant 4): no lane is
            // classified and no deferred error can surface.
            return Ok(ColumnVec::default());
        }
        match expr {
            CompiledExpr::Slot(slot) => {
                if slot.depth == 0 {
                    Ok(self.slot_column(slot.index, batch))
                } else {
                    match outer {
                        Some(frame) => {
                            let v = frame.get(Slot {
                                depth: slot.depth - 1,
                                index: slot.index,
                            });
                            Ok(ColumnVec::broadcast(v, n))
                        }
                        None => Err(unscoped_slot()),
                    }
                }
            }
            CompiledExpr::Unresolved { name, ambiguous } => {
                Err(ExecError::Storage(if *ambiguous {
                    StorageError::AmbiguousAttribute(name.to_string())
                } else {
                    StorageError::UnknownAttribute(name.to_string())
                }))
            }
            CompiledExpr::Literal(v) => Ok(ColumnVec::broadcast(v, n)),
            CompiledExpr::Param(index) => {
                let v = self.param_value(*index)?;
                Ok(ColumnVec::broadcast(&v, n))
            }
            CompiledExpr::And(conjuncts) => {
                let live = self.conjuncts(conjuncts, batch, outer)?;
                Ok(truths_to_bool_lane(live.truths(batch), n))
            }
            CompiledExpr::Binary {
                op: BinaryOp::Or,
                left,
                right,
            } => self.ceval_or_typed(left, right, batch, outer),
            CompiledExpr::In { probe, list } => {
                let mut probe = self.ceval_typed(probe, batch, outer)?;
                if self.ex.columnar_enabled.get() {
                    // A function's `Values` output gets the typed kernel too.
                    probe = probe.into_typed();
                }
                let (truths, fallback_rows) = crate::kernels::in_list(&probe, list);
                self.ex.governor.count().columnar_fallback_rows += fallback_rows;
                Ok(truths_to_bool_lane(truths.into_iter(), n))
            }
            CompiledExpr::Binary { op, left, right } => {
                let l = self.ceval_typed(left, batch, outer)?;
                let r = self.ceval_typed(right, batch, outer)?;
                let (col, fell_back) = crate::kernels::binary_column(*op, l, r)?;
                if fell_back {
                    self.ex.governor.count().columnar_fallback_rows += n as u64;
                }
                Ok(col)
            }
            CompiledExpr::Unary { op, expr } => {
                let v = self.ceval_typed(expr, batch, outer)?;
                let (col, fell_back) = crate::kernels::unary_column(*op, v)?;
                if fell_back {
                    self.ex.governor.count().columnar_fallback_rows += n as u64;
                }
                Ok(col)
            }
            CompiledExpr::Func { name, args } => {
                // Function application is row-major by nature (arguments
                // gathered into a scratch row), so this is not counted as a
                // columnar fallback.
                let mut cols: Vec<ColumnVec> = Vec::with_capacity(args.len());
                for a in args {
                    cols.push(self.ceval_typed(a, batch, outer)?);
                }
                let mut scratch: Vec<Value> = Vec::with_capacity(args.len());
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    scratch.clear();
                    for col in cols.iter_mut() {
                        // Move, don't clone: each cell is consumed once.
                        scratch.push(col.take_value(i));
                    }
                    out.push(crate::eval::apply_func(*name, &scratch)?);
                }
                Ok(ColumnVec::Values(out))
            }
            CompiledExpr::Case {
                branches,
                else_expr,
            } => self.ceval_case_typed(branches, else_expr.as_deref(), batch, outer),
            CompiledExpr::Sublink(sublink) => self.sublink_column(sublink, batch, outer),
        }
    }

    /// The column for a depth-0 slot: served from the batch's
    /// [`crate::batch::ColumnBlock`] when one is attached — a copy of the
    /// block's window of its lane (stored, or transposed and cached), or
    /// the live rows gathered from it under a selection — and classified
    /// directly from the live rows otherwise. With columnar execution
    /// disabled, a `Values` gather of the live rows that never touches the
    /// block.
    fn slot_column(&self, index: usize, batch: &Batch<'_>) -> ColumnVec {
        if !self.ex.columnar_enabled.get() {
            return gather_values(batch, index);
        }
        if let Some(block) = batch.columns() {
            if block.note_first_use() {
                self.ex.governor.count().columnar_blocks += 1;
            }
            return match batch.selection() {
                None => {
                    let lane = block.lane(batch.rows(), index);
                    lane.col.slice(lane.start, batch.len())
                }
                Some(sel) => match block.cached(index) {
                    Some(lane) => lane.col.gather(lane.start, sel),
                    // An uncached lane under a narrow selection: classify
                    // only the live rows rather than transposing the dead
                    // majority of the block.
                    None => classify_rows(batch, index),
                },
            };
        }
        classify_rows(batch, index)
    }

    /// Columnar `OR` with fused selection handling: when the left operand
    /// decides no rows, the right operand runs over the *same* batch — no
    /// selection vector is allocated, so a dense block stays dense and
    /// allocation-free; when it decides every row, the right operand never
    /// runs; only the mixed case pays for a sub-selection (narrowed through
    /// [`Batch::narrow`], keeping the lane cache). Per row, the right
    /// operand runs exactly when the left one is not TRUE, as in the
    /// interpreter: a TRUE left disjunct shields a failing right disjunct
    /// for its rows and no others. (`AND` narrows through
    /// [`Execution::conjuncts`].)
    fn ceval_or_typed(
        &self,
        left: &CompiledExpr,
        right: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        let lcol = self.ceval_typed(left, batch, outer)?;
        let mut ltruths: Vec<Truth> = Vec::with_capacity(n);
        let mut undecided = 0usize;
        for i in 0..n {
            let t = lcol.truth_at(i);
            if t != Truth::True {
                undecided += 1;
            }
            ltruths.push(t);
        }
        if undecided == n {
            let rcol = self.ceval_typed(right, batch, outer)?;
            return Ok(truths_to_bool_lane(
                (0..n).map(|i| ltruths[i].or(rcol.truth_at(i))),
                n,
            ));
        }
        if undecided == 0 {
            return Ok(truths_to_bool_lane(ltruths.into_iter(), n));
        }
        let mut need_rows = Vec::with_capacity(undecided);
        let mut need_pos = Vec::with_capacity(undecided);
        for (i, t) in ltruths.iter().enumerate() {
            if *t != Truth::True {
                need_rows.push(batch.row_index(i));
                need_pos.push(i);
            }
        }
        let rcol = self.ceval_typed(right, &batch.narrow(&need_rows), outer)?;
        let mut k = 0usize;
        Ok(truths_to_bool_lane(
            ltruths.iter().enumerate().map(|(i, &l)| {
                if k < need_pos.len() && need_pos[k] == i {
                    let r = rcol.truth_at(k);
                    k += 1;
                    l.or(r)
                } else {
                    l
                }
            }),
            n,
        ))
    }

    /// Columnar `CASE`, narrowing the selection branch by branch: a row that
    /// took an earlier branch never evaluates a later condition, and an
    /// exhausted selection stops evaluating branches entirely — the
    /// interpreter's per-row semantics. Sub-batches narrow through
    /// [`Batch::narrow`] so the lane cache stays reachable.
    fn ceval_case_typed(
        &self,
        branches: &[(CompiledExpr, CompiledExpr)],
        else_expr: Option<&CompiledExpr>,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        let mut result: Vec<Option<Value>> = vec![None; n];
        let mut remaining_rows: Vec<usize> = (0..n).map(|i| batch.row_index(i)).collect();
        let mut remaining_pos: Vec<usize> = (0..n).collect();
        for (cond, branch_value) in branches {
            if remaining_rows.is_empty() {
                break;
            }
            let cvals = self.ceval_typed(cond, &batch.narrow(&remaining_rows), outer)?;
            let mut take_rows = Vec::new();
            let mut take_pos = Vec::new();
            let mut keep_rows = Vec::new();
            let mut keep_pos = Vec::new();
            for k in 0..remaining_rows.len() {
                if cvals.truth_at(k).is_true() {
                    take_rows.push(remaining_rows[k]);
                    take_pos.push(remaining_pos[k]);
                } else {
                    keep_rows.push(remaining_rows[k]);
                    keep_pos.push(remaining_pos[k]);
                }
            }
            let mut tvals = self.ceval_typed(branch_value, &batch.narrow(&take_rows), outer)?;
            for (k, p) in take_pos.into_iter().enumerate() {
                result[p] = Some(tvals.take_value(k));
            }
            remaining_rows = keep_rows;
            remaining_pos = keep_pos;
        }
        if !remaining_rows.is_empty() {
            match else_expr {
                Some(e) => {
                    let mut evals = self.ceval_typed(e, &batch.narrow(&remaining_rows), outer)?;
                    for (k, p) in remaining_pos.into_iter().enumerate() {
                        result[p] = Some(evals.take_value(k));
                    }
                }
                None => {
                    for p in remaining_pos {
                        result[p] = Some(Value::Null);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for v in result {
            out.push(v.expect("every live row took a branch or the else"));
        }
        Ok(ColumnVec::Values(out))
    }

    /// A sublink over every live row of a (non-empty) batch. An `ANY` /
    /// `ALL` test column is evaluated first, over the whole batch. Then the
    /// sublink's [`SublinkSummary`] is looked up once for the batch when its
    /// correlation signature is empty — any row's scope will do, the
    /// sublink reads no slot of it — and once per live row otherwise, with
    /// the row's bindings in its frame; those rows count on
    /// `sublink_fallback_rows` and `columnar_fallback_rows`. An
    /// uncorrelated `EXISTS` or scalar value is broadcast (a scalar keeps
    /// its typed lane); `ANY` / `ALL` verdicts come out as a `Bool` lane.
    /// Callers only get here with a live row, so a sublink behind an empty
    /// selection still evaluates nothing.
    fn sublink_column(
        &self,
        sublink: &CompiledSublink,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        let quantified = match sublink.kind {
            SublinkKind::Any | SublinkKind::All => {
                let (test, op) = sublink.quantified()?;
                Some((op, self.ceval_typed(test, batch, outer)?))
            }
            SublinkKind::Exists | SublinkKind::Scalar => None,
        };
        let summary_of =
            |i: usize| self.sublink_summary(sublink, Some(&Frame::new(outer, batch.row(i))));
        let shared = if sublink.is_uncorrelated() {
            Some(summary_of(0)?)
        } else {
            None
        };
        let col = match (quantified, &shared) {
            (None, Some(summary)) => ColumnVec::broadcast(&summary.value(), n),
            (None, None) => {
                let mut values = Vec::with_capacity(n);
                for i in 0..n {
                    values.push(summary_of(i)?.value());
                }
                ColumnVec::Values(values)
            }
            (Some((op, mut tests)), shared) => {
                // One key buffer for the batch's test values.
                let mut key = Vec::new();
                let mut verdicts = Vec::with_capacity(n);
                for i in 0..n {
                    let test = tests.take_value(i);
                    let fetched;
                    let summary = match shared {
                        Some(summary) => summary,
                        None => {
                            fetched = summary_of(i)?;
                            &fetched
                        }
                    };
                    verdicts.push(
                        summary
                            .probe()
                            .verdict_in(sublink.kind, op, &test, &mut key),
                    );
                }
                truths_to_bool_lane(verdicts.into_iter(), n)
            }
        };
        if shared.is_none() {
            self.ex.governor.count().sublink_fallback_rows += n as u64;
            self.ex.governor.count().columnar_fallback_rows += n as u64;
        }
        Ok(col)
    }

    /// The parameterized memo key of a compiled sublink: its id, then the
    /// version of the executor's database, then [`encode_key_typed`] over
    /// the query-parameter values of its
    /// `param_refs` and the binding values read from `frame` at the slots of
    /// its correlation signature (both counts are fixed per sublink, so the
    /// two groups concatenate unambiguously). Unlike the join/grouping key,
    /// the memo key is *type-exact* (`Int(3)`, `Float(3.0)` and `Date(3)`
    /// all differ), so a hit can only ever substitute the result of a
    /// byte-identical binding — coarser keying would be wrong for
    /// type-sensitive expressions such as string concatenation or date
    /// arithmetic over the binding. `None` when the sublink has no resolved
    /// signature, a referenced parameter is unbound (only on an evaluation
    /// that did not start at an execution entry), or the memo is disabled
    /// and the sublink is correlated — an *uncorrelated* sublink (empty
    /// signature) keeps its per-query InitPlan caching even in the memo-off
    /// baseline, exactly like the reference [`crate::Interpreter`]'s memo
    /// and the PostgreSQL engine underneath the original Perm system.
    fn compiled_sublink_key(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
    ) -> Result<Option<Vec<u8>>> {
        match &sublink.params {
            Some(slots) if self.ex.memo_enabled.get() || slots.is_empty() => {
                let mut values: Vec<Value> =
                    Vec::with_capacity(sublink.param_refs.len() + slots.len());
                for &index in &sublink.param_refs {
                    match self.params.get(index) {
                        Some(v) => values.push(v.clone()),
                        None => return Ok(None),
                    }
                }
                for &slot in slots {
                    match frame {
                        Some(f) => values.push(f.get(slot).clone()),
                        None => {
                            return Err(ExecError::Storage(StorageError::UnknownAttribute(
                                "<correlated sublink without outer scope>".into(),
                            )))
                        }
                    }
                }
                let mut key = sublink.id.to_le_bytes().to_vec();
                key.extend_from_slice(&self.ex.database().version().to_le_bytes());
                key.extend_from_slice(&encode_key_typed(&values));
                Ok(Some(key))
            }
            _ => Ok(None),
        }
    }

    /// The [`SublinkSummary`] of a compiled sublink for the binding in
    /// `frame`: from its statement's memo when the sublink has a key — the
    /// key contract is documented on the private `compiled_sublink_key` —
    /// and otherwise built from one execution of the sublink plan and
    /// memoized. Summaries are shared as `Arc`s, and errors are never
    /// cached. Every lookup counts once on `memo_hits` or `memo_misses`.
    /// An `EXISTS` or scalar lookup polls a cancellation checkpoint first;
    /// an `ANY`/`ALL` one polls it only before executing on a miss. Every
    /// row an `ANY`/`ALL` probe is built from counts on
    /// `quantifier_comparisons`.
    fn sublink_summary(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
    ) -> Result<Arc<SublinkSummary>> {
        let quantified = matches!(sublink.kind, SublinkKind::Any | SublinkKind::All);
        if !quantified {
            self.checkpoint("sublink")?;
        }
        let key = self.compiled_sublink_key(sublink, frame)?;
        // A profiled execution's tree holds this sublink's subtree by id.
        let sub_prof = self.profile.as_ref().and_then(|t| t.sublink(sublink.id));
        if let Some(hit) = key.as_ref().and_then(|k| sublink.memo.get(k)) {
            self.ex.governor.count().memo_hits += 1;
            if let Some(p) = sub_prof {
                p.stats.memo_hits.set(p.stats.memo_hits.get() + 1);
            }
            self.ex
                .governor
                .emit(|| TraceEvent::new(TraceKind::MemoHit, "sublink-memo", 0));
            return Ok(hit);
        }
        if quantified {
            self.checkpoint("sublink")?;
        }
        self.ex.governor.count().memo_misses += 1;
        if let Some(p) = sub_prof {
            p.stats.memo_misses.set(p.stats.memo_misses.get() + 1);
        }
        let result = self.drain(&sublink.plan, frame, sub_prof, false)?;
        let summary = Arc::new(SublinkSummary::build(sublink.kind, &result)?);
        if quantified {
            self.ex.governor.count().quantifier_comparisons += result.len() as u64;
        }
        if let Some(k) = key {
            let cost = k.len() as u64 + crate::resilience::MemoCost::cost_bytes(&summary);
            if self.ex.governor.memo_insert_event("sublink-memo", cost)? {
                sublink.memo.insert(k, Arc::clone(&summary));
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::builder::{
        self, any_sublink, cmp, col, eq, exists_sublink, lit, qcol, scalar_sublink, PlanBuilder,
    };
    use perm_algebra::{CompareOp, ProjectItem};
    use perm_storage::{Attribute, DataType, Database};

    fn db_with_groups() -> Database {
        // R(a, g) with a low-cardinality correlation attribute g, and
        // S(c, g) to correlate against.
        let mut db = Database::new();
        let r_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        let s_rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(100 + i), Value::Int(i % 3)])
            .collect();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "g", DataType::Int),
                ]),
                r_rows,
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "g", DataType::Int),
                ]),
                s_rows,
            ),
        )
        .unwrap();
        db
    }

    fn correlated_exists_query(db: &Database) -> Plan {
        let sub = PlanBuilder::scan(db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .build();
        PlanBuilder::scan(db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build()
    }

    #[test]
    fn compiled_execution_matches_interpreter() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let compiled = Executor::new(&db).execute(&q).unwrap();
        let interpreted = Executor::new(&db).execute_unoptimized(&q).unwrap();
        assert!(compiled.bag_eq(&interpreted));
        assert_eq!(compiled.len(), 30);
    }

    #[test]
    fn correlated_sublink_runs_once_per_distinct_binding() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);

        let memoized = Executor::new(&db);
        memoized.execute(&q).unwrap();
        // scan r + select + 3 distinct g bindings × (select + scan s).
        assert_eq!(memoized.operators_evaluated(), 2 + 3 * 2);

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        unmemoized.execute(&q).unwrap();
        // Without the memo the sublink runs once per outer tuple.
        assert_eq!(unmemoized.operators_evaluated(), 2 + 30 * 2);
    }

    #[test]
    fn memoized_and_unmemoized_results_agree() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let memoized = Executor::new(&db).execute(&q).unwrap();
        let unmemoized = Executor::new(&db)
            .with_sublink_memo(false)
            .execute(&q)
            .unwrap();
        assert!(memoized.bag_eq(&unmemoized));
    }

    #[test]
    fn uncorrelated_sublink_degenerates_to_initplan() {
        let db = db_with_groups();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let ex = Executor::new(&db);
        ex.execute(&q).unwrap();
        // scan r + select + one sublink execution (project + scan s).
        assert_eq!(ex.operators_evaluated(), 4);
    }

    #[test]
    fn null_bindings_are_memoized_separately_and_correctly() {
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Int)]),
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Null],
                    vec![Value::Null],
                    vec![Value::Int(1)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "u",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("u", "y", DataType::Int)]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ),
        )
        .unwrap();
        // Π_{x, (scalar: count of u rows with y = t.x)}(T) — NULL bindings
        // produce a 0 count (y = NULL is never true), and must not collide
        // with the x = 1 binding in the memo.
        let sub = PlanBuilder::scan(&db, "u")
            .unwrap()
            .select(eq(col("y"), qcol("t", "x")))
            .aggregate(vec![], vec![perm_algebra::builder::count_star("n")])
            .build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![
                ProjectItem::column("x"),
                ProjectItem::new(scalar_sublink(sub), "n"),
            ])
            .build();
        let ex = Executor::new(&db);
        let result = ex.execute(&q).unwrap();
        let rows: Vec<(Value, Value)> = result
            .tuples()
            .iter()
            .map(|t| (t.get(0).clone(), t.get(1).clone()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Value::Int(1), Value::Int(1)),
                (Value::Null, Value::Int(0)),
                (Value::Null, Value::Int(0)),
                (Value::Int(1), Value::Int(1)),
            ]
        );
        // 2 distinct bindings (1, NULL) → sublink plan (3 ops) runs twice:
        // scan t + project + 2 × (aggregate + select + scan u).
        assert_eq!(ex.operators_evaluated(), 2 + 2 * 3);
    }

    #[test]
    fn memo_keys_are_type_exact() {
        // t(x) holds Int(3) and Float(3.0): null-safe-equal bindings whose
        // *representations* differ. A correlated sublink that stringifies
        // its binding must not reuse one binding's cached result for the
        // other — this is why memo keys use `encode_key_typed`, not the
        // coarser join/grouping encoding.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Any)]),
                vec![vec![Value::Int(3)], vec![Value::Float(3.0)]],
            ),
        )
        .unwrap();
        db.create_table(
            "one",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("one", "k", DataType::Int)]),
                vec![vec![Value::Int(0)]],
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "one")
            .unwrap()
            .project(vec![ProjectItem::new(
                builder::binary(perm_algebra::BinaryOp::Concat, qcol("t", "x"), lit("!")),
                "s",
            )])
            .build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![ProjectItem::new(scalar_sublink(sub), "s")])
            .build();
        let compiled = Executor::new(&db).execute(&q).unwrap();
        let interpreted = Executor::new(&db).execute_unoptimized(&q).unwrap();
        assert!(compiled.bag_eq(&interpreted));
        assert_eq!(compiled.tuples()[0].get(0), &Value::str("3!"));
        assert_eq!(compiled.tuples()[1].get(0), &Value::str("3.0!"));
    }

    #[test]
    fn short_circuit_still_shields_unresolvable_columns() {
        let db = db_with_groups();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                lit(false),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        let result = Executor::new(&db).execute(&q).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn unresolvable_column_errors_when_evaluated() {
        let db = db_with_groups();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("does_not_exist"), lit(1)))
            .build();
        let err = Executor::new(&db).execute(&q).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Storage(StorageError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn typed_lane_short_circuit_shields_deferred_errors() {
        // The left conjunct is a typed Int-lane comparison that is FALSE
        // for every row, so the right conjunct — a deferred unresolvable
        // column — must never be evaluated: an all-false typed truth lane
        // yields an empty undecided selection and the fused columnar AND
        // skips the right side entirely.
        let db = db_with_groups();
        let shielded = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                cmp(CompareOp::Lt, qcol("r", "a"), lit(-1)),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        let result = Executor::new(&db).execute(&shielded).unwrap();
        assert!(result.is_empty());

        // Same shape, but some rows pass the typed left conjunct: those
        // rows *do* reach the right side and the deferred error surfaces,
        // in every mode.
        let surfaced = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                cmp(CompareOp::Lt, qcol("r", "a"), lit(5)),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        for ex in [
            Executor::new(&db),
            Executor::new(&db).with_columnar(false),
            Executor::new(&db).with_batching(false),
        ] {
            let err = ex.execute(&surfaced).unwrap_err();
            assert!(matches!(
                err,
                ExecError::Storage(StorageError::UnknownAttribute(_))
            ));
        }
    }

    /// Digs the single sublink out of a compiled `σ_{…sublink…}(scan)` plan.
    fn select_sublink(plan: &CompiledNode) -> &CompiledSublink {
        match plan {
            CompiledNode::Select { predicate, .. } => match predicate {
                CompiledExpr::Sublink(s) => s,
                other => panic!("expected sublink, got {other:?}"),
            },
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn memo_hits_share_the_summary_allocation() {
        // A memo hit must return the cached `Arc<SublinkSummary>` itself —
        // the same allocation, and no operator work. Drive the summary
        // lookup directly with the same binding twice and compare pointers.
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let ex = Executor::new(&db);
        let x = Execution::new(&ex, None);
        let compiled = ex.prepare(&q).unwrap();
        let sublink = select_sublink(compiled.root());
        let outer = Tuple::new(vec![Value::Int(0), Value::Int(1)]);
        let frame = Frame::new(None, &outer);
        let first = x.sublink_summary(sublink, Some(&frame)).unwrap();
        let before = ex.operators_evaluated();
        let second = x.sublink_summary(sublink, Some(&frame)).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "memo hit must share the cached allocation"
        );
        assert_eq!(ex.operators_evaluated(), before, "a hit does no work");
        // A different binding gets its own entry.
        let other_outer = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let other_frame = Frame::new(None, &other_outer);
        let third = x.sublink_summary(sublink, Some(&other_frame)).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        // With the memo off every lookup executes afresh.
        let off = Executor::new(&db).with_sublink_memo(false);
        let x = Execution::new(&off, None);
        let compiled = off.prepare(&q).unwrap();
        let sublink = select_sublink(compiled.root());
        let a = x.sublink_summary(sublink, Some(&frame)).unwrap();
        let b = x.sublink_summary(sublink, Some(&frame)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn probes_cut_quantifier_comparisons_on_a_correlated_any_sweep() {
        // R(a, g) with heavily repeated (a, g) pairs: the correlated ANY
        // sublink σ_{s.g = r.g}(S) has 3 distinct bindings of 4 rows each.
        // The compiled path builds one probe per binding (12 rows compared
        // however many outer rows probe them); with the memo off, one per
        // outer row; the interpreter folds per outer row, stopping at the
        // first match.
        let mut db = Database::new();
        let r_rows: Vec<Vec<Value>> = (0..60)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 3)])
            .collect();
        let s_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "g", DataType::Int),
                ]),
                r_rows.clone(),
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "g", DataType::Int),
                ]),
                s_rows.clone(),
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();

        let memoized = Executor::new(&db);
        let with_memo = memoized.execute(&q).unwrap();
        assert_eq!(
            memoized.stats().quantifier_comparisons,
            3 * 4,
            "one probe per binding"
        );

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        let without_memo = unmemoized.execute(&q).unwrap();
        assert!(with_memo.bag_eq(&without_memo));
        assert_eq!(
            unmemoized.stats().quantifier_comparisons,
            60 * 4,
            "one probe per row"
        );

        // The interpreter folds: the rows of the binding up to the first
        // match, or all of them.
        let folded: u64 = r_rows
            .iter()
            .map(|r| {
                let group = s_rows.iter().filter(|s| s[1] == r[1]);
                match group.clone().position(|s| s[0] == r[0]) {
                    Some(at) => at as u64 + 1,
                    None => group.count() as u64,
                }
            })
            .sum();
        let interp = Executor::new(&db);
        let interp_result = interp.execute_unoptimized(&q).unwrap();
        assert!(interp_result.bag_eq(&with_memo));
        assert_eq!(interp.stats().quantifier_comparisons, folded);
    }

    #[test]
    fn param_values_participate_in_sublink_memo_keys_on_both_paths() {
        // A sublink correlated on r.g AND filtered by $1: the memo key must
        // include the parameter value, or a retained memo would serve stale
        // results after rebinding. Checked on the compiled and the
        // interpreter path.
        let db = db_with_groups();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(builder::and(
                eq(qcol("s", "g"), qcol("r", "g")),
                builder::cmp(CompareOp::Gt, qcol("s", "c"), perm_algebra::Expr::Param(0)),
            ))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        let ex = Executor::new(&db);
        let compiled = ex.prepare(&q).unwrap();
        ex.bind_params(vec![Value::Int(108)]);
        let strict = ex.execute_compiled(&compiled).unwrap();
        let after_first = ex.operators_evaluated();
        // Same binding again: every (g, $1) pair is a memo hit.
        let strict_again = ex.execute_compiled(&compiled).unwrap();
        let after_second = ex.operators_evaluated();
        assert_eq!(after_second - after_first, 2, "outer scan + select only");
        assert!(strict.bag_eq(&strict_again));
        // New binding: the sublink must re-run per distinct g, and the
        // result must change (more s rows qualify).
        ex.bind_params(vec![Value::Int(-1)]);
        let loose = ex.execute_compiled(&compiled).unwrap();
        assert!(ex.operators_evaluated() - after_second > 2);
        assert!(loose.len() > strict.len());

        // Interpreter path: same contract, per execution.
        let interp = Executor::new(&db);
        interp.bind_params(vec![Value::Int(108)]);
        let i_strict = interp.execute_unoptimized(&q).unwrap();
        interp.bind_params(vec![Value::Int(-1)]);
        let i_loose = interp.execute_unoptimized(&q).unwrap();
        assert!(i_strict.bag_eq(&strict));
        assert!(i_loose.bag_eq(&loose));
    }

    #[test]
    fn memo_capacity_keeps_results_correct_under_thrashing() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let bounded = Executor::new(&db).with_memo_capacity(Some(1));
        let unbounded = Executor::new(&db);
        let a = bounded.execute(&q).unwrap();
        let b = unbounded.execute(&q).unwrap();
        assert!(a.bag_eq(&b));
        // 3 correlated groups vs capacity 1: evictions force re-execution.
        assert!(bounded.operators_evaluated() >= unbounded.operators_evaluated());
    }

    #[test]
    fn nested_sublinks_get_distinct_ids_within_their_plan() {
        // A sublink's id leads its memo keys in the plan's memo, so the ids
        // of one plan must differ — here an `ANY` nested inside an
        // `EXISTS`. Ids are numbered per plan: a second preparation of the
        // same plan numbers its sublinks the same way.
        let db = db_with_groups();
        let inner = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .project_columns(&["c"])
            .build();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(any_sublink(col("c"), CompareOp::Eq, inner))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        fn collect_ids(plan: &CompiledNode, out: &mut Vec<usize>) {
            fn expr_ids(expr: &CompiledExpr, out: &mut Vec<usize>) {
                match expr {
                    CompiledExpr::Sublink(s) => {
                        out.push(s.id);
                        if let Some(t) = &s.test_expr {
                            expr_ids(t, out);
                        }
                        collect_ids(&s.plan, out);
                    }
                    CompiledExpr::And(conjuncts) => {
                        for c in conjuncts {
                            expr_ids(c, out);
                        }
                    }
                    CompiledExpr::Binary { left, right, .. } => {
                        expr_ids(left, out);
                        expr_ids(right, out);
                    }
                    CompiledExpr::Unary { expr, .. } => expr_ids(expr, out),
                    _ => {}
                }
            }
            match plan {
                CompiledNode::Select {
                    input, predicate, ..
                } => {
                    expr_ids(predicate, out);
                    collect_ids(input, out);
                }
                CompiledNode::Project { input, items, .. } => {
                    for item in items {
                        expr_ids(item, out);
                    }
                    collect_ids(input, out);
                }
                CompiledNode::Scan { .. } | CompiledNode::Values { .. } => {}
                other => panic!("unexpected operator in test plan: {other:?}"),
            }
        }

        let ex = Executor::new(&db);
        let mut ids = Vec::new();
        collect_ids(ex.prepare(&q).unwrap().root(), &mut ids);
        assert_eq!(ids, [0, 1], "two sublinks, numbered in compile order");
        let mut again = Vec::new();
        collect_ids(ex.prepare(&q).unwrap().root(), &mut again);
        assert_eq!(again, ids);
    }

    #[test]
    fn shared_memo_serves_hits_across_executors() {
        // Two executors (think: two worker threads) running one compiled
        // plan share its memo: a binding warmed by the first is a hit — the
        // same allocation — for the second, and the second's operator
        // counter shows it did no sublink work of its own.
        let db = db_with_groups();
        let q = correlated_exists_query(&db);

        let warmer = Executor::new(&db);
        let compiled = warmer.prepare(&q).unwrap();
        let sublink = select_sublink(compiled.root());
        let outer = Tuple::new(vec![Value::Int(0), Value::Int(1)]);
        let frame = Frame::new(None, &outer);
        let first = Execution::new(&warmer, None)
            .sublink_summary(sublink, Some(&frame))
            .unwrap();
        assert!(
            compiled.memo().len() > 0,
            "warming populated the plan's memo"
        );

        let server = Executor::new(&db);
        let before = server.operators_evaluated();
        let second = Execution::new(&server, None)
            .sublink_summary(sublink, Some(&frame))
            .unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "cross-executor hit must share the cached allocation"
        );
        assert_eq!(
            server.operators_evaluated(),
            before,
            "a hit in the plan's memo does no operator work"
        );
        // Full-query check: an executor serving the same prepared plan over
        // the warm memo produces the same result as a cold statement.
        let warm_result = server.execute_compiled(&compiled).unwrap();
        let cold_result = Executor::new(&db).execute(&q).unwrap();
        assert!(warm_result.bag_eq(&cold_result));
    }
}
