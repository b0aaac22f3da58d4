//! Typed columnar kernels: comparison, arithmetic and unary operators over
//! contiguous [`ColumnVec`] lanes.
//!
//! Each kernel runs a tight loop over primitive slices when both operands
//! sit in lanes whose pairing the engine's `Value` semantics handles
//! type-exactly, and otherwise falls back to the scalar appliers of
//! `crate::eval` (`apply_binary_scalar` / `apply_unary`) row by row —
//! so a kernel can *never* drift from the scalar semantics: the typed
//! paths are proven equivalences, everything else *is* the scalar path.
//! The kernels are the compiled evaluator's only operators
//! (`Executor::ceval_typed`, which runs a row as a batch of one when
//! batching is off), the fallback and the reference interpreter are the
//! appliers' only callers, and this
//! module's tests check each typed path against them. The `bool` in each
//! return value reports whether that fallback ran (the executor's
//! `columnar_fallback_rows` counter).
//!
//! Every typed comparison goes through one comparator, `compare_with`: a
//! lane against a lane ([`binary_column`], `=ₙ` included), and a lane
//! against a constant in place (`narrow_compare`, which narrows a
//! conjunction's live rows without building an operand or `Bool` lane).
//!
//! The load-bearing equivalences (see `perm_storage::value`):
//!
//! * `Int`, `Date` and `Bool` lanes share one **exact-i64 view** for
//!   comparisons: every pairwise comparison among them — whether `sql_cmp`
//!   routes it through exact `i64` ordering or the `as_f64` view — equals
//!   the comparison of the exact integers the values denote, because the
//!   `f64` view is exact for `i32`/`bool` and rounding an `i64` above 2⁵³
//!   cannot carry it across a small value.
//! * (i64-view × `Float`) comparisons are `int_cmp_float`, the exact
//!   mathematical order `sql_cmp` uses for `Int`/`Float` and that the
//!   `as_f64` route equals whenever the integer side converts exactly.
//! * (`Float` × `Float`) is `f64_cmp_sql`; (`Str` × `Str`) is `str` order.
//! * Arithmetic stays scalar unless the output lane is fully determined:
//!   `Int±Int` (checked, with a whole-column scalar retry on overflow —
//!   those ops cannot error, so re-running is safe), and every `Int`/
//!   `Float` mix, whose result is always a `Float` (`both_int` is false)
//!   computed through the same lossy `as_f64` view. `Date` arithmetic
//!   (date-typed results), `Bool` arithmetic, `Div`/`Mod` on integers
//!   (exactness probing), `Like`, `Concat` and mixed-representation
//!   `Values` lanes all take the scalar path.

use std::cmp::Ordering;
use std::sync::Arc;

use perm_algebra::{BinaryOp, CompareOp, UnaryOp};
use perm_storage::{f64_cmp_sql, int_cmp_float, ColumnVec, Truth, Validity, Value};

use crate::batch::{Batch, Lane, LiveRows};
use crate::eval::{apply_binary_scalar, apply_unary};
use crate::{ExecError, Result};

/// The exact-`i64` view over the three lanes whose values denote exact
/// integers under the engine's numeric coercion.
#[derive(Clone, Copy)]
enum IntView<'a> {
    Int(&'a [i64]),
    Date(&'a [i32]),
    Bool(&'a [bool]),
}

/// An entry of an exact-integer lane, as the integer it denotes.
trait Exact: Copy {
    fn exact(self) -> i64;
}

impl Exact for i64 {
    fn exact(self) -> i64 {
        self
    }
}

impl Exact for i32 {
    fn exact(self) -> i64 {
        i64::from(self)
    }
}

impl Exact for bool {
    fn exact(self) -> i64 {
        i64::from(self)
    }
}

/// Expands `body` once per [`IntView`] variant, with `$x` bound to the
/// variant's slice — whose entries [`Exact::exact`] reads — so a typed loop
/// is compiled per lane type instead of matching the variant per entry.
macro_rules! ints {
    ($view:expr, $x:ident => $body:expr) => {
        match $view {
            IntView::Int($x) => $body,
            IntView::Date($x) => $body,
            IntView::Bool($x) => $body,
        }
    };
}

/// The comparison class of a typed lane or a non-NULL constant:
/// exact-integer, float or string entries. `Values` lanes have none; they
/// are handled row-major.
#[derive(Clone, Copy)]
enum View<'a> {
    Ints(IntView<'a>),
    Floats(&'a [f64]),
    Strs(&'a [Arc<str>]),
}

/// The view of a typed lane, with its validity.
fn view(col: &ColumnVec) -> Option<(View<'_>, &Validity)> {
    Some(match col {
        ColumnVec::Int { data, validity } => (View::Ints(IntView::Int(data)), validity),
        ColumnVec::Date { data, validity } => (View::Ints(IntView::Date(data)), validity),
        ColumnVec::Bool { data, validity } => (View::Ints(IntView::Bool(data)), validity),
        ColumnVec::Float { data, validity } => (View::Floats(data), validity),
        ColumnVec::Str { data, validity } => (View::Strs(data), validity),
        ColumnVec::Values(_) => return None,
    })
}

/// The view of a constant as a lane of one entry; `None` for NULL.
fn scalar_view(v: &Value) -> Option<View<'_>> {
    Some(match v {
        Value::Int(i) => View::Ints(IntView::Int(std::slice::from_ref(i))),
        Value::Date(d) => View::Ints(IntView::Date(std::slice::from_ref(d))),
        Value::Bool(b) => View::Ints(IntView::Bool(std::slice::from_ref(b))),
        Value::Float(f) => View::Floats(std::slice::from_ref(f)),
        Value::Str(s) => View::Strs(std::slice::from_ref(s)),
        Value::Null => return None,
    })
}

/// What a typed comparison runs: handed `test(i, j)`, the comparison of
/// left entry `i` with right entry `j`, both non-NULL.
trait CompareBody {
    type Out;
    fn run(self, test: impl Fn(usize, usize) -> bool) -> Self::Out;
}

/// The one typed comparator of the engine: runs `body` with `op` over the
/// shared ordering of the `l` × `r` pairing, or returns `None` when the
/// pairing has no proven typed equivalence (e.g. `Str` vs numeric, where
/// `Eq` is FALSE but `<` is Unknown — the scalar path handles those). Every
/// typed comparison — lane against lane, lane against a constant in place,
/// `=ₙ` — goes through it.
fn compare_with<B: CompareBody>(
    op: CompareOp,
    l: View<'_>,
    r: View<'_>,
    body: B,
) -> Option<B::Out> {
    match op {
        CompareOp::Eq => compare_by(l, r, body, Ordering::is_eq),
        CompareOp::Neq => compare_by(l, r, body, Ordering::is_ne),
        CompareOp::Lt => compare_by(l, r, body, Ordering::is_lt),
        CompareOp::Le => compare_by(l, r, body, Ordering::is_le),
        CompareOp::Gt => compare_by(l, r, body, Ordering::is_gt),
        CompareOp::Ge => compare_by(l, r, body, Ordering::is_ge),
    }
}

/// [`compare_with`] for the one ordering predicate `pred` (an `IN` list
/// only ever tests `=`, so it instantiates only that).
fn compare_by<B: CompareBody>(
    l: View<'_>,
    r: View<'_>,
    body: B,
    pred: impl Fn(Ordering) -> bool,
) -> Option<B::Out> {
    Some(match (l, r) {
        (View::Ints(a), View::Ints(b)) => ints!(a, a => ints!(b, b => body.run(|i, j| {
            pred(a[i].exact().cmp(&b[j].exact()))
        }))),
        (View::Ints(a), View::Floats(b)) => ints!(a, a => body.run(|i, j| {
            pred(int_cmp_float(a[i].exact(), b[j]))
        })),
        (View::Floats(a), View::Ints(b)) => ints!(b, b => body.run(|i, j| {
            pred(int_cmp_float(b[j].exact(), a[i]).reverse())
        })),
        (View::Floats(a), View::Floats(b)) => body.run(|i, j| pred(f64_cmp_sql(a[i], b[j]))),
        (View::Strs(a), View::Strs(b)) => body.run(|i, j| pred(a[i].cmp(&b[j]))),
        _ => return None,
    })
}

/// A `Bool` lane whose slot `i` is valid when both operands are, with
/// `test(i, i)` as the payload of valid slots (three-valued comparison: a
/// NULL operand yields Unknown, i.e. an invalid slot).
struct BoolLane<'a> {
    n: usize,
    lv: &'a Validity,
    rv: &'a Validity,
}

impl CompareBody for BoolLane<'_> {
    type Out = ColumnVec;

    fn run(self, test: impl Fn(usize, usize) -> bool) -> ColumnVec {
        let BoolLane { n, lv, rv } = self;
        let mut data = Vec::with_capacity(n);
        if lv.is_all_valid() && rv.is_all_valid() {
            data.extend((0..n).map(|i| test(i, i)));
            return ColumnVec::Bool {
                data,
                validity: Validity::all_valid(n),
            };
        }
        let mut validity = Validity::with_capacity(n);
        for i in 0..n {
            let valid = lv.get(i) && rv.get(i);
            validity.push(valid);
            data.push(valid && test(i, i));
        }
        ColumnVec::Bool { data, validity }
    }
}

/// The typed comparison kernel for one [`CompareOp`] over two aligned
/// lanes, or `None` when the pairing has no typed path.
fn compare_columns(op: CompareOp, l: &ColumnVec, r: &ColumnVec) -> Option<ColumnVec> {
    let ((a, lv), (b, rv)) = (view(l)?, view(r)?);
    compare_with(op, a, b, BoolLane { n: l.len(), lv, rv })
}

/// Null-safe equality (`=n`): always a valid boolean — NULL equals NULL
/// and nothing else; non-NULL pairs compare like `Eq`.
struct NullSafeLane<'a> {
    n: usize,
    lv: &'a Validity,
    rv: &'a Validity,
}

impl CompareBody for NullSafeLane<'_> {
    type Out = ColumnVec;

    fn run(self, eq: impl Fn(usize, usize) -> bool) -> ColumnVec {
        let NullSafeLane { n, lv, rv } = self;
        let data = (0..n)
            .map(|i| match (lv.get(i), rv.get(i)) {
                (true, true) => eq(i, i),
                (false, false) => true,
                _ => false,
            })
            .collect();
        ColumnVec::Bool {
            data,
            validity: Validity::all_valid(n),
        }
    }
}

fn null_safe_eq_columns(l: &ColumnVec, r: &ColumnVec) -> Option<ColumnVec> {
    let ((a, lv), (b, rv)) = (view(l)?, view(r)?);
    compare_with(CompareOp::Eq, a, b, NullSafeLane { n: l.len(), lv, rv })
}

/// The rows of a batch narrowed by `lane ⟨op⟩ constant` (or `constant ⟨op⟩
/// lane`), read in place: the batch's row `i` is lane entry
/// `lane.start + i`.
struct Narrow<'a, 'b> {
    lane: Lane<'a>,
    validity: &'a Validity,
    lane_left: bool,
    batch: &'a Batch<'b>,
    rows: &'a mut LiveRows,
}

impl CompareBody for Narrow<'_, '_> {
    type Out = ();

    fn run(self, test: impl Fn(usize, usize) -> bool) {
        let Narrow {
            lane,
            validity,
            lane_left,
            batch,
            rows,
        } = self;
        let start = lane.start;
        match lane_left {
            true => narrow_by(rows, batch, validity, start, |i| test(i, 0)),
            false => narrow_by(rows, batch, validity, start, |i| test(0, i)),
        }
    }
}

/// Narrows `rows` to those whose lane entry `start + row` is valid and
/// `holds`, marking the invalid ones UNKNOWN.
fn narrow_by(
    rows: &mut LiveRows,
    batch: &Batch<'_>,
    validity: &Validity,
    start: usize,
    holds: impl Fn(usize) -> bool,
) {
    if validity.is_all_valid() {
        rows.retain_known(batch, |row| holds(start + row));
    } else {
        rows.retain(batch, |_, row| match validity.get(start + row) {
            true => Truth::from_bool(holds(start + row)),
            false => Truth::Unknown,
        });
    }
}

/// Narrows `rows` by the conjunct `lane ⟨op⟩ constant` — `constant ⟨op⟩
/// lane` when `!lane_left` — in one pass over the lane, with the typed
/// comparator every comparison kernel uses; no operand column is built. A
/// NULL constant makes every row UNKNOWN. `false` (nothing narrowed) when
/// the pairing has no typed path: the caller evaluates the conjunct.
pub(crate) fn narrow_compare(
    op: CompareOp,
    lane: Lane<'_>,
    constant: &Value,
    lane_left: bool,
    batch: &Batch<'_>,
    rows: &mut LiveRows,
) -> bool {
    let Some(c) = scalar_view(constant) else {
        rows.retain(batch, |_, _| Truth::Unknown);
        return true;
    };
    let Some((v, validity)) = view(lane.col) else {
        return false;
    };
    let (l, r) = if lane_left { (v, c) } else { (c, v) };
    let narrow = Narrow {
        lane,
        validity,
        lane_left,
        batch,
        rows,
    };
    compare_with(op, l, r, narrow).is_some()
}

/// One `IN`-list step over the undecided rows: entry `i` of the probe lane
/// against the literal, `test(i, 0)`. A TRUE row is decided and leaves
/// `undecided`; a NULL entry makes its row UNKNOWN (until a later literal
/// can no longer change that: a NULL probe is UNKNOWN against every one).
struct InStep<'a> {
    validity: &'a Validity,
    undecided: &'a mut Vec<usize>,
    truths: &'a mut [Truth],
}

impl CompareBody for InStep<'_> {
    type Out = ();

    fn run(self, test: impl Fn(usize, usize) -> bool) {
        let InStep {
            validity,
            undecided,
            truths,
        } = self;
        let all_valid = validity.is_all_valid();
        undecided.retain(|&i| {
            if !all_valid && !validity.get(i) {
                truths[i] = Truth::Unknown;
                true
            } else if test(i, 0) {
                truths[i] = Truth::True;
                false
            } else {
                true
            }
        });
    }
}

/// `probe = l₁ OR probe = l₂ OR …` per entry of an evaluated probe lane,
/// the disjuncts folded left to right: literal `k` is compared only with
/// the entries no earlier literal found TRUE, through the typed comparator
/// every comparison kernel uses where the pairing has one, and through the
/// scalar [`perm_algebra::compare`] otherwise. A NULL literal makes every
/// entry it meets UNKNOWN. Returns one truth per entry and how many entries
/// met no typed comparison (the `columnar_fallback_rows` of the node).
pub(crate) fn in_list(probe: &ColumnVec, list: &[Value]) -> (Vec<Truth>, u64) {
    let n = probe.len();
    let mut truths = vec![Truth::False; n];
    let mut undecided: Vec<usize> = (0..n).collect();
    let lane = view(probe);
    // Entries decided before the first typed step never met a typed
    // comparison; every entry still undecided at a typed step did.
    let mut typed_yet = false;
    let mut fallback = 0u64;
    for literal in list {
        if undecided.is_empty() {
            break;
        }
        let typed = match (lane, scalar_view(literal)) {
            (Some(_), None) => {
                for &i in &undecided {
                    truths[i] = Truth::Unknown;
                }
                true
            }
            (Some((v, validity)), Some(c)) => {
                let step = InStep {
                    validity,
                    undecided: &mut undecided,
                    truths: &mut truths,
                };
                compare_by(v, c, step, Ordering::is_eq).is_some()
            }
            (None, _) => false,
        };
        if typed {
            typed_yet = true;
            continue;
        }
        let before = undecided.len();
        undecided.retain(|&i| {
            let t = truths[i].or(perm_algebra::compare(
                CompareOp::Eq,
                &probe.value_at(i),
                literal,
            ));
            truths[i] = t;
            t != Truth::True
        });
        if !typed_yet {
            fallback += (before - undecided.len()) as u64;
        }
    }
    if !typed_yet {
        fallback += undecided.len() as u64;
    }
    (truths, fallback)
}

/// The typed arithmetic kernels. `Ok(None)` means "no typed path — use
/// the scalar fallback" (including the `Int` overflow retry, which is
/// safe because `Add`/`Sub`/`Mul` on integers cannot raise an error).
fn arith_columns(op: BinaryOp, l: &ColumnVec, r: &ColumnVec) -> Result<Option<ColumnVec>> {
    let n = l.len();
    match (l, r) {
        (
            ColumnVec::Int {
                data: a,
                validity: lv,
            },
            ColumnVec::Int {
                data: b,
                validity: rv,
            },
        ) => {
            // Exact checked integer arithmetic; Div/Mod probe exactness per
            // row (and can raise), so they stay scalar.
            let checked: fn(i64, i64) -> Option<i64> = match op {
                BinaryOp::Add => i64::checked_add,
                BinaryOp::Sub => i64::checked_sub,
                BinaryOp::Mul => i64::checked_mul,
                _ => return Ok(None),
            };
            let mut data = Vec::with_capacity(n);
            if lv.is_all_valid() && rv.is_all_valid() {
                for i in 0..n {
                    match checked(a[i], b[i]) {
                        Some(v) => data.push(v),
                        None => return Ok(None),
                    }
                }
                return Ok(Some(ColumnVec::Int {
                    data,
                    validity: Validity::all_valid(n),
                }));
            }
            let mut validity = Validity::with_capacity(n);
            for i in 0..n {
                let valid = lv.get(i) && rv.get(i);
                if valid {
                    match checked(a[i], b[i]) {
                        Some(v) => data.push(v),
                        None => return Ok(None),
                    }
                } else {
                    data.push(0);
                }
                validity.push(valid);
            }
            Ok(Some(ColumnVec::Int { data, validity }))
        }
        _ => {
            // Int/Float mixes (pure Int×Int was handled above): the result
            // is always a Float computed over the (lossy above 2⁵³) as_f64
            // views, exactly like the scalar `arithmetic` whose `both_int`
            // is false here (a `Date` lane has no float view).
            let (a, lv) = match float_view(l) {
                Some(v) => v,
                None => return Ok(None),
            };
            let (b, rv) = match float_view(r) {
                Some(v) => v,
                None => return Ok(None),
            };
            let mut data = Vec::with_capacity(n);
            let all = lv.is_all_valid() && rv.is_all_valid();
            let mut validity = Validity::with_capacity(if all { 0 } else { n });
            for i in 0..n {
                let valid = all || (lv.get(i) && rv.get(i));
                if !all {
                    validity.push(valid);
                }
                if !valid {
                    data.push(0.0);
                    continue;
                }
                let (x, y) = (a.get(i), b.get(i));
                data.push(match op {
                    BinaryOp::Add => x + y,
                    BinaryOp::Sub => x - y,
                    BinaryOp::Mul => x * y,
                    BinaryOp::Div | BinaryOp::Mod => {
                        if y == 0.0 {
                            return Err(ExecError::DivisionByZero);
                        }
                        if matches!(op, BinaryOp::Div) {
                            x / y
                        } else {
                            x % y
                        }
                    }
                    _ => return Ok(None),
                });
            }
            let validity = if all {
                Validity::all_valid(n)
            } else {
                validity
            };
            Ok(Some(ColumnVec::Float { data, validity }))
        }
    }
}

/// The `as_f64` view of an `Int` or `Float` lane, for mixed arithmetic.
#[derive(Clone, Copy)]
enum FloatView<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
}

impl FloatView<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            FloatView::F(data) => data[i],
            FloatView::I(data) => data[i] as f64,
        }
    }
}

fn float_view(col: &ColumnVec) -> Option<(FloatView<'_>, &Validity)> {
    match col {
        ColumnVec::Float { data, validity } => Some((FloatView::F(data), validity)),
        ColumnVec::Int { data, validity } => Some((FloatView::I(data), validity)),
        _ => None,
    }
}

/// Row-major fallback: both columns rendered to `Value`s, then the scalar
/// applier row by row in row order, so the first failing row's error is
/// the one that surfaces.
fn scalar_binary(op: BinaryOp, l: ColumnVec, r: ColumnVec) -> Result<ColumnVec> {
    let n = l.len();
    let lvals = l.to_values();
    let rvals = r.to_values();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_binary_scalar(op, &lvals[i], &rvals[i])?);
    }
    Ok(ColumnVec::Values(out))
}

/// Applies a non-logical binary operator over two aligned columns.
/// Returns the result column and whether the row-major scalar fallback ran
/// (`AND`/`OR` short-circuit over sub-selections and never reach here).
pub fn binary_column(op: BinaryOp, l: ColumnVec, r: ColumnVec) -> Result<(ColumnVec, bool)> {
    debug_assert_eq!(l.len(), r.len());
    match op {
        BinaryOp::Cmp(cmp_op) => {
            if let Some(out) = compare_columns(cmp_op, &l, &r) {
                return Ok((out, false));
            }
        }
        BinaryOp::NullSafeEq => {
            if let Some(out) = null_safe_eq_columns(&l, &r) {
                return Ok((out, false));
            }
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if let Some(out) = arith_columns(op, &l, &r)? {
                return Ok((out, false));
            }
        }
        BinaryOp::Like | BinaryOp::NotLike | BinaryOp::Concat => {}
        BinaryOp::And | BinaryOp::Or => unreachable!("logical connectives short-circuit"),
    }
    Ok((scalar_binary(op, l, r)?, true))
}

/// Applies a unary operator over a column. Returns the result column and
/// whether the row-major scalar fallback ran.
pub fn unary_column(op: UnaryOp, col: ColumnVec) -> Result<(ColumnVec, bool)> {
    let n = col.len();
    match op {
        UnaryOp::IsNull | UnaryOp::IsNotNull => {
            let want_null = matches!(op, UnaryOp::IsNull);
            let (data, fell_back) = match &col {
                ColumnVec::Values(vals) => (
                    vals.iter().map(|v| v.is_null() == want_null).collect(),
                    true,
                ),
                ColumnVec::Int { validity, .. }
                | ColumnVec::Float { validity, .. }
                | ColumnVec::Date { validity, .. }
                | ColumnVec::Bool { validity, .. }
                | ColumnVec::Str { validity, .. } => (
                    (0..n).map(|i| validity.get(i) != want_null).collect(),
                    false,
                ),
            };
            Ok((
                ColumnVec::Bool {
                    data,
                    validity: Validity::all_valid(n),
                },
                fell_back,
            ))
        }
        UnaryOp::Not => match col {
            ColumnVec::Bool { mut data, validity } => {
                for b in &mut data {
                    *b = !*b;
                }
                Ok((ColumnVec::Bool { data, validity }, false))
            }
            // NOT over any non-boolean value is Unknown (`as_truth`), so a
            // typed non-boolean lane maps to an all-NULL boolean column.
            col @ (ColumnVec::Int { .. }
            | ColumnVec::Float { .. }
            | ColumnVec::Date { .. }
            | ColumnVec::Str { .. }) => {
                let mut validity = Validity::with_capacity(n);
                for _ in 0..col.len() {
                    validity.push(false);
                }
                Ok((
                    ColumnVec::Bool {
                        data: vec![false; n],
                        validity,
                    },
                    false,
                ))
            }
            col @ ColumnVec::Values(_) => Ok((scalar_unary(op, col)?, true)),
        },
        UnaryOp::Neg => match col {
            // `i64::MIN` has no `Int` negation: a column holding it retries
            // on the scalar path, which makes that row a float.
            ColumnVec::Int { mut data, validity } if !data.contains(&i64::MIN) => {
                // Invalid slots hold 0, whose negation is itself, so the
                // whole slice negates unconditionally.
                for x in &mut data {
                    *x = -*x;
                }
                Ok((ColumnVec::Int { data, validity }, false))
            }
            ColumnVec::Float { mut data, validity } => {
                for x in &mut data {
                    *x = -*x;
                }
                Ok((ColumnVec::Float { data, validity }, false))
            }
            col => Ok((scalar_unary(op, col)?, true)),
        },
    }
}

fn scalar_unary(op: UnaryOp, mut col: ColumnVec) -> Result<ColumnVec> {
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_unary(op, col.take_value(i))?);
    }
    Ok(ColumnVec::Values(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Value;

    fn col(vals: &[Value]) -> ColumnVec {
        let first = vals.iter().find(|v| !v.is_null()).cloned();
        let mut c = match first {
            Some(v) => ColumnVec::typed_for(&v, vals.len()),
            None => ColumnVec::values_with_capacity(vals.len()),
        };
        for v in vals {
            c.push_value(v.clone());
        }
        c
    }

    fn values_col(vals: &[Value]) -> ColumnVec {
        ColumnVec::Values(vals.to_vec())
    }

    /// Every kernel output must equal applying the shared scalar operator
    /// row by row — on typed lanes, on `Values` lanes, and on the mixed
    /// pairings a `Values` slot (columnar off) meets against a typed
    /// literal broadcast. `Result`s are compared, so the row of the first
    /// error is pinned too.
    #[test]
    fn binary_kernels_match_scalar_semantics() {
        const TWO_53: i64 = 1 << 53;
        let ints = [
            Value::Int(1),
            Value::Null,
            Value::Int(TWO_53 + 1),
            Value::Int(-5),
            Value::Int(0),
        ];
        let floats = [
            Value::Float(1.0),
            Value::Float(TWO_53 as f64),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
        ];
        let dates = [
            Value::Date(1),
            Value::Date(-3),
            Value::Null,
            Value::Date(0),
            Value::Date(7),
        ];
        let bools = [
            Value::Bool(true),
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let strs = [
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::str(""),
            Value::str("a"),
        ];
        let mixed = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::str("x"),
            Value::Bool(true),
        ];
        let columns = [&ints, &floats, &dates, &bools, &strs, &mixed];
        let ops = [
            BinaryOp::Cmp(CompareOp::Eq),
            BinaryOp::Cmp(CompareOp::Neq),
            BinaryOp::Cmp(CompareOp::Lt),
            BinaryOp::Cmp(CompareOp::Le),
            BinaryOp::Cmp(CompareOp::Gt),
            BinaryOp::Cmp(CompareOp::Ge),
            BinaryOp::NullSafeEq,
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Mod,
            BinaryOp::Like,
            BinaryOp::NotLike,
            BinaryOp::Concat,
        ];
        for lrows in columns {
            for rrows in columns {
                for op in ops {
                    let expected: Result<Vec<Value>> = lrows
                        .iter()
                        .zip(rrows.iter())
                        .map(|(l, r)| apply_binary_scalar(op, l, r))
                        .collect();
                    // Typed × typed, then every pairing with the `Values`
                    // fallback lane on one side or both.
                    for (label, l, r) in [
                        ("typed x typed", col(lrows), col(rrows)),
                        ("values x values", values_col(lrows), values_col(rrows)),
                        ("values x typed", values_col(lrows), col(rrows)),
                        ("typed x values", col(lrows), values_col(rrows)),
                    ] {
                        let got = binary_column(op, l, r).map(|(c, _)| c.to_values());
                        assert_eq!(
                            got, expected,
                            "{op:?} ({label}) over {lrows:?} vs {rrows:?}"
                        );
                    }
                }
            }
        }
    }

    /// A conjunct narrowed in place over a lane — from an offset, with the
    /// constant on either side, under a selection — keeps exactly the rows
    /// the scalar comparison finds TRUE and marks exactly those it finds
    /// UNKNOWN; pairings with no typed path narrow nothing.
    #[test]
    fn narrow_compare_matches_scalar_semantics() {
        const TWO_53: i64 = 1 << 53;
        let lanes = [
            vec![
                Value::Int(TWO_53 + 1),
                Value::Int(1),
                Value::Null,
                Value::Int(TWO_53),
                Value::Int(-5),
                Value::Int(0),
            ],
            vec![
                Value::Float(f64::NAN),
                Value::Float(1.0),
                Value::Float(TWO_53 as f64),
                Value::Null,
                Value::Float(-0.0),
                Value::Float(0.5),
            ],
            vec![
                Value::Date(1),
                Value::Date(-3),
                Value::Null,
                Value::Date(0),
                Value::Date(7),
                Value::Date(1),
            ],
            vec![
                Value::Bool(true),
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Bool(false),
                Value::Bool(true),
            ],
            vec![
                Value::str("a"),
                Value::Null,
                Value::str("b"),
                Value::str(""),
                Value::str("a"),
                Value::str("c"),
            ],
        ];
        let constants = [
            Value::Null,
            Value::Int(1),
            Value::Int(TWO_53 + 1),
            Value::Float(TWO_53 as f64),
            Value::Float(f64::NAN),
            Value::Float(0.5),
            Value::Date(1),
            Value::Bool(true),
            Value::str("a"),
        ];
        let ops = [
            CompareOp::Eq,
            CompareOp::Neq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        let rows: Vec<perm_storage::Tuple> =
            (0..4).map(|_| perm_storage::Tuple::new(vec![])).collect();
        for lane in &lanes {
            let col = col(lane);
            for constant in &constants {
                for op in ops {
                    for lane_left in [true, false] {
                        for sel in [None, Some(&[0usize, 2, 3][..])] {
                            let batch = match sel {
                                None => Batch::dense(&rows),
                                Some(sel) => Batch::dense(&rows).narrow(sel),
                            };
                            let (start, mut live) = (2, LiveRows::default());
                            let at = Lane { col: &col, start };
                            if !narrow_compare(op, at, constant, lane_left, &batch, &mut live) {
                                assert!(!constant.is_null());
                                continue;
                            }
                            let got: Vec<Truth> = live.truths(&batch).collect();
                            let expected: Vec<Truth> = (0..batch.len())
                                .map(|k| {
                                    let v = &lane[start + batch.row_index(k)];
                                    match lane_left {
                                        true => perm_algebra::compare(op, v, constant),
                                        false => perm_algebra::compare(op, constant, v),
                                    }
                                })
                                .collect();
                            assert_eq!(
                                got, expected,
                                "{op:?} lane_left={lane_left} {constant:?} over {lane:?} {sel:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn int_overflow_retries_scalar_and_div_errors_in_row_order() {
        let l = col(&[Value::Int(1), Value::Int(i64::MAX)]);
        let r = col(&[Value::Int(1), Value::Int(1)]);
        let (out, fell_back) = binary_column(BinaryOp::Add, l, r).unwrap();
        assert!(fell_back, "overflow must reroute through the scalar path");
        assert_eq!(out.value_at(0), Value::Int(2));
        assert_eq!(out.value_at(1), Value::Float(i64::MAX as f64 + 1.0));

        // A NULL divisor yields NULL without erroring; the first *valid*
        // zero divisor raises, exactly like the row-major order.
        let l = col(&[Value::Float(1.0), Value::Float(2.0), Value::Float(3.0)]);
        let r = col(&[Value::Null, Value::Float(0.0), Value::Float(1.0)]);
        assert_eq!(
            binary_column(BinaryOp::Div, l, r),
            Err(ExecError::DivisionByZero)
        );
        let l = col(&[Value::Float(1.0), Value::Float(3.0)]);
        let r = col(&[Value::Null, Value::Float(2.0)]);
        let (out, fell_back) = binary_column(BinaryOp::Div, l, r).unwrap();
        assert!(!fell_back);
        assert_eq!(out.to_values(), vec![Value::Null, Value::Float(1.5)]);
    }

    #[test]
    fn unary_kernels_match_scalar_semantics() {
        let columns = [
            vec![Value::Int(3), Value::Null, Value::Int(-2)],
            vec![Value::Float(0.5), Value::Null, Value::Float(-0.0)],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Date(3), Value::Null, Value::Date(0)],
            vec![Value::str("x"), Value::Null, Value::str("")],
            vec![Value::Int(1), Value::str("y"), Value::Null],
            // `-i64::MIN` overflows the lane: the column retries scalar.
            vec![Value::Int(i64::MAX), Value::Null, Value::Int(i64::MIN)],
        ];
        for rows in &columns {
            for op in [UnaryOp::Not, UnaryOp::IsNull, UnaryOp::IsNotNull] {
                let expected: Result<Vec<Value>> =
                    rows.iter().map(|v| apply_unary(op, v.clone())).collect();
                let got = unary_column(op, col(rows)).map(|(c, _)| c.to_values());
                assert_eq!(got, expected, "{op:?} over {rows:?}");
            }
            // Neg errors on non-numeric lanes; compare results and errors.
            let expected: Result<Vec<Value>> = rows
                .iter()
                .map(|v| apply_unary(UnaryOp::Neg, v.clone()))
                .collect();
            let got = unary_column(UnaryOp::Neg, col(rows)).map(|(c, _)| c.to_values());
            assert_eq!(got, expected, "Neg over {rows:?}");
        }
    }
}
