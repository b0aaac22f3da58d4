//! Scalar expressions, comparison operators and sublink expressions.
//!
//! Sublinks are the algebraic representation of the SQL constructs `ANY`,
//! `ALL`, `EXISTS` and scalar subqueries (Figure 1 of the paper):
//!
//! * `A op ANY Tsub  ⇔  ∃ t ∈ Tsub : A op t`
//! * `A op ALL Tsub  ⇔  ∀ t ∈ Tsub : A op t`
//! * `EXISTS Tsub    ⇔  |Tsub| > 0`
//! * `Tsub` (scalar) — `Tsub` must produce at most one attribute/tuple and
//!   evaluates to that value (or NULL when empty).
//!
//! Column references are resolved *by name* at execution time against a
//! stack of binding scopes: the current operator input first, then the
//! inputs of enclosing operators (this is how correlated attribute references
//! are parameterised by the outer tuple, Section 2.2). The names are shared
//! [`Name`]s, so cloning an expression tree allocates no identifier.

use crate::plan::PlanRef;
use perm_storage::{Name, Truth, Value};
use std::fmt;

/// SQL comparison operators usable in sublink tests (`A op ANY Tsub`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    /// The negated comparison (`¬(a < b) ⇔ a >= b`).
    pub fn negate(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Neq,
            CompareOp::Neq => CompareOp::Eq,
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Ge => CompareOp::Lt,
        }
    }

    /// The mirrored comparison (`a < b ⇔ b > a`).
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Neq => CompareOp::Neq,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Neq => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary operators over scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    // arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    // comparisons (three-valued logic)
    Cmp(CompareOp),
    /// Null-safe equality `=n` used by the Gen strategy to join provenance
    /// attributes with the `CrossBase` (NULL matches NULL).
    NullSafeEq,
    // boolean connectives
    And,
    Or,
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like,
    /// SQL `NOT LIKE`.
    NotLike,
    /// String concatenation `||`.
    Concat,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryOp::Add => write!(f, "+"),
            BinaryOp::Sub => write!(f, "-"),
            BinaryOp::Mul => write!(f, "*"),
            BinaryOp::Div => write!(f, "/"),
            BinaryOp::Mod => write!(f, "%"),
            BinaryOp::Cmp(op) => write!(f, "{op}"),
            BinaryOp::NullSafeEq => write!(f, "=n"),
            BinaryOp::And => write!(f, "AND"),
            BinaryOp::Or => write!(f, "OR"),
            BinaryOp::Like => write!(f, "LIKE"),
            BinaryOp::NotLike => write!(f, "NOT LIKE"),
            BinaryOp::Concat => write!(f, "||"),
        }
    }
}

/// Compares two values with a SQL comparison operator under three-valued
/// logic: the one definition constant folding, both executor drivers, the
/// `ANY`/`ALL` probes and the provenance tracer evaluate.
#[inline]
pub fn compare(op: CompareOp, left: &Value, right: &Value) -> Truth {
    if left.is_null() || right.is_null() {
        return Truth::Unknown;
    }
    match op {
        CompareOp::Eq => left.sql_eq(right),
        CompareOp::Neq => left.sql_eq(right).not(),
        _ => match left.sql_cmp(right) {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(match op {
                CompareOp::Lt => ord.is_lt(),
                CompareOp::Le => ord.is_le(),
                CompareOp::Gt => ord.is_gt(),
                CompareOp::Ge => ord.is_ge(),
                CompareOp::Eq | CompareOp::Neq => unreachable!(),
            }),
        },
    }
}

/// Why [`arithmetic`] has no value to give: the executor reports these as
/// its own `Type` and `DivisionByZero` errors, with the same texts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithmeticError {
    /// An operand is not a number, or a date result does not fit.
    Type(String),
    /// `/` or `%` by zero.
    DivisionByZero,
}

/// Arithmetic with NULL propagation and integer/float coercion, for
/// `+ - * / %` alone (`op` is one of them).
#[inline]
pub fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, ArithmeticError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Same-type integer arithmetic is exact: the f64 route below is lossy
    // above 2⁵³ (`Int(2⁵³) + 1` would round back to 2⁵³, making `a + 1 = a`
    // TRUE under the engine's exact equality). Everything the checked ops
    // decline — overflow, `/` with a fractional quotient, zero divisors —
    // falls through to the float route and its error handling.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let exact = match op {
            BinaryOp::Add => a.checked_add(*b),
            BinaryOp::Sub => a.checked_sub(*b),
            BinaryOp::Mul => a.checked_mul(*b),
            // Division keeps its fractional float result (`7 / 2` is 3.5 in
            // this engine); only an integral quotient is exact here.
            BinaryOp::Div => match a.checked_rem(*b) {
                Some(0) => a.checked_div(*b),
                _ => None,
            },
            BinaryOp::Mod => a.checked_rem(*b),
            _ => None,
        };
        if let Some(i) = exact {
            return Ok(Value::Int(i));
        }
    }
    let (lf, rf) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(ArithmeticError::Type(format!(
                "arithmetic over non-numeric values `{l}` and `{r}`"
            )))
        }
    };
    // Date + integer days keeps the date type (needed for TPC-H interval
    // predicates like `o_orderdate < date '1995-01-01' + 90`).
    let date_result = matches!((l, r), (Value::Date(_), _) | (_, Value::Date(_)))
        && matches!(op, BinaryOp::Add | BinaryOp::Sub);
    let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
    let result = match op {
        BinaryOp::Add => lf + rf,
        BinaryOp::Sub => lf - rf,
        BinaryOp::Mul => lf * rf,
        BinaryOp::Div => {
            if rf == 0.0 {
                return Err(ArithmeticError::DivisionByZero);
            }
            lf / rf
        }
        BinaryOp::Mod => {
            if rf == 0.0 {
                return Err(ArithmeticError::DivisionByZero);
            }
            lf % rf
        }
        _ => unreachable!(),
    };
    if date_result {
        // A day count past `i32` is no date (PostgreSQL: `date out of
        // range`); the cast would saturate it into one.
        let days = result.trunc();
        if !(f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&days) {
            return Err(ArithmeticError::Type("date out of range".into()));
        }
        Ok(Value::Date(days as i32))
    } else if both_int && result.fract() == 0.0 && result.abs() < 9_223_372_036_854_775_808.0 {
        // Int/Int pairs only reach here past the exact path above, i.e. on
        // overflow or an inexact division; the range guard keeps overflowed
        // results as (approximate) floats instead of saturating the cast.
        Ok(Value::Int(result as i64))
    } else {
        Ok(Value::Float(result))
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Boolean negation (three-valued).
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL`.
    IsNull,
    /// `IS NOT NULL`.
    IsNotNull,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnaryOp::Not => write!(f, "NOT"),
            UnaryOp::Neg => write!(f, "-"),
            UnaryOp::IsNull => write!(f, "IS NULL"),
            UnaryOp::IsNotNull => write!(f, "IS NOT NULL"),
        }
    }
}

/// Built-in scalar functions needed by the TPC-H workload and the examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncName {
    /// `substring(string, start, length)` — 1-based start, like SQL.
    Substring,
    /// `abs(x)`.
    Abs,
    /// `coalesce(a, b, …)` — first non-NULL argument.
    Coalesce,
    /// `lower(s)`.
    Lower,
    /// `upper(s)`.
    Upper,
    /// `length(s)`.
    Length,
    /// `date(s)` — parse a `YYYY-MM-DD` literal.
    Date,
    /// `year(d)` — extract the year of a date.
    Year,
}

impl fmt::Display for FuncName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuncName::Substring => "substring",
            FuncName::Abs => "abs",
            FuncName::Coalesce => "coalesce",
            FuncName::Lower => "lower",
            FuncName::Upper => "upper",
            FuncName::Length => "length",
            FuncName::Date => "date",
            FuncName::Year => "year",
        };
        write!(f, "{s}")
    }
}

/// The four sublink kinds of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SublinkKind {
    /// `A op ANY (Tsub)` — existential quantification.
    Any,
    /// `A op ALL (Tsub)` — universal quantification.
    All,
    /// `EXISTS (Tsub)`.
    Exists,
    /// Scalar sublink `(Tsub)` used directly as a value.
    Scalar,
}

impl fmt::Display for SublinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SublinkKind::Any => "ANY",
            SublinkKind::All => "ALL",
            SublinkKind::Exists => "EXISTS",
            SublinkKind::Scalar => "SCALAR",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions supported by the [`crate::Plan::Aggregate`] operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    /// `count(*)` — counts tuples regardless of NULLs.
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::CountStar => "count(*)",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// One aggregate computation of an [`crate::Plan::Aggregate`] operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (ignored for `count(*)`).
    pub arg: Option<Expr>,
    /// Whether duplicates are eliminated before aggregating (`sum(DISTINCT x)`).
    pub distinct: bool,
    /// Output attribute name.
    pub alias: Name,
}

impl AggregateExpr {
    /// Creates an aggregate over an argument expression.
    pub fn new(func: AggFunc, arg: Expr, alias: impl Into<Name>) -> AggregateExpr {
        AggregateExpr {
            func,
            arg: Some(arg),
            distinct: false,
            alias: alias.into(),
        }
    }

    /// Creates a `count(*)` aggregate.
    pub fn count_star(alias: impl Into<Name>) -> AggregateExpr {
        AggregateExpr {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
            alias: alias.into(),
        }
    }

    /// Marks the aggregate as `DISTINCT`.
    pub fn distinct(mut self) -> AggregateExpr {
        self.distinct = true;
        self
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified (`r.a`). Resolved by name at
    /// execution time, searching the current scope first and then enclosing
    /// scopes (correlation).
    Column { qualifier: Option<Name>, name: Name },
    /// A constant.
    Literal(Value),
    /// A query parameter (`$1`, `$2`, … in SQL), stored as a 0-based index
    /// into the parameter vector supplied at execution time. Parameters are
    /// constant for the duration of one execution (like literals) but vary
    /// between executions of the same prepared plan, so the executor folds
    /// the referenced parameter values into its sublink memo keys.
    Param(usize),
    /// Binary operation.
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Scalar function call.
    Func { name: FuncName, args: Vec<Expr> },
    /// `CASE WHEN cond THEN value … ELSE value END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// A sublink (`Csub` in the paper): embeds a query plan `Tsub`.
    ///
    /// * `ANY`/`ALL` use `test_expr op ANY/ALL (plan)`.
    /// * `EXISTS` ignores `test_expr` and `op`.
    /// * `Scalar` evaluates to the single attribute of the single result
    ///   tuple of `plan` (NULL when the result is empty).
    Sublink {
        kind: SublinkKind,
        test_expr: Option<Box<Expr>>,
        op: Option<CompareOp>,
        plan: PlanRef,
    },
}

impl Expr {
    /// The output name a projection would give this expression when no alias
    /// is provided: column names propagate, everything else becomes a
    /// generated name.
    pub fn default_name(&self, position: usize) -> Name {
        match self {
            Expr::Column { name, .. } => *name,
            Expr::Func { name, .. } => name.to_string().into(),
            _ => format!("col{position}").into(),
        }
    }

    /// `true` when the expression tree contains at least one sublink.
    pub fn has_sublink(&self) -> bool {
        !self.all(&mut |e| !matches!(e, Expr::Sublink { .. }))
    }

    /// Pre-order traversal over the expression tree.
    ///
    /// **Scope rule.** A sublink's *test expression* belongs to the scope of
    /// the operator that holds the sublink, so the walk descends into it
    /// (after visiting the sublink itself); the sublink's *plan* is a scope
    /// of its own, so the walk does not enter it. [`Expr::all`],
    /// [`Expr::rewrite`], [`Expr::sublinks`] and [`Expr::column_refs`]
    /// follow the same rule.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.all(&mut |e| {
            f(e);
            true
        });
    }

    /// [`Expr::walk`] that stops at the first node `f` rejects: `true` when
    /// `f` holds for every node.
    pub fn all<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) -> bool {
        f(self)
            && match self {
                Expr::Binary { left, right, .. } => left.all(f) && right.all(f),
                Expr::Unary { expr, .. } => expr.all(f),
                Expr::Func { args, .. } => args.iter().all(|a| a.all(f)),
                Expr::Case {
                    branches,
                    else_expr,
                } => {
                    branches.iter().all(|(c, v)| c.all(f) && v.all(f))
                        && else_expr.as_deref().is_none_or(|e| e.all(f))
                }
                Expr::Sublink {
                    test_expr: Some(test),
                    ..
                } => test.all(f),
                Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::Sublink { .. } => {
                    true
                }
            }
    }

    /// Post-order rewrite by reference: `f` sees every node, its operands
    /// already rewritten, and returns its replacement or `None` to keep it.
    /// `None` when nothing changed; otherwise only the changed spine is
    /// rebuilt, and the operands beside it are cloned. Follows the scope
    /// rule of [`Expr::walk`]: a sublink's test expression is rewritten
    /// (before `f` sees the sublink), its plan is not — `f` replaces a
    /// sublink's plan itself where it wants to. Being post-order, it reaches
    /// a sublink nested in a test expression *before* the sublink holding
    /// it, the reverse of [`Expr::sublinks`]; sibling sublinks come in the
    /// same order in both.
    pub fn rewrite(&self, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
        let rebuilt = match self {
            Expr::Binary { op, left, right } => {
                rewrite_pair(left, right, f).map(|(left, right)| Expr::Binary {
                    op: *op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            Expr::Unary { op, expr } => expr.rewrite(f).map(|expr| Expr::Unary {
                op: *op,
                expr: Box::new(expr),
            }),
            Expr::Func { name, args } => {
                rewrite_all(args, |a| a.rewrite(f)).map(|args| Expr::Func { name: *name, args })
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                let new_branches = rewrite_all(branches, |(c, v)| rewrite_pair(c, v, f));
                let new_else = else_expr.as_deref().and_then(|e| e.rewrite(f));
                (new_branches.is_some() || new_else.is_some()).then(|| Expr::Case {
                    branches: new_branches.unwrap_or_else(|| branches.clone()),
                    else_expr: new_else.map(Box::new).or_else(|| else_expr.clone()),
                })
            }
            Expr::Sublink {
                kind,
                test_expr: Some(test),
                op,
                plan,
            } => test.rewrite(f).map(|test| Expr::Sublink {
                kind: *kind,
                test_expr: Some(Box::new(test)),
                op: *op,
                plan: plan.clone(),
            }),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::Sublink { .. } => None,
        };
        match rebuilt {
            Some(e) => Some(f(&e).unwrap_or(e)),
            None => f(self),
        }
    }

    /// Every sublink of the expression, in [`Expr::walk`] order: the ones
    /// nested in a sublink's test expression included (right after the
    /// sublink holding them), the ones inside sublink plans not.
    pub fn sublinks(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if matches!(e, Expr::Sublink { .. }) {
                out.push(e);
            }
        });
        out
    }

    /// Every column reference (qualifier, name) the expression makes in its
    /// own scope, in [`Expr::walk`] order: those in sublink test
    /// expressions included, those inside sublink plans not (see
    /// [`crate::visit::walk_column_refs`] for the ones escaping them).
    pub fn column_refs(&self) -> Vec<(Option<Name>, Name)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((*qualifier, *name));
            }
        });
        out
    }
}

/// Two operands through [`Expr::rewrite`]: `None` when neither changed.
fn rewrite_pair(
    a: &Expr,
    b: &Expr,
    f: &mut impl FnMut(&Expr) -> Option<Expr>,
) -> Option<(Expr, Expr)> {
    match (a.rewrite(f), b.rewrite(f)) {
        (None, None) => None,
        (new_a, new_b) => Some((
            new_a.unwrap_or_else(|| a.clone()),
            new_b.unwrap_or_else(|| b.clone()),
        )),
    }
}

/// `items` through `f`, copied only from the first one that changes:
/// `None` when none does.
pub(crate) fn rewrite_all<T: Clone>(
    items: &[T],
    mut f: impl FnMut(&T) -> Option<T>,
) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        let new = f(item);
        if new.is_some() && out.is_none() {
            out = Some(items[..i].to_vec());
        }
        if let Some(out) = &mut out {
            out.push(new.unwrap_or_else(|| item.clone()));
        }
    }
    out
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Param(index) => write!(f, "${}", index + 1),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::IsNull | UnaryOp::IsNotNull => write!(f, "({expr} {op})"),
                _ => write!(f, "({op} {expr})"),
            },
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Sublink {
                kind,
                test_expr,
                op,
                ..
            } => match kind {
                SublinkKind::Exists => write!(f, "EXISTS (<subquery>)"),
                SublinkKind::Scalar => write!(f, "(<subquery>)"),
                _ => {
                    let test = test_expr
                        .as_ref()
                        .map(|t| t.to_string())
                        .unwrap_or_default();
                    let op = op.map(|o| o.to_string()).unwrap_or_default();
                    write!(f, "({test} {op} {kind} (<subquery>))")
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lit};

    #[test]
    fn compare_op_negate_and_flip() {
        assert_eq!(CompareOp::Lt.negate(), CompareOp::Ge);
        assert_eq!(CompareOp::Eq.negate(), CompareOp::Neq);
        assert_eq!(CompareOp::Le.flip(), CompareOp::Ge);
        assert_eq!(CompareOp::Eq.flip(), CompareOp::Eq);
        for op in [
            CompareOp::Eq,
            CompareOp::Neq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn default_names() {
        assert_eq!(&*col("a").default_name(0), "a");
        assert_eq!(&*lit(1).default_name(3), "col3");
    }

    #[test]
    fn walk_and_column_refs() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(Expr::Binary {
                op: BinaryOp::Cmp(CompareOp::Eq),
                left: Box::new(col("a")),
                right: Box::new(lit(3)),
            }),
            right: Box::new(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(qcol_expr()),
            }),
        };
        let refs = e.column_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(&*refs[0].1, "a");
        assert_eq!(refs[1], (Some("r".into()), "b".into()));
        assert!(!e.has_sublink());
    }

    fn qcol_expr() -> Expr {
        Expr::Column {
            qualifier: Some("r".into()),
            name: "b".into(),
        }
    }

    #[test]
    fn rewrite_rewrites_leaves() {
        let e = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(col("x")),
            right: Box::new(lit(1)),
        };
        let out = e
            .rewrite(&mut |node| match node {
                Expr::Column { name, .. } if &**name == "x" => Some(col("y")),
                _ => None,
            })
            .unwrap();
        assert_eq!(&*out.column_refs()[0].1, "y");
        assert!(out.rewrite(&mut |_| None).is_none());
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::Binary {
            op: BinaryOp::Cmp(CompareOp::Ge),
            left: Box::new(col("a")),
            right: Box::new(Expr::Literal(Value::str("x"))),
        };
        assert_eq!(e.to_string(), "(a >= 'x')");
    }
}
